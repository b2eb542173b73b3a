(* Translator tests: outlining, combined-construct lowering, the
   master/worker transformation, host-side code generation, and
   diagnostics for unsupported inputs. *)

open Minic
open Translator

let compile src = Pipeline.compile_source ~name:"t" src

let kernel_text compiled name = List.assoc name compiled.Pipeline.c_kernel_texts

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let assert_contains text needle =
  if not (contains text needle) then Alcotest.failf "expected to find %S in:\n%s" needle text

let assert_not_contains text needle =
  if contains text needle then Alcotest.failf "did not expect %S in:\n%s" needle text

(* ----------------------- combined constructs ----------------------- *)

let combined_src =
  {|
void f(int n, float a[], float b[])
{
  #pragma omp target teams distribute parallel for num_teams(8) num_threads(128) \
      map(to: n, a[0:n]) map(tofrom: b[0:n])
  for (int i = 0; i < n; i++)
    b[i] = a[i] * 2.0f;
}
|}

let test_combined_structure () =
  let c = compile combined_src in
  Alcotest.(check int) "one kernel" 1 (List.length c.Pipeline.c_kernels);
  let k = List.hd c.Pipeline.c_kernels in
  Alcotest.(check string) "kernel name" "f_kernel0" k.Kernelgen.k_entry;
  Alcotest.(check bool) "combined mode" true (k.Kernelgen.k_mode = Kernelgen.Combined);
  let text = kernel_text c "f_kernel0" in
  assert_contains text "cudadev_get_distribute_chunk";
  assert_contains text "cudadev_get_static_chunk";
  assert_not_contains text "cudadev_workerfunc";
  (* mapped read-only scalar is pre-loaded into a local *)
  assert_contains text "int _loc_n = *n;";
  (* host side maps in clause order and offloads *)
  assert_contains c.Pipeline.c_host_text "ort_map(-1, (void *)&n, sizeof(int), 1)";
  assert_contains c.Pipeline.c_host_text "ort_map(-1, (void *)b, n * sizeof(float), 3)";
  assert_contains c.Pipeline.c_host_text "ort_offload(-1, \"f_kernel0\", \"f_kernel0\", 8, 128";
  assert_contains c.Pipeline.c_host_text "ort_unmap(-1, (void *)b, 3)"

let test_collapse () =
  let c =
    compile
      {|
void g(int n, float m[])
{
  #pragma omp target teams distribute parallel for collapse(2) map(to: n) map(tofrom: m[0:n*n])
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      m[i * n + j] = i + j;
}
|}
  in
  let text = kernel_text c "g_kernel0" in
  (* index recovery for both loop variables *)
  assert_contains text "int i =";
  assert_contains text "int j =";
  (* carry-chain strength reduction instead of per-iteration div/mod *)
  assert_contains text "j >="

let test_schedules_codegen () =
  let src sched =
    Printf.sprintf
      {|
void h(int n, float x[])
{
  #pragma omp target teams distribute parallel for schedule(%s) map(to: n) map(tofrom: x[0:n])
  for (int i = 0; i < n; i++)
    x[i] = i;
}
|}
      sched
  in
  assert_contains (kernel_text (compile (src "dynamic, 4")) "h_kernel0") "cudadev_get_dynamic_chunk";
  assert_contains (kernel_text (compile (src "guided, 4")) "h_kernel0") "cudadev_get_guided_chunk";
  assert_contains (kernel_text (compile (src "static, 4")) "h_kernel0") "omp_get_num_threads";
  let static_text = kernel_text (compile (src "static")) "h_kernel0" in
  assert_not_contains static_text "cudadev_get_dynamic_chunk"

let test_reduction_codegen () =
  let c =
    compile
      {|
void dot(int n, float a[], float b[], float result)
{
  #pragma omp target teams distribute parallel for reduction(+: result) \
      map(to: n, a[0:n], b[0:n]) map(tofrom: result)
  for (int i = 0; i < n; i++)
    result += a[i] * b[i];
}
|}
  in
  let text = kernel_text c "dot_kernel0" in
  assert_contains text "float _red_result = 0";
  (* per-team shared-memory tree: slot store, barrier ladder, pairwise
     combine, and a single thread-0 atomic publish per team *)
  assert_contains text "__shared__ float _redsh_result[1024]";
  assert_contains text "_redsh_result[_rtid] = _red_result";
  assert_contains text "cudadev_barrier(0)";
  assert_contains text "if (_rtid < _rs && _rtid + _rs < _rnum)";
  assert_contains text "_redsh_result[_rtid] = _redsh_result[_rtid] + _redsh_result[_rtid + _rs]";
  assert_contains text "if (_rtid == 0)";
  assert_contains text "cudadev_reduce_fadd(result, _redsh_result[0])"

let test_default_teams () =
  let c =
    compile
      {|
void h(int n, float x[])
{
  #pragma omp target teams distribute parallel for map(to: n) map(tofrom: x[0:n])
  for (int i = 0; i < n; i++)
    x[i] = i;
}
|}
  in
  (* without num_teams the host computes ceil(total / threads) *)
  assert_contains c.Pipeline.c_host_text "(n + 128 - 1) / 128"

(* ----------------------- master/worker ----------------------- *)

let mw_src =
  {|
void f(int x[])
{
  #pragma omp target map(tofrom: x[0:96])
  {
    int i = 2;
    #pragma omp parallel num_threads(96)
    {
      x[omp_get_thread_num()] = i + 1;
    }
    printf("done %d\n", x[0]);
  }
}
|}

let test_masterworker_structure () =
  let c = compile mw_src in
  let k = List.hd c.Pipeline.c_kernels in
  Alcotest.(check bool) "master/worker mode" true (k.Kernelgen.k_mode = Kernelgen.Masterworker);
  let text = kernel_text c "f_kernel0" in
  (* the Fig. 3 skeleton *)
  assert_contains text "cudadev_in_masterwarp(_mw_thrid)";
  assert_contains text "cudadev_is_masterthr(_mw_thrid)";
  assert_contains text "cudadev_workerfunc(_mw_thrid)";
  assert_contains text "cudadev_exit_target()";
  (* shared variable staged through the shared-memory stack *)
  assert_contains text "__shared__ struct _vars_st";
  assert_contains text "cudadev_push_shmem(&i, sizeof(i))";
  assert_contains text "cudadev_pop_shmem(&i, sizeof(i))";
  assert_contains text "cudadev_register_parallel(_thrFunc";
  (* mapped array goes through getaddr *)
  assert_contains text "cudadev_getaddr(x)";
  (* thread function dereferences the vars struct *)
  assert_contains text "_vars->x";
  assert_contains text "*_vars->i";
  (* host launches a single team of 128 threads *)
  assert_contains c.Pipeline.c_host_text "\"f_kernel0\", 1, 128"

let test_worksharing_in_parallel () =
  let c =
    compile
      {|
void f(int n, float x[])
{
  #pragma omp target map(to: n) map(tofrom: x[0:n])
  {
    #pragma omp parallel
    {
      #pragma omp for
      for (int i = 0; i < n; i++)
        x[i] = i;
      #pragma omp single
      { x[0] = -1.0f; }
      #pragma omp barrier
      #pragma omp critical
      { x[1] = x[1] + 1.0f; }
    }
  }
}
|}
  in
  let text = kernel_text c "f_kernel0" in
  assert_contains text "cudadev_get_static_chunk";
  assert_contains text "omp_get_thread_num() == 0"; (* single -> if-master *)
  assert_contains text "cudadev_barrier(0)";
  assert_contains text "cudadev_lock(&_ompi_lock_default)";
  assert_contains text "cudadev_unlock(&_ompi_lock_default)";
  assert_contains text "int _ompi_lock_default;"

let test_sections_codegen () =
  let c =
    compile
      {|
void f(float x[])
{
  #pragma omp target map(tofrom: x[0:4])
  {
    #pragma omp parallel num_threads(8)
    {
      #pragma omp sections
      {
        #pragma omp section
        { x[0] = 1.0f; }
        #pragma omp section
        { x[1] = 2.0f; }
      }
    }
  }
}
|}
  in
  let text = kernel_text c "f_kernel0" in
  assert_contains text "cudadev_sections_next";
  assert_contains text "cudadev_ws_barrier"

let test_callgraph_injection () =
  let c =
    compile
      {|
float square(float v) { return v * v; }
float affine(float v) { return square(v) + 1.0f; }

void f(int n, float x[])
{
  #pragma omp target teams distribute parallel for map(to: n) map(tofrom: x[0:n])
  for (int i = 0; i < n; i++)
    x[i] = affine(x[i]);
}
|}
  in
  let text = kernel_text c "f_kernel0" in
  (* transitive call graph lands in the kernel file *)
  assert_contains text "float affine(float v)";
  assert_contains text "float square(float v)"

(* ----------------------- data directives ----------------------- *)

let test_target_data_lowering () =
  let c =
    compile
      {|
void f(int n, float x[])
{
  #pragma omp target data map(to: x[0:n]) map(to: n)
  {
    #pragma omp target teams distribute parallel for map(to: n, x[0:n])
    for (int i = 0; i < n; i++)
      x[i];
  }
}
|}
  in
  ignore c
  (* just verifying it compiles; semantics covered by end-to-end tests *)

let test_enter_exit_update () =
  let c =
    compile
      {|
void f(int n, float x[])
{
  #pragma omp target enter data map(to: x[0:n])
  #pragma omp target update from(x[0:n])
  #pragma omp target update to(x[0:n])
  #pragma omp target exit data map(from: x[0:n])
}
|}
  in
  assert_contains c.Pipeline.c_host_text "ort_map(-1, (void *)x, n * sizeof(float), 1)";
  assert_contains c.Pipeline.c_host_text "ort_update_from(-1, (void *)x, n * sizeof(float))";
  assert_contains c.Pipeline.c_host_text "ort_update_to(-1, (void *)x, n * sizeof(float))";
  assert_contains c.Pipeline.c_host_text "ort_unmap(-1, (void *)x, 2)"

let test_if_clause_fallback () =
  let c =
    compile
      {|
void f(int n, float x[])
{
  #pragma omp target if(n > 100) map(to: n) map(tofrom: x[0:n])
  {
    #pragma omp parallel for
    for (int i = 0; i < n; i++)
      x[i] = i;
  }
}
|}
  in
  (* both the offload path and a stripped sequential fallback *)
  assert_contains c.Pipeline.c_host_text "if (n > 100)";
  assert_contains c.Pipeline.c_host_text "ort_offload";
  assert_contains c.Pipeline.c_host_text "else"

let test_host_parallel_stripped () =
  let c =
    compile
      {|
int main(void)
{
  int s = 0;
  #pragma omp parallel for
  for (int i = 0; i < 10; i++)
    s += i;
  return s;
}
|}
  in
  Alcotest.(check int) "no kernels for host regions" 0 (List.length c.Pipeline.c_kernels);
  assert_not_contains c.Pipeline.c_host_text "#pragma"

(* ----------------------- diagnostics ----------------------- *)

let fails_with src =
  match compile src with
  | exception Pipeline.Translate_error _ -> true
  | exception Region.Unsupported _ -> true
  | exception Loops.Not_canonical _ -> true
  | _ -> false

let test_diagnostics () =
  Alcotest.(check bool) "unmapped pointer" true
    (fails_with
       "void f(int n, float *x) {\n#pragma omp target teams distribute parallel for map(to: n)\nfor (int i = 0; i < n; i++) x[i] = i;\n}");
  Alcotest.(check bool) "non-canonical loop" true
    (fails_with
       "void f(int n, float x[]) {\n#pragma omp target teams distribute parallel for map(to: n) map(tofrom: x[0:n])\nfor (int i = n; i != 0; i = i / 2) x[i] = i;\n}");
  Alcotest.(check bool) "nested parallel" true
    (fails_with
       "void f(float x[]) {\n#pragma omp target map(tofrom: x[0:4])\n{\n#pragma omp parallel\n{\n#pragma omp parallel\n{ x[0] = 1.0f; }\n}\n}\n}");
  Alcotest.(check bool) "call to undefined function in kernel" true
    (fails_with
       "void f(float x[]) {\n#pragma omp target map(tofrom: x[0:4])\n{ x[0] = external_thing(); }\n}")

let test_strip () =
  let prog =
    Omp.Rewrite.rewrite_program
      (Parser.parse_program
         "int main(void) {\nint s = 0;\n#pragma omp parallel\n{\n#pragma omp sections\n{\n#pragma omp section\n{ s += 1; }\n#pragma omp section\n{ s += 2; }\n}\n}\nreturn s;\n}")
  in
  let stripped = Strip.strip_program prog in
  let text = Pretty.program_to_string stripped in
  assert_not_contains text "#pragma";
  assert_contains text "s += 1";
  assert_contains text "s += 2"



let test_dist_schedule_codegen () =
  let c =
    compile
      {|
void h(int n, float x[])
{
  #pragma omp target teams distribute parallel for dist_schedule(static, 8) \
      map(to: n) map(tofrom: x[0:n])
  for (int i = 0; i < n; i++)
    x[i] = i;
}
|}
  in
  let text = kernel_text c "h_kernel0" in
  assert_contains text "cudadev_get_distribute_cyclic";
  assert_not_contains text "cudadev_get_distribute_chunk(";
  (* unsupported combination is rejected, not miscompiled *)
  Alcotest.(check bool) "dist_schedule + dynamic rejected" true
    (fails_with
       "void h(int n, float x[]) {\n#pragma omp target teams distribute parallel for dist_schedule(static, 8) schedule(dynamic, 4) map(to: n) map(tofrom: x[0:n])\nfor (int i = 0; i < n; i++) x[i] = i;\n}")

let () =
  Alcotest.run "translator"
    [
      ( "combined",
        [
          Alcotest.test_case "structure and host calls" `Quick test_combined_structure;
          Alcotest.test_case "collapse" `Quick test_collapse;
          Alcotest.test_case "schedule codegen" `Quick test_schedules_codegen;
          Alcotest.test_case "reduction codegen" `Quick test_reduction_codegen;
          Alcotest.test_case "default num_teams" `Quick test_default_teams;
          Alcotest.test_case "dist_schedule codegen" `Quick test_dist_schedule_codegen;
        ] );
      ( "masterworker",
        [
          Alcotest.test_case "Fig.3 structure" `Quick test_masterworker_structure;
          Alcotest.test_case "worksharing in parallel" `Quick test_worksharing_in_parallel;
          Alcotest.test_case "sections" `Quick test_sections_codegen;
          Alcotest.test_case "call-graph injection" `Quick test_callgraph_injection;
        ] );
      ( "data directives",
        [
          Alcotest.test_case "target data" `Quick test_target_data_lowering;
          Alcotest.test_case "enter/exit/update" `Quick test_enter_exit_update;
          Alcotest.test_case "if clause host fallback" `Quick test_if_clause_fallback;
          Alcotest.test_case "host parallel stripped" `Quick test_host_parallel_stripped;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "unsupported constructs" `Quick test_diagnostics;
          Alcotest.test_case "sequential strip" `Quick test_strip;
        ] );
    ]
