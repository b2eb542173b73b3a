(* devrt-sync: unsampled kernels whose host time goes to the device
   runtime and the SIMT scheduler rather than to global memory —
   closure-JIT arithmetic, fiber switches at barriers, atomics and the
   loop-schedule chunk calculators.  A change that only makes the
   global-access path cheaper should barely move this workload; a
   block-parallel executor would have to fall back to sequential
   simulation on its cross-block atomics.  Its eleven distinct programs
   are compiled in set-up, which gives the front end and translator
   their largest share of set-up time.

   Inputs come from the seed.  Every expected output is closed-form and
   exact in binary32: reduction terms are k/32 or small integers, and
   every partial sum stays below 2^24 units of its last place. *)

open Polybench

let reduce_src ~name ~ty ~op ~body ~init =
  Printf.sprintf
    {|
void %s(int n, int teams, %s x[], %s out[])
{
  %s r = %s;
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(128) \
      reduction(%s: r) map(to: n, x[0:n]) map(tofrom: r)
  for (int i = 0; i < n; i++)
    %s
  out[0] = r;
}
|}
    name ty ty ty init op body

(* Master/worker [parallel for] inside a bare target beside the
   combined construct on the same loop. *)
let mw_src =
  {|
void scale_combined(int n, int teams, float x[])
{
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(128) \
      map(to: n) map(tofrom: x[0:n])
  for (int i = 0; i < n; i++)
    x[i] = x[i] * 2.0f + 1.0f;
}

void scale_mw(int n, float x[])
{
  #pragma omp target map(to: n) map(tofrom: x[0:n])
  {
    #pragma omp parallel for
    for (int i = 0; i < n; i++)
      x[i] = x[i] * 2.0f + 1.0f;
  }
}
|}

(* x[i] = c + sum_{j<i} j/2 = c + i(i-1)/4: an imbalanced loop.  Every
   program of one runtime needs its own function names: kernel files
   are registered under them. *)
let tri_src name sched =
  Printf.sprintf
    {|
void %s(int n, float c, float x[])
{
  #pragma omp target teams distribute parallel for num_teams(1) num_threads(128) \
      schedule(%s) map(to: n, c) map(tofrom: x[0:n])
  for (int i = 0; i < n; i++) {
    float s = c;
    for (int j = 0; j < i; j++)
      s += j * 0.5f;
    x[i] = s;
  }
}
|}
    name sched

let barrier_src name nt =
  Printf.sprintf
    {|
void %s(int iters, float x[])
{
  #pragma omp target map(to: iters) map(tofrom: x[0:128])
  {
    #pragma omp parallel num_threads(%d)
    {
      for (int it = 0; it < iters; it++) {
        x[omp_get_thread_num()] += 1.0f;
        #pragma omp barrier
      }
    }
  }
}
|}
    name nt

let sections_src =
  {|
void secloop(int n, float x[])
{
  #pragma omp target map(to: n) map(tofrom: x[0:16])
  {
    #pragma omp parallel num_threads(96)
    {
      #pragma omp sections
      {
        #pragma omp section
        { for (int i = 0; i < n; i++) x[0] += 1.0f; }
        #pragma omp section
        { for (int i = 0; i < n; i++) x[1] += 1.0f; }
        #pragma omp section
        { for (int i = 0; i < n; i++) x[2] += 1.0f; }
      }
    }
  }
}
|}

type sizes = { red_n : int; mw_n : int; tri_n : int; bar_iters : int; sec_n : int }

let full = { red_n = 65536; mw_n = 16384; tri_n = 1536; bar_iters = 4000; sec_n = 50000 }

let smoke = { red_n = 4096; mw_n = 1024; tri_n = 192; bar_iters = 100; sec_n = 500 }

(* One kernel call: what to run and the values its output must hold.
   [c_read] reads the output back as floats (ints convert exactly). *)
type call = {
  c_name : string;
  c_run : unit -> unit;
  c_read : unit -> float array;
  c_expect : float array;
}

(* Programs in compile order, each with its calls. *)
let programs (sz : sizes) (rng : Random.State.t) (ctx : Harness.ctx) :
    (string * string * (Harness.omp_program -> call list)) list =
  let open Harness in
  let iptr a = Machine.Value.ptr ~ty:Machine.Cty.Int a in
  let ints n lo hi = Array.init n (fun _ -> lo + Random.State.int rng (hi - lo + 1)) in
  let f32_of_ints a = Array.map (fun k -> float_of_int k /. 32.0) a in
  let teams = 16 in
  let i32_input a =
    let p = alloc_i32 ctx (Array.length a) in
    Span.with_ "machine.fill" (fun () -> fill_i32 ctx p (Array.length a) (fun i -> a.(i)));
    p
  in
  let f32_input a =
    let p = alloc_f32 ctx (Array.length a) in
    Span.with_ "machine.fill" (fun () -> fill_f32 ctx p (Array.length a) (fun i -> a.(i)));
    p
  in
  let n = sz.red_n in
  let red_int ~name ~op ~body ~init ~vals ~expect =
    let x = i32_input vals and out = alloc_i32 ctx 1 in
    ( name,
      reduce_src ~name ~ty:"int" ~op ~body ~init,
      fun p ->
        [
          {
            c_name = name;
            c_run = (fun () -> call_omp p name [ vint n; vint teams; iptr x; iptr out ]);
            c_read = (fun () -> [| float_of_int (get_i32 ctx out 0) |]);
            c_expect = [| float_of_int expect |];
          };
        ] )
  in
  let ivals = ints n (-1000) 1000 in
  let mvals = ints n (-1_000_000) 1_000_000 in
  let kvals = ints n (-15) 15 in
  let fvals = f32_of_ints kvals in
  let red_f =
    let x = f32_input fvals and out = alloc_f32 ctx 1 in
    ( "red_fsum",
      reduce_src ~name:"red_fsum" ~ty:"float" ~op:"+" ~body:"r += x[i];" ~init:"0.0f",
      fun p ->
        [
          {
            c_name = "red_fsum";
            c_run = (fun () -> call_omp p "red_fsum" [ vint n; vint teams; fptr x; fptr out ]);
            c_read = (fun () -> [| get_f32 ctx out 0 |]);
            c_expect = [| float_of_int (Array.fold_left ( + ) 0 kvals) /. 32.0 |];
          };
        ] )
  in
  let mw =
    let m = sz.mw_n in
    let x0 = Array.map float_of_int (ints m (-64) 64) in
    let xc = f32_input x0 and xm = f32_input x0 in
    let once = Array.map (fun v -> (v *. 2.0) +. 1.0) x0 in
    ( "scale",
      mw_src,
      fun p ->
        [
          {
            c_name = "scale_combined";
            c_run =
              (fun () -> call_omp p "scale_combined" [ vint m; vint ((m + 127) / 128); fptr xc ]);
            c_read = (fun () -> read_f32_array ctx xc m);
            c_expect = once;
          };
          {
            c_name = "scale_mw";
            c_run = (fun () -> call_omp p "scale_mw" [ vint m; fptr xm ]);
            c_read = (fun () -> read_f32_array ctx xm m);
            c_expect = once;
          };
        ] )
  in
  let tri sched =
    let t = sz.tri_n in
    let c = float_of_int (Random.State.int rng 8) in
    let x = alloc_f32 ctx t in
    let label = "tri_" ^ List.hd (String.split_on_char ',' sched) in
    ( label,
      tri_src label sched,
      fun p ->
        [
          {
            c_name = label;
            c_run = (fun () -> call_omp p label [ vint t; vf32 c; fptr x ]);
            c_read = (fun () -> read_f32_array ctx x t);
            c_expect = Array.init t (fun i -> c +. (float_of_int (i * (i - 1)) /. 4.0));
          };
        ] )
  in
  let barrier nt =
    let x0 = Array.map float_of_int (ints 128 0 64) in
    let x = f32_input x0 in
    let label = Printf.sprintf "barrier_%d" nt in
    ( label,
      barrier_src label nt,
      fun p ->
        [
          {
            c_name = label;
            c_run = (fun () -> call_omp p label [ vint sz.bar_iters; fptr x ]);
            c_read = (fun () -> read_f32_array ctx x 128);
            c_expect =
              Array.mapi (fun t v -> if t < nt then v +. float_of_int sz.bar_iters else v) x0;
          };
        ] )
  in
  let sections =
    let x0 = Array.map float_of_int (ints 16 0 64) in
    let x = f32_input x0 in
    ( "sections",
      sections_src,
      fun p ->
        [
          {
            c_name = "sections";
            c_run = (fun () -> call_omp p "secloop" [ vint sz.sec_n; fptr x ]);
            c_read = (fun () -> read_f32_array ctx x 16);
            c_expect = Array.mapi (fun i v -> if i < 3 then v +. float_of_int sz.sec_n else v) x0;
          };
        ] )
  in
  [
    red_int ~name:"red_isum" ~op:"+" ~body:"r += x[i];" ~init:"0" ~vals:ivals
      ~expect:(Array.fold_left ( + ) 0 ivals);
    red_int ~name:"red_imax" ~op:"max" ~body:"if (x[i] > r) r = x[i];" ~init:"-2000000" ~vals:mvals
      ~expect:(Array.fold_left max min_int mvals);
    red_f;
    mw;
    tri "static";
    tri "dynamic, 16";
    tri "guided, 16";
    barrier 33;
    barrier 65;
    barrier 96;
    sections;
  ]

let pass ~seed ~smoke:is_smoke ~traced () : Probe.pass =
  let sz = if is_smoke then smoke else full in
  let (ctx, tr, progs, calls), setup_s =
    Probe.repeated_setup (fun () ->
        let rng = Random.State.make [| seed |] in
        let ctx = Harness.create () in
        Harness.set_sampling ctx None;
        let tr = if traced then Some (Harness.enable_trace ctx) else None in
        let progs = Span.with_ "polybench.reference" (fun () -> programs sz rng ctx) in
        let calls =
          List.concat_map
            (fun (name, src, mk) ->
              mk (Span.with_ "harness.prepare_omp" (fun () -> Harness.prepare_omp ctx ~name src)))
            progs
        in
        (ctx, tr, progs, calls))
  in
  let measured =
    List.map
      (fun c ->
        Probe.measured (fun () ->
            match Span.with_ "exec.ompi" (fun () -> Harness.measure ctx c.c_run) with
            | t -> (c, Ok t)
            | exception e -> (c, Error (Printexc.to_string e))))
      calls
  in
  let results = List.map (fun (r, _, _, _, _, _) -> r) measured in
  let units = List.map (fun ((c, _), t, ref_s, _, _, _) -> (c.c_name, t, ref_s)) measured in
  let words = List.fold_left (fun acc (_, _, _, w, _, _) -> acc +. w) 0.0 measured in
  let gc_minor = List.fold_left (fun acc (_, _, _, _, minor, _) -> acc + minor) 0 measured in
  let gc_major = List.fold_left (fun acc (_, _, _, _, _, major) -> acc + major) 0 measured in
  let failed = ref 0 and sim_s = ref 0.0 in
  let exact = ref [] and host = ref [] in
  let add_exact l = exact := Probe.sum_into !exact l in
  List.iter
    (fun (c, r) ->
      match r with
      | Ok t ->
        sim_s := !sim_s +. t;
        add_exact [ ("devrt." ^ c.c_name ^ "_sim_s", t) ];
        let ok () = Span.with_ "machine.read" c.c_read = c.c_expect in
        if not (Probe.guard ~what:(c.c_name ^ " output") ok) then incr failed
      | Error msg ->
        Printf.eprintf "check failed: %s raised %s\n%!" c.c_name msg;
        incr failed)
    results;
  add_exact (Probe.launch_counts (Harness.driver ctx).Gpusim.Driver.launches);
  add_exact (Probe.dataenv_counts (Harness.mem_stats ctx));
  add_exact (Probe.policy_counts (Harness.policy_decisions ctx));
  Option.iter (fun tr -> add_exact (Probe.trace_counts tr)) tr;
  add_exact [ ("sim_s", !sim_s) ];
  if traced then
    (* prepare_omp (set-up) ran the translator and nvcc; the measured
       calls ran the closure JIT at each module's first load. *)
    List.iter
      (fun (name, src, _) ->
        let c, counts = Layers.translate ~name src in
        let artifacts = Layers.nvcc c in
        Layers.front_end_stages src;
        let fns = Span.with_ "inside.ompi" (fun () -> Layers.jit artifacts) in
        host := Probe.sum_into !host (counts @ fns))
      progs;
  {
    Probe.setup_s;
    units;
    words;
    gc_minor;
    gc_major;
    sim_s = !sim_s;
    attempted = List.length results;
    failed = !failed;
    exact = !exact;
    host = !host;
    notes = [];
  }
