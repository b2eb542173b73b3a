(* The compile layers, timed from outside by calling their public
   functions one at a time, and the host-clock layer numbers read back
   from the traced pass's spans. *)

(* The stages [Translator.Pipeline.compile_source] chains, one call
   each; [Ompi.compile] runs them all as one call. *)
let front_end_stages source : unit =
  let program = Span.with_ "minic.parse" (fun () -> Minic.Parser.parse_program source) in
  let program =
    Span.with_ "omp.rewrite" (fun () ->
        let p = Omp.Rewrite.rewrite_program program in
        ignore (Omp.Validate.check_program p);
        p)
  in
  Span.with_ "minic.typecheck" (fun () -> ignore (Minic.Typecheck.check_program program));
  Span.with_ "translator.translate" (fun () ->
      let out = Translator.Pipeline.translate program in
      ignore (Minic.Pretty.program_to_string out.Translator.Pipeline.out_host);
      List.iter
        (fun (k : Translator.Kernelgen.kernel) ->
          ignore (Minic.Pretty.program_to_string k.Translator.Kernelgen.k_program))
        out.Translator.Pipeline.out_kernels)

(* The translator as [Harness.prepare_omp] calls it, with the count and
   size of the kernel files it emits. *)
let translate ~name source : Ompi.compiled * (string * float) list =
  let c = Span.with_ "translator.compile" (fun () -> Ompi.compile ~name source) in
  let bytes =
    List.fold_left (fun acc (_, text) -> acc + String.length text) 0 c.Ompi.c_kernel_texts
  in
  (c, [ ("translator.kernels", float_of_int (List.length c.Ompi.c_kernels));
        ("translator.kernel_text_bytes", float_of_int bytes) ])

let nvcc (c : Ompi.compiled) : Gpusim.Nvcc.artifact list =
  List.map
    (fun (k : Translator.Kernelgen.kernel) ->
      Span.with_ "nvcc.compile" (fun () ->
          Gpusim.Nvcc.compile ~mode:Gpusim.Nvcc.Cubin ~name:k.Translator.Kernelgen.k_entry
            k.Translator.Kernelgen.k_program))
    c.Ompi.c_kernels

(* The closure JIT that [Driver.load_module] runs on each artifact. *)
let jit (artifacts : Gpusim.Nvcc.artifact list) : (string * float) list =
  let fns =
    List.fold_left
      (fun acc (a : Gpusim.Nvcc.artifact) ->
        let source = Gpusim.Simt.kernel_source_of_program a.Gpusim.Nvcc.art_program in
        Gpusim.Simt.ensure_dim3 source.Gpusim.Simt.ks_structs;
        let c =
          Span.with_ "jit.compile" (fun () ->
              Cinterp.Jit.compile ~structs:source.Gpusim.Simt.ks_structs
                ~funcs:source.Gpusim.Simt.ks_funcs)
        in
        acc + Cinterp.Jit.function_count c)
      0 artifacts
  in
  [ ("jit.functions", float_of_int fns) ]

(* A hand-written CUDA source as [Harness.cuda_module] takes it. *)
let cuda_compile ~name source : (string * float) list =
  let program = Minic.Parser.parse_program source in
  ignore (Minic.Typecheck.check_program ~cuda:true program);
  let artifact =
    Span.with_ "nvcc.compile" (fun () -> Gpusim.Nvcc.compile ~mode:Gpusim.Nvcc.Cubin ~name program)
  in
  jit [ artifact ]

(* Host seconds and words of the layers recorded as spans.  The executor
   is a stated subtraction: what the measured calls of each variant
   ([exec.<v>] spans) spent beyond the separately timed compile, fill
   and read work of the same calls ([inside.<v>] spans). *)
let host_metrics (spans : Span.span list) : (string * float) list =
  let s name = Span.seconds spans name in
  let mw name = snd (Span.total spans name) /. 1e6 in
  let exec v = s ("exec." ^ v) -. s ("inside." ^ v) in
  let ompi = exec "ompi" and cuda = exec "cuda" in
  [
    ("translator.compile_s", s "translator.compile");
    ("translator.compile_mwords", mw "translator.compile");
    ("minic.parse_s", s "minic.parse");
    ("omp.rewrite_s", s "omp.rewrite");
    ("minic.typecheck_s", s "minic.typecheck");
    ("translator.translate_s", s "translator.translate");
    ("nvcc.compile_s", s "nvcc.compile");
    ("jit.compile_s", s "jit.compile");
    ("machine.fill_s", s "machine.fill");
    ("machine.fill_mwords", mw "machine.fill");
    ("machine.read_s", s "machine.read");
    ("exec.ompi_s", ompi);
    ("exec.cuda_s", cuda);
    ("exec.host_overhead_s", if cuda > 0.0 then ompi -. cuda else 0.0);
    ( "exec.mwords",
      mw "exec.ompi" +. mw "exec.cuda" -. mw "inside.ompi" -. mw "inside.cuda" );
    ("polybench.reference_s", Span.self_seconds spans "polybench.reference");
    ("serve.run_s", s "serve.run");
  ]
