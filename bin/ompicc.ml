(* ompicc — the source-to-source compiler CLI (paper Fig. 2).

   Takes a C file with OpenMP directives and emits:
   - <stem>_host.c       the translated host program (ort_* calls), and
   - <kernel>.cu         one CUDA C file per target region,
   exactly the artefact layout OMPi produces before handing the kernel
   files to nvcc.  With --run the program is also executed on the
   simulated Jetson Nano. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let compile_cmd input output_dir binary_mode run entry show =
  try
    let source = read_file input in
    let stem = Filename.remove_extension (Filename.basename input) in
    let mode =
      match binary_mode with
      | "ptx" -> Gpusim.Nvcc.Ptx
      | "cubin" -> Gpusim.Nvcc.Cubin
      | m ->
        prerr_endline ("unknown binary mode '" ^ m ^ "' (expected ptx or cubin)");
        exit 2
    in
    let config = { Ompi.default_config with binary_mode = mode } in
    let compiled = Ompi.compile ~config ~name:stem source in
    if show then begin
      print_endline "/* ---------------- translated host file ---------------- */";
      print_string compiled.Ompi.c_host_text;
      List.iter
        (fun (name, text) ->
          Printf.printf "/* ---------------- kernel file %s.cu ---------------- */\n%s" name text)
        compiled.Ompi.c_kernel_texts
    end;
    let files = Ompi.emit_files compiled ~dir:output_dir in
    List.iter (fun f -> Printf.eprintf "wrote %s\n" f) files;
    Printf.eprintf "%d kernel file(s) generated (mode: %s)\n"
      (List.length compiled.Ompi.c_kernel_texts)
      binary_mode;
    if run then begin
      let instance = Ompi.load ~config compiled in
      let result = Ompi.run instance ~entry () in
      print_string result.Ompi.run_output;
      Printf.eprintf "[simulated time: %.6f s, %d kernel launch(es), exit %d]\n"
        result.Ompi.run_time_s result.Ompi.run_kernel_launches result.Ompi.run_exit;
      exit result.Ompi.run_exit
    end
  with
  | Minic.Lexer.Lex_error (msg, loc) ->
    Printf.eprintf "%s:%d:%d: lexical error: %s\n" input loc.Minic.Token.line loc.Minic.Token.col msg;
    exit 1
  | Minic.Parser.Parse_error (msg, loc) ->
    Printf.eprintf "%s:%d:%d: syntax error: %s\n" input loc.Minic.Token.line loc.Minic.Token.col msg;
    exit 1
  | Omp.Pragma_parser.Pragma_error msg ->
    Printf.eprintf "%s: OpenMP pragma error: %s\n" input msg;
    exit 1
  | Translator.Pipeline.Translate_error msg | Translator.Region.Unsupported msg ->
    Printf.eprintf "%s: translation error: %s\n" input msg;
    exit 1

let input_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c" ~doc:"OpenMP C source file")

let output_arg =
  Arg.(value & opt string "." & info [ "o"; "output-dir" ] ~docv:"DIR" ~doc:"Output directory")

let mode_arg =
  Arg.(
    value
    & opt string "cubin"
    & info [ "b"; "binary-mode" ] ~docv:"MODE" ~doc:"Kernel binary mode: cubin (default) or ptx")

let run_arg = Arg.(value & flag & info [ "r"; "run" ] ~doc:"Execute on the simulated Jetson Nano after compiling")

let entry_arg = Arg.(value & opt string "main" & info [ "e"; "entry" ] ~docv:"FN" ~doc:"Entry function for --run")

let show_arg = Arg.(value & flag & info [ "s"; "show" ] ~doc:"Print the generated files to stdout")

let cmd =
  let doc = "OMPi-style OpenMP-to-CUDA source-to-source compiler for the simulated Jetson Nano" in
  Cmd.v
    (Cmd.info "ompicc" ~doc)
    Term.(const compile_cmd $ input_arg $ output_arg $ mode_arg $ run_arg $ entry_arg $ show_arg)

let () = exit (Cmd.eval cmd)
