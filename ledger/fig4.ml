(* fig4: the six Fig. 4 applications, each run once as hand-written CUDA
   and once as OMPi CUDADEV through [Suite] [ap_run], on a fresh runtime
   per point with the sweep's block sampling — the same calls
   [Suite.sweep] makes, so each point's simulated time is the sweep's.

   The sizes keep one pass to four to six seconds on a 2-vCPU host, so
   that a 30-second run takes the median of five or more passes:
   3dconv, gemm and gramschmidt at sizes of the Fig. 4 sweep, bicg, atax
   and mvt at half the sweep's smallest.  bicg, atax, mvt and gemm spend
   their host time in the executor's global-access and coalescing path;
   3dconv is bound by host-array fill and transfer copying; gramschmidt
   (which simulates every k iteration up to n=64, hence not smaller)
   exercises the launch path.  Inputs are the applications' fixed
   formulas, so the seed does not change them. *)

open Polybench

let sizes =
  [
    ("3dconv", 128); ("bicg", 256); ("atax", 256);
    ("mvt", 256); ("gemm", 256); ("gramschmidt", 128);
  ]

let smoke_sizes =
  [ ("3dconv", 24); ("bicg", 96); ("atax", 96); ("mvt", 96); ("gemm", 48); ("gramschmidt", 32) ]

(* The block sampling of the Fig. 4 sweep in bench/main.ml. *)
let sample_blocks (app : Suite.app) = if app.Suite.ap_name = "gramschmidt" then Some 1 else Some 2

let variants = [ Harness.Cuda; Harness.Ompi_cudadev ]

let vname = function
  | Harness.Cuda -> "cuda"
  | Harness.Ompi_cudadev -> "ompi"
  | Harness.Host_interp -> "host"

(* The OpenMP and CUDA sources each application compiles inside ap_run. *)
let sources = function
  | "3dconv" -> (Conv3d.omp_source, Conv3d.cuda_source)
  | "bicg" -> (Bicg.omp_source, Bicg.cuda_source)
  | "atax" -> (Atax.omp_source, Atax.cuda_source)
  | "mvt" -> (Mvt.omp_source, Mvt.cuda_source)
  | "gemm" -> (Gemm.omp_source, Gemm.cuda_source)
  | "gramschmidt" -> (Gramschmidt.omp_source, Gramschmidt.cuda_source)
  | name -> invalid_arg ("fig4: no sources for " ^ name)

(* Host float arrays each application allocates, fills and reads back,
   in elements, as its fill_inputs and result readers do. *)
let extents name n =
  let n2 = n * n and n3 = n * n * n in
  match name with
  | "3dconv" -> ([ n3; n3 ], [ n3 ], [ n3 ])
  | "bicg" -> ([ n2; n; n; n; n ], [ n2; n; n ], [ n; n ])
  | "atax" -> ([ n2; n; n; n ], [ n2; n ], [ n ])
  | "mvt" -> ([ n2; n; n; n; n ], [ n2; n; n; n; n ], [ n; n ])
  | "gemm" -> ([ n2; n2; n2 ], [ n2; n2; n2 ], [ n2 ])
  | "gramschmidt" -> ([ n2; n2; n2 ], [ n2 ], [ n2; n2; n2 ])
  | name -> invalid_arg ("fig4: no extents for " ^ name)

let points ~smoke =
  List.concat_map
    (fun (app : Suite.app) ->
      let n = List.assoc app.Suite.ap_name (if smoke then smoke_sizes else sizes) in
      List.map (fun v -> (app, v, n)) variants)
    Suite.all

let fresh_ctx (app : Suite.app) =
  let ctx = Harness.create () in
  Harness.set_sampling ctx (sample_blocks app);
  Harness.set_translated_penalty ctx app.Suite.ap_penalty;
  ctx

(* Host memory: allocate, fill and read back the application's extents
   on a scratch runtime. *)
let machine_layers (app : Suite.app) n =
  let allocs, fills, reads = extents app.Suite.ap_name n in
  let ctx = Harness.create () in
  let arrays =
    Span.with_ "machine.fill" (fun () ->
        let arrays = List.map (Harness.alloc_f32 ctx) allocs in
        List.iteri
          (fun i len ->
            Harness.fill_f32 ctx (List.nth arrays i) len (fun t ->
                Refmath.r32 (float_of_int (t mod 13) /. 13.0)))
          fills;
        arrays)
  in
  Span.with_ "machine.read" (fun () ->
      List.iteri (fun i len -> ignore (Harness.read_f32_array ctx (List.nth arrays i) len)) reads)

(* The compile, fill and read work inside one point's ap_run, timed
   again from outside, plus the translator's stages one by one. *)
let inside_layers (app : Suite.app) v n : (string * float) list =
  let name = app.Suite.ap_name in
  let omp_src, cuda_src = sources name in
  let counts =
    Span.with_ ("inside." ^ vname v) (fun () ->
        let counts =
          match v with
          | Harness.Cuda -> Layers.cuda_compile ~name:(name ^ "_cuda") cuda_src
          | _ ->
            let c, counts = Layers.translate ~name omp_src in
            counts @ Layers.jit (Layers.nvcc c)
        in
        machine_layers app n;
        counts)
  in
  if v = Harness.Ompi_cudadev then Layers.front_end_stages omp_src;
  counts

(* -------------------------------------------------------------- *)
(* One pass                                                         *)
(* -------------------------------------------------------------- *)

(* Points run one after another, each on its own runtime that is
   dropped before the next, as in the sweep; set-up and measured times
   add up over the points. *)
let pass ~seed:_ ~smoke ~traced () : Probe.pass =
  let failed = ref 0 and setup_s = ref 0.0 and units = ref [] and words = ref 0.0 in
  let gc_minor = ref 0 and gc_major = ref 0 in
  let exact = ref [] and host = ref [] in
  let add_exact l = exact := Probe.sum_into !exact l in
  let add_host l = host := Probe.sum_into !host l in
  let sim = Hashtbl.create 16 in
  let pts = points ~smoke in
  List.iter
    (fun ((app : Suite.app), v, n) ->
      let key = app.Suite.ap_name ^ "." ^ vname v in
      let (ctx, tr), t_setup =
        Probe.repeated_setup (fun () ->
            let ctx = fresh_ctx app in
            (ctx, if traced then Some (Harness.enable_trace ctx) else None))
      in
      let r, t, ref_s, w, minor, major =
        Probe.measured (fun () ->
            match Span.with_ ("exec." ^ vname v) (fun () -> app.Suite.ap_run ctx v ~n) with
            | time, out -> Ok (time, Array.length out)
            | exception e -> Error (Printexc.to_string e))
      in
      setup_s := !setup_s +. t_setup;
      units := (key, t, ref_s) :: !units;
      words := !words +. w;
      gc_minor := !gc_minor + minor;
      gc_major := !gc_major + major;
      (match r with
      | Ok (time, len) ->
        let ok () = len > 0 && Float.is_finite time && time > 0.0 in
        if not (Probe.guard ~what:(key ^ " produced a result") ok) then incr failed;
        Hashtbl.replace sim key time;
        add_exact [ ("fig4." ^ key ^ "_sim_s", time) ]
      | Error msg ->
        Printf.eprintf "check failed: %s raised %s\n%!" key msg;
        incr failed);
      add_exact (Probe.launch_counts (Harness.driver ctx).Gpusim.Driver.launches);
      add_exact (Probe.dataenv_counts (Harness.mem_stats ctx));
      add_exact (Probe.policy_counts (Harness.policy_decisions ctx));
      Option.iter (fun tr -> add_exact (Probe.trace_counts tr)) tr;
      if traced then add_host (inside_layers app v n))
    pts;
  let get k = Option.value ~default:nan (Hashtbl.find_opt sim k) in
  let apps = List.map (fun (app : Suite.app) -> app.Suite.ap_name) Suite.all in
  let sim_s = List.fold_left (fun acc a -> acc +. get (a ^ ".ompi")) 0.0 apps in
  let gap =
    exp
      (List.fold_left (fun acc a -> acc +. log (get (a ^ ".ompi") /. get (a ^ ".cuda"))) 0.0 apps
      /. float_of_int (List.length apps))
  in
  add_exact [ ("sim_s", sim_s); ("suite.ompi_over_cuda", gap) ];
  if traced then
    List.iter
      (fun (app : Suite.app) ->
        let n = List.hd app.Suite.ap_validate_sizes in
        Span.with_ "polybench.reference" (fun () -> ignore (app.Suite.ap_reference ~n)))
      Suite.all;
  {
    Probe.setup_s = !setup_s;
    units = List.rev !units;
    words = !words;
    gc_minor = !gc_minor;
    gc_major = !gc_major;
    sim_s;
    attempted = List.length pts;
    failed = !failed;
    exact = !exact;
    host = !host;
    notes = [ ("ompi_over_cuda", gap, "ratio") ];
  }

(* Full functional validation: each app x variant at its first
   validation size, unsampled, against the binary32 reference. *)
let validate () : int * int =
  let failed = ref 0 and attempted = ref 0 in
  List.iter
    (fun (app : Suite.app) ->
      let n = List.hd app.Suite.ap_validate_sizes in
      List.iter
        (fun v ->
          incr attempted;
          let ok =
            Probe.guard
              ~what:(Printf.sprintf "%s/%s validation at n=%d" app.Suite.ap_name (vname v) n)
              (fun () ->
                match Span.with_ "suite.validate" (fun () -> Suite.validate app v ~n) with
                | Ok _ -> true
                | Error msg ->
                  prerr_endline msg;
                  false)
          in
          if not ok then incr failed)
        variants)
    Suite.all;
  (!attempted, !failed)

(* Smoke check: each point's simulated time equals what [Suite.sweep]
   gives for the same app, variant, size and sampling. *)
let matches_sweep (p : Probe.pass) : int * int =
  let failed = ref 0 in
  let pts = points ~smoke:true in
  List.iter
    (fun ((app : Suite.app), v, n) ->
      let key = Printf.sprintf "fig4.%s.%s_sim_s" app.Suite.ap_name (vname v) in
      let ok =
        Probe.guard ~what:(key ^ " equals Suite.sweep") (fun () ->
            let s = Suite.sweep app v ~sample_blocks:(sample_blocks app) ~sizes:[ n ] () in
            List.assoc_opt key p.Probe.exact = Some (List.assoc n s.Perf.Report.s_points))
      in
      if not ok then incr failed)
    pts;
  (List.length pts, !failed)

(* The run's checks beyond its passes: validation, and in smoke mode the
   comparison with [Suite.sweep]. *)
let checks ~smoke (first : Probe.pass) : int * int =
  let a, f = validate () in
  if smoke then
    let a', f' = matches_sweep first in
    (a + a', f + f')
  else (a, f)
