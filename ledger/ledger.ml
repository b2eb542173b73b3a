(* The repository's benchmark: end-to-end and per-layer metrics of the
   simulator on both of its clocks — simulated Jetson Nano time, and the
   host time and allocation it costs to produce it.

     ledger --workload fig4|devrt-sync|serve-mix|all --seed N --seconds S
            --trace 0|1 [--smoke] [--spec BENCHMARK.json] [--spans FILE]

   A run repeats passes of the workload (set-up, then the measured
   phase) for at least S seconds and at least three times, checks every
   output, and checks that every simulated metric and count is
   identical on every pass.

   With --trace 0 it reports the end-to-end metrics.  wall_ref is the
   measured phase's host time in units of the reference loop (calib.ml)
   timed around each unit of work (a fig4 point, a devrt-sync kernel
   call, a serve-mix run): it sums, over the units of a pass, each
   unit's median over the passes of its host time over the reference
   time next to it.  On a shared host this ratio stays put while host
   seconds drift with the machine's load.  The other host figures are
   medians over passes.

   With --trace 1 it makes two untraced passes and one traced pass, in
   which spans around each call into a layer give the per-layer
   numbers, and reports the traced pass's wall_ref over the second
   untraced pass's as the tracing overhead, and that untraced pass's
   host seconds (host.wall_s) and mean reference time (host.ref_s);
   --spans writes the traced pass's spans as JSON.

   Metric names and units come from the spec file.  The last line of
   standard output is one JSON object; with --workload all its metric
   names carry the workload as a prefix, and peak_heap_mb is the
   process's peak so far.

   Exit codes: 0 all checks passed; 1 a check failed; 2 usage or spec
   error; 3 a simulated metric differed between passes. *)

(* Each workload: its pass, and the output checks it makes once per run
   beyond those of its passes (attempted, failed). *)
let workloads =
  let no_checks ~smoke:_ _ = (0, 0) in
  [
    ("fig4", (Fig4.pass, Fig4.checks));
    ("devrt-sync", (Devrt_sync.pass, no_checks));
    ("serve-mix", (Serve_mix.pass, no_checks));
  ]

let usage () =
  prerr_endline
    "usage: ledger --workload fig4|devrt-sync|serve-mix|all --seed N --seconds S --trace 0|1 \
     [--smoke] [--spec FILE] [--spans FILE]";
  exit 2

type spec = { end_to_end : (string * string) list; per_layer : (string * string) list }

let read_spec path : spec =
  let fail msg =
    Printf.eprintf "ledger: %s: %s\n" path msg;
    exit 2
  in
  let text = try In_channel.with_open_bin path In_channel.input_all with Sys_error e -> fail e in
  let json = match Perf.Json.of_string text with Ok j -> j | Error e -> fail e in
  let metrics key =
    match Option.bind (Perf.Json.member key json) Perf.Json.to_list_opt with
    | None -> fail ("no " ^ key ^ " list")
    | Some items ->
      List.map
        (fun m ->
          let field k = Option.bind (Perf.Json.member k m) Perf.Json.to_string_opt in
          match (field "name", field "unit") with
          | Some n, Some u -> (n, u)
          | _ -> fail (key ^ " entry without name or unit"))
        items
  in
  { end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer" }

exception Nondeterministic of string

(* Every simulated metric and count must read the same on every pass.
   Keys present in only one pass (the traced pass reads the trace ring
   too) are compared where both have them. *)
let check_exact (first : Probe.pass) (p : Probe.pass) =
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k first.Probe.exact with
      | Some v0 when Int64.bits_of_float v0 <> Int64.bits_of_float v ->
        raise (Nondeterministic (Printf.sprintf "%s: %.17g on the first pass, %.17g later" k v0 v))
      | _ -> ())
    p.Probe.exact

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Passes per untraced run, at least: each unit's wall time is the
   median of its passes, which needs three to shed one slow pass. *)
let min_passes = 3

type outcome = {
  metrics : (string * float) list;  (** the reported metrics, by name *)
  attempted : int;
  failed : int;
}

(* Reference measurements made once before the first pass: the first
   few of a process read slow. *)
let calib_warmup = 10

let run_workload ~name ~pass ~checks ~seed ~seconds ~trace ~smoke ~spans_out : outcome =
  for _ = 1 to calib_warmup do
    ignore (Calib.measure ())
  done;
  let t0 = Span.now () in
  let untraced () =
    let p = pass ~seed ~smoke ~traced:false () in
    if not smoke then
      Printf.eprintf "%s pass: set-up %.4f s, measured %.4f s = %.1f ref (%s)\n%!" name
        p.Probe.setup_s (Probe.wall_s p) (Probe.wall_ref p)
        (String.concat " "
           (List.map (fun (u, t, c) -> Printf.sprintf "%s %.3f/%.4f" u t c) p.Probe.units));
    p
  in
  let passes, traced =
    if trace then begin
      let p1 = untraced () in
      let p2 = untraced () in
      Span.start ();
      let p3 = pass ~seed ~smoke ~traced:true () in
      ([ p1; p2 ], Some (p3, Span.stop ()))
    end
    else begin
      let rec loop acc =
        let acc = untraced () :: acc in
        if List.length acc >= min_passes && Span.now () -. t0 >= seconds then List.rev acc
        else loop acc
      in
      (loop [], None)
    end
  in
  let first = List.hd passes in
  let all = passes @ Option.to_list (Option.map fst traced) in
  List.iter (check_exact first) (List.tl all);
  let extra_attempted, extra_failed = checks ~smoke first in
  let attempted = extra_attempted + List.fold_left (fun acc p -> acc + p.Probe.attempted) 0 all in
  let failed = extra_failed + List.fold_left (fun acc p -> acc + p.Probe.failed) 0 all in
  let med f = Probe.median (List.map f passes) in
  (* Over the units of a pass, the sum of each unit's median over the
     passes of [f] (host seconds) (reference seconds). *)
  let over_units f =
    List.fold_left
      (fun acc (unit, _, _) ->
        let at p = List.find (fun (u, _, _) -> u = unit) p.Probe.units in
        acc +. Probe.median (List.map (fun p -> let _, t, c = at p in f t c) passes))
      0.0 first.Probe.units
  in
  let print_metric k v u = Printf.printf "%-11s %-32s %18.6f %s\n" name k v u in
  List.iter (fun (k, v, u) -> print_metric k v u) first.Probe.notes;
  print_metric "failed_frac" (float_of_int failed /. float_of_int (max 1 attempted)) "ratio";
  print_metric "wall_s" (over_units (fun t _ -> t)) "s";
  Printf.printf "%-11s %-32s %18d %s\n" name "seed" seed "";
  Printf.printf "%-11s %-32s %18d %s\n" name "passes" (List.length all) "";
  let metrics =
    match traced with
    | None ->
      [
        ("wall_ref", over_units (fun t c -> t /. c));
        ("setup_s", med (fun p -> p.Probe.setup_s));
        ("alloc_mwords", med (fun p -> p.Probe.words) /. 1e6);
        ("peak_heap_mb", peak_heap_mb ());
        ("sim_s", first.Probe.sim_s);
      ]
    | Some (p, spans) ->
      (match spans_out with
      | Some file ->
        Out_channel.with_open_bin file (fun oc ->
            output_string oc (Perf.Json.to_string (Span.to_json spans)))
      | None -> ());
      let layers = p.Probe.exact @ p.Probe.host @ Layers.host_metrics spans in
      let get k = Option.value ~default:0.0 (List.assoc_opt k layers) in
      let insts = get "simt.thread_insts" in
      let untraced = List.nth passes 1 in
      let per_inst x = if insts > 0.0 then x /. insts else 0.0 in
      layers
      @ [
          ("simt.wall_ns_per_inst", per_inst ((get "exec.ompi_s" +. get "exec.cuda_s") *. 1e9));
          ("simt.words_per_inst", per_inst (get "exec.mwords" *. 1e6));
          ("gc.minor_collections", float_of_int first.Probe.gc_minor);
          ("gc.major_collections", float_of_int first.Probe.gc_major);
          ("trace.overhead", Probe.wall_ref p /. Probe.wall_ref untraced);
          ("host.wall_s", Probe.wall_s untraced);
          ("host.ref_s", Probe.ref_s untraced /. float_of_int (List.length untraced.Probe.units));
        ]
  in
  { metrics; attempted; failed }

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  let smoke = ref false and spec_file = ref "BENCHMARK.json" and spans_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := Option.value ~default:(-1) (int_of_string_opt v); parse rest
    | "--seconds" :: v :: rest ->
      seconds := Option.value ~default:(-1.0) (float_of_string_opt v);
      parse rest
    | "--trace" :: v :: rest ->
      trace := Option.value ~default:(-1) (int_of_string_opt v);
      parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--spec" :: v :: rest -> spec_file := v; parse rest
    | "--spans" :: v :: rest -> spans_out := Some v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds < 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let chosen =
    if !workload = "all" then workloads
    else
      match List.assoc_opt !workload workloads with
      | Some p -> [ (!workload, p) ]
      | None -> usage ()
  in
  let spec = read_spec !spec_file in
  let wanted = if !trace = 1 then spec.per_layer else spec.end_to_end in
  let outcomes =
    try
      List.map
        (fun (name, (pass, checks)) ->
          let o =
            run_workload ~name ~pass ~checks ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
              ~smoke:!smoke
              ~spans_out:
                (if List.length chosen > 1 then Option.map (fun f -> f ^ "." ^ name) !spans_out
                 else !spans_out)
          in
          List.iter
            (fun (k, u) ->
              Printf.printf "%-11s %-32s %18.6f %s\n" name k
                (Option.value ~default:0.0 (List.assoc_opt k o.metrics))
                u)
            wanted;
          (name, o))
        chosen
    with Nondeterministic msg ->
      Printf.eprintf "ledger: nondeterministic simulated metric %s\n" msg;
      exit 3
  in
  (* Each metric the spec names must be produced by some workload. *)
  let unproduced =
    List.filter
      (fun (k, _) -> not (List.exists (fun (_, o) -> List.mem_assoc k o.metrics) outcomes))
      wanted
  in
  if !workload = "all" && unproduced <> [] then begin
    Printf.eprintf "ledger: no workload produces %s\n"
      (String.concat ", " (List.map fst unproduced));
    exit 2
  end;
  let attempted = List.fold_left (fun acc (_, o) -> acc + o.attempted) 0 outcomes in
  let non_finite =
    List.concat_map
      (fun (name, o) ->
        List.filter_map
          (fun (k, _) ->
            match List.assoc_opt k o.metrics with
            | Some v when not (Float.is_finite v) -> Some (name ^ " " ^ k)
            | _ -> None)
          wanted)
      outcomes
  in
  List.iter (Printf.eprintf "check failed: %s is not a finite number\n") non_finite;
  let failed =
    List.length non_finite + List.fold_left (fun acc (_, o) -> acc + o.failed) 0 outcomes
  in
  let value name o k =
    let key = if List.length outcomes > 1 then name ^ "." ^ k else k in
    match List.assoc_opt k o.metrics with
    | Some v when Float.is_finite v -> (key, v)
    | _ -> (key, 0.0)
  in
  let metrics =
    List.concat_map
      (fun (name, o) ->
        List.map
          (fun (k, u) ->
            let key, v = value name o k in
            (key, Perf.Json.Obj [ ("value", Perf.Json.Num v); ("unit", Perf.Json.Str u) ]))
          wanted)
      outcomes
  in
  print_endline
    (Perf.Json.to_string
       (Perf.Json.Obj
          [
            ("correct", Perf.Json.Bool (failed = 0));
            ("attempted", Perf.Json.Num (float_of_int attempted));
            ("failed", Perf.Json.Num (float_of_int failed));
            ("metrics", Perf.Json.Obj metrics);
          ]));
  if failed > 0 then exit 1
