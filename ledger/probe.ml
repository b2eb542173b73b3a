(* What one pass of a workload measures, and the readers that turn the
   program's public records into named numbers. *)

open Gpusim

type pass = {
  setup_s : float;  (** host seconds before the measured phase *)
  units : (string * float * float) list;
      (** per unit of work of the measured phase (a fig4 point, a
          devrt-sync kernel call, a serve-mix run): its host seconds, and
          the host seconds of the reference loop next to it *)
  words : float;  (** OCaml words allocated in the measured phase *)
  gc_minor : int;  (** minor collections in the measured phase *)
  gc_major : int;
  sim_s : float;  (** simulated seconds of the workload's device-side work *)
  attempted : int;
  failed : int;
  exact : (string * float) list;
      (** simulated metrics and counts: identical on every pass of one seed *)
  host : (string * float) list;  (** host-clock layer numbers, traced pass only *)
  notes : (string * float * string) list;  (** workload results printed by name, with units *)
}

let timed (f : unit -> 'a) : 'a * float =
  let t0 = Span.now () in
  let r = f () in
  (r, Span.now () -. t0)

(* The reference measurement that ended last, and when. *)
let last_ref = ref (neg_infinity, 0.0)

(* A unit of measured work: its result, its host seconds, and the mean
   host seconds of the reference loop just before and just after it.
   The measurement after one unit stands for the one before the next
   if it ended less than 0.1 s earlier.  Each unit starts on a
   collected heap, so that the major GC work for one unit's garbage
   does not land, in varying amounts, in whichever unit comes next. *)
let unit_timed (f : unit -> 'a) : 'a * float * float =
  Gc.full_major ();
  let c0 =
    match !last_ref with
    | t_end, c when Span.now () -. t_end < 0.1 -> c
    | _ -> Calib.measure ()
  in
  let r, t = timed f in
  let c1 = Calib.measure () in
  last_ref := (Span.now (), c1);
  (r, t, (c0 +. c1) /. 2.0)

(* A unit of measured work with the allocation and collections inside
   it: (result, host seconds, reference seconds, words, minor, major). *)
let measured (f : unit -> 'a) : 'a * float * float * float * int * int =
  let (r, w, minor, major), t, ref_s =
    unit_timed (fun () ->
        let s0 = Gc.quick_stat () in
        let w0 = Span.allocated_words () in
        let r = f () in
        let w1 = Span.allocated_words () in
        let s1 = Gc.quick_stat () in
        (r, w1 -. w0, s1.Gc.minor_collections - s0.Gc.minor_collections,
         s1.Gc.major_collections - s0.Gc.major_collections))
  in
  (r, t, ref_s, w, minor, major)

let wall_s (p : pass) = List.fold_left (fun acc (_, t, _) -> acc +. t) 0.0 p.units

let ref_s (p : pass) = List.fold_left (fun acc (_, _, c) -> acc +. c) 0.0 p.units

let wall_ref (p : pass) = List.fold_left (fun acc (_, t, c) -> acc +. (t /. c)) 0.0 p.units

let median (xs : float list) : float =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Set-up runs [setup_reps] times; the last result is kept and the
   median time reported, so one slow set-up does not set the figure.
   Only the last one records spans. *)
let setup_reps = 11

let repeated_setup (f : unit -> 'a) : 'a * float =
  let rec go k times =
    if k <= 1 then
      let r, t = timed f in
      (r, median (t :: times))
    else
      let _, t = Span.paused (fun () -> timed f) in
      go (k - 1) (t :: times)
  in
  go setup_reps []

(* An operation that raises counts as failed; the run goes on. *)
let guard ~(what : string) (f : unit -> bool) : bool =
  match f () with
  | ok ->
    if not ok then Printf.eprintf "check failed: %s\n%!" what;
    ok
  | exception e ->
    Printf.eprintf "check failed: %s: %s\n%!" what (Printexc.to_string e);
    false

(* Sum of named numbers, keeping first-seen order. *)
let sum_into (acc : (string * float) list) (items : (string * float) list) =
  List.fold_left
    (fun acc (k, v) ->
      if List.mem_assoc k acc then
        List.map (fun (k', x) -> if k' = k then (k', x +. v) else (k', x)) acc
      else acc @ [ (k, v) ])
    acc items

(* Counts and simulated cost of a list of launches, from
   [Driver.launch_stats] records.  Divergence is weighted by each
   launch's thread-instructions. *)
let launch_counts (launches : Driver.launch_stats list) : (string * float) list =
  let f = float_of_int in
  let rows =
    List.map
      (fun (s : Driver.launch_stats) ->
        let c = s.Driver.st_counters and b = s.Driver.st_breakdown in
        [
          ("simt.launches", 1.0);
          ("simt.blocks_simulated", f s.Driver.st_blocks_simulated);
          ("simt.thread_insts", c.Counters.thread_inst_sum);
          ("counters.global_accesses", f (Counters.global_accesses c));
          ("counters.global_transactions", Counters.global_transactions c);
          ("counters.shared_accesses", f c.Counters.shared_accesses);
          ("counters.barrier_arrivals", f c.Counters.barrier_warp_arrivals);
          ("counters.atomics", f c.Counters.atomics);
          ("counters.chunk_grabs", f c.Counters.chunk_grabs);
          ("costmodel.issue_cycles", b.Costmodel.bd_issue_cycles);
          ("costmodel.mem_cycles", b.Costmodel.bd_mem_cycles);
          ("costmodel.barrier_cycles", b.Costmodel.bd_barrier_cycles);
          ("costmodel.kernel_s", b.Costmodel.bd_time_ns *. 1e-9);
          ("costmodel.divergence_weight", b.Costmodel.bd_divergence *. c.Counters.thread_inst_sum);
        ])
      launches
  in
  let total = List.fold_left sum_into [] rows in
  let get k = Option.value ~default:0.0 (List.assoc_opt k total) in
  let insts = get "simt.thread_insts" in
  List.filter (fun (k, _) -> k <> "costmodel.divergence_weight") total
  @ [
      ( "costmodel.divergence",
        if insts > 0.0 then get "costmodel.divergence_weight" /. insts else 0.0 );
    ]

(* Launch phases and transfers from a [Perf.Trace] ring: the §4.2.1
   phase spans (cat "launch"), synchronous transfer spans (cat
   "transfer") and asynchronous copies (cat "async" HtoD/DtoH Complete
   events).  Simulated seconds and bytes. *)
let trace_counts (tr : Perf.Trace.t) : (string * float) list =
  let bytes (s : Perf.Trace.span) =
    match List.assoc_opt "bytes" s.Perf.Trace.sp_args with
    | Some (Perf.Trace.Int b) -> float_of_int b
    | _ -> 0.0
  in
  let rows =
    List.map
      (fun (s : Perf.Trace.span) ->
        let d = s.Perf.Trace.sp_dur_ns *. 1e-9 in
        match (s.Perf.Trace.sp_cat, s.Perf.Trace.sp_name) with
        | "launch", "load" -> [ ("hostrt.load_s", d) ]
        | "launch", "parameter_preparation" -> [ ("hostrt.param_prep_s", d) ]
        | "launch", "launch" -> [ ("hostrt.launch_s", d) ]
        | ("transfer" | "async"), "HtoD" ->
          [ ("hostrt.transfer_s", d); ("hostrt.h2d_bytes", bytes s) ]
        | ("transfer" | "async"), "DtoH" ->
          [ ("hostrt.transfer_s", d); ("hostrt.d2h_bytes", bytes s) ]
        | _ -> [])
      (Perf.Trace.spans tr)
  in
  List.fold_left sum_into
    [
      ("hostrt.load_s", 0.0);
      ("hostrt.param_prep_s", 0.0);
      ("hostrt.launch_s", 0.0);
      ("hostrt.transfer_s", 0.0);
      ("hostrt.h2d_bytes", 0.0);
      ("hostrt.d2h_bytes", 0.0);
    ]
    rows
  @ [ ("trace.ring_dropped", float_of_int (Perf.Trace.dropped tr)) ]

(* Cold-map decisions per mode, from [Dataenv.policy_decisions]-shaped
   tallies. *)
let policy_counts (tallies : ((int * int) * (string * int) list) list) : (string * float) list =
  let per mode =
    List.fold_left
      (fun acc (_, modes) -> acc + Option.value ~default:0 (List.assoc_opt mode modes))
      0 tallies
  in
  List.map
    (fun m ->
      let name = Hostrt.Mempolicy.mode_name m in
      ("mempolicy.decisions_" ^ name, float_of_int (per name)))
    [ Hostrt.Mempolicy.Copy; Hostrt.Mempolicy.Elide; Hostrt.Mempolicy.Zerocopy ]

let dataenv_counts (s : Hostrt.Dataenv.stats) : (string * float) list =
  let f = float_of_int in
  [
    ("dataenv.elided_h2d", f s.Hostrt.Dataenv.elided_h2d);
    ("dataenv.elided_d2h", f s.Hostrt.Dataenv.elided_d2h);
    ( "dataenv.elided_pages",
      f (s.Hostrt.Dataenv.elided_h2d_pages + s.Hostrt.Dataenv.elided_d2h_pages) );
    ("dataenv.zerocopy_accesses", f s.Hostrt.Dataenv.zerocopy_accesses);
  ]

(* Launch counts visible in a [Perf.Trace] ring: one "launch_counters"
   sample per kernel launch.  For workloads whose runtime is private to
   the call the benchmark makes, this is the only view of the SIMT
   layer; thread-instruction and global-access counts are not in it. *)
let ring_launch_counts (tr : Perf.Trace.t) : (string * float) list =
  let evs = Perf.Trace.find_events tr ~cat:"kernel" ~name:"launch_counters" () in
  let sum key =
    List.fold_left
      (fun acc e -> acc +. float_of_int (Option.value ~default:0 (Perf.Trace.int_arg e key)))
      0.0 evs
  in
  [
    ("simt.launches", float_of_int (List.length evs));
    ("simt.blocks_simulated", sum "blocks_simulated");
    ("counters.barrier_arrivals", sum "barrier_warp_arrivals");
    ("counters.atomics", sum "atomics");
    ("counters.chunk_grabs", sum "chunk_grabs");
  ]
