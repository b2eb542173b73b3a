(* In-memory spans for the traced run.  The benchmark brackets each
   call it makes into a layer's public functions with [with_]; while no
   recorder is installed (the untraced run) [with_] is a plain call.
   Spans are kept in memory and summarised or written out at the end. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  t0 : float;  (** host seconds since the recorder was created *)
  t1 : float;
  words : float;  (** OCaml words allocated inside the span *)
}

type recorder = {
  origin : float;
  mutable spans : span list;  (** most recent first *)
  mutable stack : int list;
  mutable next_id : int;
}

let now () = Unix.gettimeofday ()

(* Words allocated by this domain so far: minor allocations plus direct
   major allocations (promotions are counted once, in minor). *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let current : recorder option ref = ref None

let start () = current := Some { origin = now (); spans = []; stack = []; next_id = 1 }

let stop () : span list =
  match !current with
  | None -> []
  | Some r ->
    current := None;
    List.rev r.spans

let with_ (name : string) (f : unit -> 'a) : 'a =
  match !current with
  | None -> f ()
  | Some r ->
    let id = r.next_id in
    let parent = match r.stack with p :: _ -> p | [] -> 0 in
    r.next_id <- id + 1;
    r.stack <- id :: r.stack;
    let t0 = now () -. r.origin and w0 = allocated_words () in
    let finish () =
      let words = allocated_words () -. w0 and t1 = now () -. r.origin in
      r.stack <- List.tl r.stack;
      r.spans <- { id; parent; name; t0; t1; words } :: r.spans
    in
    Fun.protect ~finally:finish f

(* Run [f] without recording its spans. *)
let paused (f : unit -> 'a) : 'a =
  let saved = !current in
  current := None;
  Fun.protect ~finally:(fun () -> current := saved) f

let dur s = s.t1 -. s.t0

(* Self time: the span's duration minus the part its children cover
   (children are sequential, so their durations add up). *)
let self_times (spans : span list) : (span * float) list =
  let child_sum = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_sum s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child_sum s.parent)))
    spans;
  List.map
    (fun s -> (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child_sum s.id)))
    spans

(* Inclusive seconds and words summed over every span called [name]. *)
let total (spans : span list) (name : string) : float * float =
  List.fold_left
    (fun (t, w) s -> if s.name = name then (t +. dur s, w +. s.words) else (t, w))
    (0.0, 0.0) spans

let seconds spans name = fst (total spans name)

(* Self seconds summed over every span called [name]. *)
let self_seconds spans name =
  List.fold_left
    (fun acc (s, self) -> if s.name = name then acc +. self else acc)
    0.0 (self_times spans)

let to_json (spans : span list) : Perf.Json.t =
  Perf.Json.List
    (List.map
       (fun (s, self) ->
         Perf.Json.Obj
           [
             ("id", Num (float_of_int s.id));
             ("parent", Num (float_of_int s.parent));
             ("name", Str s.name);
             ("start_s", Num s.t0);
             ("end_s", Num s.t1);
             ("self_s", Num self);
             ("words", Num s.words);
           ])
       (self_times spans))
