(* The reference loop: a fixed piece of host work that calls nothing of
   the program under test, timed next to each unit of measured work.

   A shared host's speed drifts, in phases of seconds to minutes, by up
   to twice; the drift moves this loop as it moves the simulator.  A
   unit's host time over the reference time around it drifts much less
   than either, so the benchmark's end-to-end host figure is that ratio.
   The loop is what the simulator's own time goes to, in small: a walk
   of dependent loads, float stores and indirect calls over a table
   that fits in L2, and a tree-walking evaluator of a float expression
   whose results are boxed, with a hash table of short-lived lists.  It
   runs outside the allocation and GC windows of the measured units. *)

let table_size = 1 lsl 14

(* 40503 is odd, so i -> 40503 i + 12345 permutes 0 .. table_size-1. *)
let links = Array.init table_size (fun i -> ((i * 40503) + 12345) land (table_size - 1))

let data = Array.make table_size 1.0

let steps : (int -> int) array =
  [| (fun x -> x + 1); (fun x -> x lxor 0x55); (fun x -> x * 3); (fun x -> x - 7) |]

let walk iters =
  let j = ref 0 and acc = ref 0 in
  for i = 1 to iters do
    let k = links.(!j) in
    data.(k) <- (data.(k) *. 0.5) +. 0.5;
    acc := steps.(i land 3) !acc;
    j := (k + !acc) land (table_size - 1)
  done;
  !acc

type expr = Const of float | Var of int | Add of expr * expr | Mul of expr * expr
          | If of expr * expr * expr

let rec eval env = function
  | Const c -> c
  | Var i -> env.(i)
  | Add (a, b) -> eval env a +. eval env b
  | Mul (a, b) -> eval env a *. eval env b
  | If (c, a, b) -> if eval env c > 0.5 then eval env a else eval env b

let expr = If (Var 0, Add (Mul (Var 1, Const 0.5), Var 2), Mul (Add (Var 3, Const 1.0), Var 1))

let interpret iters =
  let env = Array.make 4 0.25 and recent = Hashtbl.create 256 and acc = ref 0.0 in
  for i = 1 to iters do
    env.(i land 3) <- float_of_int (i land 7) /. 8.0;
    let v = eval env expr in
    if i land 7 = 0 then Hashtbl.replace recent (i land 255) [ v; !acc ];
    acc := !acc +. v
  done;
  !acc

(* Together about 17 ms on a 2-vCPU cloud host. *)
let walk_iters = 1_000_000

let interpret_iters = 300_000

(* Host seconds of one reference measurement. *)
let measure () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (walk walk_iters));
  ignore (Sys.opaque_identity (interpret interpret_iters));
  Unix.gettimeofday () -. t0
