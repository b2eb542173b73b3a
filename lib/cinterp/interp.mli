(** Tree-walking interpreter for the mini-C AST.

    The same engine is used in two roles:
    - host role: executes the translated host program, with the ORT host
      runtime registered as builtins;
    - device role: one instance per GPU thread, driven by the SIMT
      scheduler; the threads of a block share one builtin table holding
      the cudadev device library.

    Per-operation hooks ({!t.on_step}, {!t.on_access}) feed the
    performance model without contaminating the semantics. *)

open Machine
open Minic

exception Runtime_error of string

val runtime_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Instruction classes for the cost model. *)
type step = St_arith | St_mul | St_div | St_branch | St_call | St_special

type frame = { vars : (string, Cty.t * Addr.t) Hashtbl.t; saved_mark : int }

type t = {
  structs : Cty.layout_env;
  funcs : (string, Ast.fundef) Hashtbl.t;
  builtins : (string, builtin) Hashtbl.t;
      (** in the device role, one table shared by every thread of a block *)
  resolve : Addr.space -> Mem.t;  (** address space -> backing memory *)
  local : Mem.t;  (** this context's stack (all declared variables) *)
  thread : int;
      (** linear id of the GPU thread within its block (0 in the host
          role); how a shared builtin identifies its caller *)
  globals : (string, Cty.t * Addr.t) Hashtbl.t;
  strings : (string, Addr.t) Hashtbl.t;
  mutable on_step : step -> unit;
  mutable on_access : [ `Load | `Store ] -> Addr.space -> int -> int -> unit;
      (** every scalar load and store: kind, space, byte offset, byte
          count *)
  shared_decl : (string -> Cty.t -> Addr.t) option;
      (** resolver for [__shared__] declarations (device role only) *)
  output : Buffer.t;  (** printf destination *)
  fn_ptrs : (string, int) Hashtbl.t;
  mutable frames : frame list;
  mutable depth : int;
  max_depth : int;
  mutable dispatch : (t -> Ast.fundef -> Value.t list -> Value.t) option;
      (** execution-engine hook: when set (by the closure JIT), calls
          into defined functions are routed through it instead of the
          tree-walker *)
}

and builtin = t -> Value.t list -> Value.t

(** [builtins] defaults to a fresh table, [thread] to 0. *)
val create :
  structs:Cty.layout_env ->
  funcs:(string, Ast.fundef) Hashtbl.t ->
  resolve:(Addr.space -> Mem.t) ->
  local:Mem.t ->
  ?builtins:(string, builtin) Hashtbl.t ->
  ?thread:int ->
  ?shared_decl:(string -> Cty.t -> Addr.t) ->
  ?output:Buffer.t ->
  unit ->
  t

val register_builtin : t -> string -> builtin -> unit

val register_global : t -> string -> Cty.t -> Addr.t -> unit

(** {1 Memory access} (bounds-checked, accounted through [on_access]) *)

val sizeof : t -> Cty.t -> int

val load : t -> Addr.t -> Cty.t -> Value.t

val store : t -> Addr.t -> Cty.t -> Value.t -> unit

(** [load]/[store] of a scalar (non-array, non-struct) type at a space
    and byte offset, with the byte size resolved by the caller; the
    closure JIT uses these where types are known at compile time, and
    for indexed accesses without building an address. *)
val load_at : t -> Addr.space -> int -> Cty.t -> bytes:int -> Value.t

val store_at : t -> Addr.space -> int -> Cty.t -> bytes:int -> Value.t -> unit

val intern_string : t -> string -> Addr.t

val read_c_string : t -> Addr.t -> string

(** {1 Frames and variables} *)

val push_frame : t -> unit

val pop_frame : t -> unit

val declare_var : t -> string -> Cty.t -> Addr.t

val declare_shared_var : t -> string -> Cty.t -> Addr.t

val lookup_var : t -> string -> (Cty.t * Addr.t) option

(** {1 Function pointers}

    Encoded as tagged integers so that generated code can pass
    kernel-internal thread functions to the device runtime by name, as
    OMPi's master/worker scheme does. *)

val function_pointer : t -> string -> Value.t

val function_of_pointer : t -> Value.t -> Ast.fundef

(** {1 Execution} *)

val eval : t -> Ast.expr -> Value.t

val exec : t -> Ast.stmt -> unit

val exec_init : t -> Addr.t -> Cty.t -> Ast.init -> unit

val call : t -> string -> Value.t list -> Value.t

val call_fundef : t -> Ast.fundef -> Value.t list -> Value.t

(** The reference tree-walking executor, bypassing {!t.dispatch}. *)
val tree_call_fundef : t -> Ast.fundef -> Value.t list -> Value.t

(** Binary-operator semantics shared with the closure JIT (performs its
    own {!t.on_step} accounting). *)
val apply_binop : t -> Ast.binop -> Value.t -> Value.t -> Value.t

(** [apply_binop] without the cost-model step, for callers that have
    already charged it (the JIT's specialized arithmetic closures). *)
val apply_binop_unstepped : t -> Ast.binop -> Value.t -> Value.t -> Value.t

(** printf/math builtins shared by the host and device roles, added to a
    builtin table. *)
val add_common_builtins : (string, builtin) Hashtbl.t -> unit

(** [add_common_builtins] on the context's own table. *)
val install_common_builtins : t -> unit

(** Load a program's function definitions and struct layouts. *)
val load_program : t -> Ast.program -> unit

val format_printf : t -> string -> Value.t list -> string
