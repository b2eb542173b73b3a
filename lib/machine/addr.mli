(** Tagged addresses: every pointer in the simulated system knows which
    memory space it lives in, so the SIMT engine can enforce the
    platform's visibility rules (e.g. device code never dereferences
    host memory). *)

type space =
  | Host  (** the host program's memory *)
  | Global  (** device global memory (cuMemAlloc arena) *)
  | Shared of int  (** per-block shared memory; the id is the block *)
  | Local of int  (** per-thread local stack; the id is the thread *)
  | Strings  (** interpreter-private arena for interned string literals *)

val pp_space : Format.formatter -> space -> unit

val show_space : space -> string

val equal_space : space -> space -> bool

val compare_space : space -> space -> int

type t = { space : space; off : int }

val pp : Format.formatter -> t -> unit

val show : t -> string

val equal : t -> t -> bool

val compare : t -> t -> int

val null : t

val is_null : t -> bool

(** Pointer arithmetic: move the offset by a byte count. *)
val add : t -> int -> t

(** Byte distance between two addresses of the same space. *)
val diff : t -> t -> int

(** {1 Integer encoding}

    Addresses round-trip through [int64] so that interpreted C code can
    cast pointers to integers and back (8-bit space tag, 24-bit space
    id, 32-bit offset). *)

val to_int64 : t -> int64

val of_int64 : int64 -> t

(** The same encoding as a native int, without boxing.  Every address
    word is below 2^62; [of_word] takes such a non-negative word. *)
val to_word : t -> int

val of_word : int -> t
