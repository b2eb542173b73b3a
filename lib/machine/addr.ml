(* Addresses are tagged with the memory space they live in; pointer
   arithmetic only moves the offset.  Space identifiers for [Shared] and
   [Local] are assigned by the simulator (block index / linear thread id). *)

type space =
  | Host
  | Global
  | Shared of int
  | Local of int
  | Strings (* interpreter-private arena for interned string literals *)
[@@deriving show { with_path = false }, eq, ord]

type t = { space : space; off : int } [@@deriving show { with_path = false }, eq, ord]

let null = { space = Host; off = 0 }

let is_null a = a.off = 0

let add a bytes = { a with off = a.off + bytes }

let diff a b =
  if a.space <> b.space then invalid_arg "Addr.diff: different spaces";
  a.off - b.off

(* Encode an address as a 64-bit integer so that pointers can transit
   through integer casts inside interpreted C code.  Layout: 8-bit space
   tag, 24-bit space id, 32-bit offset. *)
let tag_of_space = function Host -> 0 | Global -> 1 | Shared _ -> 2 | Local _ -> 3 | Strings -> 4

let id_of_space = function Host | Global | Strings -> 0 | Shared i | Local i -> i

(* The same encoding as a native int: a valid address word is below
   2^62 (tag <= 4), so it fits without boxing. *)
let to_word a =
  (tag_of_space a.space lsl 56) lor ((id_of_space a.space land 0xFFFFFF) lsl 32) lor (a.off land 0xFFFFFFFF)

let to_int64 a = Int64.of_int (to_word a)

let bad_tag n = invalid_arg (Printf.sprintf "Addr.of_int64: bad space tag %d" n)

(* [w] must be non-negative (a word whose tag is below 0x40). *)
let of_word w =
  let tag = (w lsr 56) land 0xFF in
  let id = (w lsr 32) land 0xFFFFFF in
  let off = w land 0xFFFFFFFF in
  let space =
    match tag with
    | 0 -> Host
    | 1 -> Global
    | 2 -> Shared id
    | 3 -> Local id
    | 4 -> Strings
    | n -> bad_tag n
  in
  { space; off }

let of_int64 i =
  let tag = Int64.(to_int (shift_right_logical i 56)) land 0xFF in
  if tag > 4 then bad_tag tag;
  of_word (Int64.to_int i)
