(* A byte-addressed memory region backing one address space.  Device
   global memory uses [alloc]/[free] (first-fit free list, mirroring
   cuMemAlloc/cuMemFree); shared memory and thread-local stacks use the
   [push]/[pop] stack discipline. *)

(* Recently loaded pointer values, direct-mapped on the raw 64-bit word
   (an address word always fits a native int: the space tag is at most
   4).  A hit needs the same word and pointee type, and returns the
   cached [Value.VPtr] itself; values are immutable, so sharing is safe. *)
type ptr_cache = { pc_words : int array; pc_vals : Value.t array }

type t = {
  name : string;
  space : Addr.space;
  mutable data : Bytes.t;
  mutable brk : int; (* high-water mark of the bump/stack region *)
  mutable free_list : (int * int) list; (* (offset, length), sorted by offset *)
  sizes : (int, int) Hashtbl.t; (* allocation sizes for [free] *)
  mutable limit : int; (* capacity cap; grows lazily up to this *)
  ptr_cache : ptr_cache;
}

exception Out_of_memory of string
exception Bad_access of string

let ptr_cache_size = 16

let create ?(initial = 4096) ?(limit = 1 lsl 31) ~space name =
  (* Offset 0 is reserved so that a zero offset can act as NULL. *)
  {
    name;
    space;
    data = Bytes.make initial '\000';
    brk = 16;
    free_list = [];
    sizes = Hashtbl.create 8;
    limit;
    ptr_cache = { pc_words = Array.make ptr_cache_size (-1); pc_vals = Array.make ptr_cache_size Value.VVoid };
  }

let capacity t = Bytes.length t.data

let ensure t upto =
  if upto > t.limit then
    raise (Out_of_memory (Printf.sprintf "%s: request for %d bytes exceeds limit %d" t.name upto t.limit));
  if upto > Bytes.length t.data then begin
    let cap = ref (Bytes.length t.data) in
    while !cap < upto do
      cap := !cap * 2
    done;
    let cap = min !cap t.limit in
    let data = Bytes.make cap '\000' in
    Bytes.blit t.data 0 data 0 t.brk;
    t.data <- data
  end

let align_up off align = (off + align - 1) / align * align

(* First-fit allocation with an 8-byte minimum alignment. *)
let alloc t size =
  let size = max 1 (align_up size 8) in
  let rec take acc = function
    | [] -> None
    | (off, len) :: rest when len >= size ->
      let remainder = if len > size then [ (off + size, len - size) ] else [] in
      Some (off, List.rev_append acc (remainder @ rest))
    | hole :: rest -> take (hole :: acc) rest
  in
  let off =
    match take [] t.free_list with
    | Some (off, free_list) ->
      t.free_list <- free_list;
      off
    | None ->
      let off = align_up t.brk 8 in
      ensure t (off + size);
      t.brk <- off + size;
      off
  in
  Hashtbl.replace t.sizes off size;
  Bytes.fill t.data off size '\000';
  { Addr.space = t.space; off }

let free t (a : Addr.t) =
  if a.space <> t.space then raise (Bad_access (t.name ^ ": free of foreign address"));
  match Hashtbl.find_opt t.sizes a.off with
  | None -> raise (Bad_access (Printf.sprintf "%s: free of unallocated offset %d" t.name a.off))
  | Some size ->
    Hashtbl.remove t.sizes a.off;
    (* Insert sorted and coalesce with neighbours. *)
    let rec insert = function
      | [] -> [ (a.off, size) ]
      | (o, l) :: rest when a.off + size = o -> (a.off, size + l) :: rest
      | (o, l) :: rest when o + l = a.off -> insert_merge o l rest
      | (o, l) :: rest when o > a.off -> (a.off, size) :: (o, l) :: rest
      | hole :: rest -> hole :: insert rest
    and insert_merge o l = function
      | (o2, l2) :: rest when o + l + size = o2 -> (o, l + size + l2) :: rest
      | rest -> (o, l + size) :: rest
    in
    t.free_list <- insert t.free_list

let allocated_bytes t = Hashtbl.fold (fun _ s acc -> acc + s) t.sizes 0

(* Stack discipline used for shared-memory and local stacks. *)
let push t size =
  let off = align_up t.brk 8 in
  let size = max 1 (align_up size 8) in
  ensure t (off + size);
  t.brk <- off + size;
  Bytes.fill t.data off size '\000';
  { Addr.space = t.space; off }

let mark t = t.brk

let release t mark = t.brk <- mark

let check t off len =
  if off < 0 || off + len > Bytes.length t.data then
    raise (Bad_access (Printf.sprintf "%s: access [%d,%d) outside capacity %d" t.name off len (Bytes.length t.data)))

(* Raw accessors -------------------------------------------------------- *)

(* Little-endian 32-bit halves assembled on native ints, so no Int32 or
   Int64 is boxed on the executor's hot loads and stores. *)
let get_u32 d off =
  Char.code (Bytes.unsafe_get d off)
  lor (Char.code (Bytes.unsafe_get d (off + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get d (off + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get d (off + 3)) lsl 24)

let set_u32 d off i =
  Bytes.unsafe_set d off (Char.unsafe_chr (i land 0xFF));
  Bytes.unsafe_set d (off + 1) (Char.unsafe_chr ((i lsr 8) land 0xFF));
  Bytes.unsafe_set d (off + 2) (Char.unsafe_chr ((i lsr 16) land 0xFF));
  Bytes.unsafe_set d (off + 3) (Char.unsafe_chr ((i lsr 24) land 0xFF))

let load_ptr t (c : ptr_cache) off (p : Cty.t) : Value.t =
  let d = t.data in
  let hi = get_u32 d (off + 4) in
  if hi > 0x3FFFFFFF then
    (* tag >= 0x40: the word does not fit a native int, and it is no
       address either, so [Addr.of_int64] rejects it *)
    Value.ptr ~ty:p (Addr.of_int64 (Bytes.get_int64_le d off))
  else begin
    let w = (hi lsl 32) lor get_u32 d off in
    let i = ((w * 0x9E3779B97F4A7C1) lsr 40) land (ptr_cache_size - 1) in
    match Array.unsafe_get c.pc_vals i with
    | Value.VPtr (_, q) as v when Array.unsafe_get c.pc_words i = w && (q == p || Cty.equal q p) -> v
    | _ ->
      let v = Value.VPtr (Addr.of_word w, p) in
      Array.unsafe_set c.pc_words i w;
      Array.unsafe_set c.pc_vals i v;
      v
  end

(* Load a scalar at [off]; pointer loads go through [cache]. *)
let load_at t (cache : ptr_cache) off (ty : Cty.t) : Value.t =
  match ty with
  | Cty.Char ->
    check t off 1;
    let c = Char.code (Bytes.get t.data off) in
    Value.of_int ~ty (if c > 127 then c - 256 else c)
  | Cty.Uchar ->
    check t off 1;
    Value.of_int ~ty (Char.code (Bytes.get t.data off))
  | Cty.Short | Cty.Ushort ->
    check t off 2;
    Value.of_int ~ty (Bytes.get_uint16_le t.data off)
  | Cty.Int ->
    check t off 4;
    Value.of_int (get_u32 t.data off)
  | Cty.Uint ->
    check t off 4;
    Value.of_int ~ty (get_u32 t.data off)
  | Cty.Long | Cty.Ulong ->
    check t off 8;
    Value.int ~ty (Bytes.get_int64_le t.data off)
  | Cty.Float ->
    check t off 4;
    (* a binary32 widened to double is already rounded to binary32 *)
    Value.VFlt (Int32.float_of_bits (Bytes.get_int32_le t.data off), Cty.Float)
  | Cty.Double ->
    check t off 8;
    Value.VFlt (Int64.float_of_bits (Bytes.get_int64_le t.data off), Cty.Double)
  | Cty.Ptr p ->
    check t off 8;
    load_ptr t cache off p
  | (Cty.Void | Cty.Array _ | Cty.Struct _ | Cty.Func _) as ty ->
    raise (Bad_access ("load of non-scalar type " ^ Cty.show ty))

let load_scalar t (_env : Cty.layout_env) (a : Addr.t) (ty : Cty.t) : Value.t =
  match ty with
  | Cty.Array (elt, _) -> Value.ptr ~ty:elt a (* array lvalue decays to pointer *)
  | _ -> load_at t t.ptr_cache a.off ty

let store_at t off (ty : Cty.t) (v : Value.t) =
  match ty with
  | Cty.Char | Cty.Uchar ->
    check t off 1;
    Bytes.set_uint8 t.data off (Int64.to_int (Value.as_int v) land 0xFF)
  | Cty.Short | Cty.Ushort ->
    check t off 2;
    Bytes.set_uint16_le t.data off (Int64.to_int (Value.as_int v) land 0xFFFF)
  | Cty.Int | Cty.Uint ->
    check t off 4;
    set_u32 t.data off (Int64.to_int (Value.as_int v))
  | Cty.Long | Cty.Ulong ->
    check t off 8;
    Bytes.set_int64_le t.data off (Value.as_int v)
  | Cty.Float ->
    check t off 4;
    let f = match v with Value.VFlt (f, _) -> f | v -> Value.as_float v in
    Bytes.set_int32_le t.data off (Int32.bits_of_float f)
  | Cty.Double ->
    check t off 8;
    let f = match v with Value.VFlt (f, _) -> f | v -> Value.as_float v in
    Bytes.set_int64_le t.data off (Int64.bits_of_float f)
  | Cty.Ptr _ ->
    check t off 8;
    let w = Addr.to_word (Value.as_addr v) in
    set_u32 t.data off (w land 0xFFFFFFFF);
    set_u32 t.data (off + 4) (w lsr 32)
  | (Cty.Void | Cty.Array _ | Cty.Struct _ | Cty.Func _) as ty ->
    raise (Bad_access ("store of non-scalar type " ^ Cty.show ty))

let store_scalar t (_env : Cty.layout_env) (a : Addr.t) (ty : Cty.t) (v : Value.t) = store_at t a.off ty v

let blit_out t ~src_off ~len : Bytes.t =
  check t src_off len;
  Bytes.sub t.data src_off len

let blit_in t ~dst_off (b : Bytes.t) =
  let len = Bytes.length b in
  ensure t (dst_off + len);
  if dst_off + len > t.brk then t.brk <- dst_off + len;
  Bytes.blit b 0 t.data dst_off len

let copy ~src ~src_off ~dst ~dst_off ~len =
  check src src_off len;
  ensure dst (dst_off + len);
  if dst_off + len > dst.brk then dst.brk <- dst_off + len;
  Bytes.blit src.data src_off dst.data dst_off len
