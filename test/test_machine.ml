(* Unit and property tests for the machine substrate: C types and
   layouts, value semantics, memory regions, addresses, clock. *)

open Machine

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* ------------------------- Cty ------------------------- *)

let env () = Cty.create_layout_env ()

let test_scalar_sizes () =
  let e = env () in
  List.iter
    (fun (ty, size) -> check_int (Cty.show ty) size (Cty.sizeof e ty))
    [
      (Cty.Char, 1); (Cty.Uchar, 1); (Cty.Short, 2); (Cty.Ushort, 2); (Cty.Int, 4);
      (Cty.Uint, 4); (Cty.Long, 8); (Cty.Ulong, 8); (Cty.Float, 4); (Cty.Double, 8);
      (Cty.Ptr Cty.Float, 8); (Cty.Ptr (Cty.Ptr Cty.Int), 8);
    ]

let test_array_sizes () =
  let e = env () in
  check_int "float[10]" 40 (Cty.sizeof e (Cty.Array (Cty.Float, Some 10)));
  check_int "float[4][8]" 128 (Cty.sizeof e (Cty.Array (Cty.Array (Cty.Float, Some 8), Some 4)));
  Alcotest.check_raises "incomplete array" (Cty.Type_error "sizeof of incomplete array") (fun () ->
      ignore (Cty.sizeof e (Cty.Array (Cty.Int, None))))

let test_struct_layout () =
  let e = env () in
  let lay = Cty.define_struct e "s" [ ("c", Cty.Char); ("i", Cty.Int); ("d", Cty.Double); ("c2", Cty.Char) ] in
  check_int "size (padded)" 24 lay.Cty.lay_size;
  check_int "align" 8 lay.Cty.lay_align;
  check_int "offset c" 0 (Cty.find_field e "s" "c").Cty.fld_off;
  check_int "offset i" 4 (Cty.find_field e "s" "i").Cty.fld_off;
  check_int "offset d" 8 (Cty.find_field e "s" "d").Cty.fld_off;
  check_int "offset c2" 16 (Cty.find_field e "s" "c2").Cty.fld_off

let test_struct_nesting () =
  let e = env () in
  ignore (Cty.define_struct e "inner" [ ("x", Cty.Int); ("y", Cty.Int) ]);
  let lay = Cty.define_struct e "outer" [ ("c", Cty.Char); ("in", Cty.Struct "inner") ] in
  check_int "outer size" 12 lay.Cty.lay_size;
  check_int "inner at offset 4" 4 (Cty.find_field e "outer" "in").Cty.fld_off

let test_common_arith () =
  let t = Alcotest.testable (Fmt.of_to_string Cty.show) Cty.equal in
  Alcotest.check t "int+int" Cty.Int (Cty.common_arith Cty.Int Cty.Int);
  Alcotest.check t "char+short promotes" Cty.Int (Cty.common_arith Cty.Char Cty.Short);
  Alcotest.check t "int+float" Cty.Float (Cty.common_arith Cty.Int Cty.Float);
  Alcotest.check t "float+double" Cty.Double (Cty.common_arith Cty.Float Cty.Double);
  Alcotest.check t "int+uint" Cty.Uint (Cty.common_arith Cty.Int Cty.Uint);
  Alcotest.check t "long+int" Cty.Long (Cty.common_arith Cty.Long Cty.Int)

let test_c_syntax () =
  let s ?name ty = Cty.to_c_string ?name ty in
  Alcotest.(check string) "ptr" "float *x" (s ~name:"x" (Cty.Ptr Cty.Float));
  Alcotest.(check string) "array" "int a[10]" (s ~name:"a" (Cty.Array (Cty.Int, Some 10)));
  Alcotest.(check string) "ptr to array" "int (*x)[96]"
    (s ~name:"x" (Cty.Ptr (Cty.Array (Cty.Int, Some 96))));
  Alcotest.(check string) "array of ptr" "int *x[4]"
    (s ~name:"x" (Cty.Array (Cty.Ptr Cty.Int, Some 4)));
  Alcotest.(check string) "2d" "float m[2][3]"
    (s ~name:"m" (Cty.Array (Cty.Array (Cty.Float, Some 3), Some 2)))

let test_decay_pointee () =
  let t = Alcotest.testable (Fmt.of_to_string Cty.show) Cty.equal in
  Alcotest.check t "array decays" (Cty.Ptr Cty.Float) (Cty.decay (Cty.Array (Cty.Float, Some 4)));
  Alcotest.check t "scalar unchanged" Cty.Int (Cty.decay Cty.Int);
  Alcotest.check t "pointee of ptr" Cty.Float (Cty.pointee (Cty.Ptr Cty.Float));
  Alcotest.check t "pointee of array" Cty.Int (Cty.pointee (Cty.Array (Cty.Int, Some 3)))

(* ------------------------- Value ------------------------- *)

let test_normalise_int () =
  let v ty i = Value.as_int (Value.int ~ty i) in
  Alcotest.(check int64) "char wrap" (-128L) (v Cty.Char 128L);
  Alcotest.(check int64) "uchar wrap" 255L (v Cty.Uchar (-1L));
  Alcotest.(check int64) "short wrap" (-32768L) (v Cty.Short 32768L);
  Alcotest.(check int64) "int wrap" Int64.(of_int32 Int32.min_int) (v Cty.Int 0x80000000L);
  Alcotest.(check int64) "uint wrap" 0xFFFFFFFFL (v Cty.Uint (-1L));
  Alcotest.(check int64) "long identity" Int64.max_int (v Cty.Long Int64.max_int)

let test_float32_rounding () =
  let v = Value.flt ~ty:Cty.Float 0.1 in
  let f = Value.as_float v in
  check_bool "rounded to binary32" true (f <> 0.1);
  check_bool "close to 0.1" true (Float.abs (f -. 0.1) < 1e-7);
  let d = Value.flt ~ty:Cty.Double 0.1 in
  check_bool "double keeps precision" true (Value.as_float d = 0.1)

let test_casts () =
  Alcotest.(check int64) "float->int truncates" 3L (Value.as_int (Value.cast Cty.Int (Value.flt 3.9)));
  Alcotest.(check int64) "negative float->int" (-3L)
    (Value.as_int (Value.cast Cty.Int (Value.flt (-3.9))));
  check_bool "int->float" true (Value.as_float (Value.cast Cty.Double (Value.of_int 42)) = 42.0);
  Alcotest.(check int64) "int->char" 1L (Value.as_int (Value.cast Cty.Char (Value.int 257L)))

let test_truthiness () =
  check_bool "zero false" false (Value.is_true (Value.of_int 0));
  check_bool "nonzero true" true (Value.is_true (Value.of_int (-7)));
  check_bool "0.0 false" false (Value.is_true (Value.flt 0.0));
  check_bool "null false" false (Value.is_true (Value.ptr Addr.null))

let prop_normalise_idempotent =
  QCheck.Test.make ~name:"int normalisation is idempotent" ~count:500
    QCheck.(pair (oneofl [ Cty.Char; Cty.Uchar; Cty.Short; Cty.Ushort; Cty.Int; Cty.Uint; Cty.Long ]) int64)
    (fun (ty, i) ->
      let once = Value.normalise_int ty i in
      Value.normalise_int ty once = once)

let prop_addr_roundtrip =
  QCheck.Test.make ~name:"address int64 encoding roundtrips" ~count:500
    QCheck.(pair (int_bound 0xFFFFF) (int_bound 3))
    (fun (off, tag) ->
      let space =
        match tag with
        | 0 -> Addr.Host
        | 1 -> Addr.Global
        | 2 -> Addr.Shared (off land 0xFF)
        | _ -> Addr.Local (off land 0xFF)
      in
      let a = { Addr.space; off } in
      Addr.equal (Addr.of_int64 (Addr.to_int64 a)) a)

(* ------------------------- Mem ------------------------- *)

let test_mem_alloc_free () =
  let m = Mem.create ~space:Addr.Global "test" in
  let a = Mem.alloc m 100 in
  let b = Mem.alloc m 50 in
  check_bool "distinct" true (a.Addr.off <> b.Addr.off);
  check_bool "no overlap" true (abs (a.Addr.off - b.Addr.off) >= 50);
  Mem.free m a;
  let c = Mem.alloc m 64 in
  check_int "freed space reused (first fit)" a.Addr.off c.Addr.off

let test_mem_free_coalescing () =
  let m = Mem.create ~space:Addr.Global "test" in
  let a = Mem.alloc m 64 in
  let b = Mem.alloc m 64 in
  let _c = Mem.alloc m 64 in
  Mem.free m a;
  Mem.free m b;
  (* coalesced hole of 128 bytes should satisfy this *)
  let d = Mem.alloc m 128 in
  check_int "coalesced reuse" a.Addr.off d.Addr.off

let test_mem_double_free () =
  let m = Mem.create ~space:Addr.Global "test" in
  let a = Mem.alloc m 16 in
  Mem.free m a;
  check_bool "double free raises" true
    (match Mem.free m a with exception Mem.Bad_access _ -> true | () -> false)

let test_mem_limit () =
  let m = Mem.create ~initial:64 ~limit:1024 ~space:Addr.Global "test" in
  check_bool "over-limit alloc raises" true
    (match Mem.alloc m 4096 with exception Mem.Out_of_memory _ -> true | _ -> false)

let test_mem_scalar_roundtrip () =
  let m = Mem.create ~space:Addr.Host "test" in
  let e = env () in
  let a = Mem.alloc m 64 in
  Mem.store_scalar m e a Cty.Int (Value.of_int (-123456));
  Alcotest.(check int64) "int roundtrip" (-123456L) (Value.as_int (Mem.load_scalar m e a Cty.Int));
  Mem.store_scalar m e (Addr.add a 8) Cty.Float (Value.flt ~ty:Cty.Float 1.5);
  check_bool "float roundtrip" true
    (Value.as_float (Mem.load_scalar m e (Addr.add a 8) Cty.Float) = 1.5);
  Mem.store_scalar m e (Addr.add a 16) Cty.Double (Value.flt 2.25);
  check_bool "double roundtrip" true
    (Value.as_float (Mem.load_scalar m e (Addr.add a 16) Cty.Double) = 2.25);
  let p = { Addr.space = Addr.Global; off = 4242 } in
  Mem.store_scalar m e (Addr.add a 24) (Cty.Ptr Cty.Float) (Value.ptr p);
  check_bool "pointer roundtrip" true
    (Addr.equal p (Value.as_addr (Mem.load_scalar m e (Addr.add a 24) (Cty.Ptr Cty.Float))))

(* Pointer loads through a cache: a repeated load of the same word and
   pointee type returns the cached value itself; the same word loaded
   as another pointee type, or a rewritten word, is a fresh value. *)
let test_mem_ptr_cache () =
  let m = Mem.create ~space:(Addr.Local 0) "stack" in
  let a = Mem.push m 8 in
  let p = { Addr.space = Addr.Shared 3; off = 4242 } in
  Mem.store_at m a.Addr.off (Cty.Ptr Cty.Float) (Value.ptr p);
  let load ty = Mem.load_at m m.Mem.ptr_cache a.Addr.off (Cty.Ptr ty) in
  let f1 = load Cty.Float in
  check_bool "float pointer" true (f1 = Value.VPtr (p, Cty.Float));
  check_bool "repeat load reuses the value" true (load Cty.Float == f1);
  check_bool "other pointee type" true (load Cty.Int = Value.VPtr (p, Cty.Int));
  let q = Addr.add p 4 in
  Mem.store_at m a.Addr.off (Cty.Ptr Cty.Float) (Value.ptr q);
  check_bool "rewritten word" true (load Cty.Float = Value.VPtr (q, Cty.Float));
  Mem.store_at m a.Addr.off Cty.Long (Value.int ~ty:Cty.Long 0x7F00_0000_0000_0001L);
  check_bool "non-address word rejected" true
    (match load Cty.Float with exception Invalid_argument _ -> true | _ -> false)

let test_mem_stack () =
  let m = Mem.create ~space:(Addr.Local 0) "stack" in
  let mark = Mem.mark m in
  let a = Mem.push m 32 in
  let b = Mem.push m 32 in
  check_bool "stack grows" true (b.Addr.off > a.Addr.off);
  Mem.release m mark;
  let c = Mem.push m 32 in
  check_int "released space reused" a.Addr.off c.Addr.off

let test_mem_bounds () =
  let m = Mem.create ~initial:64 ~limit:64 ~space:Addr.Host "test" in
  let e = env () in
  check_bool "out-of-bounds load raises" true
    (match Mem.load_scalar m e { Addr.space = Addr.Host; off = 1000 } Cty.Int with
    | exception Mem.Bad_access _ -> true
    | _ -> false)

let prop_alloc_no_overlap =
  QCheck.Test.make ~name:"live allocations never overlap" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 1 200))
    (fun sizes ->
      let m = Mem.create ~space:Addr.Global "test" in
      let allocs = List.map (fun s -> (Mem.alloc m s, s)) sizes in
      (* free every other allocation, then allocate again *)
      List.iteri (fun i (a, _) -> if i mod 2 = 0 then Mem.free m a) allocs;
      let live = List.filteri (fun i _ -> i mod 2 = 1) allocs in
      let fresh = List.map (fun s -> (Mem.alloc m s, s)) sizes in
      let regions = List.map (fun (a, s) -> (a.Addr.off, s)) (live @ fresh) in
      List.for_all
        (fun (o1, s1) ->
          List.for_all
            (fun (o2, s2) -> o1 = o2 || o1 + s1 <= o2 || o2 + s2 <= o1)
            regions)
        regions)

(* ------------------------- Simclock ------------------------- *)

let test_clock () =
  let c = Simclock.create () in
  check_bool "starts at 0" true (Simclock.now_ns c = 0.0);
  Simclock.advance_us c 5.0;
  Simclock.advance_ms c 1.0;
  check_bool "accumulates" true (Float.abs (Simclock.now_s c -. 0.001005) < 1e-12);
  check_bool "negative rejected" true
    (match Simclock.advance_ns c (-1.0) with exception Invalid_argument _ -> true | _ -> false);
  let (), d = Simclock.time c (fun () -> Simclock.advance_ms c 2.0) in
  check_bool "time measures" true (Float.abs (d -. 0.002) < 1e-12)

let () =
  Alcotest.run "machine"
    [
      ( "cty",
        [
          Alcotest.test_case "scalar sizes" `Quick test_scalar_sizes;
          Alcotest.test_case "array sizes" `Quick test_array_sizes;
          Alcotest.test_case "struct layout" `Quick test_struct_layout;
          Alcotest.test_case "struct nesting" `Quick test_struct_nesting;
          Alcotest.test_case "usual arithmetic conversions" `Quick test_common_arith;
          Alcotest.test_case "C declarator syntax" `Quick test_c_syntax;
          Alcotest.test_case "decay and pointee" `Quick test_decay_pointee;
        ] );
      ( "value",
        [
          Alcotest.test_case "integer normalisation" `Quick test_normalise_int;
          Alcotest.test_case "float32 rounding" `Quick test_float32_rounding;
          Alcotest.test_case "casts" `Quick test_casts;
          Alcotest.test_case "truthiness" `Quick test_truthiness;
          QCheck_alcotest.to_alcotest prop_normalise_idempotent;
          QCheck_alcotest.to_alcotest prop_addr_roundtrip;
        ] );
      ( "mem",
        [
          Alcotest.test_case "alloc/free first fit" `Quick test_mem_alloc_free;
          Alcotest.test_case "free-list coalescing" `Quick test_mem_free_coalescing;
          Alcotest.test_case "double free" `Quick test_mem_double_free;
          Alcotest.test_case "capacity limit" `Quick test_mem_limit;
          Alcotest.test_case "scalar roundtrips" `Quick test_mem_scalar_roundtrip;
          Alcotest.test_case "pointer-load cache" `Quick test_mem_ptr_cache;
          Alcotest.test_case "stack discipline" `Quick test_mem_stack;
          Alcotest.test_case "bounds checking" `Quick test_mem_bounds;
          QCheck_alcotest.to_alcotest prop_alloc_no_overlap;
        ] );
      ("simclock", [ Alcotest.test_case "advance and time" `Quick test_clock ]);
    ]
