(* Perf.Trace / Perf.Json / Perf.Chrome_trace unit tests: ring-buffer
   retention and drop accounting, span pairing, exception safety,
   JSON round-trips and the Chrome trace-event export shape. *)

open Perf

let make ?capacity () =
  let clock = Machine.Simclock.create () in
  (clock, Trace.create ?capacity clock)

(* ---------------- ring buffer ---------------- *)

let test_emit_and_read () =
  let clock, tr = make () in
  Trace.instant tr ~cat:"a" "first";
  Machine.Simclock.advance_ns clock 500.0;
  Trace.instant tr ~args:[ ("n", Trace.Int 7) ] ~cat:"a" "second";
  Alcotest.(check int) "length" 2 (Trace.length tr);
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped tr);
  match Trace.events tr with
  | [ e1; e2 ] ->
    Alcotest.(check string) "oldest first" "first" e1.Trace.ev_name;
    Alcotest.(check (float 0.0)) "timestamp zero" 0.0 e1.Trace.ev_ts_ns;
    Alcotest.(check (float 0.0)) "timestamp advanced" 500.0 e2.Trace.ev_ts_ns;
    Alcotest.(check (option int)) "args preserved" (Some 7) (Trace.int_arg e2 "n")
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_ring_wraps () =
  let _, tr = make ~capacity:4 () in
  for i = 0 to 9 do
    Trace.instant tr ~args:[ ("i", Trace.Int i) ] ~cat:"w" "tick"
  done;
  Alcotest.(check int) "retains capacity" 4 (Trace.length tr);
  Alcotest.(check int) "drop count" 6 (Trace.dropped tr);
  let kept = List.filter_map (fun e -> Trace.int_arg e "i") (Trace.events tr) in
  Alcotest.(check (list int)) "newest survive, oldest first" [ 6; 7; 8; 9 ] kept

let test_clear () =
  let _, tr = make ~capacity:4 () in
  for _ = 0 to 9 do
    Trace.instant tr ~cat:"w" "tick"
  done;
  Trace.clear tr;
  Alcotest.(check int) "empty" 0 (Trace.length tr);
  Alcotest.(check int) "drops reset" 0 (Trace.dropped tr)

(* ---------------- spans ---------------- *)

let test_span_pairing () =
  let clock, tr = make () in
  Trace.begin_span tr ~args:[ ("file", Trace.Str "k1.cu") ] ~cat:"launch" "load";
  Machine.Simclock.advance_us clock 3.0;
  Trace.begin_span tr ~cat:"launch" "launch";
  Machine.Simclock.advance_us clock 2.0;
  Trace.end_span tr ~cat:"launch" "launch";
  Trace.end_span tr ~cat:"launch" "load";
  match Trace.spans tr with
  | [ inner; outer ] ->
    (* completion order: the nested span closes first *)
    Alcotest.(check string) "inner name" "launch" inner.Trace.sp_name;
    Alcotest.(check (float 0.0)) "inner duration" 2000.0 inner.Trace.sp_dur_ns;
    Alcotest.(check string) "outer name" "load" outer.Trace.sp_name;
    Alcotest.(check (float 0.0)) "outer duration" 5000.0 outer.Trace.sp_dur_ns;
    Alcotest.(check bool) "begin args kept" true
      (List.mem_assoc "file" outer.Trace.sp_args)
  | sps -> Alcotest.failf "expected 2 spans, got %d" (List.length sps)

let test_unmatched_end_skipped () =
  let _, tr = make () in
  Trace.end_span tr ~cat:"x" "stray";
  Trace.begin_span tr ~cat:"x" "ok";
  Trace.end_span tr ~cat:"x" "ok";
  Alcotest.(check int) "only the matched pair" 1 (List.length (Trace.spans tr))

exception Boom

let test_with_span_on_exception () =
  let _, tr = make () in
  (match Trace.with_span tr ~cat:"launch" "load" (fun () -> raise Boom) with
  | exception Boom -> ()
  | _ -> Alcotest.fail "exception must propagate");
  match Trace.events tr with
  | [ b; e ] ->
    Alcotest.(check bool) "begin kind" true (b.Trace.ev_kind = Trace.Begin);
    Alcotest.(check bool) "end emitted despite raise" true (e.Trace.ev_kind = Trace.End);
    Alcotest.(check bool) "end carries the error" true (Trace.str_arg e "error" <> None)
  | evs -> Alcotest.failf "expected begin+end, got %d events" (List.length evs)

let test_find_and_count () =
  let _, tr = make () in
  Trace.instant tr ~cat:"jit" "jit_compile";
  Trace.instant tr ~cat:"jit" "jit_cache_hit";
  Trace.instant tr ~cat:"mem" "mem_alloc";
  Alcotest.(check int) "by cat" 2 (Trace.count_events tr ~cat:"jit" ());
  Alcotest.(check int) "by cat+name" 1 (Trace.count_events tr ~cat:"jit" ~name:"jit_compile" ());
  Alcotest.(check int) "by name" 1 (List.length (Trace.find_events tr ~name:"mem_alloc" ()))

(* ---------------- JSON ---------------- *)

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "quote \" backslash \\ newline \n tab \t");
        ("n", Json.Num 1536.0);
        ("f", Json.Num 2.5);
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("l", Json.List [ Json.Num 1.0; Json.Str "two"; Json.Bool false ]);
        ("empty", Json.Obj []);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round trip" true (v = v')
  | Error msg -> Alcotest.failf "re-parse failed: %s" msg

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

let test_json_accessors () =
  let v =
    match Json.of_string {|{"a": [1, 2], "b": {"c": "x"}, "d": true}|} with
    | Ok v -> v
    | Error msg -> Alcotest.failf "parse: %s" msg
  in
  Alcotest.(check (option bool)) "bool" (Some true) (Option.bind (Json.member "d" v) Json.to_bool_opt);
  Alcotest.(check (option string)) "nested string" (Some "x")
    (Option.bind (Json.member "b" v) (fun b -> Option.bind (Json.member "c" b) Json.to_string_opt));
  Alcotest.(check (option int)) "list length" (Some 2)
    (Option.map List.length (Option.bind (Json.member "a" v) Json.to_list_opt));
  Alcotest.(check bool) "missing member" true (Json.member "zz" v = None)

(* ---------------- Chrome export ---------------- *)

let test_chrome_export_shape () =
  let clock, tr = make () in
  Trace.begin_span tr ~args:[ ("bytes", Trace.Int 4096) ] ~cat:"transfer" "HtoD";
  Machine.Simclock.advance_us clock 10.0;
  Trace.end_span tr ~cat:"transfer" "HtoD";
  Trace.instant tr ~cat:"jit" "jit_compile";
  Trace.counter tr ~args:[ ("chunk_grabs", Trace.Int 3) ] ~cat:"kernel" "launch_counters";
  let doc =
    match Json.of_string (Chrome_trace.to_string tr) with
    | Ok v -> v
    | Error msg -> Alcotest.failf "export does not parse: %s" msg
  in
  let events =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list_opt with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents array"
  in
  let phases =
    List.filter_map (fun e -> Option.bind (Json.member "ph" e) Json.to_string_opt) events
  in
  Alcotest.(check (list string)) "phases in order" [ "B"; "E"; "i"; "C" ] phases;
  (* Chrome timestamps are microseconds *)
  let ts =
    List.filter_map (fun e -> Option.bind (Json.member "ts" e) Json.to_number_opt) events
  in
  Alcotest.(check (list (float 0.0))) "ts in us" [ 0.0; 10.0; 10.0; 10.0 ] ts;
  (match List.nth_opt events 0 with
  | Some b ->
    Alcotest.(check (option string)) "cat" (Some "transfer")
      (Option.bind (Json.member "cat" b) Json.to_string_opt);
    Alcotest.(check (option (float 0.0))) "args.bytes" (Some 4096.0)
      (Option.bind (Json.member "args" b) (fun a ->
           Option.bind (Json.member "bytes" a) Json.to_number_opt))
  | None -> Alcotest.fail "no events");
  match Option.bind (Json.member "otherData" doc) (Json.member "droppedEvents") with
  | Some (Json.Num 0.0) -> ()
  | _ -> Alcotest.fail "otherData.droppedEvents missing or wrong"

(* ---------------- Complete ("X") events ---------------- *)

let test_complete_events () =
  let clock, tr = make () in
  Machine.Simclock.advance_us clock 5.0;
  (* the interval may start ahead of the current clock (enqueue time) *)
  Trace.complete tr ~tid:2 ~cat:"async" ~ts_ns:9000.0 ~dur_ns:3000.0 "HtoD"
    ~args:[ ("bytes", Trace.Int 4096) ];
  (match Trace.events tr with
  | [ e ] ->
    Alcotest.(check bool) "kind" true (e.Trace.ev_kind = Trace.Complete);
    Alcotest.(check (float 0.0)) "scheduled start, not clock" 9000.0 e.Trace.ev_ts_ns;
    Alcotest.(check (float 0.0)) "duration" 3000.0 e.Trace.ev_dur_ns;
    Alcotest.(check int) "timeline id" 2 e.Trace.ev_tid
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  Alcotest.(check bool) "negative duration raises" true
    (match Trace.complete tr ~cat:"async" ~ts_ns:0.0 ~dur_ns:(-1.0) "bad" with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_complete_in_spans () =
  let clock, tr = make () in
  Trace.begin_span tr ~cat:"kernel" "launch";
  Machine.Simclock.advance_us clock 4.0;
  Trace.end_span tr ~cat:"kernel" "launch";
  Trace.complete tr ~tid:1 ~cat:"async" ~ts_ns:10000.0 ~dur_ns:2000.0 "DtoH";
  let spans = Trace.spans tr in
  Alcotest.(check int) "pair and Complete both reported" 2 (List.length spans);
  let sp = List.find (fun s -> s.Trace.sp_name = "DtoH") spans in
  Alcotest.(check (float 0.0)) "span start" 10000.0 sp.Trace.sp_ts_ns;
  Alcotest.(check (float 0.0)) "span duration" 2000.0 sp.Trace.sp_dur_ns

let test_chrome_export_complete () =
  let _, tr = make () in
  Trace.complete tr ~tid:3 ~cat:"async" ~ts_ns:2000.0 ~dur_ns:1500.0 "HtoD";
  let doc =
    match Json.of_string (Chrome_trace.to_string tr) with
    | Ok v -> v
    | Error msg -> Alcotest.failf "export does not parse: %s" msg
  in
  let e =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list_opt with
    | Some [ e ] -> e
    | _ -> Alcotest.fail "expected exactly one trace event"
  in
  let num k = Option.bind (Json.member k e) Json.to_number_opt in
  Alcotest.(check (option string)) "ph X" (Some "X")
    (Option.bind (Json.member "ph" e) Json.to_string_opt);
  (* Chrome wants microseconds *)
  Alcotest.(check (option (float 0.0))) "ts us" (Some 2.0) (num "ts");
  Alcotest.(check (option (float 0.0))) "dur us" (Some 1.5) (num "dur");
  Alcotest.(check (option (float 0.0))) "tid is the stream" (Some 3.0) (num "tid")

let test_chrome_write_file () =
  let _, tr = make () in
  Trace.instant tr ~cat:"init" "device_init";
  let path = Filename.temp_file "trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Chrome_trace.write_file path tr;
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Json.of_string s with
      | Ok doc -> Alcotest.(check bool) "file parses" true (Json.member "traceEvents" doc <> None)
      | Error msg -> Alcotest.failf "written file invalid: %s" msg)

(* ---------------- golden launch traces ---------------- *)

(* End-to-end launches through the host runtime, pinned event by event:
   the ordered (cat, name, phase, ts, dur) of every launch, load,
   kernel, transfer, async and shard event, then each recorded launch's
   cost breakdown, device by device.  Any change to the launch path
   that moves a simulated nanosecond or reorders a phase shows up
   here.  On a mismatch the actual lines are printed to stderr, ready
   to paste back after an intended change. *)

let golden_cats = [ "launch"; "load"; "kernel"; "transfer"; "async"; "shard" ]

let kind_tag = function
  | Trace.Begin -> "B"
  | Trace.End -> "E"
  | Trace.Instant -> "i"
  | Trace.Counter -> "C"
  | Trace.Complete -> "X"

let golden_lines (ctx : Polybench.Harness.ctx) (tr : Trace.t) : string list =
  let events =
    List.filter_map
      (fun e ->
        if List.mem e.Trace.ev_cat golden_cats then
          Some
            (Printf.sprintf "%s %s %s %.17g %.17g" e.Trace.ev_cat e.Trace.ev_name
               (kind_tag e.Trace.ev_kind) e.Trace.ev_ts_ns e.Trace.ev_dur_ns)
        else None)
      (Trace.events tr)
  in
  let rt = ctx.Polybench.Harness.rt in
  let stats =
    List.concat
      (List.init (Hostrt.Rt.num_devices rt) (fun d ->
           List.rev_map
             (fun (s : Gpusim.Driver.launch_stats) ->
               let b = s.Gpusim.Driver.st_breakdown in
               Printf.sprintf
                 "stats dev%d %s issue=%.17g mem=%.17g barrier=%.17g total=%.17g ns=%.17g \
                  bytes=%.17g zc=%.17g div=%.17g blocks=%d/%d"
                 d s.Gpusim.Driver.st_entry b.Gpusim.Costmodel.bd_issue_cycles
                 b.Gpusim.Costmodel.bd_mem_cycles b.Gpusim.Costmodel.bd_barrier_cycles
                 b.Gpusim.Costmodel.bd_total_cycles b.Gpusim.Costmodel.bd_time_ns
                 b.Gpusim.Costmodel.bd_global_bytes b.Gpusim.Costmodel.bd_zerocopy_bytes
                 b.Gpusim.Costmodel.bd_divergence s.Gpusim.Driver.st_blocks_simulated
                 s.Gpusim.Driver.st_blocks_total)
             (Hostrt.Rt.device rt d).Hostrt.Rt.dev_driver.Gpusim.Driver.launches))
  in
  events @ stats

let check_golden name (expected : string list) (actual : string list) =
  if expected <> actual then begin
    prerr_endline ("actual " ^ name ^ ":");
    List.iter (fun l -> Printf.eprintf "      %S;\n" l) actual
  end;
  Alcotest.(check (list string)) name expected actual

module H = Polybench.Harness

let axpy_n = 256

(* Run [source]'s [entry] (n, x, y) on a fresh, traced runtime. *)
let golden_run ?(devices = 1) ?faults ~name ~entry source : string list =
  let ctx = H.create ~devices () in
  H.set_sampling ctx None;
  Option.iter (fun rules -> H.set_faults ctx ~seed:7 rules) faults;
  let x = H.alloc_f32 ctx axpy_n and y = H.alloc_f32 ctx axpy_n in
  H.fill_f32 ctx x axpy_n (fun i -> float_of_int (i mod 7) *. 0.5);
  H.fill_f32 ctx y axpy_n (fun i -> float_of_int (i mod 3));
  let p = H.prepare_omp ctx ~name source in
  let tr = H.enable_trace ctx in
  H.call_omp p entry [ H.vint axpy_n; H.fptr x; H.fptr y ];
  golden_lines ctx tr

(* One target region offloaded twice: the first launch takes the full
   three-phase path, the second the resident-module fast path. *)
let solo_src =
  {|
void twice(int n, float x[], float y[])
{
  for (int r = 0; r < 2; r++) {
    #pragma omp target teams distribute parallel for num_teams(4) num_threads(64) \
        map(to: n, x[0:n]) map(tofrom: y[0:n])
    for (int i = 0; i < n; i++)
      y[i] = y[i] + 2.0f * x[i];
  }
}
|}

let nowait_src =
  {|
void later(int n, float x[], float y[])
{
  #pragma omp target teams distribute parallel for nowait num_teams(4) num_threads(64) \
      map(to: n, x[0:n]) map(tofrom: y[0:n])
  for (int i = 0; i < n; i++)
    y[i] = y[i] + 2.0f * x[i];
  #pragma omp taskwait
}
|}

let sharded_src =
  {|
void sharded(int n, float x[], float y[])
{
  #pragma omp target teams distribute parallel for num_teams(4) num_threads(64) \
      map(to: n, x[0:n]) map(tofrom: y[0:n])
  for (int i = 0; i < n; i++)
    y[i] = y[i] + 2.0f * x[i];
}
|}

let golden_solo_expected =
  [
    "transfer HtoD B 180006003.63636363 0";
    "transfer HtoD E 180021005.85858583 0";
    "transfer HtoD B 180027008.58585855 0";
    "transfer HtoD E 180042577.47474745 0";
    "transfer HtoD B 180048580.20202017 0";
    "transfer HtoD E 180064149.09090906 0";
    "launch load B 180064154.5454545 0";
    "load module_load B 180064154.5454545 0";
    "load module_load E 180226106.5454545 0";
    "launch load E 180226106.5454545 0";
    "launch parameter_preparation B 180226106.5454545 0";
    "launch parameter_preparation E 180226106.5454545 0";
    "launch launch B 180226106.5454545 0";
    "kernel twice_kernel0 B 180226106.5454545 0";
    "kernel launch_counters C 180238181.06802395 0";
    "kernel twice_kernel0 E 180238181.06802395 0";
    "launch launch E 180238181.06802395 0";
    "transfer DtoH B 180238182.88620576 0";
    "transfer DtoH E 180253751.77509466 0";
    "transfer HtoD B 180271759.95691282 0";
    "transfer HtoD E 180286762.17913502 0";
    "transfer HtoD B 180292764.90640774 0";
    "transfer HtoD E 180308333.79529664 0";
    "transfer HtoD B 180314336.52256936 0";
    "transfer HtoD E 180329905.41145825 0";
    "load module_resident i 180329910.86600369 0";
    "launch launch_fast_path i 180329910.86600369 0";
    "launch launch B 180329910.86600369 0";
    "kernel twice_kernel0 B 180329910.86600369 0";
    "kernel launch_counters C 180341985.38857314 0";
    "kernel twice_kernel0 E 180341985.38857314 0";
    "launch launch E 180341985.38857314 0";
    "transfer DtoH B 180341987.20675495 0";
    "transfer DtoH E 180357556.09564385 0";
    "stats dev0 twice_kernel0 issue=68.680000000000007 mem=63.406080000000003 barrier=0 total=68.680000000000007 ns=74.522569444444457 bytes=1761.2800000000002 zc=0 div=1 blocks=4/4";
    "stats dev0 twice_kernel0 issue=68.680000000000007 mem=63.406080000000003 barrier=0 total=68.680000000000007 ns=74.522569444444457 bytes=1761.2800000000002 zc=0 div=1 blocks=4/4";
  ]

let golden_nowait_expected =
  [
    "launch load B 180000007.27272725 0";
    "load module_load B 180000007.27272725 0";
    "load module_load E 180161959.27272725 0";
    "launch load E 180161959.27272725 0";
    "async stream_create i 180162959.27272725 0";
    "async stream_create i 180163959.27272725 0";
    "async stream_create i 180164959.27272725 0";
    "async stream_create i 180165959.27272725 0";
    "async enqueue i 180165959.27272725 0";
    "launch parameter_preparation B 180165959.27272725 0";
    "async HtoD X 180173459.27272725 15002.222222208977";
    "async HtoD X 180188461.49494946 15568.888888895512";
    "async HtoD X 180204030.38383836 15568.888888895512";
    "launch parameter_preparation E 180188459.27272725 0";
    "launch launch B 180188459.27272725 0";
    "async later_kernel0 X 180219599.27272725 74.522569447755814";
    "kernel launch_counters C 180200459.27272725 0";
    "launch launch E 180200459.27272725 0";
    "async DtoH X 180219673.7952967 15568.888888895512";
    "async taskwait i 180213960.18181816 0";
    "async device_sync i 180235242.68418559 0";
    "stats dev0 later_kernel0 issue=68.680000000000007 mem=63.406080000000003 barrier=0 total=68.680000000000007 ns=74.522569444444457 bytes=1761.2800000000002 zc=0 div=1 blocks=4/4";
  ]

let golden_sharded_expected =
  [
    "transfer HtoD B 360006001.81818187 0";
    "transfer HtoD E 360021004.04040408 0";
    "transfer HtoD B 360027006.76767689 0";
    "transfer HtoD E 360042575.65656579 0";
    "transfer HtoD B 360048578.38383859 0";
    "transfer HtoD E 360064147.27272749 0";
    "transfer HtoD B 360070152.72727311 0";
    "transfer HtoD E 360085154.94949532 0";
    "transfer HtoD B 360091154.94949532 0";
    "transfer HtoD E 360106723.83838421 0";
    "transfer HtoD B 360112723.83838421 0";
    "transfer HtoD E 360128292.72727311 0";
    "launch load B 360128292.72727311 0";
    "load module_load B 360128292.72727311 0";
    "load module_load E 360290264.72727311 0";
    "launch load E 360290264.72727311 0";
    "launch parameter_preparation B 360290264.72727311 0";
    "launch parameter_preparation E 360290264.72727311 0";
    "async stream_create i 360291264.72727311 0";
    "launch load B 360291264.72727311 0";
    "load module_load B 360291264.72727311 0";
    "load module_load E 360453236.72727311 0";
    "launch load E 360453236.72727311 0";
    "launch parameter_preparation B 360453236.72727311 0";
    "launch parameter_preparation E 360453236.72727311 0";
    "async stream_create i 360454236.72727311 0";
    "shard shard_plan i 360454236.72727311 0";
    "launch launch B 360454236.72727311 0";
    "async sharded_kernel0 X 360466236.72727311 1736.1111111044884";
    "kernel launch_counters C 360466236.72727311 0";
    "launch launch E 360466236.72727311 0";
    "launch launch B 360466236.72727311 0";
    "launch launch E 360466236.72727311 0";
    "shard shard_host_fallback i 360466236.72727311 0";
    "async DtoH X 360469482.18181854 15284.444444417953";
    "async HtoD X 360484766.62626296 15002.222222208977";
    "async HtoD X 360499768.84848517 15568.888888895512";
    "async HtoD X 360515337.73737407 15568.888888895512";
    "async device_sync i 360530906.62626296 0";
    "async device_sync i 360530906.62626296 0";
    "transfer DtoH B 360530908.44444484 0";
    "transfer DtoH E 360546477.33333373 0";
    "stats dev0 sharded_kernel0 issue=34.340000000000003 mem=1600 barrier=0 total=1600 ns=1736.1111111111111 bytes=880.6400000000001 zc=0 div=1 blocks=2/2";
  ]

let test_golden_solo () =
  check_golden "solo launch twice" golden_solo_expected
    (golden_run ~name:"golden_solo" ~entry:"twice" solo_src)

let test_golden_nowait () =
  check_golden "target nowait" golden_nowait_expected
    (golden_run ~name:"golden_nowait" ~entry:"later" nowait_src)

(* Two devices, a fatal fault on the second launch (the secondary's
   shard): that shard re-runs on the host, the primary stays alive. *)
let test_golden_sharded () =
  let faults =
    match Hostrt.Faults.parse "launch:nth=2,kind=fatal" with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  check_golden "2-device shard, secondary dies" golden_sharded_expected
    (golden_run ~devices:2 ~faults ~name:"golden_sharded" ~entry:"sharded" sharded_src)

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "emit and read back" `Quick test_emit_and_read;
          Alcotest.test_case "wrap-around drops oldest" `Quick test_ring_wraps;
          Alcotest.test_case "clear" `Quick test_clear;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nested pairing" `Quick test_span_pairing;
          Alcotest.test_case "unmatched end skipped" `Quick test_unmatched_end_skipped;
          Alcotest.test_case "with_span on exception" `Quick test_with_span_on_exception;
          Alcotest.test_case "find and count" `Quick test_find_and_count;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "complete events",
        [
          Alcotest.test_case "emit, read, negative dur" `Quick test_complete_events;
          Alcotest.test_case "reported as spans" `Quick test_complete_in_spans;
        ] );
      ( "chrome export",
        [
          Alcotest.test_case "event shape" `Quick test_chrome_export_shape;
          Alcotest.test_case "Complete as ph X" `Quick test_chrome_export_complete;
          Alcotest.test_case "write_file" `Quick test_chrome_write_file;
        ] );
      ( "golden launch trace",
        [
          Alcotest.test_case "solo launch twice" `Quick test_golden_solo;
          Alcotest.test_case "target nowait" `Quick test_golden_nowait;
          Alcotest.test_case "2-device shard, secondary dies" `Quick test_golden_sharded;
        ] );
    ]
