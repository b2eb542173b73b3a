(* serve-mix: [Serve.run] over the default non-smoke session mix — 8
   sessions, 248 requests, 2 generations, 4 streams, 8 in flight — with
   the memory mode chosen by the autopilot.  An open loop: Poisson
   arrivals on the simulated clock from the benchmark seed, latency
   timed from each request's arrival.  The host data environments, the
   async tracker, the memory policy, the resident cache and the stream
   pool do most of the work here, around many small kernels; fig4 barely
   touches them. *)

let config ~seed ~traced =
  {
    Serve.default_config with
    Serve.cf_seed = seed;
    cf_mem_policy = Some Hostrt.Mempolicy.Auto;
    cf_trace = traced;
  }

(* Serving's set-up happens inside [Serve.run]; the benchmark's set-up
   figure is a cold start of the server on one single-request session:
   runtime creation with device init, one program's compile, its host
   reference and one request. *)
let cold_start =
  {
    Serve.ss_tag = 0;
    ss_app = Serve.Scale;
    ss_n = 64;
    ss_requests = 1;
    ss_rate_hz = 1000.0;
    ss_shared_off = None;
    ss_device = 0;
  }

(* Each pass serves the mix under [draws] arrival draws, seeded
   [draws * seed + r]: the simulated busy time of one draw is set by its
   arrival gaps, so one draw alone spreads widely from seed to seed.
   Simulated figures are means over the draws. *)
let draws = 3

(* One draw: ((wall seconds, reference seconds), allocated words, minor
   and major collections), attempted, failed, simulated figures. *)
let serve_once ~seed ~smoke ~traced =
  let sessions = Serve.default_sessions ~smoke in
  let result, wall_s, ref_s, words, gc_minor, gc_major =
    Probe.measured (fun () ->
        match Span.with_ "serve.run" (fun () -> Serve.run (config ~seed ~traced) sessions) with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e))
  in
  let requests =
    List.fold_left
      (fun acc (s : Serve.session_spec) ->
        acc + (s.Serve.ss_requests * Serve.default_config.Serve.cf_generations))
      0 sessions
  in
  let measured = ((wall_s, ref_s), words, gc_minor, gc_major) in
  match result with
  | Error msg ->
    Printf.eprintf "check failed: Serve.run raised %s\n%!" msg;
    (measured, requests, requests, [])
  | Ok (rp, tr) ->
    let bad_sessions =
      List.fold_left
        (fun acc (s : Serve.session_report) ->
          if s.Serve.sr_ok then acc
          else begin
            Printf.eprintf "check failed: session %d (%s) differs from the host reference\n%!"
              s.Serve.sr_id s.Serve.sr_app;
            acc + s.Serve.sr_requests
          end)
        0 rp.Serve.rp_sessions
    in
    let missing = rp.Serve.rp_requests - rp.Serve.rp_completed in
    if missing > 0 then Printf.eprintf "check failed: %d requests not completed\n%!" missing;
    let f = float_of_int in
    let figures =
      [
        ("sim_s", rp.Serve.rp_busy_s);
        ("serve.throughput_rps", rp.Serve.rp_throughput_rps);
        ("serve.p50_ms", rp.Serve.rp_p50_ms);
        ("serve.p95_ms", rp.Serve.rp_p95_ms);
        ("serve.env_hit_rate", rp.Serve.rp_env_hit_rate);
        ("serve.mean_queue_depth", rp.Serve.rp_mean_queue_depth);
        ("serve.max_queue_depth", f rp.Serve.rp_max_queue_depth);
        ("serve.open_elisions", f rp.Serve.rp_open_elisions);
        ("serve.resident_buffers_end", f rp.Serve.rp_resident_buffers_end);
        ("dataenv.elided_h2d", f rp.Serve.rp_elided_h2d);
        ("dataenv.elided_d2h", f rp.Serve.rp_elided_d2h);
        ("dataenv.elided_pages", f rp.Serve.rp_elided_pages);
      ]
      @ Probe.policy_counts (List.concat_map snd rp.Serve.rp_policy)
      @ match tr with Some tr -> Probe.trace_counts tr @ Probe.ring_launch_counts tr | None -> []
    in
    (measured, rp.Serve.rp_requests, missing + bad_sessions, figures)

let pass ~seed ~smoke ~traced () : Probe.pass =
  let (), setup_s =
    Probe.repeated_setup (fun () ->
        let cfg = { (config ~seed ~traced:false) with Serve.cf_generations = 1 } in
        ignore (Serve.run cfg [ cold_start ]))
  in
  let runs = List.init draws (fun r -> serve_once ~seed:((draws * seed) + r) ~smoke ~traced) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let mean =
    List.map
      (fun (k, v) -> (k, v /. float_of_int draws))
      (List.fold_left (fun acc (_, _, _, figures) -> Probe.sum_into acc figures) [] runs)
  in
  let get k = Option.value ~default:0.0 (List.assoc_opt k mean) in
  {
    Probe.setup_s;
    units =
      List.mapi
        (fun r (((wall, ref_s), _, _, _), _, _, _) -> (Printf.sprintf "serve.run.%d" r, wall, ref_s))
        runs;
    words = List.fold_left (fun acc ((_, w, _, _), _, _, _) -> acc +. w) 0.0 runs;
    gc_minor = sum (fun ((_, _, minor, _), _, _, _) -> minor);
    gc_major = sum (fun ((_, _, _, major), _, _, _) -> major);
    sim_s = get "sim_s";
    attempted = sum (fun (_, attempted, _, _) -> attempted);
    failed = sum (fun (_, _, failed, _) -> failed);
    exact = mean;
    host = [];
    notes =
      [
        ("throughput_rps", get "serve.throughput_rps", "1/s");
        ("p50_ms", get "serve.p50_ms", "ms");
        ("p95_ms", get "serve.p95_ms", "ms");
      ];
  }
