(* Tests for the workload generators, the ASCII renderer and the
   experiment harness behind the figures. *)

module W = Dpu_workload
module E = Dpu_workload.Experiment
module Run = Dpu_workload.Run
module MW = Dpu_core.Middleware
module Stats = Dpu_engine.Stats

let check = Alcotest.check
let fail = Alcotest.fail

(* A small, fast experiment. *)
let small =
  {
    E.default with
    n = 3;
    config = { E.default.Run.config with msg_size = 512 };
    load = Run.Open { rate_per_s = 30.0; pattern = W.Load_gen.Poisson };
    until_ms = 2_000.0;
    warmup_ms = 200.0;
    triggers = [ E.switch ~n:3 ~at_ms:1_000.0 Dpu_core.Variants.ct ];
  }

let traced (s : Run.spec) = { s with config = { s.config with trace_enabled = true } }

(* ------------------------------------------------------------------ *)
(* Load generators                                                    *)
(* ------------------------------------------------------------------ *)

let count_sends rate pattern =
  let mw = MW.create ~n:3 () in
  W.Load_gen.start mw ~rate_per_s:rate ~pattern ~size:256 ~until:2_000.0 ();
  MW.run_until_quiescent ~limit:10_000.0 mw;
  Dpu_core.Collector.send_count (MW.collector mw)

let test_constant_rate () =
  let sent = count_sends 50.0 W.Load_gen.Constant in
  (* 50 msg/s for 2 s => ~100 *)
  if sent < 90 || sent > 110 then fail (Printf.sprintf "constant rate produced %d" sent)

let test_poisson_rate () =
  let sent = count_sends 50.0 W.Load_gen.Poisson in
  if sent < 60 || sent > 140 then fail (Printf.sprintf "poisson rate produced %d" sent)

let test_burst_rate () =
  let sent = count_sends 50.0 (W.Load_gen.Burst { period_ms = 500.0; duty = 0.2 }) in
  if sent < 50 || sent > 150 then fail (Printf.sprintf "burst produced %d" sent)

(* A rate of 0 used to give every node a NaN start phase (one send
   each), and a negative or NaN rate re-sent forever at time 0. *)
let test_rate_must_be_positive () =
  List.iter
    (fun rate_per_s ->
      let mw = MW.create ~n:3 () in
      match W.Load_gen.start mw ~rate_per_s ~until:1_000.0 () with
      | exception Invalid_argument _ -> ()
      | () -> fail (Printf.sprintf "rate %g accepted" rate_per_s))
    [ 0.0; -5.0; Float.nan; Float.infinity ]

let test_send_n () =
  let mw = MW.create ~n:3 () in
  ignore (W.Load_gen.send_n mw ~count:12 ~gap_ms:5.0 () : float);
  MW.run_until_quiescent ~limit:10_000.0 mw;
  check Alcotest.int "count" 12 (Dpu_core.Collector.send_count (MW.collector mw))

let test_send_n_warmup_boundary () =
  let mw = MW.create ~n:3 () in
  let boundary = W.Load_gen.send_n mw ~count:10 ~gap_ms:5.0 ~warmup:6 () in
  MW.run_until_quiescent ~limit:10_000.0 mw;
  (* Warmup messages are real traffic... *)
  check Alcotest.int "warmup + counted all sent" 16
    (Dpu_core.Collector.send_count (MW.collector mw));
  (* ...but the returned boundary splits the latency series so exactly
     the counted messages land at or after it. *)
  let series = Dpu_core.Collector.latency_series (MW.collector mw) in
  let measured = Dpu_engine.Series.stats_between series ~lo:boundary ~hi:infinity in
  check Alcotest.int "measured excludes warmup" 10 (Stats.count measured);
  check (Alcotest.float 1e-9) "boundary is first counted send" 30.0 boundary

let test_load_spread_across_nodes () =
  let mw = MW.create ~n:3 () in
  W.Load_gen.start mw ~rate_per_s:60.0 ~size:256 ~until:1_000.0 ();
  MW.run_until_quiescent ~limit:10_000.0 mw;
  let sends = Dpu_core.Collector.sends (MW.collector mw) in
  let per_node = Array.make 3 0 in
  List.iter (fun (_, node, _) -> per_node.(node) <- per_node.(node) + 1) sends;
  Array.iter
    (fun c -> check Alcotest.bool "each node sends" true (c > 10))
    per_node

(* Lateness must not accumulate. A live clock wakes up late: here every
   callback fires 1 ms after it was due. Re-arming each send from its
   firing would stretch every 10 ms gap to 11 ms (91 sends, not 100). *)
let test_late_clock_keeps_rate () =
  let sim = Dpu_engine.Sim.create () in
  let rt = Dpu_runtime.Sim_backend.runtime sim (Dpu_net.Datagram.create sim ~n:1 ()) in
  let clock = rt.Dpu_runtime.Runtime.clock in
  let late = { clock with defer = (fun ~delay fn -> clock.defer ~delay:(delay +. 1.0) fn) } in
  let system =
    Dpu_kernel.System.of_runtime ~runtime:{ rt with clock = late } ~trace_enabled:false ~n:1 ()
  in
  let mw = MW.of_system system in
  W.Load_gen.start mw ~rate_per_s:100.0 ~until:1_000.0 ();
  Dpu_engine.Sim.run ~until:1_100.0 sim;
  let sent = Dpu_core.Collector.send_count (MW.collector mw) in
  if abs (sent - 100) > 1 then
    fail (Printf.sprintf "100 msg/s for 1 s on a late clock sent %d" sent)

(* ------------------------------------------------------------------ *)
(* Ascii                                                              *)
(* ------------------------------------------------------------------ *)

let test_ascii_table () =
  let s = W.Ascii.table ~header:[ "a"; "bbbb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  check Alcotest.bool "contains rule" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0 && l.[0] = '-'));
  check Alcotest.bool "aligned" true
    (String.split_on_char '\n' s |> List.for_all (fun l -> not (String.contains l '\t')))

let test_ascii_chart_empty () =
  check Alcotest.string "placeholder" "(no data)\n" (W.Ascii.chart [])

let test_ascii_chart_renders () =
  let s =
    W.Ascii.chart ~title:"t" ~x_unit:"x" ~y_unit:"y"
      [ ("a", [ (0.0, 1.0); (1.0, 2.0) ]); ("b", [ (0.5, 1.5) ]) ]
  in
  check Alcotest.bool "has title" true (String.length s > 0 && s.[0] = 't');
  check Alcotest.bool "has glyph legend" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "  + a"))

let test_ascii_vbars () =
  let s = W.Ascii.vbars [ ("one", 1.0); ("two", 2.0) ] in
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "two bars + trailing" 3 (List.length lines)

(* ------------------------------------------------------------------ *)
(* Experiment harness                                                 *)
(* ------------------------------------------------------------------ *)

let test_experiment_runs_and_delivers () =
  let r = E.run small in
  check Alcotest.bool "sent some" true (r.E.sent > 30);
  check Alcotest.int "all delivered everywhere" r.E.sent
    r.E.delivered_everywhere;
  check Alcotest.bool "switch completed" true (r.E.switch_window <> None);
  check Alcotest.bool "normal stats populated" true (Stats.count r.E.normal > 0)

let test_experiment_no_switch () =
  let r = E.run { small with triggers = [] } in
  check Alcotest.bool "no window" true (r.E.switch_window = None);
  check (Alcotest.float 0.0) "no duration" 0.0 r.E.switch_duration_ms;
  check Alcotest.int "during empty" 0 (Stats.count r.E.during)

let test_experiment_no_layer () =
  let r = E.run (E.with_layer None { small with triggers = [] }) in
  check Alcotest.int "all delivered" r.E.sent r.E.delivered_everywhere

let test_experiment_no_layer_ignores_switch () =
  (* A switch request without a layer is meaningless; the harness must
     simply not schedule one. *)
  let r = E.run (E.with_layer None small) in
  check Alcotest.bool "no window" true (r.E.switch_window = None)

let test_experiment_maestro_blocks () =
  let r = E.run (E.with_layer (Some Dpu_baselines.Maestro.protocol_name) small) in
  check Alcotest.bool "blocked time recorded" true ((E.group r).Run.blocked_ms > 50.0);
  check Alcotest.int "still all delivered" r.E.sent
    r.E.delivered_everywhere

let test_experiment_graceful () =
  let r = E.run (E.with_layer (Some Dpu_baselines.Graceful.protocol_name) small) in
  check (Alcotest.float 0.0) "graceful does not block" 0.0 (E.group r).Run.blocked_ms;
  check Alcotest.int "all delivered" r.E.sent r.E.delivered_everywhere

let test_experiment_check_clean () =
  let r = E.run (traced small) in
  let reports = E.check r in
  check Alcotest.bool "several properties" true (List.length reports >= 5);
  List.iter
    (fun rep ->
      check Alcotest.bool rep.Dpu_props.Report.property true rep.Dpu_props.Report.ok)
    reports

let test_experiment_crash_injection () =
  let r =
    E.run
      (E.fail_stop
         {
           small with
           n = 5;
           faults = [ Dpu_faults.Schedule.crash ~at:500.0 2 ];
           triggers = [ E.switch ~n:5 ~at_ms:1_200.0 Dpu_core.Variants.ct ];
         })
  in
  let g = E.group r in
  check (Alcotest.list Alcotest.int) "correct nodes" [ 0; 1; 3; 4 ] g.Run.correct;
  let reports = Dpu_props.Abcast_props.check_all g.Run.collector ~correct:g.Run.correct in
  List.iter
    (fun rep ->
      check Alcotest.bool rep.Dpu_props.Report.property true rep.Dpu_props.Report.ok)
    reports

let test_experiment_determinism () =
  let r1 = E.run small in
  let r2 = E.run small in
  check Alcotest.int "same sends" r1.E.sent r2.E.sent;
  check (Alcotest.float 1e-9) "same mean latency"
    (Stats.mean r1.E.normal)
    (Stats.mean r2.E.normal)

let test_experiment_seed_changes_run () =
  let r1 = E.run small in
  let r2 = E.run { small with config = { small.config with seed = 99 } } in
  check Alcotest.bool "different latencies" true
    (Stats.mean r1.E.normal <> Stats.mean r2.E.normal)

(* ------------------------------------------------------------------ *)
(* Throughput mode: batching under replacement, and the speedup       *)
(* ------------------------------------------------------------------ *)

let batched_cfg = { Dpu_protocols.Batcher.max_batch = 64; max_delay_ms = 200.0 }

(* A 200 ms delay trigger at 100 msg/s means the switch at 1 s lands
   mid-accumulation with near-certainty: the pending batch must be
   flushed at the epoch boundary (never split, never stranded) and any
   copy that raced into the old generation is dropped atomically and
   reissued by Algorithm 1 — so exactly-once delivery and total order
   must survive. *)
let run_switch_mid_batch ~initial ~target =
  let r =
    E.run
      (E.with_profile
         (fun p -> { p with initial_abcast = initial; batching = Some batched_cfg })
         {
           small with
           load = Run.Open { rate_per_s = 100.0; pattern = W.Load_gen.Poisson };
           triggers = [ E.switch ~n:3 ~at_ms:1_000.0 target ];
         })
  in
  check Alcotest.bool "switch completed" true (r.E.switch_window <> None);
  check Alcotest.int "no message lost or stranded in a batch"
    r.E.sent r.E.delivered_everywhere;
  List.iter
    (fun rep ->
      check Alcotest.bool rep.Dpu_props.Report.property true rep.Dpu_props.Report.ok)
    (E.check r)

let test_switch_mid_batch_seq_to_ct () =
  run_switch_mid_batch ~initial:Dpu_core.Variants.sequencer ~target:Dpu_core.Variants.ct

let test_switch_mid_batch_ct_to_seq () =
  run_switch_mid_batch ~initial:Dpu_core.Variants.ct ~target:Dpu_core.Variants.sequencer

let test_throughput_open_loop_tracks_offered () =
  (* Well under the knee, delivered must track offered. *)
  let module T = W.Throughput in
  let pt = T.measure T.default ~offered:100.0 in
  check Alcotest.bool "delivered within 10% of offered" true
    (Float.abs (pt.T.delivered_per_s -. 100.0) <= 10.0)

let test_throughput_batching_at_least_doubles () =
  (* The headline claim of throughput mode: with the consensus path
     ordering one batch per round instead of one message, the closed
     loop sustains at least twice the unbatched rate. *)
  let module T = W.Throughput in
  let sustained batching =
    (T.saturate ~clients_per_node:16 (T.with_batching batching T.default))
      .T.delivered_per_s
  in
  let off = sustained None in
  let on = sustained (Some { Dpu_protocols.Batcher.max_batch = 16; max_delay_ms = 5.0 }) in
  check Alcotest.bool
    (Printf.sprintf "batched %.0f msg/s >= 2x unbatched %.0f msg/s" on off)
    true
    (on >= 2.0 *. off)

let test_switch_window_agrees_with_trace () =
  (* The collector's replacement window must agree with the kernel's
     own record of the switches: every node logs a "repl.switch" trace
     event when it installs the new generation, and the collector
     learns of it via the Protocol_changed indication a fixed number of
     dispatch hops later. *)
  let module Trace = Dpu_kernel.Trace in
  let r = E.run (traced small) in
  let collector = (E.group r).Run.collector in
  let kernel_switches =
    Trace.filter (Dpu_kernel.System.trace (MW.system (E.group r).Run.mw)) (fun e ->
        match e.Trace.kind with
        | Trace.App ("repl.switch", _) -> true
        | _ -> false)
  in
  check Alcotest.int "one kernel switch per node" small.Run.n
    (List.length kernel_switches);
  let collector_switches = Dpu_core.Collector.switches collector in
  check Alcotest.int "collector saw the same switches"
    (List.length kernel_switches)
    (List.length collector_switches);
  let slack = 5.0 in
  (* a few dispatch hops at hop_cost 0.5 ms *)
  List.iter
    (fun (node, generation, t_collector) ->
      check Alcotest.int "only generation 1" 1 generation;
      match List.find_opt (fun e -> e.Trace.node = node) kernel_switches with
      | None -> fail (Printf.sprintf "collector switch on node %d has no trace event" node)
      | Some e ->
        check Alcotest.bool
          (Printf.sprintf "node %d: collector trails the kernel by <= %.1f ms" node slack)
          true
          (t_collector >= e.Trace.time && t_collector -. e.Trace.time <= slack))
    collector_switches;
  match Dpu_core.Collector.switch_window collector ~generation:1 with
  | None -> fail "no switch window"
  | Some (lo, hi) ->
    let times = List.map (fun e -> e.Trace.time) kernel_switches in
    let tmin = List.fold_left Float.min infinity times in
    let tmax = List.fold_left Float.max neg_infinity times in
    check Alcotest.bool "window opens with the first switch" true
      (lo >= tmin && lo -. tmin <= slack);
    check Alcotest.bool "window closes with the last switch" true
      (hi >= tmax && hi -. tmax <= slack)

let test_layer_overhead_positive () =
  (* The replacement layer adds a dispatch hop: with-layer latency must
     exceed no-layer latency, by a small factor (paper: ~5%). *)
  let base = { small with triggers = []; until_ms = 3_000.0 } in
  let without = E.run (E.with_layer None base) in
  let with_layer = E.run base in
  let overhead =
    (Stats.mean with_layer.E.normal -. Stats.mean without.E.normal)
    /. Stats.mean without.E.normal
  in
  check Alcotest.bool
    (Printf.sprintf "overhead %.3f in (0, 0.25)" overhead)
    true
    (overhead > 0.0 && overhead < 0.25)

let test_figures_render () =
  (* Smoke-render each figure artifact on small runs. *)
  let r = E.run small in
  let s5 = W.Figures.render_figure5 r in
  check Alcotest.bool "fig5 text" true (String.length s5 > 100);
  let points =
    Array.to_list (W.Figures.figure6_sweep ~ns:[ 3 ] ~loads:[ 20.0 ] ~seed:1 ()).W.Sweep.results
  in
  check Alcotest.int "fig6 one point" 1 (List.length points);
  let s6 = W.Figures.render_figure6 points in
  check Alcotest.bool "fig6 text" true (String.length s6 > 100);
  let h =
    {
      W.Figures.layer_overhead_pct = 5.0;
      spike_pct = 50.0;
      spike_duration_ms = 40.0;
      app_blocked_ms = 0.0;
    }
  in
  check Alcotest.bool "headline text" true
    (String.length (W.Figures.render_headline h) > 50)

let test_comparison_rows () =
  let rows, _ = W.Figures.compare_approaches_sweep ~n:3 ~load:20.0 ~seed:1 () in
  check Alcotest.int "three approaches" 3 (List.length rows);
  let find a = List.find (fun r -> r.W.Figures.approach = a) rows in
  let repl = find "repl" in
  let maestro = find "maestro" in
  check (Alcotest.float 0.0) "repl no blocking" 0.0 repl.W.Figures.blocked;
  check Alcotest.bool "maestro blocks" true (maestro.W.Figures.blocked > 50.0);
  check Alcotest.bool "everyone correct" true
    (List.for_all (fun r -> r.W.Figures.all_delivered) rows);
  check Alcotest.bool "rendering" true
    (String.length (W.Figures.render_comparison rows) > 100)

(* ------------------------------------------------------------------ *)
(* Sharded runner                                                      *)
(* ------------------------------------------------------------------ *)

let shard_small =
  {
    W.Shard.default with
    n = 6;
    shards = 2;
    load = W.Run.Open { rate_per_s = 100.0; pattern = W.Load_gen.Constant };
    warmup_ms = 100.0;
    until_ms = 600.0;
  }

let test_shard_runner_reports () =
  let r = W.Shard.run shard_small in
  check Alcotest.int "one result per shard" 2 (List.length r.W.Shard.per_shard);
  List.iter
    (fun (s : W.Shard.shard_result) ->
      check Alcotest.bool "delivered something" true (s.delivered > 0);
      check Alcotest.bool "properties hold" true s.props_ok;
      check Alcotest.int "nothing undelivered" 0 s.undelivered;
      check (Alcotest.float 0.0) "nothing blocked" 0.0 s.blocked_ms;
      check Alcotest.int "no switch" 0 s.generation;
      check Alcotest.bool "latency measured" true (s.measured > 0);
      check Alcotest.bool "quantiles ordered" true
        (s.p50_ms <= s.p99_ms && s.p99_ms <= s.p999_ms))
    r.W.Shard.per_shard;
  check Alcotest.int "no rolling, no switches" 0 r.W.Shard.max_concurrent_switches;
  check Alcotest.bool "all ok" true r.W.Shard.all_ok

let test_shard_rolling_overlaps () =
  let r =
    W.Shard.run
      (W.Shard.rolling ~start_ms:150.0 ~stagger_ms:0.25
         { shard_small with n = 12; shards = 4; until_ms = 800.0 })
  in
  List.iter
    (fun (s : W.Shard.shard_result) ->
      check Alcotest.int "every shard switched" 1 s.generation;
      check Alcotest.bool "window recorded" true (s.window <> None);
      check Alcotest.bool "properties hold across the switch" true s.props_ok)
    r.W.Shard.per_shard;
  check Alcotest.bool "switch windows overlapped" true
    (r.W.Shard.max_concurrent_switches > 1);
  check Alcotest.bool "all ok" true r.W.Shard.all_ok

let test_shard_closed_loop () =
  let r =
    W.Shard.run
      { shard_small with until_ms = 400.0; load = W.Run.Closed { clients_per_node = 2 } }
  in
  List.iter
    (fun (s : W.Shard.shard_result) ->
      check Alcotest.bool "closed loop kept sending" true (s.delivered > 10);
      check Alcotest.bool "properties hold" true s.props_ok)
    r.W.Shard.per_shard;
  check Alcotest.bool "all ok" true r.W.Shard.all_ok

let test_shard_export_shapes () =
  let r = W.Shard.run shard_small in
  let rows = W.Shard.csv_rows r in
  check Alcotest.int "one csv row per shard" 2 (List.length rows);
  List.iter
    (fun row ->
      check Alcotest.int "row arity matches header"
        (List.length W.Shard.csv_header) (List.length row))
    rows;
  let j = W.Shard.to_json r in
  let module J = Dpu_obs.Json in
  (match J.member j "shards" with
  | Some (J.List l) -> check Alcotest.int "json shard entries" 2 (List.length l)
  | _ -> fail "missing shards list");
  match J.member j "all_ok" with
  | Some (J.Bool b) -> check Alcotest.bool "json all_ok" true b
  | _ -> fail "missing all_ok"

let test_shard_determinism () =
  let quantiles r =
    List.map
      (fun (s : W.Shard.shard_result) -> (s.sent, s.delivered, s.p50_ms, s.p99_ms))
      r.W.Shard.per_shard
  in
  let a = W.Shard.run shard_small in
  let b = W.Shard.run shard_small in
  check Alcotest.bool "identical runs" true (quantiles a = quantiles b)

(* An out-of-range trigger used to pass validation and fail mid-run
   with a bare "index out of bounds" (node 7 of 3, 100 ms in); a
   negative time was accepted silently. *)
let test_run_rejects_bad_triggers () =
  let one_group = { W.Shard.default with n = 3; shards = 1 } in
  let trigger ?(shard = 0) ?(node = 0) at_ms =
    { W.Run.at_ms; shard; node; action = W.Run.Abcast Dpu_core.Variants.sequencer }
  in
  List.iter
    (fun (label, spec, t) ->
      match W.Run.validate { spec with W.Run.triggers = [ t ] } with
      | exception Invalid_argument _ -> ()
      | () -> fail (label ^ " accepted"))
    [
      ("node 7 of 3", one_group, trigger ~node:7 100.0);
      ("node -1", one_group, trigger ~node:(-1) 100.0);
      ("shard 2 of 1", one_group, trigger ~shard:2 100.0);
      ("shard -1", one_group, trigger ~shard:(-1) 100.0);
      ("at -5 ms", one_group, trigger (-5.0));
      ("at nan", one_group, trigger Float.nan);
      ("at inf", one_group, trigger Float.infinity);
      (* 15 nodes in 4 shards: sizes 4, 4, 4, 3 *)
      ("node 3 of the short shard", W.Shard.default, trigger ~shard:3 ~node:3 10.0);
    ];
  W.Run.validate { one_group with triggers = [ trigger ~node:2 0.0 ] };
  W.Run.validate { W.Shard.default with triggers = [ trigger ~shard:3 ~node:2 10.0 ] }

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "workload"
    [
      ( "load_gen",
        [
          tc "constant rate" test_constant_rate;
          tc "poisson rate" test_poisson_rate;
          tc "burst rate" test_burst_rate;
          tc "rate must be finite and positive" test_rate_must_be_positive;
          tc "send_n" test_send_n;
          tc "send_n warmup boundary" test_send_n_warmup_boundary;
          tc "spread across nodes" test_load_spread_across_nodes;
          tc "late clock keeps the rate" test_late_clock_keeps_rate;
        ] );
      ( "ascii",
        [
          tc "table" test_ascii_table;
          tc "chart empty" test_ascii_chart_empty;
          tc "chart renders" test_ascii_chart_renders;
          tc "vbars" test_ascii_vbars;
        ] );
      ( "experiment",
        [
          tc "runs and delivers" test_experiment_runs_and_delivers;
          tc "no switch" test_experiment_no_switch;
          tc "no layer" test_experiment_no_layer;
          tc "no layer ignores switch" test_experiment_no_layer_ignores_switch;
          tc "maestro blocks" test_experiment_maestro_blocks;
          tc "graceful" test_experiment_graceful;
          tc "check clean" test_experiment_check_clean;
          tc "crash injection" test_experiment_crash_injection;
          tc "determinism" test_experiment_determinism;
          tc "seed sensitivity" test_experiment_seed_changes_run;
          tc "layer overhead positive" test_layer_overhead_positive;
          tc "switch window agrees with trace" test_switch_window_agrees_with_trace;
        ] );
      ( "throughput",
        [
          tc "replacement mid-batch, seq->ct" test_switch_mid_batch_seq_to_ct;
          tc "replacement mid-batch, ct->seq" test_switch_mid_batch_ct_to_seq;
          tc "open loop tracks offered below the knee"
            test_throughput_open_loop_tracks_offered;
          tc "batching at least doubles the sustained rate"
            test_throughput_batching_at_least_doubles;
        ] );
      ( "figures",
        [ tc "render" test_figures_render; tc "comparison" test_comparison_rows ] );
      ( "shard",
        [
          tc "runner reports per-shard results" test_shard_runner_reports;
          tc "rolling replacement overlaps" test_shard_rolling_overlaps;
          tc "closed loop" test_shard_closed_loop;
          tc "export shapes" test_shard_export_shapes;
          tc "determinism" test_shard_determinism;
          tc "out-of-range triggers rejected" test_run_rejects_bad_triggers;
        ] );
    ]
