(* Tests for the multi-process sweep runner: canonical-order merging,
   bit-identical results regardless of worker count, worker-crash
   surfacing, and parent/worker metrics accounting. *)

module W = Dpu_workload
module Sweep = W.Sweep
module F = W.Figures
module Metrics = Dpu_obs.Metrics
module Json = Dpu_obs.Json

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Core runner                                                        *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  let expected = Array.init 17 (fun i -> i * i) in
  check (Alcotest.array Alcotest.int) "sequential" expected
    (Sweep.map ~jobs:1 ~cells:17 (fun i -> i * i));
  check (Alcotest.array Alcotest.int) "forked" expected
    (Sweep.map ~jobs:4 ~cells:17 (fun i -> i * i))

let test_jobs_clamped () =
  (* More workers than cells must not fork idle workers or lose cells. *)
  let o = Sweep.run ~jobs:16 ~cells:3 (fun _ i -> i) in
  check (Alcotest.array Alcotest.int) "results" [| 0; 1; 2 |] o.Sweep.results;
  check Alcotest.bool "jobs clamped" true (o.Sweep.stats.Sweep.jobs <= 3)

let test_default_jobs_env () =
  (* The DPU_JOBS env default feeds the same clamp as an explicit -j:
     asking for 32 workers over 2 cells must still fork at most 2. *)
  let restore = Sys.getenv_opt "DPU_JOBS" in
  Unix.putenv "DPU_JOBS" "32";
  let parsed = Sweep.default_jobs () in
  let o = Sweep.run ~jobs:parsed ~cells:2 (fun _ i -> i * 10) in
  Unix.putenv "DPU_JOBS" (Option.value restore ~default:"");
  check Alcotest.int "env parsed" 32 parsed;
  check (Alcotest.array Alcotest.int) "results" [| 0; 10 |] o.Sweep.results;
  check Alcotest.bool "env-sized pool clamped to cells" true
    (o.Sweep.stats.Sweep.jobs <= 2);
  Unix.putenv "DPU_JOBS" "not-a-number";
  check Alcotest.int "garbage falls back to 1" 1 (Sweep.default_jobs ());
  Unix.putenv "DPU_JOBS" (Option.value restore ~default:"")

let test_empty_and_single () =
  check Alcotest.int "zero cells" 0 (Array.length (Sweep.map ~jobs:4 ~cells:0 (fun i -> i)));
  check (Alcotest.array Alcotest.int) "one cell" [| 42 |]
    (Sweep.map ~jobs:4 ~cells:1 (fun _ -> 42))

let test_large_results_cross_pipe () =
  (* Each cell returns ~80 KB — more than a pipe buffer — so workers
     must block mid-stream and resume as the parent drains. *)
  let results =
    Sweep.map ~jobs:3 ~cells:6 (fun i -> Array.make 10_000 (float_of_int i))
  in
  check Alcotest.int "all cells" 6 (Array.length results);
  Array.iteri
    (fun i arr ->
      check Alcotest.int "payload size" 10_000 (Array.length arr);
      check (Alcotest.float 0.0) "payload content" (float_of_int i) arr.(0))
    results

let test_worker_killed_surfaces_error () =
  match
    Sweep.map ~jobs:2 ~cells:4 (fun i ->
        if i = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        i)
  with
  | _ -> fail "expected Worker_failed"
  | exception Sweep.Worker_failed { worker; reason } ->
    check Alcotest.int "worker index" 1 worker;
    check Alcotest.bool (Printf.sprintf "reason mentions the signal: %s" reason) true
      (String.length reason > 0)

let test_worker_exception_surfaces_error () =
  match Sweep.map ~jobs:2 ~cells:4 (fun i -> if i = 2 then failwith "boom"; i) with
  | _ -> fail "expected Worker_failed"
  | exception Sweep.Worker_failed { worker = _; reason } ->
    let contains_boom =
      let n = String.length reason in
      let rec go i = i + 4 <= n && (String.sub reason i 4 = "boom" || go (i + 1)) in
      go 0
    in
    check Alcotest.bool (Printf.sprintf "reason carries the exception: %s" reason)
      true contains_boom

let test_stats_accounting () =
  let o = Sweep.run ~jobs:2 ~cells:4 (fun _ i -> i) in
  let st = o.Sweep.stats in
  check Alcotest.int "cells" 4 st.Sweep.cells;
  check Alcotest.int "jobs" 2 st.Sweep.jobs;
  check Alcotest.bool "wall measured" true (st.Sweep.wall_s >= 0.0);
  check Alcotest.bool "cell wall measured" true (st.Sweep.cells_wall_s >= 0.0);
  check Alcotest.int "one snapshot per worker" 2 (List.length o.Sweep.snapshots)

(* ------------------------------------------------------------------ *)
(* Determinism: -j1 vs -j4 figures                                    *)
(* ------------------------------------------------------------------ *)

(* The bench's fig6 JSON section, reproduced here so the test pins the
   actual artifact bytes, not just the floats. *)
let fig6_section_json points =
  Json.Obj
    [
      ("seed", Json.Int 1);
      ( "points",
        Json.List
          (List.map
             (fun (p : F.fig6_point) ->
               Json.Obj
                 [
                   ("n", Json.Int p.F.n);
                   ("load_msg_per_s", Json.Float p.F.load);
                   ("no_layer_ms", Json.Float p.F.no_layer_ms);
                   ("with_layer_ms", Json.Float p.F.with_layer_ms);
                   ("during_ms", Json.Float p.F.during_ms);
                 ])
             points) );
    ]

let test_fig6_bit_identical_across_jobs () =
  let ns = [ 3 ] and loads = [ 10.0; 20.0 ] in
  let points jobs =
    Array.to_list (F.figure6_sweep ~ns ~loads ~seed:1 ~jobs ()).Sweep.results
  in
  let p1 = points 1 and p4 = points 4 in
  check Alcotest.int "same cell count" (List.length p1) (List.length p4);
  List.iter2
    (fun (a : F.fig6_point) (b : F.fig6_point) ->
      check Alcotest.int "n" a.F.n b.F.n;
      check (Alcotest.float 0.0) "load" a.F.load b.F.load;
      (* Exact float equality: the per-cell latency stats must be the
         same bits, not merely close. *)
      check (Alcotest.float 0.0) "no_layer_ms" a.F.no_layer_ms b.F.no_layer_ms;
      check (Alcotest.float 0.0) "with_layer_ms" a.F.with_layer_ms b.F.with_layer_ms;
      check (Alcotest.float 0.0) "during_ms" a.F.during_ms b.F.during_ms)
    p1 p4;
  check Alcotest.string "bench JSON section byte-identical"
    (Json.to_string (fig6_section_json p1))
    (Json.to_string (fig6_section_json p4));
  check Alcotest.string "rendered figure byte-identical" (F.render_figure6 p1)
    (F.render_figure6 p4)

let test_headline_bit_identical_across_jobs () =
  let seeds = [ 1; 2; 3 ] in
  let h1, _ = F.headline_sweep ~n:3 ~load:20.0 ~seeds ~jobs:1 () in
  let h3, _ = F.headline_sweep ~n:3 ~load:20.0 ~seeds ~jobs:3 () in
  check (Alcotest.float 0.0) "overhead" h1.F.layer_overhead_pct h3.F.layer_overhead_pct;
  check (Alcotest.float 0.0) "spike" h1.F.spike_pct h3.F.spike_pct;
  check (Alcotest.float 0.0) "duration" h1.F.spike_duration_ms h3.F.spike_duration_ms;
  check (Alcotest.float 0.0) "blocked" h1.F.app_blocked_ms h3.F.app_blocked_ms;
  check Alcotest.string "rendered headline byte-identical" (F.render_headline h1)
    (F.render_headline h3)

(* ------------------------------------------------------------------ *)
(* Metrics accounting                                                 *)
(* ------------------------------------------------------------------ *)

let counters_to_crosscheck =
  [ "sim_events_executed_total"; "net_sent_total"; "net_delivered_total" ]

let test_merged_metrics_equal_worker_sums () =
  let parent = Metrics.create () in
  let outcome =
    F.figure6_sweep ~ns:[ 3 ] ~loads:[ 10.0; 20.0 ] ~seed:1 ~jobs:2 ~metrics:parent ()
  in
  check Alcotest.int "two worker snapshots" 2 (List.length outcome.W.Sweep.snapshots);
  List.iter
    (fun name ->
      let from_workers =
        List.fold_left
          (fun acc snap -> acc +. Metrics.snapshot_sum snap name)
          0.0 outcome.W.Sweep.snapshots
      in
      check Alcotest.bool (name ^ " counted something") true (from_workers > 0.0);
      check (Alcotest.float 0.0)
        (name ^ ": parent equals sum of worker snapshots")
        from_workers (Metrics.sum parent name))
    counters_to_crosscheck

let test_sequential_and_parallel_metrics_agree () =
  let m1 = Metrics.create () in
  let m2 = Metrics.create () in
  ignore (F.figure6_sweep ~ns:[ 3 ] ~loads:[ 10.0 ] ~seed:1 ~jobs:1 ~metrics:m1 ());
  ignore (F.figure6_sweep ~ns:[ 3 ] ~loads:[ 10.0 ] ~seed:1 ~jobs:2 ~metrics:m2 ());
  List.iter
    (fun name ->
      check (Alcotest.float 0.0) (name ^ " agrees across -j") (Metrics.sum m1 name)
        (Metrics.sum m2 name))
    counters_to_crosscheck

(* ------------------------------------------------------------------ *)
(* Metrics snapshot/merge primitives                                  *)
(* ------------------------------------------------------------------ *)

let test_snapshot_merge_semantics () =
  let a = Metrics.create () in
  let b = Metrics.create () in
  let ca = Metrics.counter a "requests_total" in
  let cb = Metrics.counter b "requests_total" in
  Metrics.add ca 3;
  Metrics.add cb 4;
  let ga = Metrics.gauge a "clock_ms" in
  let gb = Metrics.gauge b "clock_ms" in
  Metrics.set ga 10.0;
  Metrics.set gb 7.0;
  let ha = Metrics.histogram a "latency_ms" in
  let hb = Metrics.histogram b "latency_ms" in
  Metrics.observe ha 1.0;
  Metrics.observe hb 2.0;
  Metrics.observe hb 3.0;
  Metrics.merge a (Metrics.snapshot b);
  check (Alcotest.option (Alcotest.float 0.0)) "counters add" (Some 7.0)
    (Metrics.value a "requests_total");
  check (Alcotest.option (Alcotest.float 0.0)) "gauges keep max" (Some 10.0)
    (Metrics.value a "clock_ms");
  check Alcotest.int "histogram counts add" 3 (Metrics.histogram_count ha);
  (* Merging into a registry that lacks the series creates it. *)
  let fresh = Metrics.create () in
  Metrics.merge fresh (Metrics.snapshot b);
  check (Alcotest.option (Alcotest.float 0.0)) "created counter" (Some 4.0)
    (Metrics.value fresh "requests_total");
  (* A snapshot survives Marshal (the pipe boundary). *)
  let round_tripped : Metrics.snapshot =
    Marshal.from_string (Marshal.to_string (Metrics.snapshot b) []) 0
  in
  check (Alcotest.float 0.0) "marshalled snapshot intact" 4.0
    (Metrics.snapshot_sum round_tripped "requests_total")

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sweep"
    [
      ( "runner",
        [
          tc "map order" test_map_order;
          tc "jobs clamped" test_jobs_clamped;
          tc "DPU_JOBS env clamped" test_default_jobs_env;
          tc "empty and single" test_empty_and_single;
          tc "large results cross pipe" test_large_results_cross_pipe;
          tc "worker killed" test_worker_killed_surfaces_error;
          tc "worker exception" test_worker_exception_surfaces_error;
          tc "stats accounting" test_stats_accounting;
        ] );
      ( "determinism",
        [
          tc "fig6 bit-identical across jobs" test_fig6_bit_identical_across_jobs;
          tc "headline bit-identical across jobs" test_headline_bit_identical_across_jobs;
        ] );
      ( "metrics",
        [
          tc "merged parent equals worker sums" test_merged_metrics_equal_worker_sums;
          tc "sequential and parallel agree" test_sequential_and_parallel_metrics_agree;
          tc "snapshot merge semantics" test_snapshot_merge_semantics;
        ] );
    ]
