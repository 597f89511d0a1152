module MW = Dpu_core.Middleware
module SB = Dpu_core.Stack_builder
module Collector = Dpu_core.Collector
module Series = Dpu_engine.Series
module Stats = Dpu_engine.Stats

type point = {
  offered : float;
  delivered_per_s : float;
  p50_ms : float;
  p99_ms : float;
  measured : int;
}

type curve = {
  batching : Dpu_protocols.Batcher.config option;
  points : point list;
  knee : float;
  saturated_per_s : float;
}

type params = {
  n : int;
  seed : int;
  msg_size : int;
  warmup_ms : float;
  duration_ms : float;
  batching : Dpu_protocols.Batcher.config option;
}

let default =
  {
    n = 3;
    seed = 1;
    msg_size = 512;
    warmup_ms = 500.0;
    duration_ms = 3_000.0;
    batching = None;
  }

let make_mw p =
  let profile = { SB.default_profile with batching = p.batching } in
  let config =
    { MW.default_config with profile; seed = p.seed; msg_size = p.msg_size }
  in
  MW.create ~config ~n:p.n ()

(* Throughput is deliveries inside the measurement window, not
   deliveries ever: the run drains to quiescence afterwards, so under
   overload every message IS eventually delivered — what saturates is
   the rate at which they come out during the window. Counted at node 0
   (total order: every correct node delivers the same sequence).
   Latency percentiles come from the same window, keyed by send time;
   messages sent in-window but delivered after it still contribute
   their (large) latency, which is exactly the queueing signal. *)
let window_stats p mw =
  let lo = p.warmup_ms and hi = p.duration_ms in
  let delivered =
    List.length
      (List.filter
         (fun (_, t) -> t >= lo && t < hi)
         (Collector.delivers_of (MW.collector mw) ~node:0))
  in
  let lat = Series.stats_between (MW.latency_series mw) ~lo ~hi in
  let window_s = (hi -. lo) /. 1000.0 in
  (float_of_int delivered /. window_s, lat)

let point_of p ~offered mw =
  let delivered_per_s, lat = window_stats p mw in
  {
    offered;
    delivered_per_s;
    p50_ms = (if Stats.count lat = 0 then 0.0 else Stats.percentile lat 50.0);
    p99_ms = (if Stats.count lat = 0 then 0.0 else Stats.percentile lat 99.0);
    measured = Stats.count lat;
  }

let measure p ~offered =
  let mw = make_mw p in
  Load_gen.start mw ~rate_per_s:offered ~pattern:Load_gen.Constant
    ~size:p.msg_size ~until:p.duration_ms ();
  MW.run_until_quiescent ~limit:(p.duration_ms +. 600_000.0) mw;
  point_of p ~offered mw

(* The knee is the last offered load the stack still kept up with
   (delivered within 10% of offered); past it the delivered rate
   plateaus at the service capacity, which [saturated_per_s] reports
   as the best rate seen anywhere on the curve. *)
let curve_of ~batching points =
  let knee =
    List.fold_left
      (fun acc pt ->
        if pt.delivered_per_s >= 0.9 *. pt.offered then Float.max acc pt.offered
        else acc)
      0.0 points
  in
  let saturated_per_s =
    List.fold_left (fun acc pt -> Float.max acc pt.delivered_per_s) 0.0 points
  in
  { batching; points; knee; saturated_per_s }

let sweep ?(params = default) ~loads () =
  curve_of ~batching:params.batching
    (List.map (fun offered -> measure params ~offered) loads)

let saturate ?(params = default) ?(clients_per_node = 4) () =
  let p = params in
  let mw = make_mw p in
  Load_gen.closed_loop mw ~clients_per_node ~size:p.msg_size ~until:p.duration_ms ();
  MW.run_until_quiescent ~limit:(p.duration_ms +. 600_000.0) mw;
  (* A closed loop offers exactly what it sustains. *)
  let pt = point_of p ~offered:0.0 mw in
  { pt with offered = pt.delivered_per_s }

let batching_label = function
  | None -> "off"
  | Some c ->
    Printf.sprintf "on(max=%d,delay=%.1fms)" c.Dpu_protocols.Batcher.max_batch
      c.Dpu_protocols.Batcher.max_delay_ms

let csv_header =
  [ "batching"; "offered_msg_s"; "delivered_msg_s"; "p50_ms"; "p99_ms"; "measured" ]

let csv_rows curves =
  List.concat_map
    (fun (c : curve) ->
      List.map
        (fun pt ->
          [
            batching_label c.batching;
            Printf.sprintf "%.1f" pt.offered;
            Printf.sprintf "%.1f" pt.delivered_per_s;
            Printf.sprintf "%.3f" pt.p50_ms;
            Printf.sprintf "%.3f" pt.p99_ms;
            string_of_int pt.measured;
          ])
        c.points)
    curves

let write_csv path curves =
  Dpu_obs.Csv.to_file path ~header:csv_header (csv_rows curves)
