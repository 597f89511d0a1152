module MW = Dpu_core.Middleware
module Series = Dpu_engine.Series
module Stats = Dpu_engine.Stats
module Json = Dpu_obs.Json

let default =
  {
    Run.n = 15;
    shards = 4;
    config = { MW.default_config with seed = 1; msg_size = 512 };
    register_extra = None;
    faults = [];
    load = Run.Open { rate_per_s = 200.0; pattern = Load_gen.Constant };
    until_ms = 2_000.0;
    warmup_ms = 200.0;
    drain_ms = 3_000.0;
    triggers = [];
  }

(* Each shard's trigger fires on its own group clock, [stagger_ms]
   after the previous shard's. *)
let rolling ?(to_protocol = Dpu_core.Variants.sequencer) ?(start_ms = 200.0)
    ?(stagger_ms = 0.25) (spec : Run.spec) =
  let trigger shard =
    {
      Run.at_ms = start_ms +. (stagger_ms *. float_of_int shard);
      shard;
      node = 0;
      action = Run.Abcast to_protocol;
    }
  in
  { spec with triggers = spec.triggers @ List.init spec.shards trigger }

type shard_result = {
  shard : int;
  nodes : int;
  sent : int;
  delivered : int;
  measured : int;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  mean_ms : float;
  generation : int;
  window : (float * float) option;
  blocked_ms : float;
  undelivered : int;
  props_ok : bool;
  violations : string list;
}

type result = {
  spec : Run.spec;
  per_shard : shard_result list;
  max_concurrent_switches : int;
  drained_at_ms : float;
  all_ok : bool;
}

let shard_result_of (r : Run.result) g =
  let grp = r.groups.(g) in
  (* Exact quantiles over the raw post-warmup samples, as
     {!Throughput} computes them. *)
  let lat =
    Series.stats_between (MW.latency_series grp.mw) ~lo:r.spec.warmup_ms ~hi:infinity
  in
  let measured = Stats.count lat in
  let pct q = if measured = 0 then 0.0 else Stats.percentile lat q in
  let reports = Run.battery r g in
  {
    shard = g;
    nodes = MW.n grp.mw;
    sent = Dpu_core.Collector.send_count grp.collector;
    delivered = List.length (Dpu_core.Collector.delivers_of grp.collector ~node:0);
    measured;
    p50_ms = pct 50.0;
    p99_ms = pct 99.0;
    p999_ms = pct 99.9;
    mean_ms = (if measured = 0 then 0.0 else Stats.mean lat);
    generation = grp.generation;
    window = Option.join (List.assoc_opt grp.generation grp.windows);
    blocked_ms = grp.blocked_ms;
    undelivered = grp.undelivered;
    props_ok = Dpu_props.Report.all_ok reports;
    violations = List.concat_map (fun (r : Dpu_props.Report.t) -> r.violations) reports;
  }

let run spec =
  let r = Run.exec spec in
  let per_shard = List.init spec.Run.shards (shard_result_of r) in
  (* A shard is OK when its battery holds, nothing is undelivered or
     blocked, and a requested switch completed. *)
  let shard_ok s =
    s.props_ok && s.undelivered = 0 && s.blocked_ms = 0.0
    && (r.groups.(s.shard).windows = [] || s.generation >= 1)
  in
  {
    spec;
    per_shard;
    max_concurrent_switches =
      Dpu_core.Fabric.max_overlap
        (List.filter_map
           (fun (g : Run.group) -> Option.join (List.assoc_opt 1 g.windows))
           (Array.to_list r.groups));
    drained_at_ms = r.end_ms;
    all_ok = List.for_all shard_ok per_shard;
  }

let csv_header =
  [
    "shard"; "nodes"; "sent"; "delivered"; "measured"; "p50_ms"; "p99_ms";
    "p999_ms"; "mean_ms"; "generation"; "window_start_ms"; "window_end_ms";
    "blocked_ms"; "undelivered"; "props_ok";
  ]

(* One shard's row in [csv_header] order; a missing window is NaN. *)
let columns s =
  let lo, hi = match s.window with Some w -> w | None -> (nan, nan) in
  Json.
    [
      Int s.shard; Int s.nodes; Int s.sent; Int s.delivered; Int s.measured;
      Float s.p50_ms; Float s.p99_ms; Float s.p999_ms; Float s.mean_ms;
      Int s.generation; Float lo; Float hi; Float s.blocked_ms; Int s.undelivered;
      Bool s.props_ok;
    ]

let csv_rows result =
  let cell = function Json.Float f -> Printf.sprintf "%.3f" f | v -> Json.to_string v in
  List.map (fun s -> List.map cell (columns s)) result.per_shard

let json_of_shard s =
  let keep (key, _) =
    s.window <> None || (key <> "window_start_ms" && key <> "window_end_ms")
  in
  Json.Obj
    (List.filter keep (List.combine csv_header (columns s))
    @
    match s.violations with
    | [] -> []
    | v -> [ ("violations", Json.List (List.map (fun x -> Json.Str x) v)) ])

(* Protocol names carry their service prefix (abcast.seq,
   consensus.paxos), so the target alone names the action. *)
let json_of_trigger (t : Run.trigger) =
  let action = match t.action with Run.Abcast p | Run.Consensus p -> p | Run.Crash -> "crash" in
  Json.Obj
    [ ("at_ms", Json.Float t.at_ms); ("shard", Json.Int t.shard);
      ("node", Json.Int t.node); ("action", Json.Str action) ]

let to_json result =
  let p = result.spec in
  Json.Obj
    [
      ( "params",
        Json.Obj
          ([
             ("n", Json.Int p.n);
             ("shards", Json.Int p.shards);
             ("seed", Json.Int p.config.MW.seed);
             ("msg_size", Json.Int p.config.MW.msg_size);
             ("loss", Json.Float p.config.MW.loss);
             ("warmup_ms", Json.Float p.warmup_ms);
             ("duration_ms", Json.Float p.until_ms);
             ("drain_ms", Json.Float p.drain_ms);
           ]
          @ (match p.load with
            | Run.Open { rate_per_s; _ } -> [ ("load_per_s", Json.Float rate_per_s) ]
            | Run.Closed { clients_per_node } ->
              [ ("closed_loop_clients", Json.Int clients_per_node) ])
          @ [ ("triggers", Json.List (List.map json_of_trigger p.triggers)) ]) );
      ("shards", Json.List (List.map json_of_shard result.per_shard));
      ("max_concurrent_switches", Json.Int result.max_concurrent_switches);
      ("drained_at_ms", Json.Float result.drained_at_ms);
      ("all_ok", Json.Bool result.all_ok);
    ]
