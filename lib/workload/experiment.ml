module MW = Dpu_core.Middleware
module SB = Dpu_core.Stack_builder
module Collector = Dpu_core.Collector
module Stats = Dpu_engine.Stats
module Series = Dpu_engine.Series
module Json = Dpu_obs.Json
module Log = Dpu_obs.Log

type approach =
  | No_layer
  | Repl
  | Maestro
  | Graceful

let approach_name = function
  | No_layer -> "no-layer"
  | Repl -> "repl"
  | Maestro -> "maestro"
  | Graceful -> "graceful"

type params = {
  n : int;
  seed : int;
  load : float;
  duration_ms : float;
  warmup_ms : float;
  msg_size : int;
  initial : string;
  switch_to : string option;
  switch_at_ms : float;
  approach : approach;
  batch_size : int;
  batching : Dpu_protocols.Batcher.config option;
  loss : float;
  hop_cost : float;
  trace_enabled : bool;
  metrics_enabled : bool;
  pattern : Load_gen.pattern;
  during_margin_ms : float;
  consensus_layer : string option;
  switch_consensus : (float * string) option;
  faults : Dpu_faults.Schedule.t;
  log_out : string option;
  epoch_buffer : bool;
}

let default =
  {
    n = 7;
    seed = 1;
    load = 40.0;
    duration_ms = 10_000.0;
    warmup_ms = 500.0;
    msg_size = 4096;
    initial = Dpu_core.Variants.ct;
    switch_to = Some Dpu_core.Variants.ct;
    switch_at_ms = 5_000.0;
    approach = Repl;
    batch_size = 1;
    batching = None;
    loss = 0.0;
    hop_cost = 0.5;
    trace_enabled = false;
    metrics_enabled = false;
    pattern = Load_gen.Poisson;
    during_margin_ms = 50.0;
    consensus_layer = None;
    switch_consensus = None;
    faults = [];
    log_out = None;
    epoch_buffer = true;
  }

type result = {
  params : params;
  run : Run.result;
  latency : Series.t;
  normal : Stats.t;
  during : Stats.t;
  switch_window : (float * float) option;
  switch_duration_ms : float;
  blocked_ms : float;
  sent : int;
  delivered_everywhere : int;
  collector : Dpu_core.Collector.t;
  trace : Dpu_kernel.Trace.t;
  metrics : Dpu_obs.Metrics.t;
  fault_stats : Dpu_faults.Fault_transport.stats;
  correct : int list;
}

let layer_of = function
  | No_layer -> None
  | Repl -> Some Dpu_core.Repl.protocol_name
  | Maestro -> Some Dpu_baselines.Maestro.protocol_name
  | Graceful -> Some Dpu_baselines.Graceful.protocol_name

let profile_of params =
  {
    SB.initial_abcast = params.initial;
    layer = layer_of params.approach;
    with_gm = false;
    batch_size = params.batch_size;
    batching = params.batching;
    consensus_layer = params.consensus_layer;
    epoch_buffer = params.epoch_buffer;
  }

let register_extra system =
  Dpu_baselines.Maestro.register system;
  Dpu_baselines.Graceful.register system

exception Preflight_failure of Dpu_props.Report.t list

let () =
  Printexc.register_printer (function
    | Preflight_failure reports ->
      Some
        (Format.asprintf "Experiment.Preflight_failure:@.%a"
           Dpu_props.Report.pp_all reports)
    | _ -> None)

let preflight params =
  let profile = profile_of params in
  (* A scratch system: registration populates the registry without
     building any stack, which is all the static verifier needs. *)
  let system = Dpu_kernel.System.create ~n:params.n () in
  SB.register_protocols ~register_extra ~profile system;
  let updates =
    match (params.switch_to, profile.SB.layer) with
    | Some target, Some _ -> [ target ]
    | Some _, None | None, _ -> []
  in
  let consensus_updates =
    match params.switch_consensus with Some (_, target) -> [ target ] | None -> []
  in
  Dpu_analysis.Composition.verify_profile
    ~registry:(Dpu_kernel.System.registry system)
    ~updates ~consensus_updates profile

let spec params =
  (* The fault shim silences a crashed node's network endpoint; in the
     full-stack harness a scheduled [Crash] is also fail-stop for its
     stack. The process model has no rejoin, so a later [Recover] only
     lifts the network silence of a stack that stays dead. *)
  let crashes =
    List.filter_map
      (fun (e : Dpu_faults.Schedule.event) ->
        match e.action with
        | Dpu_faults.Schedule.Crash node -> Some (e.at, node)
        | _ -> None)
      params.faults
  in
  let trigger ~at_ms ~node action = { Run.at_ms; shard = 0; node; action } in
  let switch =
    match (params.switch_to, layer_of params.approach) with
    | Some protocol, Some _ ->
      (* "any process triggers the replacement" (§6.2) — pick one that
         is still alive at the switch time. *)
      let crashed_by_then =
        List.filter_map
          (fun (t, node) -> if t <= params.switch_at_ms then Some node else None)
          crashes
      in
      let rec pick node =
        if node < 0 then 0 else if List.mem node crashed_by_then then pick (node - 1) else node
      in
      [ trigger ~at_ms:params.switch_at_ms ~node:(pick (params.n - 1)) (Run.Abcast protocol) ]
    | Some _, None | None, _ -> []
  in
  let consensus =
    match params.switch_consensus with
    | Some (at_ms, protocol) -> [ trigger ~at_ms ~node:0 (Run.Consensus protocol) ]
    | None -> []
  in
  {
    Run.n = params.n;
    shards = 1;
    config =
      {
        MW.default_config with
        seed = params.seed;
        loss = params.loss;
        hop_cost = params.hop_cost;
        profile = profile_of params;
        trace_enabled = params.trace_enabled;
        metrics_enabled = params.metrics_enabled;
        msg_size = params.msg_size;
      };
    register_extra = Some register_extra;
    faults = params.faults;
    load = Run.Open { rate_per_s = params.load; pattern = params.pattern };
    until_ms = params.duration_ms;
    warmup_ms = params.warmup_ms;
    drain_ms = 120_000.0;
    triggers =
      List.map (fun (at_ms, node) -> trigger ~at_ms ~node Run.Crash) crashes
      @ switch @ consensus;
  }

let log_trigger log (t : Run.trigger) =
  match t.action with
  | Run.Crash -> Log.warn log "crash" ~fields:[ ("node", Json.Int t.node) ]
  | Run.Abcast p ->
    Log.info log "switch trigger" ~fields:[ ("node", Json.Int t.node); ("target", Json.Str p) ]
  | Run.Consensus p -> Log.info log "consensus switch trigger" ~fields:[ ("target", Json.Str p) ]

let run params =
  let spec = spec params in
  Run.validate spec;
  (let reports = preflight params in
   if not (Dpu_props.Report.all_ok reports) then raise (Preflight_failure reports));
  (* The structured log is stamped on the VIRTUAL clock — at time 0, at
     each trigger and at the end — so with the same params the JSONL
     bytes are a pure function of the run: the determinism tests diff
     two runs' files verbatim. *)
  let now = ref 0.0 in
  let log, close_log =
    match params.log_out with
    | None -> (Log.noop, fun () -> ())
    | Some path -> Log.to_file ~clock:(fun () -> !now) path
  in
  Log.info log "experiment start"
    ~fields:
      [ ("n", Json.Int params.n); ("seed", Json.Int params.seed);
        ("load", Json.Float params.load);
        ("approach", Json.Str (approach_name params.approach));
        ("initial", Json.Str params.initial) ];
  let run =
    Run.exec spec ~on_trigger:(fun t ->
        now := t.Run.at_ms;
        log_trigger log t)
  in
  now := run.Run.end_ms;
  let g = run.Run.groups.(0) in
  let collector = g.Run.collector in
  let latency = Collector.latency_series collector in
  let switch_window =
    match g.Run.windows with
    | (_, Some (_first, last)) :: _ -> Some (params.switch_at_ms, last)
    | (_, None) :: _ | [] -> None
  in
  (* Messages sent up to [during_margin_ms] after the last stack
     switched are still attributed to the replacement: the fresh
     protocol's first instances are its cold start (the paper's spike
     decays over a short period after the switch, Fig. 5). *)
  let during_range =
    match switch_window with
    | Some (lo, hi) -> Some (lo, hi +. params.during_margin_ms)
    | None -> None
  in
  let normal = Stats.create () in
  let during = Stats.create () in
  List.iter
    (fun (p : Series.point) ->
      if p.time >= params.warmup_ms then
        match during_range with
        | Some (lo, hi) when p.time >= lo && p.time <= hi -> Stats.add during p.value
        | Some _ | None -> Stats.add normal p.value)
    (Series.points latency);
  let sent = Collector.send_count collector in
  let delivered_everywhere = sent - g.Run.undelivered in
  Log.info log "experiment done"
    ~fields:
      (("sent", Json.Int sent)
      :: ("delivered_everywhere", Json.Int delivered_everywhere)
      ::
      (match switch_window with
      | Some (lo, hi) -> [ ("switch_from_ms", Json.Float lo); ("switch_to_ms", Json.Float hi) ]
      | None -> []));
  close_log ();
  let system = MW.system g.Run.mw in
  {
    params;
    run;
    latency;
    normal;
    during;
    switch_window;
    switch_duration_ms =
      (match switch_window with Some (lo, hi) -> hi -. lo | None -> 0.0);
    blocked_ms = g.Run.blocked_ms;
    sent;
    delivered_everywhere;
    collector;
    trace = Dpu_kernel.System.trace system;
    metrics = MW.metrics g.Run.mw;
    fault_stats = Dpu_kernel.System.fault_stats system;
    correct = g.Run.correct;
  }

let check result = Run.battery result.run 0
