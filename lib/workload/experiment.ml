module MW = Dpu_core.Middleware
module SB = Dpu_core.Stack_builder
module Collector = Dpu_core.Collector
module Stats = Dpu_engine.Stats
module Series = Dpu_engine.Series
module Json = Dpu_obs.Json
module Log = Dpu_obs.Log

let approaches =
  [
    ("repl", Some Dpu_core.Repl.protocol_name);
    ("graceful", Some Dpu_baselines.Graceful.protocol_name);
    ("maestro", Some Dpu_baselines.Maestro.protocol_name);
    ("no-layer", None);
  ]

let approach_name layer =
  match List.find_opt (fun (_, l) -> l = layer) approaches with
  | Some (label, _) -> label
  | None -> Option.get layer (* a layer outside the table is its own label *)

let register_extra system =
  Dpu_baselines.Maestro.register system;
  Dpu_baselines.Graceful.register system

(* "any process triggers the replacement" (§6.2): the highest one. *)
let switch ~n ~at_ms protocol =
  { Run.at_ms; shard = 0; node = n - 1; action = Run.Abcast protocol }

let default =
  {
    Run.n = 7;
    shards = 1;
    config = { MW.default_config with hop_cost = 0.5; trace_enabled = false };
    register_extra = Some register_extra;
    faults = [];
    load = Run.Open { rate_per_s = 40.0; pattern = Load_gen.Poisson };
    until_ms = 10_000.0;
    warmup_ms = 500.0;
    drain_ms = 120_000.0;
    triggers = [ switch ~n:7 ~at_ms:5_000.0 Dpu_core.Variants.ct ];
  }

let switch_at (s : Run.spec) =
  List.find_map
    (fun t -> match t.Run.action with Run.Abcast _ -> Some t.Run.at_ms | _ -> None)
    s.triggers

let with_profile f (s : Run.spec) =
  { s with config = { s.config with profile = f s.config.MW.profile } }

let with_layer layer (s : Run.spec) =
  let keep (t : Run.trigger) =
    match t.action with
    | Run.Abcast _ -> Option.is_some layer
    | Run.Consensus _ | Run.Crash -> true
  in
  with_profile (fun p -> { p with layer }) { s with triggers = List.filter keep s.triggers }

let fail_stop (s : Run.spec) =
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
      s.faults
  in
  let alive (t : Run.trigger) =
    let crashed =
      List.filter_map (fun (at, node) -> if at <= t.at_ms then Some node else None) crashes
    in
    let rec pick node =
      if node < 0 then 0 else if List.mem node crashed then pick (node - 1) else node
    in
    match t.action with Run.Abcast _ -> { t with node = pick t.node } | _ -> t
  in
  let crash (at_ms, node) = { Run.at_ms; shard = 0; node; action = Run.Crash } in
  { s with triggers = List.map crash crashes @ List.map alive s.triggers }

type result = {
  run : Run.result;
  latency : Series.t;
  normal : Stats.t;
  during : Stats.t;
  switch_window : (float * float) option;
  switch_duration_ms : float;
  sent : int;
  delivered_everywhere : int;
}

let group r = r.run.Run.groups.(0)

exception Preflight_failure of Dpu_props.Report.t list

let () =
  Printexc.register_printer (function
    | Preflight_failure reports ->
      Some
        (Format.asprintf "Experiment.Preflight_failure:@.%a"
           Dpu_props.Report.pp_all reports)
    | _ -> None)

let targets (s : Run.spec) f = List.filter_map (fun t -> f t.Run.action) s.triggers

let preflight (s : Run.spec) =
  Run.validate s;
  let profile = s.config.MW.profile in
  (* A scratch system: registration populates the registry without
     building any stack, which is all the static verifier needs. *)
  let system = Dpu_kernel.System.create ~n:s.n () in
  SB.register_protocols ?register_extra:s.register_extra ~profile system;
  Dpu_analysis.Composition.verify_profile
    ~registry:(Dpu_kernel.System.registry system)
    ~updates:(targets s (function Run.Abcast p -> Some p | _ -> None))
    ~consensus_updates:(targets s (function Run.Consensus p -> Some p | _ -> None))
    profile

let log_trigger log (t : Run.trigger) =
  match t.action with
  | Run.Crash -> Log.warn log "crash" ~fields:[ ("node", Json.Int t.node) ]
  | Run.Abcast p ->
    Log.info log "switch trigger" ~fields:[ ("node", Json.Int t.node); ("target", Json.Str p) ]
  | Run.Consensus p -> Log.info log "consensus switch trigger" ~fields:[ ("target", Json.Str p) ]

(* Messages sent up to this long after the last stack switched are
   still attributed to the replacement: the fresh protocol's first
   instances are its cold start (the paper's spike decays over a short
   period after the switch, Fig. 5). *)
let during_margin_ms = 50.0

let run ?log_out (spec : Run.spec) =
  if spec.shards <> 1 then
    invalid_arg (Printf.sprintf "Experiment.run: one group only (shards = %d)" spec.shards);
  (let reports = preflight spec in
   if not (Dpu_props.Report.all_ok reports) then raise (Preflight_failure reports));
  (* The structured log is stamped on the VIRTUAL clock — at time 0, at
     each trigger and at the end — so with the same spec the JSONL
     bytes are a pure function of the run: the determinism tests diff
     two runs' files verbatim. *)
  let now = ref 0.0 in
  let log, close_log =
    match log_out with
    | None -> (Log.noop, fun () -> ())
    | Some path -> Log.to_file ~clock:(fun () -> !now) path
  in
  let profile = spec.config.MW.profile in
  Log.info log "experiment start"
    ~fields:
      ([ ("n", Json.Int spec.n); ("seed", Json.Int spec.config.MW.seed) ]
      @ (match spec.load with
        | Run.Open { rate_per_s; _ } -> [ ("load", Json.Float rate_per_s) ]
        | Run.Closed _ -> [])
      @ [ ("approach", Json.Str (approach_name profile.SB.layer));
          ("initial", Json.Str profile.SB.initial_abcast) ]);
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
    match (switch_at spec, g.Run.windows) with
    | Some at_ms, (_, Some (_first, last)) :: _ -> Some (at_ms, last)
    | _ -> None
  in
  let during_range =
    match switch_window with
    | Some (lo, hi) -> Some (lo, hi +. during_margin_ms)
    | None -> None
  in
  let normal = Stats.create () in
  let during = Stats.create () in
  List.iter
    (fun (p : Series.point) ->
      if p.time >= spec.warmup_ms then
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
  {
    run;
    latency;
    normal;
    during;
    switch_window;
    switch_duration_ms =
      (match switch_window with Some (lo, hi) -> hi -. lo | None -> 0.0);
    sent;
    delivered_everywhere;
  }

let check result = Run.battery result.run 0
