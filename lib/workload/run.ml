module MW = Dpu_core.Middleware
module Collector = Dpu_core.Collector
module System = Dpu_kernel.System
module Msg = Dpu_kernel.Msg
module Clock = Dpu_runtime.Clock
module Transport = Dpu_runtime.Transport
module Schedule = Dpu_faults.Schedule
module Fault_transport = Dpu_faults.Fault_transport

type load =
  | Open of { rate_per_s : float; pattern : Load_gen.pattern }
  | Closed of { clients_per_node : int }

type action =
  | Abcast of string
  | Consensus of string
  | Crash

type trigger = { at_ms : float; shard : int; node : int; action : action }

type spec = {
  n : int;
  shards : int;
  config : MW.config;
  register_extra : (System.t -> unit) option;
  faults : Schedule.t;
  load : load;
  until_ms : float;
  warmup_ms : float;
  drain_ms : float;
  triggers : trigger list;
}

type group = {
  mw : MW.t;
  collector : Collector.t;
  correct : int list;
  windows : (int * (float * float) option) list;
  generation : int;
  blocked_ms : float;
  undelivered : int;
}

type result = { spec : spec; groups : group array; end_ms : float }

let validate s =
  let fail fmt = Printf.ksprintf (fun m -> invalid_arg ("Run: " ^ m)) fmt in
  if s.shards < 1 then fail "shards must be >= 1 (got %d)" s.shards;
  if s.n < s.shards then
    fail "need at least one node per shard (n = %d, shards = %d)" s.n s.shards;
  if s.faults <> [] && s.shards > 1 then
    fail "a fault schedule needs a single group (shards = %d)" s.shards;
  (match Schedule.validate ~n:s.n s.faults with
  | Ok () -> ()
  | Error msg -> fail "fault schedule: %s" msg);
  match s.load with
  | Open { rate_per_s; _ } when not (Float.is_finite rate_per_s && rate_per_s > 0.0) ->
    fail "load must be a finite rate > 0 msg/s (got %g)" rate_per_s
  | Open _ | Closed _ -> ()

let build s =
  let open Dpu_core in
  let register_extra = s.register_extra in
  if s.shards = 1 then [| MW.create ~config:s.config ?register_extra ~faults:s.faults ~n:s.n () |]
  else
    let fabric = Fabric.create ~config:s.config ?register_extra ~shards:s.shards ~n:s.n () in
    Array.init s.shards (Fabric.group fabric)

let start_load s mw =
  match s.load with
  | Open { rate_per_s; pattern } ->
    (* Split by group size, so every node carries the same per-node
       rate however the block split rounded. One group takes the rate
       as given: [r *. n /. n] can round away from [r]. *)
    let rate_per_s =
      if s.shards = 1 then rate_per_s
      else rate_per_s *. float_of_int (MW.n mw) /. float_of_int s.n
    in
    Load_gen.start mw ~rate_per_s ~pattern ~until:s.until_ms ()
  | Closed { clients_per_node } ->
    Load_gen.closed_loop mw ~clients_per_node ~until:s.until_ms ()

let switches_on s g =
  List.filter_map
    (fun t -> match t.action with Abcast p when t.shard = g -> Some p | _ -> None)
    s.triggers

let group_of s g mw =
  let system = MW.system mw in
  let collector = MW.collector mw in
  (* A schedule crash without a later recover silences the node for
     good: not a correct process, even though its stack runs. *)
  let silenced = Schedule.crashed_before s.faults ~time:infinity in
  let correct =
    List.filter (fun node -> not (List.mem node silenced)) (System.correct_nodes system)
  in
  let windows =
    List.mapi
      (fun i _ -> (i + 1, Collector.switch_window collector ~generation:(i + 1)))
      (switches_on s g)
  in
  let generation =
    List.fold_left
      (fun acc (node, gen, _) -> if node = 0 then max acc gen else acc)
      0 (Collector.switches collector)
  in
  let blocked_ms =
    Array.fold_left
      (fun acc stack -> Float.max acc (Dpu_baselines.Maestro.blocked_ms stack))
      0.0 (System.stacks system)
  in
  let undelivered =
    List.length (Collector.undelivered_ids collector ~expected_copies:(List.length correct))
  in
  { mw; collector; correct; windows; generation; blocked_ms; undelivered }

let exec ?(on_trigger = ignore) s =
  validate s;
  let groups = build s in
  (* Each trigger is deferred on its own group's clock, so it is part
     of the same deterministic schedule as the load. *)
  let defer t =
    let mw = groups.(t.shard) in
    Clock.defer (System.clock (MW.system mw)) ~delay:t.at_ms (fun () ->
        on_trigger t;
        match t.action with
        | Abcast protocol -> MW.change_protocol mw ~node:t.node protocol
        | Consensus protocol -> MW.change_consensus mw ~node:t.node protocol
        | Crash -> MW.crash mw t.node)
  in
  let crashes, others = List.partition (fun t -> t.action = Crash) s.triggers in
  List.iter defer crashes;
  Array.iter (start_load s) groups;
  List.iter defer others;
  MW.run_until_quiescent ~limit:(s.until_ms +. s.drain_ms) groups.(0);
  { spec = s; groups = Array.mapi (group_of s) groups; end_ms = MW.now groups.(0) }

let battery r g =
  let grp = r.groups.(g) in
  let abcast = Dpu_props.Abcast_props.check_all grp.collector ~correct:grp.correct in
  let trace = System.trace (MW.system grp.mw) in
  if not (Dpu_kernel.Trace.enabled trace) then abcast
  else
    let protocols =
      List.fold_left
        (fun acc p -> if List.mem p acc then acc else acc @ [ p ])
        [ r.spec.config.MW.profile.Dpu_core.Stack_builder.initial_abcast ]
        (switches_on r.spec g)
    in
    abcast
    @ Dpu_props.Stack_props.check_generic trace ~protocols
        ~nodes:(List.init (MW.n grp.mw) Fun.id)

let signature ?(name = "run") r =
  let buf = Buffer.create 4_096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "scenario %s seed-independent-dump\n" name;
  Array.iteri
    (fun g grp ->
      if Array.length r.groups > 1 then add "group %d\n" g;
      let c = grp.collector in
      List.iter
        (fun (id, node, time) ->
          add "send %s node %d @%.6f\n" (Msg.id_to_string id) node time)
        (Collector.sends c);
      List.iter
        (fun node ->
          List.iter
            (fun (id, time) ->
              add "deliver node %d %s @%.6f\n" node (Msg.id_to_string id) time)
            (Collector.delivers_of c ~node))
        (List.init (MW.n grp.mw) Fun.id);
      List.iter
        (fun (node, generation, time) ->
          add "switch node %d gen %d @%.6f\n" node generation time)
        (Collector.switches c);
      let system = MW.system grp.mw in
      let f = System.fault_stats system in
      add "faults crash %d partition %d loss %d dup %d delayed %d rx %d\n"
        f.Fault_transport.blocked_crash f.Fault_transport.blocked_partition
        f.Fault_transport.injected_loss f.Fault_transport.injected_dup
        f.Fault_transport.delayed f.Fault_transport.rx_blocked;
      let w = Transport.counters (System.transport system) in
      add "wire sent %d delivered %d dropped %d bytes %d\n" w.Transport.sent
        w.Transport.delivered w.Transport.dropped w.Transport.bytes)
    r.groups;
  Buffer.contents buf
