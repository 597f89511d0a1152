module Collector = Dpu_core.Collector
module J = Dpu_obs.Json

type params = {
  n : int;
  load : float;
  duration_ms : float;
  drain_ms : float;
  switch_at_ms : float;
  initial : string;
  switch_to : string option;
  switches : (float * int * string) list;
  nemesis : Dpu_faults.Schedule.t;
  msg_size : int;
  seed : int;
  batching : int option;
}

let default =
  {
    n = 3;
    load = 30.0;
    duration_ms = 3_000.0;
    drain_ms = 1_500.0;
    switch_at_ms = 1_500.0;
    initial = Dpu_core.Variants.ct;
    switch_to = Some Dpu_core.Variants.sequencer;
    switches = [];
    nemesis = [];
    msg_size = 1_024;
    seed = 1;
    batching = None;
  }

type outcome = {
  node_reports : Node.report list;  (** in node order *)
  collector : Collector.t;  (** all processes merged, one time axis *)
  checks : Dpu_props.Report.t list;
}

let merge_reports reports =
  let collector = Collector.create () in
  let sends =
    List.concat_map
      (fun (r : Node.report) ->
        List.map (fun (id, time) -> (id, r.Node.node, time)) r.Node.sends)
      reports
    |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare a b)
  in
  List.iter
    (fun (id, node, time) -> Collector.record_send collector ~node ~id ~time)
    sends;
  List.iter
    (fun (r : Node.report) ->
      List.iter
        (fun (id, time) ->
          Collector.record_deliver collector ~node:r.Node.node ~id ~time)
        r.Node.delivers;
      List.iter
        (fun (generation, time) ->
          Collector.record_switch collector ~node:r.Node.node ~generation ~time)
        r.Node.switches)
    reports;
  collector

let counters_json (c : Dpu_runtime.Transport.counters) =
  J.Obj
    [
      ("sent", J.Int c.Dpu_runtime.Transport.sent);
      ("delivered", J.Int c.Dpu_runtime.Transport.delivered);
      ("dropped", J.Int c.Dpu_runtime.Transport.dropped);
      ("bytes", J.Int c.Dpu_runtime.Transport.bytes);
    ]

let switches params =
  (match params.switch_to with
  | Some p -> [ (params.switch_at_ms, 0, p) ]
  | None -> [])
  @ params.switches

let of_scenario base (sc : Dpu_workload.Corpus.t) =
  {
    base with
    n = sc.n;
    load = sc.load;
    duration_ms = sc.duration_ms;
    drain_ms = sc.drain_ms;
    initial = sc.initial;
    switch_to = None;
    switches =
      List.map
        (fun (s : Dpu_workload.Corpus.switch) -> (s.sw_at, s.sw_node, s.sw_to))
        sc.switches;
    nemesis = sc.schedule;
  }

let validate params =
  if params.n < 1 then invalid_arg "Serve.run: need at least one node";
  if not (Float.is_finite params.load && params.load > 0.0) then
    invalid_arg
      (Printf.sprintf "Serve.run: load must be a finite rate > 0 msg/s (got %g)"
         params.load);
  (match Dpu_faults.Schedule.validate ~n:params.n params.nemesis with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Serve.run: nemesis: %s" msg));
  List.iter
    (fun (at, node, _) ->
      if node < 0 || node >= params.n then
        invalid_arg (Printf.sprintf "Serve.run: switch node %d out of range" node);
      if not (Float.is_finite at && at >= 0.0) then
        invalid_arg (Printf.sprintf "Serve.run: switch at %g ms is not finite and >= 0" at))
    (switches params)

let run ?metrics_out ?spans_out ?trace_out ?logs_dir params =
  validate params;
  let switches = switches params in
  let fds =
    Array.init params.n (fun _ -> Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0)
  in
  Array.iter
    (fun fd -> Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)))
    fds;
  let peers = Array.map Unix.getsockname fds in
  let epoch = Unix.gettimeofday () in
  (* Stamped into every envelope: frames from an earlier deployment
     that bound the same ports are shed at the transport. *)
  let generation = Unix.getpid () land 0xffff in
  (match logs_dir with
  | None -> ()
  | Some dir -> (
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()));
  let node me =
    (* One worker per cell: a forked worker keeps only its own socket. *)
    Array.iteri (fun i fd -> if i <> me then Unix.close fd) fds;
    let config =
      {
        Node.me;
        n = params.n;
        epoch;
        generation;
        initial = params.initial;
        switches;
        nemesis = params.nemesis;
        load = params.load;
        msg_size = params.msg_size;
        batching = params.batching;
        duration_ms = params.duration_ms;
        drain_ms = params.drain_ms;
        seed = params.seed;
        trace_enabled = trace_out <> None;
        log_path =
          Option.map
            (fun dir -> Filename.concat dir (Printf.sprintf "node-%d.jsonl" me))
            logs_dir;
      }
    in
    Node.run ~config ~fd:fds.(me) ~peers ()
  in
  match
    Fun.protect
      ~finally:(fun () -> Array.iter Unix.close fds)
      (fun () -> Dpu_workload.Sweep.map ~jobs:params.n ~cells:params.n node)
  with
  | exception Dpu_workload.Sweep.Worker_failed { worker; reason } ->
    Error (Printf.sprintf "node %d: %s" worker reason)
  | exception e when params.n = 1 ->
    (* Sweep forks nothing for one cell: the node ran in this process,
       and its exception is the failure a forked node would report. *)
    Error ("node 0: worker raised: " ^ Printexc.to_string e)
  | reports ->
    let node_reports = Array.to_list reports in
    let collector = merge_reports node_reports in
    (* Nodes the nemesis silences for good make no promises — the
       properties quantify over the nodes that stay correct. *)
    let silenced =
      Dpu_faults.Schedule.crashed_before params.nemesis ~time:infinity
    in
    let correct =
      List.filter
        (fun node -> not (List.mem node silenced))
        (List.init params.n Fun.id)
    in
    let checks = Dpu_props.Abcast_props.check_all collector ~correct in
    (match metrics_out with
    | Some path ->
      J.to_file path
        (J.Obj
           [
             ( "nodes",
               J.List
                 (List.map
                    (fun (r : Node.report) ->
                      J.Obj
                        [
                          ("node", J.Int r.Node.node);
                          ("transport", counters_json r.Node.counters);
                          ("metrics", r.Node.metrics);
                        ])
                    node_reports) );
           ])
    | None -> ());
    (match spans_out with
    | Some path ->
      let events = Dpu_core.Spans.of_run ~n:params.n collector in
      J.to_file path (Dpu_core.Spans.to_json events)
    | None -> ());
    (match trace_out with
    | Some path ->
      let events =
        Live_trace.merged ~n:params.n
          ~horizon_ms:(params.duration_ms +. params.drain_ms)
          ~nemesis:params.nemesis ~collector
          ~node_traces:(List.map (fun (r : Node.report) -> r.Node.trace) node_reports)
      in
      J.to_file path (Dpu_obs.Trace_event.to_json events)
    | None -> ());
    Ok { node_reports; collector; checks }
