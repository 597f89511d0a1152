module Transport = Dpu_runtime.Transport
module System = Dpu_kernel.System
module Msg = Dpu_kernel.Msg
module MW = Dpu_core.Middleware
module Collector = Dpu_core.Collector
module Fault_transport = Dpu_faults.Fault_transport

type result = {
  scenario : Corpus.t;
  collector : Collector.t;
  correct : int list;
  reports : Dpu_props.Report.t list;
  switch_windows : (int * (float * float) option) list;
  sent : int;
  faults : Fault_transport.stats;
  counters : Transport.counters;
}

(* Virtual grace beyond [duration + drain] for retransmission cycles to
   finish after the last fault window closes — virtual time is cheap,
   and the property battery wants a quiescent trace. *)
let sim_grace_ms = 30_000.0

let run_sim ?(seed = 1) (sc : Corpus.t) =
  (match Corpus.validate sc with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Scenario.run_sim %s: %s" sc.name msg));
  let config =
    {
      MW.default_config with
      seed;
      profile =
        { Dpu_core.Stack_builder.default_profile with initial_abcast = sc.Corpus.initial };
      msg_size = 1_024;
      trace_enabled = false;
    }
  in
  let mw = MW.create ~config ~faults:sc.Corpus.schedule ~n:sc.Corpus.n () in
  let system = MW.system mw in
  Load_gen.start mw ~rate_per_s:sc.Corpus.load ~until:sc.Corpus.duration_ms ();
  let clock = System.clock system in
  List.iter
    (fun (s : Corpus.switch) ->
      Dpu_runtime.Clock.defer clock ~delay:s.Corpus.sw_at (fun () ->
          MW.change_protocol mw ~node:s.Corpus.sw_node s.Corpus.sw_to))
    sc.Corpus.switches;
  MW.run_until_quiescent
    ~limit:(sc.Corpus.duration_ms +. sc.Corpus.drain_ms +. sim_grace_ms)
    mw;
  let collector = MW.collector mw in
  let correct = Corpus.correct_nodes sc in
  let reports = Dpu_props.Abcast_props.check_all collector ~correct in
  let switch_windows =
    List.mapi
      (fun i _ ->
        let generation = i + 1 in
        (generation, Collector.switch_window collector ~generation))
      sc.Corpus.switches
  in
  {
    scenario = sc;
    collector;
    correct;
    reports;
    switch_windows;
    sent = Collector.send_count collector;
    faults = System.fault_stats system;
    counters = Transport.counters (System.transport system);
  }

(* Canonical dump of everything the run observed; two runs are
   replay-identical iff their signatures are byte-equal. *)
let signature r =
  let buf = Buffer.create 4_096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "scenario %s seed-independent-dump\n" r.scenario.Corpus.name;
  List.iter
    (fun (id, node, time) ->
      add "send %s node %d @%.6f\n" (Msg.id_to_string id) node time)
    (Collector.sends r.collector);
  List.iter
    (fun node ->
      List.iter
        (fun (id, time) ->
          add "deliver node %d %s @%.6f\n" node (Msg.id_to_string id) time)
        (Collector.delivers_of r.collector ~node))
    (List.init r.scenario.Corpus.n Fun.id);
  List.iter
    (fun (node, generation, time) ->
      add "switch node %d gen %d @%.6f\n" node generation time)
    (Collector.switches r.collector);
  let f = r.faults in
  add "faults crash %d partition %d loss %d dup %d delayed %d rx %d\n"
    f.Fault_transport.blocked_crash f.Fault_transport.blocked_partition
    f.Fault_transport.injected_loss f.Fault_transport.injected_dup
    f.Fault_transport.delayed f.Fault_transport.rx_blocked;
  let c = r.counters in
  add "wire sent %d delivered %d dropped %d bytes %d\n" c.Transport.sent
    c.Transport.delivered c.Transport.dropped c.Transport.bytes;
  Buffer.contents buf

let ok r = Dpu_props.Report.all_ok r.reports
