(** Multi-process live deployment on localhost.

    [run] binds [n] UDP sockets on 127.0.0.1 (ephemeral ports) and
    runs one node per {!Dpu_workload.Sweep} worker: [Sweep.map ~jobs:n
    ~cells:n] forks one OS process per node (none when [n = 1]: the
    single node runs in this process), each inheriting its socket and
    the full peer address table. The nodes run the complete DPU stack
    under open-loop load for [duration_ms], with node 0 triggering an
    ABcast replacement (Algorithm 1 of the paper) at [switch_at_ms].
    Each worker returns its node's {!Node.report} through Sweep's
    result pipe; the parent merges the reports onto the shared time
    axis and checks the four atomic broadcast properties of §5.1
    across the replacement — the live counterpart of the simulator's
    {!Dpu_workload.Experiment.check}.

    A non-empty [nemesis] schedule reaches every node in its
    {!Node.config} and is interpreted by a per-process
    {!Dpu_faults.Fault_transport} shim, so the whole deployment lives
    through the same scripted adversity; nodes the schedule
    crash-silences for good are excluded from the [~correct] set the
    property checkers get. [switches] arms additional replacements
    beyond the [switch_to]/[switch_at_ms] pair (each triple is
    [(at_ms, node, target)]).

    [metrics_out]/[spans_out] mirror the sim path's exports: a JSON
    metrics snapshot (here per-node, plus transport counters) and
    Chrome trace-event spans of the merged run.

    [trace_out] goes further: it turns per-node trace recording on
    (each node records switch triggers, fault injections and
    start/stop marks against the shared epoch, shipped in its report)
    and writes ONE merged Chrome trace — collector spans, every node's
    events and the nemesis schedule as fault windows — loadable in
    Perfetto. [logs_dir] gives each node a structured JSONL log file
    ([node-<i>.jsonl], created on demand); with neither given, nodes
    run with tracing off and the noop logger. *)

type params = {
  n : int;
  load : float;  (** aggregate messages per second *)
  duration_ms : float;
  drain_ms : float;  (** settle time after the load stops *)
  switch_at_ms : float;
  initial : string;
  switch_to : string option;
  switches : (float * int * string) list;
      (** extra replacements: [(at_ms, node, target)] *)
  nemesis : Dpu_faults.Schedule.t;  (** [[]] = clean network *)
  msg_size : int;
  seed : int;
  batching : int option;
      (** throughput mode: egress batch cap per UDP frame, and the same
          cap (with a 2 ms delay trigger) for protocol-level batch
          aggregation in every child's ABcast; [None] = the exact
          unbatched paths *)
}

val default : params
(** 3 nodes, 30 msg/s for 3 s, CT ABcast swapped to the sequencer
    variant at 1.5 s, clean network, no batching. *)

type outcome = {
  node_reports : Node.report list;  (** in node order *)
  collector : Dpu_core.Collector.t;  (** all processes merged, one time axis *)
  checks : Dpu_props.Report.t list;
}

val switches : params -> (float * int * string) list
(** Every planned replacement as [(at_ms, node, target)], in generation
    order: the [switch_to]/[switch_at_ms] pair (from node 0) first, then
    [switches]. *)

val of_scenario : params -> Dpu_workload.Corpus.t -> params
(** The corpus scenario as a live deployment: its group size, load,
    timing, initial protocol, switches and fault schedule over [base]'s
    message size, seed and batching. *)

val validate : params -> unit
(** Raises [Invalid_argument] when [n < 1], [load] is not finite and
    positive, the nemesis schedule or a switch targets a node out of
    range, or a switch time is not finite and >= 0 — everything {!run}
    checks before it forks. *)

val run :
  ?metrics_out:string ->
  ?spans_out:string ->
  ?trace_out:string ->
  ?logs_dir:string ->
  params ->
  (outcome, string) result
(** {!validate}, then run the nodes. [Error] when a node dies or raises
    ({!Dpu_workload.Sweep.Worker_failed}, or the in-process node's
    exception when [n = 1]). Property violations are not an error —
    inspect [checks]. *)
