(** Run-wide Chrome trace assembly for live deployments.

    Every process stamps its events in milliseconds since the epoch the
    parent handed out before forking, so the merged event list needs no
    clock reconciliation: collector-derived spans, per-node shipped
    buffers and nemesis windows all share one time axis. *)

val merged :
  n:int ->
  horizon_ms:float ->
  nemesis:Dpu_faults.Schedule.t ->
  collector:Dpu_core.Collector.t ->
  node_traces:Dpu_obs.Trace_event.t list list ->
  Dpu_obs.Trace_event.t list
(** The full merged trace: {!Dpu_core.Spans.of_run} over the merged
    collector (per-message spans, install instants, replacement
    windows), each node's own events, and the nemesis schedule on its
    own synthetic process ([pid = n + 1], one past the replacement
    timeline's): an instant at every boundary (crash/recover,
    partition/heal) and a span for each window (crash .. recover,
    partition .. heal, loss/dup/degrade), clamped at [horizon_ms] when
    the schedule never closes it. An empty schedule adds nothing. *)
