(** Per-message spans and the replacement timeline, reconstructed from
    the {!Collector} and the kernel {!Dpu_kernel.Trace}, as Chrome
    trace events (load the exported JSON in Perfetto or
    chrome://tracing).

    Layout: each simulated node is one process (pid = node) with two
    lanes — tid 0 carries one span per (message, delivering node) from
    ABcast to delivery there, tid 1 carries kernel/DPU events (blocked
    service calls as spans, generation installs and switch triggers as
    instants). One synthetic process (pid = n) holds the replacement
    windows: a span per generation from the first install to the last,
    the paper's replacement window. *)

open Dpu_kernel

val trace_events : Trace.t -> Dpu_obs.Trace_event.t list
(** From one pass over the kernel trace: one span per blocked service
    call (from [Call_blocked] to its FIFO matching [Call_unblocked]),
    then one instant per replacement trigger ([change-abcast] /
    [change-consensus] app events). Requires the trace to have been
    enabled during the run. *)

val replacement_timeline : Collector.t -> (int * (float * float)) list
(** Per generation, the [(first_install, last_install)] window — the
    data behind the timeline-process spans, sorted by generation. *)

val of_run : ?trace:Trace.t -> n:int -> Collector.t -> Dpu_obs.Trace_event.t list
(** Everything above plus process/thread naming metadata. [trace]
    contributes blocked-call spans and switch-trigger instants when
    given and enabled. *)

val to_json : Dpu_obs.Trace_event.t list -> Dpu_obs.Json.t
(** The loadable trace-event envelope. *)
