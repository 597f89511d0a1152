(** The §6 reading of a run: the scenario runner behind every figure
    and table.

    The paper's benchmark (§6.2) is one kind of {!Run.spec}: [n]
    stacks on a LAN, a constant aggregate load of ABcast messages and
    optionally one dynamic protocol replacement triggered mid-run,
    under a selectable DPU approach (the profile's replacement layer).
    [run] executes such a spec with {!Run.exec} and splits the
    per-message latency series (the paper's average-latency metric)
    into the normal period and the replacement window. Everything else
    about the run — collector, kernel trace, metrics, fault ledger,
    correct set, blocked time — is read from its {!group}. *)

module Stats = Dpu_engine.Stats
module Series = Dpu_engine.Series

(** {1 Building specs} *)

val default : Run.spec
(** The paper's Fig. 5 setting: n=7, seed 1, 40 msg/s Poisson, 4 KB,
    0.5 ms hops, load until 10 s after 500 ms of warmup, 120 s of
    drain, CT under the [Repl] layer with a CT→CT {!switch} at 5 s.
    Tracing and metrics are off. *)

val switch : n:int -> at_ms:float -> string -> Run.trigger
(** changeABcast to the named protocol at [at_ms], from node [n - 1]
    of a group of [n]. A spec that changes [n] rebuilds its switch with
    this. *)

val switch_at : Run.spec -> float option
(** The time of the spec's first [Abcast] trigger. *)

val with_profile :
  (Dpu_core.Stack_builder.profile -> Dpu_core.Stack_builder.profile) ->
  Run.spec ->
  Run.spec
(** Edit the stack profile of the spec's config. *)

val with_layer : string option -> Run.spec -> Run.spec
(** Put the named replacement layer in the profile. [None] (the Fig. 6
    baseline, no layer) also drops the [Abcast] triggers: a switch
    needs a layer. *)

val approaches : (string * string option) list
(** The DPU approaches by CLI label: ["repl"] (the paper's Algorithm
    1), ["graceful"] (AAC/CA barrier baseline [6]), ["maestro"]
    (whole-stack switch baseline [20]) and ["no-layer"]; each with the
    replacement layer it installs. *)

val approach_name : string option -> string
(** The label of a replacement layer in {!approaches}. *)

val fail_stop : Run.spec -> Run.spec
(** Make every scheduled [Crash] of the spec's fault schedule also a
    fail-stop [Crash] trigger (stack and endpoint; a later [Recover]
    only lifts the network silence of a stack that stays dead), and
    move each [Abcast] trigger whose node has crashed by then to the
    next lower node still alive. *)

(** {1 Running} *)

type result = {
  run : Run.result;  (** the underlying run, one group *)
  latency : Series.t;  (** avg latency per message, keyed by send time *)
  normal : Stats.t;  (** messages sent outside the replacement window *)
  during : Stats.t;  (** sent inside it or up to 50 ms after (cold-start tail) *)
  switch_window : (float * float) option;
      (** [(first switch trigger, last stack switched)] *)
  switch_duration_ms : float;  (** window width; 0 when no switch *)
  sent : int;
  delivered_everywhere : int;  (** messages delivered by all correct stacks *)
}

val group : result -> Run.group
(** The run's one group. *)

exception Preflight_failure of Dpu_props.Report.t list
(** The static composition verifier rejected the configuration. Raised
    by [run] before any simulation step, so a mis-composed profile or
    unsafe update plan fails in milliseconds instead of surfacing as a
    stuck stack minutes into a sweep. *)

val preflight : Run.spec -> Dpu_props.Report.t list
(** Statically verify the configuration the spec would assemble
    ({!Dpu_analysis.Composition}): stack well-formedness, provider
    acyclicity, unique bindings and update-plan safety for its
    [Abcast] and [Consensus] triggers, with the spec's
    [register_extra]. No simulation happens. Raises [Invalid_argument]
    if {!Run.validate} rejects the spec. *)

val run : ?log_out:string -> Run.spec -> result
(** {!preflight}, then [Run.exec] split into normal and during-switch
    statistics. Raises [Invalid_argument] if {!Run.validate} rejects
    the spec or it has more than one group, and {!Preflight_failure} if
    the static composition verifier rejects the configuration.

    [log_out] writes structured JSONL milestone logs (start, triggers,
    completion) to that path, stamped on the {e virtual} clock: the
    same spec produces byte-identical files. *)

val check : result -> Dpu_props.Report.t list
(** All ABcast properties plus the generic §3 properties for the run
    ({!Run.battery}). *)
