(** The one run driver: every simulated experiment is a {!spec}
    executed by {!exec}; the figure, corpus, sharding and throughput
    drivers are projections of its {!result}.

    [exec] builds the groups ({!Dpu_core.Middleware.create}[ ~faults]
    for one group, {!Dpu_core.Fabric.create} otherwise), then defers
    the fail-stop [Crash] triggers, starts the load, defers the other
    triggers in list order, and runs to [until_ms + drain_ms]. Events
    scheduled for the same virtual time keep that order. *)

type load =
  | Open of { rate_per_s : float; pattern : Load_gen.pattern }
      (** aggregate rate, split across groups by group size *)
  | Closed of { clients_per_node : int }  (** {!Load_gen.closed_loop} *)

type action =
  | Abcast of string  (** changeABcast to this protocol *)
  | Consensus of string  (** hot-swap consensus to this implementation *)
  | Crash  (** fail-stop: the stack and its network endpoint *)

type trigger = { at_ms : float; shard : int; node : int; action : action }
(** At [at_ms], group-local [node] of group [shard] performs [action]. *)

type spec = {
  n : int;  (** total nodes, split into [shards] contiguous blocks *)
  shards : int;
  config : Dpu_core.Middleware.config;  (** applies to every group *)
  register_extra : (Dpu_kernel.System.t -> unit) option;
  faults : Dpu_faults.Schedule.t;
      (** played against the network by the fault shim (one group
          only); its crashes silence endpoints, [Crash] triggers
          fail-stop stacks *)
  load : load;
  until_ms : float;  (** the load stops here *)
  warmup_ms : float;  (** samples sent before this are not measured *)
  drain_ms : float;
      (** a horizon after [until_ms], not a poll: the failure
          detectors' timers never stop *)
  triggers : trigger list;
}

val validate : spec -> unit
(** Raises [Invalid_argument] when [shards < 1], [n < shards], a fault
    schedule is given with [shards > 1] or fails
    {!Dpu_faults.Schedule.validate}, or an open-loop rate is not finite
    and > 0. *)

type group = {
  mw : Dpu_core.Middleware.t;
  collector : Dpu_core.Collector.t;
  correct : int list;  (** neither fail-stopped nor silenced for good *)
  windows : (int * (float * float) option) list;
      (** per [Abcast] trigger on the group, in order: (generation,
          completion window), [None] if never installed *)
  generation : int;  (** last generation the group's node 0 installed *)
  blocked_ms : float;  (** worst per-stack app-blocked time *)
  undelivered : int;  (** messages some correct node never delivered *)
}

type result = { spec : spec; groups : group array; end_ms : float }

val exec : ?on_trigger:(trigger -> unit) -> spec -> result
(** {!validate}, then run. [on_trigger] is called at each trigger's
    virtual time, just before its action. *)

val battery : result -> int -> Dpu_props.Report.t list
(** The ABcast properties of one group, plus the generic §3 properties
    when its kernel trace is on. *)

val signature : ?name:string -> result -> string
(** Canonical dump of sends, deliveries, switches and fault and wire
    counters, group by group, headed by [name] (default ["run"]); two
    runs replayed identically iff their signatures are byte-equal. *)
