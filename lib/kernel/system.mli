(** A distributed system: [n] protocol stacks over one runtime.

    Owns the runtime (clock + transport + RNG), the shared kernel trace
    and the protocol registry. Builders (e.g. [Dpu_core.Stack_builder])
    populate each stack with modules.

    Two deployment shapes exist:

    - {!create} builds a {e simulated} deployment: all [n] stacks live
      in this process over a discrete-event simulator and a simulated
      datagram network. It is the one place that wires a simulated
      group — its RNG stream, ready queue, network, fault shim and
      metric rows — whether the system owns its simulator or joins a
      shared one as a group of a multi-group fabric.
    - {!of_runtime} wraps an externally supplied runtime (e.g. the
      live-clock/UDP backend), where typically only {e one} node of the
      [n]-node system is local to this process. Non-local slots have no
      stack; {!stack} on them raises. *)

type t

val create :
  ?seed:int ->
  ?sim:Dpu_engine.Sim.t ->
  ?loss:float ->
  ?dup:float ->
  ?link:Dpu_net.Latency.link ->
  ?faults:Dpu_faults.Schedule.t ->
  ?hop_cost:float ->
  ?trace_enabled:bool ->
  ?metrics:Dpu_obs.Metrics.t ->
  n:int ->
  unit ->
  t
(** Simulated deployment. Without [sim] the system owns a fresh
    simulator seeded with [seed] (default 1). With [sim] it joins that
    simulator as its next group: {!group_id} is [Sim.groups sim] at the
    call, and driving the system ({!run_for}, …) advances the {e shared}
    simulator. Either way the system gets its own ready queue
    ([Sim.new_group]), network, registry, trace and generations, and
    draws its randomness from [Sim.rng sim] if it is group 0 (a
    standalone system always is) or from [Sim.substream sim ~key:g] if
    it is group [g >= 1]. A standalone system and group 0 of a fresh
    simulator are therefore the same run.

    [metrics] (default {!Dpu_obs.Metrics.noop}) is wired into the
    network and every stack; protocol modules reach it through
    [Stack.metrics]. A standalone system also registers its simulator
    there; a joining one leaves that to whoever built the simulator,
    and labels its network and kernel rows [group=g].

    [faults] (default [[]]) is a schedule played against the network
    by a {!Dpu_faults.Fault_transport} shim seeded with
    [seed + 0x5eed], so the network's own draws are never perturbed.
    Its [Crash] is a recoverable network silence; fail-stopping a
    stack is {!crash_node}'s job. The empty schedule installs no shim.
    Raises [Invalid_argument] if {!Dpu_faults.Schedule.validate}
    rejects the schedule. *)

val of_runtime :
  ?hop_cost:float ->
  ?trace_enabled:bool ->
  ?metrics:Dpu_obs.Metrics.t ->
  ?local:int list ->
  runtime:Payload.t Dpu_runtime.Runtime.t ->
  n:int ->
  unit ->
  t
(** External deployment over a caller-supplied runtime. [local]
    (default: all of [0..n-1]) lists the nodes whose stacks live in
    this process. *)

val n : t -> int

val group_id : t -> int option
(** The group this system joined a shared simulator as ([None] for a
    standalone or {!of_runtime} system). *)

val metric_labels : t -> (string * string) list
(** [[("group", g)]] for a fabric group, [[]] otherwise: the labels
    that keep a group's series its own on a shared registry. *)

val runtime : t -> Payload.t Dpu_runtime.Runtime.t

val clock : t -> Dpu_runtime.Clock.t

val transport : t -> Payload.t Dpu_runtime.Transport.t

val rng : t -> Dpu_engine.Rng.t
(** The runtime's PRNG: the stream {!create} chose for the group. *)

val net : t -> Payload.t Dpu_net.Datagram.t
(** The simulated datagram network (counters, egress backlog,
    fail-stop crashes). Raises [Invalid_argument] on an {!of_runtime}
    deployment. *)

val fault_stats : t -> Dpu_faults.Fault_transport.stats
(** The fault shim's ledger; {!Dpu_faults.Fault_transport.no_stats}
    when {!create} got no schedule (and on {!of_runtime} deployments,
    which wrap their transport themselves). *)

val trace : t -> Trace.t

val metrics : t -> Dpu_obs.Metrics.t

val registry : t -> Registry.t

val local_nodes : t -> int list
(** Nodes whose stacks live in this process (all nodes under
    {!create}). *)

val stacks : t -> Stack.t array
(** The local stacks, in node order. *)

val stack : t -> int -> Stack.t
(** Raises [Invalid_argument] if the node is not local. *)

val iter_stacks : t -> (Stack.t -> unit) -> unit
(** Iterate the local stacks. *)

val crash_node : t -> int -> unit
(** Fail-stop the stack and (in a simulated deployment) silence its
    network endpoint. *)

val correct_nodes : t -> int list

val now : t -> float

(** {1 Driving a simulated deployment}

    These raise [Invalid_argument] on {!of_runtime} deployments — a
    live runtime advances on its own. *)

val run_for : t -> float -> unit

val run_until : t -> float -> unit

val run_until_quiescent : ?limit:float -> t -> unit
(** Drain all pending events, or stop at virtual time [limit]. *)
