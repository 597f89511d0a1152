(** A multi-group ABcast fabric: N independent protocol groups sharing
    ONE discrete-event simulator.

    Each group (shard) is a full {!Middleware} cluster, built by
    {!Dpu_kernel.System.create} joining the shared simulator — its own
    simulated network, registry, kernel trace, collector and
    generations — so a {!change_protocol} on one shard runs Algorithm 1
    entirely inside that shard: replacements on different shards
    proceed concurrently and never serialise against each other. The
    shared simulator gives one global virtual clock and one event heap;
    each group's zero-delay work drains through its own ready queue
    ([Sim.new_group]).

    Randomness is keyed, not sequential: group 0 draws from the
    simulator's root stream, exactly as a standalone cluster does, and
    group [g >= 1] from [Sim.substream sim ~key:g]. A shard's stream —
    network jitter, workload gaps — is therefore identical whether the
    fabric has 4 shards or 400, and a one-shard fabric is the same run
    as {!Middleware.create} with the same config.

    {[
      let fabric = Fabric.create ~shards:16 ~n:63 () in
      (* rolling replacement, all shards in flight together *)
      Fabric.iter_groups fabric (fun g _ ->
          Fabric.change_protocol fabric ~shard:g Variants.sequencer);
      Fabric.run_until_quiescent fabric
    ]} *)

type t

val create :
  ?config:Middleware.config ->
  ?register_extra:(Dpu_kernel.System.t -> unit) ->
  shards:int ->
  n:int ->
  unit ->
  t
(** [create ~shards ~n ()] splits [n] total nodes into [shards]
    contiguous blocks (sizes differ by at most one, larger blocks first;
    [n >= shards] required). [config] applies to every group;
    [config.seed] seeds the one shared simulator. With
    [config.metrics_enabled] all groups share one registry: the
    simulator's rows appear once, and each group's network, kernel and
    app series carry a [group=g] label. *)

val shards : t -> int

val total_nodes : t -> int

val config : t -> Middleware.config

val sim : t -> Dpu_engine.Sim.t

val metrics : t -> Dpu_obs.Metrics.t

val group : t -> int -> Middleware.t
(** The shard's cluster. Nodes are group-local ([0 .. group_size-1]). *)

val group_size : t -> int -> int

val first_node : t -> int -> int
(** Global id of the shard's node 0 (shards number their nodes
    locally; this maps them onto one fabric-wide node space). *)

val iter_groups : t -> (int -> Middleware.t -> unit) -> unit

val generation : t -> shard:int -> int
(** Last protocol generation the shard completed (observed at its
    node 0). *)

(** {1 Running} *)

val now : t -> float

val run_for : t -> float -> unit

val run_until_quiescent : ?limit:float -> t -> unit

(** {1 Protocol replacement} *)

val change_protocol : t -> shard:int -> ?node:int -> string -> unit
(** Trigger Algorithm 1 on one shard (from its group-local [node],
    default 0). Other shards are untouched. *)

val switch_window : t -> shard:int -> generation:int -> (float * float) option

val max_overlap : (float * float) list -> int
(** Max number of the given [(start, end)] windows that cover one
    instant (an end and a start at the same instant do not overlap). *)

val max_concurrent_switches : t -> generation:int -> int
(** Max number of shards whose [generation] switch windows overlap at
    one instant — the headline "how many Algorithm 1 runs were in
    flight together". *)
