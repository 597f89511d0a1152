(** Sharded load runner: execute a {!Run.spec} with [shards] groups —
    a {!Dpu_core.Fabric}, many independent ABcast groups over one
    simulator — under open- or closed-loop load, optionally with a
    {e rolling protocol replacement} across every shard while the load
    keeps flowing, and report per-shard latency quantiles, switch
    windows and property batteries.

    The headline artefact of a rolling run is
    [result.max_concurrent_switches]: how many Algorithm 1 instances
    were in flight at the same instant. Per-group generations mean
    shard replacements never serialise, so with a stagger smaller than
    a switch window this is > 1. *)

val default : Run.spec
(** 15 nodes / 4 shards, 200 msg/s aggregate constant load of 512-byte
    messages, 2 s of load after a 200 ms warmup, 3 s of drain, no
    triggers. *)

val rolling :
  ?to_protocol:string -> ?start_ms:float -> ?stagger_ms:float -> Run.spec -> Run.spec
(** Append a rolling replacement: shard [g]'s node 0 switches to
    [to_protocol] (default sequencer) at [start_ms + g * stagger_ms]
    (defaults 200 ms and 0.25 ms — a stagger smaller than a switch
    window, so consecutive shards' windows overlap). *)

type shard_result = {
  shard : int;
  nodes : int;
  sent : int;
  delivered : int;  (** at the shard's node 0 (total order) *)
  measured : int;  (** latency samples after warmup *)
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
      (** exact percentiles of the [measured] samples
          ({!Dpu_engine.Stats.percentile}); 0 when there are none *)
  mean_ms : float;
  generation : int;
  window : (float * float) option;  (** switch window of [generation] *)
  blocked_ms : float;  (** worst per-stack app-blocked time (0 for Repl) *)
  undelivered : int;
  props_ok : bool;
  violations : string list;  (** first few, for the report *)
}

type result = {
  spec : Run.spec;
  per_shard : shard_result list;
  max_concurrent_switches : int;
      (** across the generation-1 windows of all shards; 0 without
          switches *)
  drained_at_ms : float;  (** virtual time the fabric went quiescent *)
  all_ok : bool;
      (** every shard: properties hold, nothing undelivered, nothing
          blocked, and every requested switch completed *)
}

val run : Run.spec -> result
(** {!Run.exec} the spec and project each group onto a
    [shard_result], with {!Run.battery} as its property check. *)

val csv_header : string list

val csv_rows : result -> string list list

val to_json : result -> Dpu_obs.Json.t
(** The full result as JSON — consumed by [dpu_run report]'s per-shard
    section. *)
