(** Regeneration of every figure and headline number in the paper's
    evaluation (§6).

    We do not match the paper's absolute milliseconds (their prototype
    ran unoptimised Java on Pentium-III hardware); we reproduce the
    *shape* of each result: where the spike is and how long it lasts
    (Fig. 5), how latency grows with load and with n, and how small the
    replacement layer's overhead is (Fig. 6, ≈5 %).

    Every run is {!Experiment.default} at another size, load and seed.
    Each entry point validates all of its specs first: a rejected one
    raises [Invalid_argument] before any simulation step or
    {!Sweep} worker fork. *)

(** {1 Figure 5} — latency of each ABcast vs. its send time; a
    replacement (CT → CT, all steps executed) is triggered mid-run.
    n = 7, 40 msg/s, 4 KB messages. *)

val figure5 : ?n:int -> ?load:float -> ?seed:int -> unit -> Experiment.result
(** {!Experiment.default} at [n], [load] and [seed] (the switch fires
    from node [n - 1]). *)

val render_figure5 : Experiment.result -> string

(** {1 Figure 6} — average latency vs. load for n = 3 and n = 7:
    normal runs with and without the replacement layer, and messages
    sent during a replacement. *)

type fig6_point = {
  n : int;
  load : float;
  no_layer_ms : float;  (** normal, without replacement layer *)
  with_layer_ms : float;  (** normal, with replacement layer *)
  during_ms : float;  (** messages sent during the replacement *)
}

val figure6_sweep :
  ?ns:int list ->
  ?loads:float list ->
  ?seed:int ->
  ?jobs:int ->
  ?metrics:Dpu_obs.Metrics.t ->
  unit ->
  fig6_point Sweep.outcome
(** Each (n, load) pair is one {!Sweep} cell, fanned out to [jobs]
    worker processes (default {!Sweep.default_jobs}); the points
    ([.Sweep.results], in grid order) are bit-identical for every
    [jobs]. When [metrics] is given, every cell's experiment runs with
    metrics collection on and the per-worker snapshots are merged into
    [metrics]. *)

val render_figure6 : fig6_point list -> string

(** {1 §6 headline numbers} *)

type headline = {
  layer_overhead_pct : float;  (** paper: ≈ 5 % *)
  spike_pct : float;  (** paper: ≈ 50 % *)
  spike_duration_ms : float;  (** paper: ≈ 1 s *)
  app_blocked_ms : float;  (** paper: never blocked (0) *)
}

val headline_sweep :
  ?n:int ->
  ?load:float ->
  ?seeds:int list ->
  ?jobs:int ->
  ?metrics:Dpu_obs.Metrics.t ->
  unit ->
  headline * Sweep.stats
(** Aggregated over [seeds] (default 1–5): one switch produces only a
    few during-window messages, so several runs give the statistic
    weight. Each seed is one {!Sweep} cell; the per-seed sample arrays
    are re-folded in seed order, so the aggregate is bit-identical for
    every [jobs]. *)

val render_headline : headline -> string

(** {1 Approach comparison} (the paper's §4.2/§5.3 claims, quantified) *)

type comparison_row = {
  approach : string;  (** label in {!Experiment.approaches} *)
  normal_ms : float;
  during_switch_ms : float;
  switch_duration : float;
  blocked : float;
  all_delivered : bool;
}

val compare_approaches_sweep :
  ?n:int ->
  ?load:float ->
  ?seed:int ->
  ?jobs:int ->
  ?metrics:Dpu_obs.Metrics.t ->
  unit ->
  comparison_row list * Sweep.stats
(** One {!Sweep} cell per approach: repl, graceful, maestro. *)

val render_comparison : comparison_row list -> string
