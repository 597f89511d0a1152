(** Deterministic multi-process sweep runner.

    The paper's evaluation is a grid of independent simulation cells —
    (n, load, seed, protocol pair) — each of which builds its own
    {!Dpu_engine.Sim.t} from a fixed seed. [Sweep] fans such cells out
    to [jobs] worker processes ([Unix.fork] + pipes, results shipped
    back with [Marshal]) and merges them in canonical cell order, so
    the merged output is bit-identical to a sequential run regardless
    of worker count or completion order.

    Worker [w] runs cells [w, w + jobs, w + 2 jobs, ...]; assignment is
    static, so no coordination traffic exists beyond the result pipe.
    Each worker also carries a private {!Dpu_obs.Metrics} registry;
    its snapshot is shipped with the results and merged (counters sum,
    gauges max, histograms add bucket-wise) into the registry the
    caller provided, so cluster-wide accounting survives the fan-out.

    A worker that dies (crash, kill, uncaught exception) surfaces as
    {!Worker_failed} in the parent — never a hang: the parent drains
    each worker's pipe to EOF in worker order and checks its exit
    status.

    Sweep also hosts the live deployment ([Dpu_live.Serve]): with
    [jobs = cells = n] each worker runs exactly one node, all at the
    same time. Those cells talk to each other over UDP while they run,
    but each stops on its own wall-clock deadline and only then writes
    its result, so draining in worker order still cannot deadlock. *)

exception Worker_failed of { worker : int; reason : string }
(** A worker exited abnormally or its result stream was cut short.
    [worker] is the worker index (0-based); [reason] describes the exit
    status or the exception the worker raised. *)

type stats = {
  jobs : int;  (** worker count actually used (clamped to cells) *)
  cells : int;
  wall_s : float;  (** parent wall-clock for the whole sweep *)
  cells_wall_s : float;  (** sum of per-cell wall-clock, measured in workers *)
  speedup : float;  (** [cells_wall_s /. wall_s] — the realised parallelism *)
}

type 'r outcome = {
  results : 'r array;  (** indexed by cell, canonical order *)
  snapshots : Dpu_obs.Metrics.snapshot list;
      (** one per worker, in worker order; empty for in-process runs *)
  stats : stats;
}

val default_jobs : unit -> int
(** [$DPU_JOBS] when set to a positive integer, else 1. *)

val run :
  ?jobs:int ->
  ?metrics:Dpu_obs.Metrics.t ->
  cells:int ->
  (Dpu_obs.Metrics.t -> int -> 'r) ->
  'r outcome
(** [run ~jobs ~metrics ~cells f] evaluates [f reg i] for every cell
    [i] in [0 .. cells-1] and returns the results in cell order.

    [f] must be a pure function of the cell index up to its metrics
    side effects: each invocation should build its own simulator from a
    seed derived from [i] alone, and its result must contain no
    closures or custom blocks (it crosses a [Marshal] boundary when
    [jobs > 1]).

    [reg] is the worker's private registry — the [metrics] registry
    itself when running in-process, a fresh one in a forked worker
    (merged back into [metrics] afterwards), and {!Dpu_obs.Metrics.noop}
    when [metrics] is omitted.

    [jobs] defaults to {!default_jobs}; it is clamped to [cells], and
    values [<= 1] run everything in-process with no fork.

    @raise Worker_failed when a worker dies or raises. *)

val map : ?jobs:int -> cells:int -> (int -> 'r) -> 'r array
(** [map ~jobs ~cells f] is [(run ~jobs ~cells (fun _ i -> f i)).results]. *)
