(** Metrics registry: named counters, gauges and histograms with
    labels.

    Two usage styles, both cheap when observability is off:

    - {e instruments} ({!counter}, {!gauge}, {!histogram}) are created
      once at wiring time and mutated on the hot path; each mutation is
      guarded by a single boolean test, and instruments created against
      {!noop} are detached dummies;
    - {e callback registrations} ({!register_int}, {!register_float})
      read an existing subsystem counter only when a snapshot is taken
      — zero hot-path cost — and are ignored entirely on {!noop}.

    Labels (e.g. [("node", "3")]) distinguish series of the same name;
    an instrument is identified by its name plus its sorted label set,
    and re-creating an existing one returns the same cells. *)

type t

val create : ?enabled:bool -> unit -> t

val noop : t
(** The shared disabled registry. Instrument creation returns dummies,
    callback registration is a no-op, and {!set_enabled} is ignored —
    safe to use as a default everywhere. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit

(** {1 Counters} *)

type counter

val counter : t -> ?labels:(string * string) list -> string -> counter

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : t -> ?labels:(string * string) list -> string -> gauge

val set : gauge -> float -> unit

val gauge_value : gauge -> float

val register_int : t -> ?labels:(string * string) list -> string -> (unit -> int) -> unit
(** Register a callback sampled at snapshot time, exported as a
    counter. Use for subsystems that already maintain plain [int]
    counters. *)

val register_float :
  t -> ?labels:(string * string) list -> string -> (unit -> float) -> unit
(** Same, exported as a gauge. *)

(** {1 Histograms} *)

type histogram

val default_bounds : float array
(** Upper bucket bounds in milliseconds, 0.25 .. 5000. *)

val histogram :
  t -> ?labels:(string * string) list -> ?bounds:float array -> string -> histogram

val observe : histogram -> float -> unit

val histogram_count : histogram -> int

val histogram_sum : histogram -> float

val histogram_quantile : histogram -> float -> float option
(** Bucket-based quantile estimate (Prometheus [histogram_quantile]
    style): the bucket where the cumulative count crosses rank
    [q * count] is interpolated linearly, tightened by the observed
    min/max so the open +inf bucket never yields an infinite estimate.
    [None] on an empty histogram. Raises [Invalid_argument] unless
    [0 <= q <= 1]. *)

val quantile_of_buckets :
  bounds:float array ->
  counts:int array ->
  ?lo:float ->
  ?hi:float ->
  float ->
  float option
(** The same estimator over raw bucket data — e.g. buckets parsed back
    from an exported metrics snapshot. [counts] must have exactly one
    more entry than [bounds] (the final +inf bucket); [lo]/[hi] are the
    observed extremes when known. *)

(** {1 Snapshots}

    A {!snapshot} is a pure-data copy of every instrument — callbacks
    sampled, histograms deep-copied, no closures — so it survives
    [Marshal] across process boundaries. {!merge} folds a snapshot into
    another registry: counters (including sampled callbacks) add,
    gauges keep the maximum, histograms with identical bounds add
    bucket-wise. Merging is commutative for counters and histograms, so
    per-worker snapshots merged in any order produce the same totals. *)

type snapshot

val snapshot : t -> snapshot
(** Sample every instrument of [t] into detached pure data. *)

val merge : t -> snapshot -> unit
(** Fold a snapshot into [t], creating plain instruments for series [t]
    does not have yet. Series whose existing counterpart in [t] is a
    callback registration (they sample {e this} process) or has a
    mismatched kind are skipped. No-op on {!noop}. *)

val snapshot_sum : snapshot -> string -> float
(** Like {!sum}, over a snapshot. *)

(** {1 Snapshot and query} *)

val value : t -> ?labels:(string * string) list -> string -> float option
(** Current value of the instrument with this exact name and label set
    (histograms report their observation count). *)

val sum : t -> string -> float
(** Sum of all series with this name across label sets — e.g. a
    per-node counter totalled over the cluster. *)

val names : t -> string list
(** Sorted distinct metric names. *)

val to_json : t -> Json.t
(** Full snapshot: [{"schema":"dpu.metrics/1","metrics":[...]}], with
    callbacks sampled now. *)

val pp_summary : Format.formatter -> t -> unit
(** One line per series, sorted by name: [name{labels} value]. *)
