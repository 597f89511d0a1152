(** Simulated driver for the adversarial scenario corpus ({!Corpus}).

    Builds the cluster with {!Dpu_core.Middleware.create}[ ~faults], so
    the schedule reaches the protocols through the same
    {!Dpu_faults.Fault_transport} shim the live backend uses, wrapped
    around the simulator transport. One schedule value, one shim, two
    backends. Runs are a pure function of the seed: {!signature} gives
    a canonical byte dump for replay-determinism checks. *)

type result = {
  scenario : Corpus.t;
  collector : Dpu_core.Collector.t;
  correct : int list;
  reports : Dpu_props.Report.t list;  (** full Abcast battery *)
  switch_windows : (int * (float * float) option) list;
      (** per requested switch: (generation, completion window) —
          [None] when no stack installed that generation (e.g. the
          stale loser of a race) *)
  sent : int;
  faults : Dpu_faults.Fault_transport.stats;
  counters : Dpu_runtime.Transport.counters;  (** the shim's view *)
}

val run_sim : ?seed:int -> Corpus.t -> result
(** Raises [Invalid_argument] if {!Corpus.validate}
    rejects the scenario. *)

val signature : result -> string
(** Canonical dump of sends/delivers/switches/fault+wire counters; two
    runs replayed identically iff their signatures are byte-equal. *)

val ok : result -> bool
