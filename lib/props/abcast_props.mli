(** Mechanical checkers for the atomic broadcast specification (§5.1),
    evaluated over a finished run's {!Dpu_core.Collector} record.

    “Eventually” is interpreted at end-of-run on a quiescent system, as
    usual for trace checking: run the simulator until no events remain
    (or well past the last send) before checking.

    These are exactly the four properties the paper proves hold
    *across* a dynamic replacement (§5.2.2), so running them over runs
    that switch protocols mid-stream is the mechanised counterpart of
    that proof. *)

val validity : Dpu_core.Collector.t -> correct:int list -> Report.t
(** If a correct process ABcasts [m], it eventually Adelivers [m]. *)

val uniform_agreement : Dpu_core.Collector.t -> correct:int list -> Report.t
(** If any process Adelivers [m], every correct process does. *)

val uniform_integrity : Dpu_core.Collector.t -> Report.t
(** Every process Adelivers [m] at most once, and only if [m] was
    previously ABcast. *)

val uniform_total_order : Dpu_core.Collector.t -> Report.t
(** For any two processes and any two messages both delivered by both,
    the relative delivery order agrees; additionally, if [p] delivers
    [m] before [m'] and [q] delivers [m'], then [q] must also have
    delivered [m] (uniformity over partial sequences, e.g. at crashed
    processes). *)

val check_all : Dpu_core.Collector.t -> correct:int list -> Report.t list
