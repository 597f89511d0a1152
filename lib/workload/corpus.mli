(** The adversarial replacement scenario corpus.

    Each scenario pairs a protocol-replacement plan with a fault
    schedule the paper never imagined, and is meant to run {e twice}:
    once in the simulator and once over real UDP sockets — from the
    same values, through the same {!Dpu_faults.Fault_transport} shim —
    with the full atomic-broadcast property battery checked on the
    merged logs both times. The simulated run is {!spec} executed by
    {!Run.exec}; the live driver is [Dpu_live.Serve] via [dpu_run serve --scenario] /
    [dpu_run corpus]. *)

type switch = { sw_at : float; sw_node : int; sw_to : string }
(** One changeABcast call: at [sw_at] ms, node [sw_node] requests a
    replacement to protocol [sw_to]. *)

type t = {
  name : string;
  summary : string;
  n : int;
  load : float;  (** aggregate messages per second *)
  duration_ms : float;
  drain_ms : float;  (** settle time after the load stops (live runs) *)
  initial : string;  (** initial ABcast variant *)
  switches : switch list;
  schedule : Dpu_faults.Schedule.t;
}

val all : t list
(** replacement-under-partition, racing-replacements,
    coordinator-crash-mid-switch, rollback-previous-generation,
    cascading-heterogeneous-switch. *)

val names : unit -> string list

val find : string -> t option

val spec : ?seed:int -> t -> Run.spec
(** The scenario as a one-group simulated run (default [seed] 1, 1 KB
    messages, trace off, 30 s of grace after [drain_ms]). {!Run.exec}
    rejects it if {!validate} does. *)

val validate : t -> (unit, string) result
(** {!Run.validate} on {!spec}: the fault schedule, the load and every
    switch (node in range, time finite and >= 0). *)
