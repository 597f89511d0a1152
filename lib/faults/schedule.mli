(** Declarative, deterministic fault schedules.

    A schedule is a list of timed actions against a network: crashes,
    recoveries, partitions and heals fire at one instant; loss windows,
    duplication bursts and link degradations open and close around a
    time window. The only interpreter is {!Fault_transport}, which
    reads the schedule as a pure function of the clock behind the
    [Dpu_runtime.Transport] seam: [Dpu_kernel.System.create ~faults]
    installs it over the simulated network, [Dpu_live] over real UDP
    sockets. The same schedule on the same seed replays the exact same
    adverse interleaving — a failing soak reproduces from its seed
    alone.

    Times are absolute milliseconds on the clock of the run (virtual
    time 0 is the start of a simulated run). *)

module Latency = Dpu_net.Latency

type window = { from_ : float; until : float }

type action =
  | Crash of int  (** silence a node's network endpoint until a [Recover] *)
  | Recover of int  (** un-crash a node's network endpoint *)
  | Partition of int list list  (** groups; leftovers isolate together *)
  | Heal  (** remove any partition *)
  | Loss_window of { p : float; from_ : float; until : float }
      (** drop each frame sent inside the window with probability [p],
          an independent trial on top of the link's own loss *)
  | Dup_burst of { p : float; from_ : float; until : float }
      (** send each frame inside the window twice with probability
          [p], on top of the link's own duplication *)
  | Degrade_link of { src : int; dst : int; link : Latency.link; window : window }
      (** defer frames on one directed pair inside the window by a
          delay drawn from [link], added to the pair's normal delay *)

type event = { at : float; action : action }
(** For windowed actions [at] is the opening time of the window; the
    constructors below maintain this invariant. *)

type t = event list

(** {1 Constructors} *)

val crash : at:float -> int -> event

val recover : at:float -> int -> event

val partition : at:float -> int list list -> event

val heal : at:float -> event

val loss_window : p:float -> from_:float -> until:float -> event

val dup_burst : p:float -> from_:float -> until:float -> event

val degrade_link :
  src:int -> dst:int -> link:Latency.link -> from_:float -> until:float -> event

(** {1 Inspection} *)

val sorted : t -> t
(** Stable-sorted by [at]. *)

val duration : t -> float
(** Latest time mentioned by any event (including window closings);
    0 for the empty schedule. *)

val crashed_before : t -> time:float -> int list
(** Nodes whose last [Crash]/[Recover] at or before [time] is a
    [Crash] — i.e. down at [time] under this schedule (ascending). *)

val validate : n:int -> t -> (unit, string) result
(** Check node indices against [n], probabilities in [0, 1], windows
    non-empty, times non-negative and instant events at a finite
    time (a window may stay open until [infinity]). *)

val pp_action : Format.formatter -> action -> unit

val pp_event : Format.formatter -> event -> unit

val pp : Format.formatter -> t -> unit

(** {1 Spec strings}

    Compact one-token grammar for command lines:
    {v
    crash@T:NODE            recover@T:NODE
    partition@T:0,1|2,3     heal@T
    loss@FROM-UNTIL:P       dup@FROM-UNTIL:P
    slow@FROM-UNTIL:SRC>DST:LATENCY_MS
    v} *)

val event_of_spec : string -> (event, string) result

val of_specs : string list -> (t, string) result
(** Parse every spec; the first error aborts. *)
