(** Kernel event trace.

    Every structural event (module added/removed, bind/unbind, call,
    blocked call, indication, crash) is recorded here, timestamped with
    virtual time. The checkers in [Dpu_props] consume these traces to
    verify the paper's §3 properties — stack-well-formedness and
    protocol-operationability — mechanically rather than on paper. *)

type kind =
  | Add_module of string  (** module name *)
  | Remove_module of string
  | Bind of string * string  (** service, module *)
  | Unbind of string * string  (** service, module *)
  | Call of string * string  (** service, payload constructor *)
  | Call_blocked of string * string
      (** a call found no bound module and was queued *)
  | Call_unblocked of string  (** a queued call was released by a bind *)
  | Indication of string * string  (** service, payload constructor *)
  | Crash
  | App of string * string  (** application-level tag, data *)

type entry = { time : float; node : int; kind : kind }

type t

val create : ?enabled:bool -> ?capacity:int -> unit -> t
(** [capacity] bounds memory (default 2_000_000 entries). Once
    reached, the trace behaves as a ring buffer: each new entry evicts
    the oldest, [truncated] becomes [true], and the most recent
    [capacity] entries are retained — long soaks keep the tail, where
    the interesting events are. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit

val record : t -> time:float -> node:int -> kind -> unit

(** The per-dispatch kinds, without their strings. *)
type dispatch =
  | Called  (** {!Call} *)
  | Blocked  (** {!Call_blocked} *)
  | Indicated  (** {!Indication} *)

val record_dispatch :
  t -> time:float -> node:int -> dispatch -> service:string -> payload:string -> unit
(** [record] of [Call (service, payload)], [Call_blocked …] or
    [Indication …] without building the kind: allocates nothing once
    the columns have grown. *)

val entries : t -> entry list
(** Retained entries in recording order (oldest retained first). *)

val iter : t -> (entry -> unit) -> unit
(** The retained entries in recording order, without building a list. *)

val fold : t -> init:'a -> ('a -> entry -> 'a) -> 'a

val length : t -> int
(** Number of retained entries (at most [capacity]). *)

val truncated : t -> bool
(** Whether any entry has been evicted. *)

val dropped : t -> int
(** Number of evicted (oldest) entries. *)

val filter : t -> (entry -> bool) -> entry list

val pp_entry : Format.formatter -> entry -> unit
