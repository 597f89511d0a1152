(** Structured, leveled, clock-stamped logging to JSONL sinks.

    Each record is one JSON object on one line: [t] (milliseconds on
    whatever clock the logger was created with), [level], [msg], then
    the caller's fields in the order given. On the simulator clock the
    emitted bytes are a pure function of the run — two identical runs
    write identical files — while live nodes stamp wall-clock
    milliseconds since the deployment epoch, so per-node JSONL files
    merge onto the same time axis as the trace events.

    The default everywhere is {!noop}: a frozen disabled logger whose
    calls cost one option test and allocate nothing. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string

type t

val noop : t
(** Drops everything; safe to use as a default. *)

val create : ?level:level -> clock:(unit -> float) -> emit:(string -> unit) -> unit -> t
(** [emit] receives one complete JSONL line (no trailing newline) per
    record at or above [level] (default [Info]). *)

val to_buffer : ?level:level -> clock:(unit -> float) -> Buffer.t -> t
(** Append newline-terminated records to a buffer (tests, in-memory
    capture). *)

val to_file : ?level:level -> clock:(unit -> float) -> string -> t * (unit -> unit)
(** Open [path] for writing and return the logger plus a close
    function; the caller must invoke it to flush. *)

val enabled : t -> level -> bool

val log : t -> level -> ?fields:(string * Json.t) list -> string -> unit

val debug : t -> ?fields:(string * Json.t) list -> string -> unit

val info : t -> ?fields:(string * Json.t) list -> string -> unit

val warn : t -> ?fields:(string * Json.t) list -> string -> unit

val error : t -> ?fields:(string * Json.t) list -> string -> unit

(** {1 Parsing} — CI and tests validate emitted JSONL artifacts. *)

type entry = {
  e_time : float;
  e_level : level;
  e_msg : string;
  e_fields : Json.t;  (** the whole record, for extra-field lookup *)
}

val entry_of_line : string -> (entry, string) result

val entries_of_string : string -> (entry list, string) result
(** Parse a whole JSONL document; blank lines are skipped. *)
