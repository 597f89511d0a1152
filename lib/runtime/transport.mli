(** The TRANSPORT signature: what protocol code may know about the
    network.

    A transport moves opaque payloads between numbered nodes
    [0 .. n-1] with datagram semantics: messages may be lost,
    duplicated and reordered; they are never corrupted. The simulator
    backend ({!Sim_backend.transport}) wraps {!Dpu_net.Datagram}; the
    live backend ([Dpu_live.Udp_transport]) wraps one UDP socket per
    OS process and a wire codec ({!Dpu_kernel.Payload.encode}).

    In a simulated deployment one transport value carries all [n]
    endpoints; in a live deployment each process holds a transport
    that can only send from — and install the handler of — its own
    node. *)

type counters = {
  sent : int;  (** messages accepted from senders *)
  delivered : int;  (** messages handed to a receive handler *)
  dropped : int;
      (** messages that did not reach a handler: loss, injected faults,
          crashed or partitioned destinations, handler-less arrivals,
          undecodable frames *)
  bytes : int;  (** wire bytes accepted from senders *)
}

type batch_counters = {
  batches_sent : int;
      (** batch frames put on the wire (throughput mode only; backends
          without egress batching report zero) *)
  batched_msgs : int;
      (** messages those frames carried — [batched_msgs /
          batches_sent] is the mean egress batch size *)
}

val zero_batches : batch_counters

type 'a t = {
  n : int;  (** number of nodes *)
  send : src:int -> dst:int -> size_bytes:int -> 'a -> unit;
      (** queue a datagram; [size_bytes] is the modelled (simulator)
          or accounted (live) payload size *)
  set_handler : node:int -> (src:int -> 'a -> unit) -> unit;
      (** install the receive callback of [node], replacing any
          previous one. Live backends only accept their own node. *)
  counters : unit -> counters;
  batches : unit -> batch_counters;
      (** egress batching statistics; {!zero_batches} when the backend
          does not batch *)
}

val n : 'a t -> int

val send : 'a t -> src:int -> dst:int -> size_bytes:int -> 'a -> unit

val set_handler : 'a t -> node:int -> (src:int -> 'a -> unit) -> unit

val counters : 'a t -> counters

val batches : 'a t -> batch_counters
