(** Saturation benchmarking: offered vs delivered throughput.

    The paper's evaluation is latency-centric; this module adds the
    throughput axis for the batched ordering path. Two drivers:

    - {!measure} is {b open loop}: a fixed offered rate per step,
      measuring the delivered rate inside a steady-state window. Past the saturation knee the delivered rate
      plateaus at the stack's service capacity while latency grows with
      the backlog — the classic saturation curve.
    - {!saturate} is {b closed loop}: a fixed number of clients per
      node, each re-broadcasting as soon as its previous message comes
      back delivered. No offered-rate parameter to guess; the loop
      settles at the sustainable throughput by construction.

    Both execute a {!Run.spec} ({!default}: the full default stack, CT
    ABcast over consensus under the Repl layer) on the simulator, so
    results are deterministic for a given seed; {!with_batching} turns the protocol-level batch aggregation
    of {!Dpu_protocols.Batcher} on, which is the mechanism under test:
    one consensus round then orders up to [max_batch] messages. *)

type point = {
  offered : float;  (** msg/s presented (closed loop: equals delivered) *)
  delivered_per_s : float;
      (** deliveries at node 0 inside the measurement window *)
  p50_ms : float;
  p99_ms : float;
  measured : int;  (** messages behind the percentiles *)
}

type curve = {
  batching : Dpu_protocols.Batcher.config option;
  points : point list;  (** in offered-load order *)
  knee : float;
      (** highest offered load still delivered within 10%; [0.] if even
          the lightest step saturated *)
  saturated_per_s : float;  (** best delivered rate seen on the curve *)
}

val default : Run.spec
(** n=3, seed=1, 512-byte payloads, 500 ms warmup, 3 s of load, a
    600 s drain, no batching. {!measure} and {!saturate} replace its
    load. *)

val with_batching : Dpu_protocols.Batcher.config option -> Run.spec -> Run.spec
(** The spec with ordering-path batching set in its stack profile. *)

val measure : Run.spec -> offered:float -> point
(** One open-loop step: constant load at [offered] msg/s. *)

val saturate : ?clients_per_node:int -> Run.spec -> point
(** Closed-loop driver: [clients_per_node] (default 4) outstanding
    messages per node, re-issued on own delivery after a small think
    time. *)

val curve_of :
  batching:Dpu_protocols.Batcher.config option -> point list -> curve
(** Knee detection and saturation over already-measured points (e.g.
    when the steps were fanned out to a {!Sweep}). *)

val batching_label : Dpu_protocols.Batcher.config option -> string

val write_csv : string -> curve list -> unit
(** The saturation curves as CSV (one row per point), for the CI
    artifact and external plotting. *)
