open Dpu_kernel

type Payload.t +=
  | Send of { dst : int; size : int; payload : Payload.t }
  | Recv of { src : int; payload : Payload.t }

(* Wire format, multiplexed over the [net] service. [attempt] plays the
   role of a TCP timestamp option: the ack echoes which transmission it
   answers, so the sender can take an RTT sample even from packets that
   were retransmitted (escaping Karn's ambiguity — essential when the
   true round-trip exceeds the initial timeout, where otherwise no
   sample would ever be taken). *)
type Payload.t +=
  | Wire_data of { src : int; seq : int; attempt : int; size : int; payload : Payload.t }
  | Wire_ack of { src : int; seq : int; attempt : int }

let () =
  Payload.register_codec ~tag:"rp2p"
    ~encode:(function
      | Send { dst; size; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            Wire.W.int w dst;
            Wire.W.int w size;
            Wire.W.str w (Payload.encode_exn payload))
      | Recv { src; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            Wire.W.int w src;
            Wire.W.str w (Payload.encode_exn payload))
      | Wire_data { src; seq; attempt; size; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 2;
            Wire.W.int w src;
            Wire.W.int w seq;
            Wire.W.int w attempt;
            Wire.W.int w size;
            Wire.W.str w (Payload.encode_exn payload))
      | Wire_ack { src; seq; attempt } ->
        Some
          (fun w ->
            Wire.W.u8 w 3;
            Wire.W.int w src;
            Wire.W.int w seq;
            Wire.W.int w attempt)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 ->
        let dst = Wire.R.int r in
        let size = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        Send { dst; size; payload }
      | 1 ->
        let src = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        Recv { src; payload }
      | 2 ->
        let src = Wire.R.int r in
        let seq = Wire.R.int r in
        let attempt = Wire.R.int r in
        let size = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        Wire_data { src; seq; attempt; size; payload }
      | 3 ->
        let src = Wire.R.int r in
        let seq = Wire.R.int r in
        let attempt = Wire.R.int r in
        Wire_ack { src; seq; attempt }
      | c -> raise (Wire.Error (Printf.sprintf "rp2p: bad case %d" c)))

type config = {
  rto_ms : float;
  backoff : float;
  max_rto_ms : float;
  max_retries : int;
  adaptive : bool;
}

let default_config =
  { rto_ms = 10.0; backoff = 1.5; max_rto_ms = 1_000.0; max_retries = 40; adaptive = true }

let protocol_name = "rp2p"

type stats = { accepted : int; delivered : int; retransmissions : int; gave_up : int }

let k_accepted = "rp2p.accepted"
let k_delivered = "rp2p.delivered"
let k_retrans = "rp2p.retransmissions"
let k_gave_up = "rp2p.gave_up"

let bump stack key = Stack.set_env stack key (Stack.get_env stack key ~default:0 + 1)

let stats stack =
  {
    accepted = Stack.get_env stack k_accepted ~default:0;
    delivered = Stack.get_env stack k_delivered ~default:0;
    retransmissions = Stack.get_env stack k_retrans ~default:0;
    gave_up = Stack.get_env stack k_gave_up ~default:0;
  }

(* An unacknowledged outgoing datagram and its retransmission state.
   [sent_at] records the send time of every attempt so the echoed
   attempt number in the ack yields an unambiguous RTT sample. *)
type pending = {
  mutable tries : int;
  mutable timer : Dpu_runtime.Clock.timer option;
  mutable sent_at : (int * float) list;  (* attempt -> send time *)
}

(* Jacobson/Karels round-trip estimation, one estimator per peer. Under
   load the per-hop delay includes NIC queueing, and a fixed timeout
   below the actual RTT triggers a retransmission storm that feeds the
   very queue that caused it; adapting the timeout to the measured RTT
   is what breaks that loop. *)
type rtt = {
  mutable srtt : float;
  mutable rttvar : float;
  mutable valid : bool;
  mutable storm_backoff : float;
      (* persistent per-peer multiplier: doubled on every timeout,
         reset by a fresh RTT sample (which, thanks to the per-attempt
         ack echo, every successful exchange provides). Without the
         persistence, each new packet restarts its own backoff at a
         stale (too small) timeout and a transient queue becomes a
         self-sustaining retransmission storm. *)
}

let ack_size = 32

let install ?(config = default_config) stack =
  let me = Stack.node stack in
  Stack.add_module stack ~name:protocol_name ~provides:[ Service.rp2p ]
    ~requires:[ Service.net ]
    (fun stack _self ->
      let next_seq = ref 0 in
      (* (dst, seq) -> retransmission state *)
      let pending : (int * int, pending) Hashtbl.t = Hashtbl.create 64 in
      (* src -> set of already-delivered sequence numbers *)
      let seen : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
      let rtts : (int, rtt) Hashtbl.t = Hashtbl.create 8 in
      let rto_keys : (int, string) Hashtbl.t = Hashtbl.create 8 in
      let rto_key dst =
        match Hashtbl.find_opt rto_keys dst with
        | Some k -> k
        | None ->
          let k = Printf.sprintf "rp2p.rto_us.%d" dst in
          Hashtbl.replace rto_keys dst k;
          k
      in
      let now () = Stack.now stack in
      let seen_of src =
        match Hashtbl.find_opt seen src with
        | Some s -> s
        | None ->
          let s = Hashtbl.create 128 in
          Hashtbl.replace seen src s;
          s
      in
      let rtt_of dst =
        match Hashtbl.find_opt rtts dst with
        | Some r -> r
        | None ->
          let r =
            { srtt = config.rto_ms /. 2.0; rttvar = config.rto_ms /. 4.0; valid = false;
              storm_backoff = 1.0 }
          in
          Hashtbl.replace rtts dst r;
          r
      in
      let rto dst =
        if not config.adaptive then config.rto_ms
        else begin
          let r = rtt_of dst in
          let base =
            if r.valid then Float.max config.rto_ms (r.srtt +. (4.0 *. r.rttvar))
            else config.rto_ms
          in
          Float.min (base *. r.storm_backoff) config.max_rto_ms
        end
      in
      let record_rtt dst sample =
        let r = rtt_of dst in
        r.storm_backoff <- 1.0;
        if r.valid then begin
          let err = sample -. r.srtt in
          r.srtt <- r.srtt +. (0.125 *. err);
          r.rttvar <- r.rttvar +. (0.25 *. (Float.abs err -. r.rttvar))
        end
        else begin
          r.srtt <- sample;
          r.rttvar <- sample /. 2.0;
          r.valid <- true
        end
      in
      let udp_send ~dst ~size payload =
        Stack.call stack Service.net (Udp.Send { dst; size; payload })
      in
      let rec arm ~dst ~seq ~size payload (p : pending) =
        let delay =
          Float.min config.max_rto_ms
            (rto dst *. (config.backoff ** float_of_int p.tries))
        in
        Stack.set_env stack (rto_key dst) (int_of_float (delay *. 1000.0));
        let h =
          Stack.after stack ~delay (fun () ->
              if Hashtbl.mem pending (dst, seq) then begin
                if p.tries >= config.max_retries then begin
                  Hashtbl.remove pending (dst, seq);
                  bump stack k_gave_up
                end
                else begin
                  p.tries <- p.tries + 1;
                  p.sent_at <- (p.tries, now ()) :: p.sent_at;
                  let r = rtt_of dst in
                  r.storm_backoff <- Float.min 128.0 (r.storm_backoff *. 2.0);
                  bump stack k_retrans;
                  udp_send ~dst ~size
                    (Wire_data { src = me; seq; attempt = p.tries; size; payload });
                  arm ~dst ~seq ~size payload p
                end
              end)
        in
        p.timer <- Some h
      in
      let send ~dst ~size payload =
        bump stack k_accepted;
        let seq = !next_seq in
        incr next_seq;
        udp_send ~dst ~size (Wire_data { src = me; seq; attempt = 0; size; payload });
        let p = { tries = 0; timer = None; sent_at = [ (0, now ()) ] } in
        Hashtbl.replace pending (dst, seq) p;
        arm ~dst ~seq ~size payload p
      in
      let on_wire src payload =
        match payload with
        | Wire_data { src = origin; seq; attempt; size = _; payload } ->
          (* Always re-ack: the previous ack may have been lost. *)
          udp_send ~dst:src ~size:ack_size (Wire_ack { src = me; seq; attempt });
          let s = seen_of origin in
          if not (Hashtbl.mem s seq) then begin
            Hashtbl.replace s seq ();
            bump stack k_delivered;
            Stack.indicate stack Service.rp2p (Recv { src = origin; payload })
          end
        | Wire_ack { src = acker; seq; attempt } -> (
          match Hashtbl.find_opt pending (acker, seq) with
          | None -> ()
          | Some p ->
            (match p.timer with
            | Some h -> Dpu_runtime.Clock.cancel h
            | None -> ());
            (match List.assoc_opt attempt p.sent_at with
            | Some sent -> record_rtt acker (now () -. sent)
            | None -> ());
            Hashtbl.remove pending (acker, seq))
        | _ -> ()
      in
      {
        Stack.default_handlers with
        handle_call =
          (fun _svc p ->
            match p with
            | Send { dst; size; payload } -> send ~dst ~size payload
            | _ -> ());
        handle_indication =
          (fun svc p ->
            match p with
            | Udp.Recv { src; payload } when Service.equal svc Service.net ->
              on_wire src payload
            | _ -> ());
        on_stop =
          (fun () ->
            (* Finalisation (the Maestro baseline tears stacks down):
               stop retransmitting everything still in flight. *)
            (* dpu-lint: allow hashtbl-iter — cancelling every timer is order-insensitive *)
            Hashtbl.iter
              (fun _ p ->
                match p.timer with
                | Some h -> Dpu_runtime.Clock.cancel h
                | None -> ())
              pending;
            Hashtbl.clear pending);
      })

let spec =
  Spec.make ~service:(Service.name Service.rp2p) ~roles:[ "sender"; "receiver" ]
    ~kinds:
      [
        Spec.kind ~payload:true ~role:"sender" "rp2p.msg";
        Spec.kind ~role:"receiver" "rp2p.ack";
      ]
    ~transitions:
      [
        Spec.t "idle" Spec.Accept "queued";
        Spec.t "queued" (Spec.Emit "rp2p.msg") "sent";
        Spec.t "sent" (Spec.Recv "rp2p.msg") "arrived";
        Spec.t "arrived" (Spec.Emit "rp2p.ack") "acked";
        Spec.t "acked" (Spec.Recv "rp2p.ack") "confirmed";
        Spec.t "confirmed" Spec.Deliver "idle";
      ]
    ~obligations:[ Spec.Exactly_once ] ()

let register ?config system =
  Registry.register (System.registry system) ~name:protocol_name
    ~provides:[ Service.rp2p ] ~requires:[ Service.net ] ~spec
    (fun stack -> install ?config stack)
