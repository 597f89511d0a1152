open Dpu_kernel
open Consensus_iface

(* Wire messages, multiplexed over rp2p. *)
type Payload.t +=
  | W_estimate of { iid : iid; round : int; from : int; value : Payload.t; ts : int; weight : int }
  | W_propose of { iid : iid; round : int; value : Payload.t; weight : int }
  | W_ack of { iid : iid; round : int; from : int }
  | W_nack of { iid : iid; round : int; from : int }
  | W_decide of { iid : iid; value : Payload.t }
  | W_wakeup of { iid : iid }
      (* a proposer announces the instance so every process joins it:
         CT needs all (correct) processes to run the consensus task,
         even those with nothing to propose *)

let () =
  Payload.register_codec ~tag:"consensus.ct"
    ~encode:(function
      | W_estimate { iid; round; from; value; ts; weight } ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            write_iid w iid;
            Wire.W.int w round;
            Wire.W.int w from;
            Wire.W.str w (Payload.encode_exn value);
            Wire.W.int w ts;
            Wire.W.int w weight)
      | W_propose { iid; round; value; weight } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            write_iid w iid;
            Wire.W.int w round;
            Wire.W.str w (Payload.encode_exn value);
            Wire.W.int w weight)
      | W_ack { iid; round; from } ->
        Some
          (fun w ->
            Wire.W.u8 w 2;
            write_iid w iid;
            Wire.W.int w round;
            Wire.W.int w from)
      | W_nack { iid; round; from } ->
        Some
          (fun w ->
            Wire.W.u8 w 3;
            write_iid w iid;
            Wire.W.int w round;
            Wire.W.int w from)
      | W_decide { iid; value } ->
        Some
          (fun w ->
            Wire.W.u8 w 4;
            write_iid w iid;
            Wire.W.str w (Payload.encode_exn value))
      | W_wakeup { iid } ->
        Some
          (fun w ->
            Wire.W.u8 w 5;
            write_iid w iid)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 ->
        let iid = read_iid r in
        let round = Wire.R.int r in
        let from = Wire.R.int r in
        let value = Payload.decode (Wire.R.str r) in
        let ts = Wire.R.int r in
        let weight = Wire.R.int r in
        W_estimate { iid; round; from; value; ts; weight }
      | 1 ->
        let iid = read_iid r in
        let round = Wire.R.int r in
        let value = Payload.decode (Wire.R.str r) in
        let weight = Wire.R.int r in
        W_propose { iid; round; value; weight }
      | 2 ->
        let iid = read_iid r in
        let round = Wire.R.int r in
        let from = Wire.R.int r in
        W_ack { iid; round; from }
      | 3 ->
        let iid = read_iid r in
        let round = Wire.R.int r in
        let from = Wire.R.int r in
        W_nack { iid; round; from }
      | 4 ->
        let iid = read_iid r in
        let value = Payload.decode (Wire.R.str r) in
        W_decide { iid; value }
      | 5 -> W_wakeup { iid = read_iid r }
      | c -> raise (Wire.Error (Printf.sprintf "consensus.ct: bad case %d" c)))

let protocol_name = "consensus.ct"

let round_pacing_ms = 10.0

let k_decided = "consensus.decided"

let decided_count stack = Stack.get_env stack k_decided ~default:0

(* Control messages are small; estimates/proposals carry the value, so
   their size is the value's weight-declared size plus a header. The
   weight is also (ab)used as a rough payload size for the bandwidth
   term: callers pass the batch byte size as weight. *)
let header_size = 64

type coord_round = {
  mutable estimates : (int * Payload.t * int * int) list;
      (* from, value, ts, weight *)
  mutable proposal : (Payload.t * int) option;  (* value proposed this round *)
  mutable acks : int list;
  mutable decided_sent : bool;
}

type inst = {
  iid : iid;
  mutable round : int;
  mutable estimate : Payload.t;
  mutable ts : int;
  mutable weight : int;
  mutable awaiting_propose : bool;
  mutable decided : bool;
  mutable entered : bool;  (* has the participant entered round 0 yet *)
  pending_proposals : (int, Payload.t * int) Hashtbl.t;  (* round -> value, weight *)
  coord : (int, coord_round) Hashtbl.t;  (* round -> coordinator state *)
}

let wakeup_resend_ms = 200.0

let install ?(service = Service.consensus) ~n stack =
  let me = Stack.node stack in
  let majority = (n / 2) + 1 in
  Stack.add_module stack ~name:protocol_name ~provides:[ service ]
    ~requires:[ Service.rp2p; Service.fd ]
    (fun stack _self ->
      let insts : (iid, inst) Hashtbl.t = Hashtbl.create 64 in
      (* Rotating coordinator, staggered by instance number so that
         concurrent instances do not all funnel their round 0 through
         process 0 (whose interface would otherwise bottleneck the whole
         sequence of instances). *)
      let coordinator iid r = (iid.k + r) mod n in
      let suspected = Array.make n false in
      let send ~dst ~size payload =
        Stack.call stack Service.rp2p (Rp2p.Send { dst; size; payload })
      in
      let send_all ~size payload =
        for dst = 0 to n - 1 do
          if dst <> me then send ~dst ~size payload
        done
      in
      let get_inst iid =
        match Hashtbl.find_opt insts iid with
        | Some i -> i
        | None ->
          let i =
            {
              iid;
              round = 0;
              estimate = No_value;
              ts = 0;
              weight = -1;
              awaiting_propose = false;
              decided = false;
              entered = false;
              pending_proposals = Hashtbl.create 4;
              coord = Hashtbl.create 4;
            }
          in
          Hashtbl.replace insts iid i;
          i
      in
      let coord_round inst r =
        match Hashtbl.find_opt inst.coord r with
        | Some c -> c
        | None ->
          let c = { estimates = []; proposal = None; acks = []; decided_sent = false } in
          Hashtbl.replace inst.coord r c;
          c
      in
      let decide inst value =
        if not inst.decided then begin
          inst.decided <- true;
          inst.estimate <- value;
          Stack.set_env stack k_decided (Stack.get_env stack k_decided ~default:0 + 1);
          (* Reliable dissemination: relay on first receipt. *)
          send_all ~size:(header_size + max inst.weight 0)
            (W_decide { iid = inst.iid; value });
          Stack.indicate stack service (Decide { iid = inst.iid; value })
        end
      in
      let rec enter_round inst r =
        if not inst.decided then begin
          inst.round <- r;
          inst.entered <- true;
          let c = coordinator inst.iid r in
          let est =
            W_estimate
              { iid = inst.iid; round = r; from = me; value = inst.estimate; ts = inst.ts;
                weight = inst.weight }
          in
          send ~dst:c ~size:(header_size + max inst.weight 0) est;
          match Hashtbl.find_opt inst.pending_proposals r with
          | Some (v, w) ->
            Hashtbl.remove inst.pending_proposals r;
            accept_proposal inst r v w
          | None ->
            if suspected.(c) then nack_and_advance inst
            else inst.awaiting_propose <- true
        end

      and accept_proposal inst r v w =
        inst.estimate <- v;
        inst.ts <- r;
        inst.weight <- w;
        inst.awaiting_propose <- false;
        send ~dst:(coordinator inst.iid r) ~size:header_size
          (W_ack { iid = inst.iid; round = r; from = me });
        enter_round inst (r + 1)

      and nack_and_advance inst =
        let r = inst.round in
        inst.awaiting_propose <- false;
        send ~dst:(coordinator inst.iid r) ~size:header_size
          (W_nack { iid = inst.iid; round = r; from = me });
        (* Pace suspicion-driven retries: advancing immediately would
           spin thousands of rounds per second while the failure
           detector output is wrong, and the resulting estimate storm
           (full values every round) congests the network enough to
           keep delaying the heartbeats that would fix the suspicion —
           a positive feedback loop. A small delay bounds the retry
           traffic; the happy path (proposal received, ack) still
           advances immediately. *)
        ignore
          (Stack.after stack ~delay:round_pacing_ms (fun () ->
               if (not inst.decided) && inst.round = r then enter_round inst (r + 1))
            : Dpu_runtime.Clock.timer)
      in
      let on_estimate iid round from value ts weight =
        let inst = get_inst iid in
        if inst.decided then
          (* Late participant: short-circuit it straight to the decision. *)
          send ~dst:from ~size:(header_size + max inst.weight 0)
            (W_decide { iid; value = inst.estimate })
        else if coordinator iid round = me then begin
          let cr = coord_round inst round in
          if Option.is_none cr.proposal then begin
            (* One estimate per participant: a later message from the
               same sender replaces the earlier one (participants may
               refine a No_value initial estimate, see below). *)
            cr.estimates <-
              (from, value, ts, weight)
              :: List.filter (fun (f, _, _, _) -> f <> from) cr.estimates;
            if List.length cr.estimates >= majority then begin
              (* Highest timestamp wins (CT safety); ties prefer heavier
                 (non-empty) estimates, then lower process id. *)
              let best (f1, v1, t1, w1) (f2, v2, t2, w2) =
                if t1 > t2 then (f1, v1, t1, w1)
                else if t2 > t1 then (f2, v2, t2, w2)
                else if w1 > w2 then (f1, v1, t1, w1)
                else if w2 > w1 then (f2, v2, t2, w2)
                else if f1 <= f2 then (f1, v1, t1, w1)
                else (f2, v2, t2, w2)
              in
              match cr.estimates with
              | [] -> ()
              | e0 :: rest ->
                let _, v, _, w = List.fold_left best e0 rest in
                cr.proposal <- Some (v, w);
                let prop = W_propose { iid; round; value = v; weight = w } in
                send_all ~size:(header_size + max w 0) prop;
                (* The coordinator is also a participant: handle its own
                   proposal locally without a network round-trip. *)
                if inst.round = round && inst.awaiting_propose then
                  accept_proposal inst round v w
                else if inst.round < round || not inst.entered then
                  Hashtbl.replace inst.pending_proposals round (v, w)
            end
          end
        end
      in
      let on_proposal iid round value weight =
        let inst = get_inst iid in
        if not inst.decided then begin
          if round = inst.round && inst.awaiting_propose then
            accept_proposal inst round value weight
          else if round > inst.round || not inst.entered then
            Hashtbl.replace inst.pending_proposals round (value, weight)
          (* else: stale round, we already replied to it *)
        end
      in
      let on_ack iid round from =
        let inst = get_inst iid in
        if (not inst.decided) && coordinator iid round = me then begin
          let cr = coord_round inst round in
          if (not cr.decided_sent) && not (List.mem from cr.acks) then begin
            cr.acks <- from :: cr.acks;
            match cr.proposal with
            | Some (v, w) when List.length cr.acks >= majority ->
              cr.decided_sent <- true;
              inst.weight <- w;
              decide inst v
            | Some _ | None -> ()
          end
        end
      in
      let on_decide iid value =
        let inst = get_inst iid in
        if not inst.decided then begin
          inst.estimate <- value;
          decide inst value
        end
      in
      let on_suspect p =
        suspected.(p) <- true;
        (* dpu-lint: allow hashtbl-iter — folded instances are sorted by iid before use *)
        Hashtbl.fold (fun _ inst acc -> inst :: acc) insts []
        |> List.sort (fun a b -> iid_compare a.iid b.iid)
        |> List.iter (fun inst ->
               if
                 (not inst.decided) && inst.awaiting_propose
                 && coordinator inst.iid inst.round = p
               then
                 nack_and_advance inst)
      in
      let on_wakeup iid =
        let inst = get_inst iid in
        if (not inst.decided) && not inst.entered then enter_round inst 0
      in
      let on_propose_call iid value weight =
        let inst = get_inst iid in
        if inst.decided then
          (* The caller may have missed the indication (e.g. it was just
             created); repeat it. *)
          Stack.indicate stack service (Decide { iid; value = inst.estimate })
        else begin
          let refined = inst.weight < 0 && inst.ts = 0 in
          if refined then begin
            inst.estimate <- value;
            inst.weight <- weight
          end;
          if not inst.entered then begin
            (* Pull every other process into the instance; they enter
               round 0 with a No_value estimate. Resent periodically
               until decided, so a participant whose module instance is
               created late (e.g. by a dynamic replacement of the layer
               above or of consensus itself) still joins. *)
            let rec announce () =
              if not inst.decided then begin
                send_all ~size:header_size (W_wakeup { iid });
                ignore
                  (Stack.after stack ~delay:wakeup_resend_ms announce
                    : Dpu_runtime.Clock.timer)
              end
            in
            announce ();
            enter_round inst 0
          end
          else if refined && inst.awaiting_propose then
            (* This process joined the instance (via a wakeup) before
               its upper layer had a value, and its No_value estimate is
               already on the wire. Any initial value is valid while
               ts = 0, so refine it: resend, and the coordinator
               replaces the previous entry. Without this, decided
               batches degenerate to whatever the fastest proposer had,
               starving batching. *)
            send ~dst:(coordinator inst.iid inst.round)
              ~size:(header_size + max inst.weight 0)
              (W_estimate
                 { iid = inst.iid; round = inst.round; from = me; value = inst.estimate;
                   ts = inst.ts; weight = inst.weight })
        end
      in
      {
        Stack.default_handlers with
        handle_call =
          (fun _svc p ->
            match p with
            | Propose { iid; value; weight } -> on_propose_call iid value weight
            | _ -> ());
        handle_indication =
          (fun svc p ->
            if Service.equal svc Service.rp2p then
              match p with
              | Rp2p.Recv { src = _; payload } -> (
                match payload with
                | W_estimate { iid; round; from; value; ts; weight } ->
                  on_estimate iid round from value ts weight
                | W_propose { iid; round; value; weight } -> on_proposal iid round value weight
                | W_ack { iid; round; from } -> on_ack iid round from
                | W_nack { iid = _; round = _; from = _ } ->
                  (* Nacks carry no information the coordinator acts on:
                     it simply never reaches a majority of acks. *)
                  ()
                | W_decide { iid; value } -> on_decide iid value
                | W_wakeup { iid } -> on_wakeup iid
                | _ -> ())
              | _ -> ()
            else if Service.equal svc Service.fd then
              match p with
              | Fd.Suspect q -> on_suspect q
              | Fd.Restore q -> suspected.(q) <- false
              | _ -> ());
      })

let spec ~service =
  Spec.make ~service:(Service.name service)
    ~roles:[ "coordinator"; "participant" ]
    ~kinds:
      [
        Spec.kind ~payload:true ~role:"participant" "consensus.estimate";
        Spec.kind ~role:"participant" "consensus.ack";
        Spec.kind ~payload:true ~role:"coordinator" "consensus.decide";
      ]
    ~transitions:
      [
        Spec.t "idle" Spec.Accept "proposing";
        Spec.t "proposing" (Spec.Emit "consensus.estimate") "estimating";
        Spec.t "estimating" (Spec.Recv "consensus.estimate") "coordinated";
        Spec.t "coordinated" (Spec.Emit "consensus.decide") "deciding";
        Spec.t "deciding" (Spec.Recv "consensus.decide") "decided";
        Spec.t "decided" Spec.Deliver "idle";
      ]
    ~obligations:[ Spec.Validity; Spec.Exactly_once ]
      (* instances are keyed by {epoch; k}: rounds of distinct
         generations can never interfere on the wire *)
    ~capabilities:[ Spec.Slot_scoped_rounds; Spec.Epoch_tagged_wire ] ()

let register ?(service = Service.consensus) ?name system =
  let n = System.n system in
  let name = match name with Some name -> name | None -> protocol_name in
  Registry.register (System.registry system) ~name ~provides:[ service ]
    ~requires:[ Service.rp2p; Service.fd ] ~spec:(spec ~service)
    (fun stack -> install ~service ~n stack)
