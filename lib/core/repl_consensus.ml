open Dpu_kernel
module P = Dpu_protocols
module CI = Dpu_protocols.Consensus_iface

type Payload.t +=
  | Change_consensus of string
  | Consensus_changed of { generation : int; protocol : string }

(* The value wrapper: carries the client's value plus, optionally, a
   protocol change request threaded through the decision. *)
type Payload.t += Wrapped of { value : Payload.t; switch : string option }

(* A change request is gossiped to every stack's layer so that *every*
   subsequent proposal carries the tag: consensus decides one proposal,
   and the switch must be threaded through whichever one wins. *)
type Payload.t += Wire_request of { protocol : string }

let () =
  Payload.register_codec ~tag:"repl-consensus"
    ~encode:(function
      | Change_consensus protocol ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            Wire.W.str w protocol)
      | Consensus_changed { generation; protocol } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            Wire.W.int w generation;
            Wire.W.str w protocol)
      | Wrapped { value; switch } ->
        Some
          (fun w ->
            Wire.W.u8 w 2;
            Wire.W.str w (Payload.encode_exn value);
            Wire.W.opt w Wire.W.str switch)
      | Wire_request { protocol } ->
        Some
          (fun w ->
            Wire.W.u8 w 3;
            Wire.W.str w protocol)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 -> Change_consensus (Wire.R.str r)
      | 1 ->
        let generation = Wire.R.int r in
        let protocol = Wire.R.str r in
        Consensus_changed { generation; protocol }
      | 2 ->
        let value = Payload.decode (Wire.R.str r) in
        let switch = Wire.R.opt r Wire.R.str in
        Wrapped { value; switch }
      | 3 -> Wire_request { protocol = Wire.R.str r }
      | c -> raise (Wire.Error (Printf.sprintf "repl-consensus: bad case %d" c)))

let protocol_name = "repl.consensus"

let slots = 8

let gen_stride = 1024

let impl_service slot = Service.make (Printf.sprintf "consensus-impl.%d" slot)

let impl_name prot ~slot = Printf.sprintf "%s@%d" prot slot

let spec =
  Spec.make ~service:(Service.name Service.consensus) ~roles:[ "member" ]
    ~kinds:[ Spec.kind ~role:"member" "repl-consensus.request" ]
    ~transitions:
      [
        Spec.t "idle" (Spec.Emit "repl-consensus.request") "changing";
        Spec.t "changing" (Spec.Recv "repl-consensus.request") "idle";
      ]
    ~obligations:[ Spec.Validity; Spec.Exactly_once ]
      (* undecided proposals are re-issued under the new generation, and
         decisions of a superseded generation are ignored (the analogue
         of Algorithm 1's lines 15-18 for the agreement stream) *)
    ~capabilities:
      [
        Spec.Slot_scoped_rounds;
        Spec.Reissue_undelivered;
        Spec.Generation_filter;
      ]
    ()

let header_size = 32

let k_generation = "repl-consensus.generation"

let generation stack = Stack.get_env stack k_generation ~default:0

(* Per-stream bookkeeping. *)
type stream = {
  epoch : int;
  mutable gen : int;
  mutable protocol : string;  (* implementation of the current gen *)
  mutable decided_ks : (int, unit) Hashtbl.t;  (* accepted decisions *)
  mutable prefix : int;  (* first k not yet decided *)
  mutable switch_at : (int * string) option;  (* k_s, target protocol *)
  pending : (int, Payload.t * int) Hashtbl.t;  (* k -> value, weight (our proposals) *)
  forwarded : (int, Payload.t) Hashtbl.t;  (* decided client values already indicated *)
}

let install ~registry ~initial ~n stack =
  let me = Stack.node stack in
  let all_impl_services = List.init slots impl_service in
  Stack.add_module stack ~name:protocol_name ~provides:[ Service.consensus ]
    ~requires:(Service.rp2p :: all_impl_services)
    (fun stack _self ->
      let module M = Dpu_obs.Metrics in
      let labels = [ ("node", string_of_int me) ] in
      let metrics = Stack.metrics stack in
      let m_proposals = M.counter metrics ~labels "repl_consensus_proposals_total" in
      let m_decisions = M.counter metrics ~labels "repl_consensus_decisions_total" in
      let m_stale = M.counter metrics ~labels "repl_consensus_stale_decisions_total" in
      let m_switches = M.counter metrics ~labels "repl_consensus_switches_total" in
      let m_reissued = M.counter metrics ~labels "repl_consensus_reissued_total" in
      let streams : (int, stream) Hashtbl.t = Hashtbl.create 4 in
      let request = ref None in
      let get_stream epoch =
        match Hashtbl.find_opt streams epoch with
        | Some s -> s
        | None ->
          let s =
            {
              epoch;
              gen = 0;
              protocol = initial;
              decided_ks = Hashtbl.create 64;
              prefix = 0;
              switch_at = None;
              pending = Hashtbl.create 16;
              forwarded = Hashtbl.create 64;
            }
          in
          Hashtbl.replace streams epoch s;
          s
      in
      let ensure_impl ~protocol ~gen =
        let slot = gen mod slots in
        let svc = impl_service slot in
        (* The slot may hold the module of generation [gen - slots] (long
           drained) or a different implementation: rebind. *)
        Stack.unbind stack svc;
        ignore
          (Registry.instantiate registry stack ~name:(impl_name protocol ~slot)
            : Stack.module_)
      in
      let propose_impl s ~k ~value ~weight =
        let tag = !request in
        let iid = { CI.epoch = (s.epoch * gen_stride) + s.gen; k } in
        Stack.call stack
          (impl_service (s.gen mod slots))
          (CI.Propose
             { iid; value = Wrapped { value; switch = tag }; weight = weight + header_size })
      in
      let apply_switch s k_s protocol =
        s.gen <- s.gen + 1;
        s.protocol <- protocol;
        s.switch_at <- None;
        if !request <> None then request := None;
        if s.epoch = 0 then Stack.set_env stack k_generation s.gen;
        ensure_impl ~protocol ~gen:s.gen;
        M.incr m_switches;
        Stack.app_event stack ~tag:"repl-consensus.switch"
          ~data:(Printf.sprintf "stream=%d gen=%d prot=%s" s.epoch s.gen protocol);
        Stack.indicate stack Service.consensus
          (Consensus_changed { generation = s.gen; protocol });
        (* Re-issue our undecided proposals beyond the switch point
           under the new generation (sequential clients will not have
           any, but a racing proposal is repaired here). *)
        (* dpu-lint: allow hashtbl-iter — folded pairs are sorted by k before use *)
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.pending []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.iter (fun (k, (value, weight)) ->
               if k > k_s then begin
                 M.incr m_reissued;
                 propose_impl s ~k ~value ~weight
               end)
      in
      let advance_prefix s =
        while Hashtbl.mem s.decided_ks s.prefix do
          s.prefix <- s.prefix + 1
        done;
        match s.switch_at with
        | Some (k_s, protocol) when s.prefix > k_s -> apply_switch s k_s protocol
        | Some _ | None -> ()
      in
      let on_decide iid value =
        let stream_epoch = iid.CI.epoch / gen_stride in
        let gen = iid.CI.epoch mod gen_stride in
        let k = iid.CI.k in
        let s = get_stream stream_epoch in
        (* Line-18 analogue: decisions of superseded generations are
           discarded; the instances they decided were (or will be)
           re-decided under the current generation. *)
        if gen <> s.gen then M.incr m_stale
        else if not (Hashtbl.mem s.forwarded k) then begin
          M.incr m_decisions;
          let client_value, switch =
            match value with
            | Wrapped { value; switch } -> (value, switch)
            | CI.No_value -> (CI.No_value, None)
            | other -> (other, None)
          in
          Hashtbl.replace s.forwarded k client_value;
          Hashtbl.replace s.decided_ks k ();
          Hashtbl.remove s.pending k;
          Stack.indicate stack Service.consensus
            (CI.Decide { iid = { CI.epoch = stream_epoch; k }; value = client_value });
          (match (switch, s.switch_at) with
          | Some protocol, None -> s.switch_at <- Some (k, protocol)
          | Some _, Some _ | None, _ -> ());
          advance_prefix s
        end
      in
      let on_propose iid value weight =
        M.incr m_proposals;
        let s = get_stream iid.CI.epoch in
        let k = iid.CI.k in
        match Hashtbl.find_opt s.forwarded k with
        | Some v ->
          (* Already decided: repeat the indication for the caller. *)
          Stack.indicate stack Service.consensus
            (CI.Decide { iid = { CI.epoch = s.epoch; k }; value = v })
        | None -> begin
          Hashtbl.replace s.pending k (value, weight);
          propose_impl s ~k ~value ~weight
        end
      in
      {
        Stack.default_handlers with
        on_start = (fun () -> ensure_impl ~protocol:initial ~gen:0);
        handle_call =
          (fun _svc p ->
            match p with
            | CI.Propose { iid; value; weight } -> on_propose iid value weight
            | Change_consensus protocol ->
              Stack.app_event stack ~tag:"change-consensus" ~data:protocol;
              request := Some protocol;
              for dst = 0 to n - 1 do
                if dst <> me then
                  Stack.call stack Service.rp2p
                    (P.Rp2p.Send
                       { dst; size = header_size; payload = Wire_request { protocol } })
              done
            | _ -> ());
        handle_indication =
          (fun svc p ->
            if Service.equal svc Service.rp2p then
              match p with
              | P.Rp2p.Recv { src = _; payload = Wire_request { protocol } } ->
                if !request = None then request := Some protocol
              | _ -> ()
            else begin
              let is_impl_svc =
                List.exists (fun s -> Service.equal s svc) all_impl_services
              in
              if is_impl_svc then
                match p with
                | CI.Decide { iid; value } -> on_decide iid value
                | _ -> ()
            end);
      })

let register_impls system =
  (* Both implementations at every ring slot. *)
  for slot = 0 to slots - 1 do
    P.Consensus_ct.register ~service:(impl_service slot)
      ~name:(impl_name P.Consensus_ct.protocol_name ~slot)
      system;
    P.Consensus_paxos.register ~service:(impl_service slot)
      ~name:(impl_name P.Consensus_paxos.protocol_name ~slot)
      system
  done
