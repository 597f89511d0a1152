open Dpu_kernel
module Abcast_iface = Dpu_protocols.Abcast_iface
module Repl_iface = Dpu_protocols.Repl_iface

type Payload.t +=
  | A_data of { sn : int; id : Msg.id; size : int; payload : Payload.t }
  | A_new of { sn : int; protocol : string }

let () =
  Payload.register_codec ~tag:"repl"
    ~encode:(function
      | A_data { sn; id; size; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            Wire.W.int w sn;
            Msg.write_id w id;
            Wire.W.int w size;
            Wire.W.str w (Payload.encode_exn payload))
      | A_new { sn; protocol } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            Wire.W.int w sn;
            Wire.W.str w protocol)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 ->
        let sn = Wire.R.int r in
        let id = Msg.read_id r in
        let size = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        A_data { sn; id; size; payload }
      | 1 ->
        let sn = Wire.R.int r in
        let protocol = Wire.R.str r in
        A_new { sn; protocol }
      | c -> raise (Wire.Error (Printf.sprintf "repl: bad case %d" c)))

let protocol_name = "repl.abcast"

let header_size = 48

let k_generation = "repl.generation"
let k_undelivered = "repl.undelivered"

let generation stack = Stack.get_env stack k_generation ~default:0

let undelivered_count stack = Stack.get_env stack k_undelivered ~default:0

let install ~registry stack =
  let me = Stack.node stack in
  Stack.add_module stack ~name:protocol_name ~provides:[ Service.r_abcast ]
    ~requires:[ Service.abcast ]
    (fun stack _self ->
      let module M = Dpu_obs.Metrics in
      let labels = [ ("node", string_of_int me) ] in
      let metrics = Stack.metrics stack in
      let m_intercepted = M.counter metrics ~labels "repl_intercepted_calls_total" in
      let m_reissued = M.counter metrics ~labels "repl_reissued_total" in
      let m_switches = M.counter metrics ~labels "repl_switches_total" in
      let m_stale = M.counter metrics ~labels "repl_stale_changes_total" in
      (* Algorithm 1, lines 1-4. *)
      let undelivered : (Msg.id, int * Payload.t) Hashtbl.t = Hashtbl.create 64 in
      M.register_int metrics ~labels "repl_undelivered" (fun () ->
          Hashtbl.length undelivered);
      let seq_number = ref 0 in
      let next_local = ref 0 in
      let sync_env () =
        Stack.set_env stack k_generation !seq_number;
        Stack.set_env stack k_undelivered (Hashtbl.length undelivered)
      in
      let abcast ~size payload =
        Stack.call stack Service.abcast (Abcast_iface.Broadcast { size; payload })
      in
      (* Lines 7-9: rABcast(m). *)
      let r_broadcast ~size payload =
        let id = { Msg.origin = me; seq = !next_local } in
        incr next_local;
        Hashtbl.replace undelivered id (size, payload);
        sync_env ();
        abcast ~size:(size + header_size)
          (A_data { sn = !seq_number; id; size; payload })
      in
      (* Lines 5-6: changeABcast(prot). *)
      let change_abcast protocol =
        abcast ~size:header_size (A_new { sn = !seq_number; protocol })
      in
      (* Lines 10-16: Adeliver(newABcast, sn, prot).

         One deliberate strengthening of the printed algorithm: the
         change is applied only if its generation tag matches the
         current [seqNumber] — the same filter line 18 applies to data
         messages. Algorithm 1 as printed applies every change
         unconditionally, and the bounded model checker
         ([Dpu_model.Algo1]) finds a uniform-agreement violation with
         two *overlapping* changeABcast requests: the second change
         message, issued before its requester had switched, is ordered
         in the old generation's stream and yields a switch point that
         is not synchronised with the stream being switched away from.
         The paper's §5.2.2 agreement proof silently assumes a change
         of protocol sn travels through protocol sn; this check makes
         that assumption hold (a racing change request is dropped; the
         requester can simply re-issue it). *)
      let on_new sn protocol =
        if sn <> !seq_number then begin
          M.incr m_stale;
          Stack.app_event stack ~tag:"repl.stale-change"
            ~data:(Printf.sprintf "sn=%d current=%d prot=%s" sn !seq_number protocol)
        end
        else begin
        incr seq_number;
        Stack.unbind stack Service.abcast;
        (* Pass the new generation to the factory (epochs keep the old
           and new protocol's wire traffic disjoint), then create and
           bind the new module — lines 13-14 and 22-28. *)
        Stack.set_env stack Abcast_iface.epoch_key !seq_number;
        ignore (Registry.instantiate registry stack ~name:protocol : Stack.module_);
        sync_env ();
        M.incr m_switches;
        Stack.app_event stack ~tag:"repl.switch"
          ~data:(Printf.sprintf "gen=%d prot=%s" !seq_number protocol);
        Stack.indicate stack Service.r_abcast
          (Repl_iface.Protocol_changed { generation = !seq_number; protocol });
        (* Lines 15-16: reissue undelivered messages through the new
           protocol. *)
        (* dpu-lint: allow hashtbl-iter — folded messages are sorted by id below *)
        let pending = Hashtbl.fold (fun id v acc -> (id, v) :: acc) undelivered [] in
        let pending = List.sort (fun (a, _) (b, _) -> Msg.id_compare a b) pending in
        List.iter
          (fun (id, (size, payload)) ->
            M.incr m_reissued;
            abcast ~size:(size + header_size)
              (A_data { sn = !seq_number; id; size; payload }))
          pending
        end
      in
      (* Lines 17-21: Adeliver(nil, sn, m). *)
      let on_data sn id payload =
        if sn = !seq_number then begin
          if Hashtbl.mem undelivered id then begin
            Hashtbl.remove undelivered id;
            sync_env ()
          end;
          Stack.indicate stack Service.r_abcast
            (Repl_iface.R_deliver { origin = id.Msg.origin; payload })
        end
      in
      {
        Stack.default_handlers with
        handle_call =
          (fun _svc p ->
            match p with
            | Repl_iface.R_broadcast { size; payload } ->
              M.incr m_intercepted;
              r_broadcast ~size payload
            | Repl_iface.Change_abcast protocol ->
              M.incr m_intercepted;
              change_abcast protocol
            | _ -> ());
        handle_indication =
          (fun svc p ->
            if Service.equal svc Service.abcast then
              match p with
              | Abcast_iface.Deliver { origin = _; payload = A_data { sn; id; size = _; payload } } ->
                on_data sn id payload
              | Abcast_iface.Deliver { origin = _; payload = A_new { sn; protocol } } ->
                on_new sn protocol
              | _ -> ());
      })

let spec =
  Spec.make ~service:(Service.name Service.r_abcast) ~roles:[ "member" ]
    ~kinds:[ Spec.kind ~role:"member" "repl.change" ]
    ~transitions:
      [
        Spec.t "idle" (Spec.Emit "repl.change") "changing";
        Spec.t "changing" (Spec.Recv "repl.change") "idle";
      ]
    ~obligations:[ Spec.Total_order; Spec.Exactly_once; Spec.Validity ]
      (* Algorithm 1, lines 15-18: undelivered payloads are re-issued on
         the successor, and deliveries are filtered by generation *)
    ~capabilities:[ Spec.Reissue_undelivered; Spec.Generation_filter ] ()

let register system =
  let registry = System.registry system in
  Registry.register registry ~name:protocol_name ~provides:[ Service.r_abcast ]
    ~requires:[ Service.abcast ] ~spec
    (fun stack -> install ~registry stack)
