open Dpu_kernel

type Payload.t +=
  | Wire_req of { epoch : int; id : Msg.id; size : int; payload : Payload.t }
  | Wire_order of { epoch : int; gseq : int; origin : int; size : int; payload : Payload.t }
  | Wire_order_batch of {
      epoch : int;
      first_gseq : int;
      orders : (int * int * Payload.t) list; (* origin, size, payload *)
    }

let () =
  let write_order w (origin, size, payload) =
    Wire.W.int w origin;
    Wire.W.int w size;
    Wire.W.str w (Payload.encode_exn payload)
  in
  let read_order r =
    let origin = Wire.R.int r in
    let size = Wire.R.int r in
    let payload = Payload.decode (Wire.R.str r) in
    (origin, size, payload)
  in
  Payload.register_codec ~tag:"seq-abcast"
    ~encode:(function
      | Wire_req { epoch; id; size; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            Wire.W.int w epoch;
            Msg.write_id w id;
            Wire.W.int w size;
            Wire.W.str w (Payload.encode_exn payload))
      | Wire_order { epoch; gseq; origin; size; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            Wire.W.int w epoch;
            Wire.W.int w gseq;
            Wire.W.int w origin;
            Wire.W.int w size;
            Wire.W.str w (Payload.encode_exn payload))
      | Wire_order_batch { epoch; first_gseq; orders } ->
        Some
          (fun w ->
            Wire.W.u8 w 2;
            Wire.W.int w epoch;
            Wire.W.int w first_gseq;
            Wire.W.list w write_order orders)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 ->
        let epoch = Wire.R.int r in
        let id = Msg.read_id r in
        let size = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        Wire_req { epoch; id; size; payload }
      | 1 ->
        let epoch = Wire.R.int r in
        let gseq = Wire.R.int r in
        let origin = Wire.R.int r in
        let size = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        Wire_order { epoch; gseq; origin; size; payload }
      | 2 ->
        let epoch = Wire.R.int r in
        let first_gseq = Wire.R.int r in
        let orders = Wire.R.list r read_order in
        Wire_order_batch { epoch; first_gseq; orders }
      | c -> raise (Wire.Error (Printf.sprintf "seq-abcast: bad case %d" c)))

let () =
  Abcast_iface.register_wire_epoch (function
    | Rp2p.Recv
        {
          payload =
            ( Wire_req { epoch; _ }
            | Wire_order { epoch; _ }
            | Wire_order_batch { epoch; _ } );
          _;
        } ->
      Some epoch
    | _ -> None)

let protocol_name = "abcast.seq"

let header_size = 48

let install ?(sequencer = 0) ?batching ~n stack =
  let me = Stack.node stack in
  let epoch = Abcast_iface.current_epoch stack in
  Stack.add_module stack ~name:protocol_name ~provides:[ Service.abcast ]
    ~requires:[ Service.rp2p ]
    (fun stack _self ->
      let next_seq = ref 0 in
      let next_gseq = ref 0 in  (* sequencer role *)
      let next_expected = ref 0 in
      let buffered : (int, int * int * Payload.t) Hashtbl.t = Hashtbl.create 64 in
      (* gseq -> origin, size, payload *)
      let send ~dst ~size payload =
        Stack.call stack Service.rp2p (Rp2p.Send { dst; size; payload })
      in
      let deliver_ready () =
        let continue = ref true in
        while !continue do
          match Hashtbl.find_opt buffered !next_expected with
          | None -> continue := false
          | Some (origin, _size, payload) ->
            Hashtbl.remove buffered !next_expected;
            incr next_expected;
            Stack.indicate stack Service.abcast (Abcast_iface.Deliver { origin; payload })
        done
      in
      let sequence ~origin ~size payload =
        let gseq = !next_gseq in
        incr next_gseq;
        let order = Wire_order { epoch; gseq; origin; size; payload } in
        for dst = 0 to n - 1 do
          send ~dst ~size:(size + header_size) order
        done
      in
      (* Sequencer-side batching: aggregate pending requests and assign
         a run of consecutive gseqs in one broadcast round. *)
      let batcher =
        Option.map
          (fun cfg ->
            Batcher.create stack cfg ~flush:(fun orders ->
                let first_gseq = !next_gseq in
                next_gseq := first_gseq + List.length orders;
                let total =
                  List.fold_left (fun acc (_, size, _) -> acc + size) 0 orders
                in
                let batch = Wire_order_batch { epoch; first_gseq; orders } in
                for dst = 0 to n - 1 do
                  send ~dst ~size:(total + header_size) batch
                done))
          batching
      in
      (* Epoch-boundary rule: a batch never spans generations. The
         replacement layer bumps the epoch synchronously while the old
         protocol is still delivering, so after handing indications up
         we check for supersession and flush what is pending — tagged
         with our own (now stale) epoch, which receivers drop
         atomically and Algorithm 1 reissues through the successor. *)
      let flush_if_superseded () =
        match batcher with
        | Some b when Abcast_iface.current_epoch stack <> epoch -> Batcher.flush b
        | _ -> ()
      in
      let sequence_or_batch ~origin ~size payload =
        match batcher with
        | None -> sequence ~origin ~size payload
        | Some b ->
          Batcher.add b (origin, size, payload);
          flush_if_superseded ()
      in
      let insert_order gseq (origin, size, payload) =
        if gseq >= !next_expected && not (Hashtbl.mem buffered gseq) then
          Hashtbl.replace buffered gseq (origin, size, payload)
      in
      {
        Stack.default_handlers with
        handle_call =
          (fun _svc p ->
            match p with
            | Abcast_iface.Broadcast { size; payload } ->
              let id = { Msg.origin = me; seq = !next_seq } in
              incr next_seq;
              send ~dst:sequencer ~size:(size + header_size)
                (Wire_req { epoch; id; size; payload })
            | _ -> ());
        handle_indication =
          (fun svc p ->
            if Service.equal svc Service.rp2p then
              match p with
              | Rp2p.Recv { src = _; payload = Wire_req { epoch = e; id; size; payload } }
                when e = epoch && me = sequencer ->
                sequence_or_batch ~origin:id.Msg.origin ~size payload
              | Rp2p.Recv
                  { src = _; payload = Wire_order { epoch = e; gseq; origin; size; payload } }
                when e = epoch ->
                insert_order gseq (origin, size, payload);
                deliver_ready ();
                flush_if_superseded ()
              | Rp2p.Recv
                  { src = _; payload = Wire_order_batch { epoch = e; first_gseq; orders } }
                when e = epoch ->
                List.iteri (fun i order -> insert_order (first_gseq + i) order) orders;
                deliver_ready ();
                flush_if_superseded ()
              | _ -> ());
      })

let spec ~batched =
  let ordering =
    if batched then
      [
        Spec.t "sequencing" (Spec.Aggregate "seq.order-batch") "batching";
        Spec.t "batching" (Spec.Flush "seq.order-batch") "ordered";
        Spec.t "ordered" (Spec.Recv "seq.order-batch") "ready";
      ]
    else
      [
        Spec.t "sequencing" (Spec.Emit "seq.order") "ordered";
        Spec.t "ordered" (Spec.Recv "seq.order") "ready";
      ]
  in
  Spec.make ~service:(Service.name Service.abcast)
    ~roles:[ "member"; "sequencer" ]
    ~kinds:
      [
        Spec.kind ~payload:true ~role:"member" "seq.request";
        Spec.kind ~payload:true ~role:"sequencer" "seq.order";
        Spec.kind ~payload:true ~role:"sequencer" "seq.order-batch";
      ]
    ~transitions:
      ([
         Spec.t "idle" Spec.Accept "pending";
         Spec.t "pending" (Spec.Emit "seq.request") "requested";
         Spec.t "requested" (Spec.Recv "seq.request") "sequencing";
       ]
      @ ordering
      @ [ Spec.t "ready" Spec.Deliver "idle" ])
    ~obligations:
      ([ Spec.Total_order; Spec.Exactly_once; Spec.Validity; Spec.Gap_free_gseq ]
      @ if batched then [ Spec.Epoch_flush ] else [])
    ~capabilities:
      ([ Spec.Epoch_tagged_wire ]
      @ if batched then [ Spec.Epoch_flush_on_supersede ] else [])
    ()

let register ?sequencer ?batching system =
  let n = System.n system in
  Registry.register (System.registry system) ~name:protocol_name
    ~provides:[ Service.abcast ] ~requires:[ Service.rp2p ]
    ~spec:(spec ~batched:(batching <> None))
    (fun stack -> install ?sequencer ?batching ~n stack)
