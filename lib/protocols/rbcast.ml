open Dpu_kernel

type Payload.t +=
  | Bcast of { size : int; payload : Payload.t }
  | Deliver of { origin : int; payload : Payload.t }

type Payload.t +=
  | Wire of { origin : int; seq : int; size : int; payload : Payload.t }

let () =
  Payload.register_codec ~tag:"rbcast"
    ~encode:(function
      | Bcast { size; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            Wire.W.int w size;
            Wire.W.str w (Payload.encode_exn payload))
      | Deliver { origin; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            Wire.W.int w origin;
            Wire.W.str w (Payload.encode_exn payload))
      | Wire { origin; seq; size; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 2;
            Wire.W.int w origin;
            Wire.W.int w seq;
            Wire.W.int w size;
            Wire.W.str w (Payload.encode_exn payload))
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 ->
        let size = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        Bcast { size; payload }
      | 1 ->
        let origin = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        Deliver { origin; payload }
      | 2 ->
        let origin = Wire.R.int r in
        let seq = Wire.R.int r in
        let size = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        Wire { origin; seq; size; payload }
      | c -> raise (Wire.Error (Printf.sprintf "rbcast: bad case %d" c)))

let protocol_name = "rbcast"

let service = Service.make "rbcast"

let install ?(relay = true) ~n stack =
  let me = Stack.node stack in
  Stack.add_module stack ~name:protocol_name ~provides:[ service ]
    ~requires:[ Service.rp2p ]
    (fun stack _self ->
      let next_seq = ref 0 in
      let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 256 in
      let send_to_others ~size wire =
        for dst = 0 to n - 1 do
          if dst <> me then
            Stack.call stack Service.rp2p (Rp2p.Send { dst; size; payload = wire })
        done
      in
      let deliver origin payload =
        Stack.indicate stack service (Deliver { origin; payload })
      in
      let on_wire ~origin ~seq ~size payload =
        if not (Hashtbl.mem seen (origin, seq)) then begin
          Hashtbl.replace seen (origin, seq) ();
          if relay then send_to_others ~size (Wire { origin; seq; size; payload });
          deliver origin payload
        end
      in
      {
        Stack.default_handlers with
        handle_call =
          (fun _svc p ->
            match p with
            | Bcast { size; payload } ->
              let seq = !next_seq in
              incr next_seq;
              Hashtbl.replace seen (me, seq) ();
              send_to_others ~size (Wire { origin = me; seq; size; payload });
              deliver me payload
            | _ -> ());
        handle_indication =
          (fun svc p ->
            match p with
            | Rp2p.Recv { src = _; payload = Wire { origin; seq; size; payload } }
              when Service.equal svc Service.rp2p ->
              on_wire ~origin ~seq ~size payload
            | _ -> ());
      })

let spec =
  Spec.make ~service:(Service.name service) ~roles:[ "origin"; "relay" ]
    ~kinds:[ Spec.kind ~payload:true ~role:"origin" "rbcast.wire" ]
    ~transitions:
      [
        Spec.t "idle" Spec.Accept "pending";
        Spec.t "pending" (Spec.Emit "rbcast.wire") "broadcast";
        Spec.t "broadcast" (Spec.Recv "rbcast.wire") "received";
        Spec.t "received" Spec.Deliver "idle";
      ]
    ~obligations:[ Spec.Validity; Spec.Exactly_once ] ()

let register ?relay system =
  let n = System.n system in
  Registry.register (System.registry system) ~name:protocol_name ~provides:[ service ]
    ~requires:[ Service.rp2p ] ~spec
    (fun stack -> install ?relay ~n stack)
