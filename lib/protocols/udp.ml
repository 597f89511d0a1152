open Dpu_kernel
module Transport = Dpu_runtime.Transport

type Payload.t +=
  | Send of { dst : int; size : int; payload : Payload.t }
  | Recv of { src : int; payload : Payload.t }

let () =
  Payload.register_codec ~tag:"udp"
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
      | c -> raise (Wire.Error (Printf.sprintf "udp: bad case %d" c)))

let protocol_name = "udp"

let install ~transport stack =
  let node = Stack.node stack in
  Stack.add_module stack ~name:protocol_name ~provides:[ Service.net ] ~requires:[]
    (fun stack _self ->
      Transport.set_handler transport ~node (fun ~src payload ->
          if not (Stack.is_crashed stack) then
            Stack.indicate stack Service.net (Recv { src; payload }));
      {
        Stack.default_handlers with
        handle_call =
          (fun _svc p ->
            match p with
            | Send { dst; size; payload } ->
              Transport.send transport ~src:node ~dst ~size_bytes:size payload
            | _ -> ());
      })

let spec =
  Spec.make ~service:(Service.name Service.net) ~roles:[ "peer" ]
    ~kinds:[ Spec.kind ~payload:true ~role:"peer" "udp.datagram" ]
    ~transitions:
      [
        Spec.t "idle" Spec.Accept "queued";
        Spec.t "queued" (Spec.Emit "udp.datagram") "sent";
        Spec.t "sent" (Spec.Recv "udp.datagram") "arrived";
        Spec.t "arrived" Spec.Deliver "idle";
      ]
    ()
(* best-effort: no obligations, no update capabilities *)

let register system =
  let transport = System.transport system in
  Registry.register (System.registry system) ~name:protocol_name
    ~provides:[ Service.net ] ~requires:[] ~spec
    (fun stack -> install ~transport stack)
