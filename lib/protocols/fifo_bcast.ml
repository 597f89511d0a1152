open Dpu_kernel

type Payload.t +=
  | Bcast of { size : int; payload : Payload.t }
  | Deliver of { origin : int; payload : Payload.t }

(* Tag carried through the underlying reliable broadcast. *)
type Payload.t += Tagged of { fseq : int; payload : Payload.t }

let () =
  Payload.register_codec ~tag:"fifo"
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
      | Tagged { fseq; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 2;
            Wire.W.int w fseq;
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
        let fseq = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        Tagged { fseq; payload }
      | c -> raise (Wire.Error (Printf.sprintf "fifo: bad case %d" c)))

let protocol_name = "fifo"

let service = Service.make "fifo"

let install ~n stack =
  ignore n;
  Stack.add_module stack ~name:protocol_name ~provides:[ service ]
    ~requires:[ Rbcast.service ]
    (fun stack _self ->
      let next_out = ref 0 in
      (* Per-origin reordering buffers: next expected + held-back
         out-of-order arrivals. *)
      let next_in : (int, int) Hashtbl.t = Hashtbl.create 8 in
      let held : (int * int, Payload.t) Hashtbl.t = Hashtbl.create 32 in
      let expected origin =
        match Hashtbl.find_opt next_in origin with Some e -> e | None -> 0
      in
      let deliver_ready origin =
        let continue = ref true in
        while !continue do
          let e = expected origin in
          match Hashtbl.find_opt held (origin, e) with
          | Some payload ->
            Hashtbl.remove held (origin, e);
            Hashtbl.replace next_in origin (e + 1);
            Stack.indicate stack service (Deliver { origin; payload })
          | None -> continue := false
        done
      in
      {
        Stack.default_handlers with
        handle_call =
          (fun _svc p ->
            match p with
            | Bcast { size; payload } ->
              let fseq = !next_out in
              incr next_out;
              Stack.call stack Rbcast.service
                (Rbcast.Bcast { size = size + 16; payload = Tagged { fseq; payload } })
            | _ -> ());
        handle_indication =
          (fun svc p ->
            match p with
            | Rbcast.Deliver { origin; payload = Tagged { fseq; payload } }
              when Service.equal svc Rbcast.service ->
              if fseq >= expected origin then begin
                Hashtbl.replace held (origin, fseq) payload;
                deliver_ready origin
              end
            | _ -> ());
      })

let spec =
  Spec.make ~service:(Service.name service) ~roles:[ "sender"; "receiver" ]
    ~kinds:[ Spec.kind ~payload:true ~role:"sender" "fifo.seq" ]
    ~transitions:
      [
        Spec.t "idle" Spec.Accept "pending";
        Spec.t "pending" (Spec.Emit "fifo.seq") "broadcast";
        Spec.t "broadcast" (Spec.Recv "fifo.seq") "sequenced";
        Spec.t "sequenced" Spec.Deliver "idle";
      ]
    ~obligations:[ Spec.Fifo_order; Spec.Validity; Spec.Exactly_once ] ()

let register system =
  let n = System.n system in
  Registry.register (System.registry system) ~name:protocol_name ~provides:[ service ]
    ~requires:[ Rbcast.service ] ~spec
    (fun stack -> install ~n stack)
