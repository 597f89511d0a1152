open Dpu_kernel

type Payload.t +=
  | R_broadcast of { size : int; payload : Payload.t }
  | R_deliver of { origin : int; payload : Payload.t }
  | Change_abcast of string
  | Protocol_changed of { generation : int; protocol : string }

let () =
  Payload.register_codec ~tag:"r-abcast"
    ~encode:(function
      | R_broadcast { size; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            Wire.W.int w size;
            Wire.W.str w (Payload.encode_exn payload))
      | R_deliver { origin; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            Wire.W.int w origin;
            Wire.W.str w (Payload.encode_exn payload))
      | Change_abcast protocol ->
        Some
          (fun w ->
            Wire.W.u8 w 2;
            Wire.W.str w protocol)
      | Protocol_changed { generation; protocol } ->
        Some
          (fun w ->
            Wire.W.u8 w 3;
            Wire.W.int w generation;
            Wire.W.str w protocol)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 ->
        let size = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        R_broadcast { size; payload }
      | 1 ->
        let origin = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        R_deliver { origin; payload }
      | 2 -> Change_abcast (Wire.R.str r)
      | 3 ->
        let generation = Wire.R.int r in
        let protocol = Wire.R.str r in
        Protocol_changed { generation; protocol }
      | c -> raise (Wire.Error (Printf.sprintf "r-abcast: bad case %d" c)))
