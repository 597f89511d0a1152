type t = ..

type t += Unit

(* The name is a field of the constructor's slot, so this reads two
   fields and allocates nothing. *)
let constructor_name p = Obj.Extension_constructor.(name (of_val p))

(* ------------------------------------------------------------------ *)
(* Wire codecs                                                         *)
(* ------------------------------------------------------------------ *)

exception Decode_error of string

let () =
  Printexc.register_printer (function
    | Decode_error msg ->
      Some (Printf.sprintf "Dpu_kernel.Payload.Decode_error(%S)" msg)
    | _ -> None)

let decode_fail fmt = Printf.ksprintf (fun msg -> raise (Decode_error msg)) fmt

type codec = {
  c_tag : string;
  c_encode : t -> (Wire.W.t -> unit) option;
  c_decode : Wire.R.t -> t;
}

let codecs : codec list ref = ref []

let codec_by_tag : (string, codec) Hashtbl.t = Hashtbl.create 64

let registered_tags () =
  (* dpu-lint: allow hashtbl-iter — sorted before being returned *)
  Hashtbl.fold (fun tag _ acc -> tag :: acc) codec_by_tag []
  |> List.sort String.compare

let register_codec ~tag ~encode ~decode =
  if String.length tag = 0 || String.length tag > 0xff then
    invalid_arg "Payload.register_codec: tag must be 1..255 bytes";
  if Hashtbl.mem codec_by_tag tag then
    invalid_arg (Printf.sprintf "Payload.register_codec: duplicate tag %S" tag);
  let c = { c_tag = tag; c_encode = encode; c_decode = decode } in
  Hashtbl.replace codec_by_tag tag c;
  codecs := c :: !codecs

(* A frame is [u8 taglen][tag bytes][body ...]; the body runs to the
   end of the enclosing string, and [decode] rejects trailing garbage.
   Nested payloads are written with [W.str (encode_exn inner)] so their
   extent is delimited by the string length prefix and recursion stays
   unambiguous. *)

let encode_into w p =
  let rec try_all = function
    | [] -> false
    | c :: rest -> (
      match c.c_encode p with
      | None -> try_all rest
      | Some write ->
        Wire.W.u8 w (String.length c.c_tag);
        Wire.W.raw w c.c_tag;
        write w;
        true)
  in
  try_all !codecs

let encode p =
  let w = Wire.W.create () in
  if encode_into w p then Some (Wire.W.contents w) else None

let encode_exn p =
  match encode p with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "Payload.encode_exn: no codec for %s" (constructor_name p))

let has_codec p = match encode p with Some _ -> true | None -> false

let decode_reader r =
  let tag =
    match
      let taglen = Wire.R.u8 r in
      Wire.R.raw r taglen
    with
    | tag -> tag
    | exception Wire.Error msg -> decode_fail "bad frame header: %s" msg
  in
  match Hashtbl.find_opt codec_by_tag tag with
  | None -> decode_fail "unknown payload tag %S" tag
  | Some c -> (
    match
      let p = c.c_decode r in
      Wire.R.expect_end r;
      p
    with
    | p -> p
    | exception Wire.Error msg -> decode_fail "bad %S frame: %s" tag msg)

let decode s = decode_reader (Wire.R.of_string s)

let decode_slice ?off ?len buf =
  match Wire.R.of_bytes ?off ?len buf with
  | r -> decode_reader r
  | exception Wire.Error msg -> decode_fail "bad frame slice: %s" msg

(* A length-prefixed frame embedded in a larger stream ([W.str_writer]
   on the way out): read the u32 prefix, then decode the frame in place
   through a bounded sub-reader — no substring allocation. *)
let decode_prefixed r =
  match
    let len = Wire.R.u32 r in
    Wire.R.sub r len
  with
  | sub -> decode_reader sub
  | exception Wire.Error msg -> decode_fail "bad frame length prefix: %s" msg

(* Built-in codec for the trivial payload. *)
let () =
  register_codec ~tag:"unit"
    ~encode:(fun p -> match p with Unit -> Some (fun _w -> ()) | _ -> None)
    ~decode:(fun _r -> Unit)

(* ------------------------------------------------------------------ *)
(* Envelope                                                            *)
(* ------------------------------------------------------------------ *)

module Envelope = struct
  let magic = "DPU1"

  let version = 1

  let batch_version = 2

  type info = { src : int; service : string; generation : int }

  let write_header w ~v ~src ~service ~generation =
    Wire.W.raw w magic;
    Wire.W.u8 w v;
    Wire.W.int w src;
    Wire.W.str w service;
    Wire.W.int w generation

  let header_overhead ~service =
    (* magic + version byte + src + service (u32 len + bytes) + generation *)
    String.length magic + 1 + 8 + (4 + String.length service) + 8

  let seal_encoded ~src ~service ~generation body =
    let w = Wire.W.create ~initial_size:(String.length body + 32) () in
    write_header w ~v:version ~src ~service ~generation;
    Wire.W.str w body;
    Wire.W.contents w

  let seal ~src ~service ~generation p =
    seal_encoded ~src ~service ~generation (encode_exn p)

  let seal_into w ~src ~service ~generation body =
    write_header w ~v:version ~src ~service ~generation;
    Wire.W.str_writer w body

  let seal_batch_into w ~src ~service ~generation ~count elems =
    if count <= 0 then
      invalid_arg "Payload.Envelope.seal_batch_into: empty batch";
    write_header w ~v:batch_version ~src ~service ~generation;
    Wire.W.int w count;
    Wire.W.add_writer w elems

  let seal_batch ~src ~service ~generation payloads =
    let elems = Wire.W.create () in
    let scratch = Wire.W.create () in
    let count =
      List.fold_left
        (fun count p ->
          Wire.W.reset scratch;
          if not (encode_into scratch p) then
            invalid_arg
              (Printf.sprintf "Payload.Envelope.seal_batch: no codec for %s"
                 (constructor_name p));
          Wire.W.str_writer elems scratch;
          count + 1)
        0 payloads
    in
    let w = Wire.W.create () in
    seal_batch_into w ~src ~service ~generation ~count elems;
    Wire.W.contents w

  let open_reader r =
    match
      let m = Wire.R.raw r (String.length magic) in
      if not (String.equal m magic) then decode_fail "bad envelope magic %S" m;
      let v = Wire.R.u8 r in
      if v <> version && v <> batch_version then
        decode_fail "unsupported envelope version %d" v;
      let src = Wire.R.int r in
      let service = Wire.R.str r in
      let generation = Wire.R.int r in
      ({ src; service; generation }, v)
    with
    | info, v ->
      let payloads =
        if v = version then begin
          let p = decode_prefixed r in
          (match Wire.R.expect_end r with
          | () -> ()
          | exception Wire.Error msg -> decode_fail "bad envelope: %s" msg);
          [ p ]
        end
        else begin
          let count =
            match Wire.R.int r with
            | count -> count
            | exception Wire.Error msg -> decode_fail "bad envelope: %s" msg
          in
          if count <= 0 then decode_fail "bad batch count %d" count;
          let ps = List.init count (fun _ -> decode_prefixed r) in
          (match Wire.R.expect_end r with
          | () -> ()
          | exception Wire.Error msg -> decode_fail "bad envelope: %s" msg);
          ps
        end
      in
      (info, payloads)
    | exception Wire.Error msg -> decode_fail "bad envelope: %s" msg

  let open_slice ?off ?len buf =
    match Wire.R.of_bytes ?off ?len buf with
    | r -> open_reader r
    | exception Wire.Error msg -> decode_fail "bad envelope slice: %s" msg

  let open_ s =
    let r = Wire.R.of_string s in
    match open_reader r with
    | info, [ p ] -> (info, p)
    | _, _ ->
      (* A multi-payload batch cannot be flattened into the legacy
         single-payload shape without silently dropping messages; the
         transport drain uses [open_slice] instead. *)
      decode_fail "batch envelope in single-payload context"
end
