open Dpu_kernel

type Payload.t +=
  | Bcast of { size : int; payload : Payload.t }
  | Deliver of { origin : int; payload : Payload.t }

type Payload.t += Stamped of { stamp : int list; origin : int; payload : Payload.t }

let () =
  Payload.register_codec ~tag:"causal"
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
      | Stamped { stamp; origin; payload } ->
        Some
          (fun w ->
            Wire.W.u8 w 2;
            Wire.W.list w Wire.W.int stamp;
            Wire.W.int w origin;
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
        let stamp = Wire.R.list r Wire.R.int in
        let origin = Wire.R.int r in
        let payload = Payload.decode (Wire.R.str r) in
        Stamped { stamp; origin; payload }
      | c -> raise (Wire.Error (Printf.sprintf "causal: bad case %d" c)))

let protocol_name = "causal"

let service = Service.make "causal"

(* The clock is mirrored into the env so tests can observe it. *)
let k_clock = "causal.clock."

let clock stack =
  let n = Stack.get_env stack (k_clock ^ "n") ~default:0 in
  if n = 0 then None
  else
    Some
      (Vclock.of_list
         (List.init n (fun i -> Stack.get_env stack (k_clock ^ string_of_int i) ~default:0)))

let install ~n stack =
  let me = Stack.node stack in
  Stack.add_module stack ~name:protocol_name ~provides:[ service ]
    ~requires:[ Rbcast.service ]
    (fun stack _self ->
      let vc = ref (Vclock.zero ~n) in
      let publish () =
        Stack.set_env stack (k_clock ^ "n") n;
        List.iteri
          (fun i x -> Stack.set_env stack (k_clock ^ string_of_int i) x)
          (Vclock.to_list !vc)
      in
      publish ();
      (* Messages whose causal dependencies are not yet satisfied. *)
      let waiting : (Vclock.t * int * Payload.t) list ref = ref [] in
      let rec deliver_ready () =
        let progressed = ref false in
        let still =
          List.filter
            (fun (stamp, origin, payload) ->
              if Vclock.deliverable stamp ~at:!vc ~sender:origin then begin
                vc := Vclock.merge !vc stamp;
                publish ();
                Stack.indicate stack service (Deliver { origin; payload });
                progressed := true;
                false
              end
              else true)
            !waiting
        in
        waiting := still;
        (* A delivery may unblock earlier-buffered messages. *)
        if !progressed then deliver_ready ()
      in
      let on_stamped stamp origin payload =
        waiting := !waiting @ [ (stamp, origin, payload) ];
        deliver_ready ()
      in
      {
        Stack.default_handlers with
        handle_call =
          (fun _svc p ->
            match p with
            | Bcast { size; payload } ->
              let stamp = Vclock.tick !vc me in
              (* Local delivery is immediate (the condition holds by
                 construction); remote copies go out stamped. *)
              Stack.call stack Rbcast.service
                (Rbcast.Bcast
                   {
                     size = size + (4 * n);
                     payload = Stamped { stamp = Vclock.to_list stamp; origin = me; payload };
                   })
            | _ -> ());
        handle_indication =
          (fun svc p ->
            match p with
            | Rbcast.Deliver { origin = _; payload = Stamped { stamp; origin; payload } }
              when Service.equal svc Rbcast.service ->
              on_stamped (Vclock.of_list stamp) origin payload
            | _ -> ());
      })

let spec =
  Spec.make ~service:(Service.name service) ~roles:[ "sender"; "receiver" ]
    ~kinds:[ Spec.kind ~payload:true ~role:"sender" "causal.stamped" ]
    ~transitions:
      [
        Spec.t "idle" Spec.Accept "pending";
        Spec.t "pending" (Spec.Emit "causal.stamped") "broadcast";
        Spec.t "broadcast" (Spec.Recv "causal.stamped") "stamped";
        Spec.t "stamped" Spec.Deliver "idle";
      ]
    ~obligations:[ Spec.Causal_order; Spec.Validity; Spec.Exactly_once ] ()

let register system =
  let n = System.n system in
  Registry.register (System.registry system) ~name:protocol_name ~provides:[ service ]
    ~requires:[ Rbcast.service ] ~spec
    (fun stack -> install ~n stack)
