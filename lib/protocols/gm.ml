open Dpu_kernel

type view = { id : int; members : int list }

type Payload.t +=
  | Join of int
  | Leave of int
  | View of view

type op =
  | Op_join
  | Op_leave
  | Op_exclude

type Payload.t += Gm_change of { op : op; target : int }

let () =
  let op_code = function Op_join -> 0 | Op_leave -> 1 | Op_exclude -> 2 in
  Payload.register_codec ~tag:"gm"
    ~encode:(function
      | Join t ->
        Some
          (fun w ->
            Wire.W.u8 w 0;
            Wire.W.int w t)
      | Leave t ->
        Some
          (fun w ->
            Wire.W.u8 w 1;
            Wire.W.int w t)
      | View { id; members } ->
        Some
          (fun w ->
            Wire.W.u8 w 2;
            Wire.W.int w id;
            Wire.W.list w Wire.W.int members)
      | Gm_change { op; target } ->
        Some
          (fun w ->
            Wire.W.u8 w 3;
            Wire.W.u8 w (op_code op);
            Wire.W.int w target)
      | _ -> None)
    ~decode:(fun r ->
      match Wire.R.u8 r with
      | 0 -> Join (Wire.R.int r)
      | 1 -> Leave (Wire.R.int r)
      | 2 ->
        let id = Wire.R.int r in
        let members = Wire.R.list r Wire.R.int in
        View { id; members }
      | 3 ->
        let op =
          match Wire.R.u8 r with
          | 0 -> Op_join
          | 1 -> Op_leave
          | 2 -> Op_exclude
          | c -> raise (Wire.Error (Printf.sprintf "gm: bad op %d" c))
        in
        let target = Wire.R.int r in
        Gm_change { op; target }
      | c -> raise (Wire.Error (Printf.sprintf "gm: bad case %d" c)))

type config = { exclusion_delay_ms : float }

let default_config = { exclusion_delay_ms = 200.0 }

let protocol_name = "gm"

let change_size = 64

let k_view_id = "gm.view_id"
let k_members = "gm.members"

let members_to_mask members = List.fold_left (fun acc m -> acc lor (1 lsl m)) 0 members

let mask_to_members mask =
  let rec collect i acc =
    if i < 0 then acc
    else collect (i - 1) (if mask land (1 lsl i) <> 0 then i :: acc else acc)
  in
  collect 61 []

let current_view stack =
  let id = Stack.get_env stack k_view_id ~default:(-1) in
  if id < 0 then None
  else
    let members = mask_to_members (Stack.get_env stack k_members ~default:0) in
    Some { id; members }

let install ?(config = default_config) ?initial ~n stack =
  let me = Stack.node stack in
  let initial =
    match initial with
    | Some m -> List.sort_uniq Int.compare m
    | None -> List.init n (fun i -> i)
  in
  Stack.add_module stack ~name:protocol_name ~provides:[ Service.gm ]
    ~requires:[ Service.r_abcast; Service.fd ]
    (fun stack _self ->
      let view_id = ref 0 in
      let members = ref initial in
      let suspected = Array.make n false in
      let suspected_since = Array.make n nan in
      let proposed_exclusion : (int, unit) Hashtbl.t = Hashtbl.create 4 in
      let timers = ref [] in
      let publish () =
        Stack.set_env stack k_view_id !view_id;
        Stack.set_env stack k_members (members_to_mask !members);
        Stack.indicate stack Service.gm (View { id = !view_id; members = !members })
      in
      let propose op target =
        Stack.call stack Service.r_abcast
          (Repl_iface.R_broadcast
             { size = change_size; payload = Gm_change { op; target } })
      in
      let apply op target =
        let is_member = List.mem target !members in
        let consistent =
          match op with
          | Op_join -> not is_member
          | Op_leave | Op_exclude -> is_member
        in
        if consistent then begin
          (match op with
          | Op_join -> members := List.sort Int.compare (target :: !members)
          | Op_leave | Op_exclude ->
            members := List.filter (fun m -> m <> target) !members;
            Hashtbl.remove proposed_exclusion target);
          incr view_id;
          publish ()
        end
      in
      let check_exclusions () =
        let t = Stack.now stack in
        (* Only the smallest-id member that is not itself suspected
           proposes, to avoid a proposal storm; idempotence covers the
           rest. *)
        let proposer =
          List.find_opt (fun m -> not suspected.(m)) !members
        in
        if proposer = Some me && List.mem me !members then
          List.iter
            (fun m ->
              if
                m <> me && suspected.(m)
                && (not (Float.is_nan suspected_since.(m)))
                && t -. suspected_since.(m) >= config.exclusion_delay_ms
                && not (Hashtbl.mem proposed_exclusion m)
              then begin
                Hashtbl.replace proposed_exclusion m ();
                propose Op_exclude m
              end)
            !members
      in
      {
        on_start =
          (fun () ->
            publish ();
            timers :=
              [ Stack.periodic stack ~period:(config.exclusion_delay_ms /. 2.0) check_exclusions ]);
        on_stop = (fun () -> List.iter Dpu_runtime.Clock.cancel !timers);
        handle_call =
          (fun _svc p ->
            match p with
            | Join target -> propose Op_join target
            | Leave target -> propose Op_leave target
            | _ -> ());
        handle_indication =
          (fun svc p ->
            if Service.equal svc Service.r_abcast then
              match p with
              | Repl_iface.R_deliver { origin = _; payload = Gm_change { op; target } } ->
                apply op target
              | _ -> ()
            else if Service.equal svc Service.fd then
              match p with
              | Fd.Suspect q when q < n ->
                suspected.(q) <- true;
                suspected_since.(q) <- Stack.now stack
              | Fd.Restore q when q < n ->
                suspected.(q) <- false;
                suspected_since.(q) <- nan
              | _ -> ());
      })

let spec =
  Spec.make ~service:(Service.name Service.gm) ~roles:[ "member" ]
    ~kinds:[ Spec.kind ~role:"member" "gm.view-change" ]
    ~transitions:
      [
        Spec.t "idle" (Spec.Emit "gm.view-change") "proposed";
        Spec.t "proposed" (Spec.Recv "gm.view-change") "installed";
      ]
    ~obligations:[ Spec.Total_order ] ()
(* views ride the (replaceable) total-order broadcast underneath *)

let register ?config ?initial system =
  let n = System.n system in
  Registry.register (System.registry system) ~name:protocol_name ~provides:[ Service.gm ]
    ~requires:[ Service.r_abcast; Service.fd ] ~spec
    (fun stack -> install ?config ?initial ~n stack)
