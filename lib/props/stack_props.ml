open Dpu_kernel

(* The binds and adds of one protocol's modules. *)
type protocol_events = {
  mutable binds : (int * float) list;  (* (node, time), latest first *)
  adds : (int, float list ref) Hashtbl.t;  (* node -> times a module was added *)
}

(* What the properties read from a trace, gathered in one pass over it:
   the blocked calls, blocked-minus-released per (node, service), the
   crashed nodes, and the binds and adds of each protocol asked for. *)
type scan = {
  blocked : int;
  pending : (int * string, int) Hashtbl.t;
  crashed : int list;
  protocols : (string * protocol_events) list;
}

let scan trace ~protocols =
  let pending = Hashtbl.create 16 in
  let bump k d =
    Hashtbl.replace pending k (d + Option.value ~default:0 (Hashtbl.find_opt pending k))
  in
  let protocols =
    List.map
      (fun p -> (p, { binds = []; adds = Hashtbl.create 8 }))
      (List.sort_uniq String.compare protocols)
  in
  let blocked = ref 0 and crashed = ref [] in
  Trace.iter trace (fun (e : Trace.entry) ->
      match e.kind with
      | Trace.Call_blocked (svc, _) ->
        incr blocked;
        bump (e.node, svc) 1
      | Trace.Call_unblocked svc -> bump (e.node, svc) (-1)
      | Trace.Crash -> crashed := e.node :: !crashed
      | Trace.Bind (_, m) -> (
        match List.assoc_opt m protocols with
        | Some p -> p.binds <- (e.node, e.time) :: p.binds
        | None -> ())
      | Trace.Add_module m -> (
        match List.assoc_opt m protocols with
        | Some p -> (
          match Hashtbl.find_opt p.adds e.node with
          | Some l -> l := e.time :: !l
          | None -> Hashtbl.replace p.adds e.node (ref [ e.time ]))
        | None -> ())
      | Trace.Remove_module _ | Trace.Unbind _ | Trace.Call _ | Trace.Indication _
      | Trace.App _ ->
        ());
  { blocked = !blocked; pending; crashed = !crashed; protocols }

(* Weak WF holds iff every queued call was eventually released by a
   bind: blocked and released counts agree per (node, service). *)
let weak_wf s =
  let violations =
    (* dpu-lint: allow hashtbl-iter — folded violations are sorted below *)
    Hashtbl.fold
      (fun (node, svc) count acc ->
        if count > 0 && not (List.mem node s.crashed) then
          Printf.sprintf "%d call(s) to %s still blocked at node %d" count svc node :: acc
        else acc)
      s.pending []
    |> List.sort String.compare
  in
  Report.make ~property:"weak stack-well-formedness" ~checked:s.blocked violations

let weak_stack_well_formedness trace = weak_wf (scan trace ~protocols:[])

let strong_stack_well_formedness trace =
  let checked = ref 0 in
  let violations =
    Trace.fold trace ~init:[] (fun acc (e : Trace.entry) ->
        match e.kind with
        | Trace.Call (_, _) ->
          incr checked;
          acc
        | Trace.Call_blocked (svc, _) ->
          incr checked;
          Printf.sprintf "call to %s blocked at node %d (t=%.3f)" svc e.node e.time :: acc
        | Trace.Add_module _ | Trace.Remove_module _ | Trace.Bind _ | Trace.Unbind _
        | Trace.Call_unblocked _ | Trace.Indication _ | Trace.Crash | Trace.App _ ->
          acc)
    |> List.rev
  in
  Report.make ~property:"strong stack-well-formedness" ~checked:!checked violations

let weak_po s ~protocol ~nodes =
  let { binds; adds } = List.assoc protocol s.protocols and crashed = s.crashed in
  let checked = ref 0 in
  let violations =
    if binds = [] then []
    else
      List.filter_map
        (fun node ->
          if List.mem node crashed then None
          else begin
            incr checked;
            if Hashtbl.mem adds node then None
            else
              Some
                (Printf.sprintf
                   "%s was bound in some stack but never present in stack %d" protocol
                   node)
          end)
        nodes
  in
  Report.make
    ~property:(Printf.sprintf "weak protocol-operationability(%s)" protocol)
    ~checked:!checked violations

let weak_protocol_operationability trace ~protocol ~nodes =
  weak_po (scan trace ~protocols:[ protocol ]) ~protocol ~nodes

let strong_protocol_operationability trace ~protocol ~nodes =
  let s = scan trace ~protocols:[ protocol ] in
  let { binds; adds } = List.assoc protocol s.protocols and crashed = s.crashed in
  let checked = ref 0 in
  let violations =
    List.concat_map
      (fun (bind_node, bind_time) ->
        List.filter_map
          (fun node ->
            if node = bind_node || List.mem node crashed then None
            else begin
              incr checked;
              let present_at_bind_time =
                match Hashtbl.find_opt adds node with
                | None -> false
                | Some times -> List.exists (fun t -> t <= bind_time) !times
              in
              if present_at_bind_time then None
              else
                Some
                  (Printf.sprintf
                     "%s bound at node %d (t=%.3f) but not yet present at node %d"
                     protocol bind_node bind_time node)
            end)
          nodes)
      (List.rev binds)
  in
  Report.make
    ~property:(Printf.sprintf "strong protocol-operationability(%s)" protocol)
    ~checked:!checked violations

let check_generic trace ~protocols ~nodes =
  let s = scan trace ~protocols in
  weak_wf s :: List.map (fun protocol -> weak_po s ~protocol ~nodes) protocols
