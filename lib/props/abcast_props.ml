open Dpu_kernel
module Collector = Dpu_core.Collector

let validity collector ~correct =
  let checked = ref 0 in
  let violations =
    List.filter_map
      (fun (id, sender, _t0) ->
        if List.mem sender correct then begin
          incr checked;
          let delivered_at_sender =
            List.exists (fun (node, _) -> node = sender) (Collector.deliver_times collector id)
          in
          if delivered_at_sender then None
          else
            Some
              (Printf.sprintf "correct sender %d never Adelivered its own %s" sender
                 (Msg.id_to_string id))
        end
        else None)
      (Collector.sends collector)
  in
  Report.make ~property:"validity" ~checked:!checked violations

let uniform_agreement collector ~correct =
  let checked = ref 0 in
  let violations =
    List.concat_map
      (fun (id, _sender, _t0) ->
        let deliverers = List.map fst (Collector.deliver_times collector id) in
        if deliverers = [] then []
        else begin
          incr checked;
          List.filter_map
            (fun node ->
              if List.mem node deliverers then None
              else
                Some
                  (Printf.sprintf "%s delivered somewhere but not at correct node %d"
                     (Msg.id_to_string id) node))
            correct
        end)
      (Collector.sends collector)
  in
  Report.make ~property:"uniform agreement" ~checked:!checked violations

let uniform_integrity collector =
  let sent : (Msg.id, unit) Hashtbl.t = Hashtbl.create 1024 in
  List.iter (fun (id, _, _) -> Hashtbl.replace sent id ()) (Collector.sends collector);
  let checked = ref 0 in
  let violations = ref [] in
  List.iter
    (fun node ->
      let seen : (Msg.id, unit) Hashtbl.t = Hashtbl.create 1024 in
      List.iter
        (fun (id, _time) ->
          incr checked;
          if Hashtbl.mem seen id then
            violations :=
              Printf.sprintf "node %d Adelivered %s twice" node (Msg.id_to_string id)
              :: !violations
          else Hashtbl.replace seen id ();
          if not (Hashtbl.mem sent id) then
            violations :=
              Printf.sprintf "node %d Adelivered %s which was never ABcast" node
                (Msg.id_to_string id)
              :: !violations)
        (Collector.delivers_of collector ~node))
    (Collector.delivered_nodes collector);
  Report.make ~property:"uniform integrity" ~checked:!checked (List.rev !violations)

let uniform_total_order collector =
  let nodes = Collector.delivered_nodes collector in
  let position node =
    let tbl : (Msg.id, int) Hashtbl.t = Hashtbl.create 1024 in
    List.iteri
      (fun i (id, _) -> if not (Hashtbl.mem tbl id) then Hashtbl.replace tbl id i)
      (Collector.delivers_of collector ~node);
    tbl
  in
  let positions = List.map (fun n -> (n, position n)) nodes in
  let checked = ref 0 in
  let violations = ref [] in
  (* For each ordered pair (p, q): walk q's sequence; the p-positions of
     the messages q delivered must be (a) strictly increasing over the
     common subset and (b) gap-free with respect to p's sequence up to
     the point reached — i.e. if q delivered something p put at
     position i, q must have delivered everything p put before i
     (uniformity). (b) is implied by (a) plus prefix coverage; we check
     (a) directly and (b) via a coverage counter. *)
  List.iter
    (fun (p, pos_p) ->
      List.iter
        (fun (q, _) ->
          if p <> q then begin
            let last = ref (-1) in
            let common = ref 0 in
            List.iter
              (fun (id, _) ->
                match Hashtbl.find_opt pos_p id with
                | None -> ()
                | Some i ->
                  incr checked;
                  incr common;
                  if i <= !last then
                    violations :=
                      Printf.sprintf
                        "nodes %d and %d disagree on the order of %s (p-pos %d after %d)"
                        p q (Msg.id_to_string id) i !last
                      :: !violations
                  else last := i)
              (Collector.delivers_of collector ~node:q);
            (* (b): q's common subset must be a prefix of p's sequence
               up to the furthest p-position reached. *)
            if !last + 1 > !common then
              violations :=
                Printf.sprintf
                  "node %d delivered a message node %d ordered at position %d but skipped %d earlier ones"
                  q p !last (!last + 1 - !common)
                :: !violations
          end)
        positions)
    positions;
  Report.make ~property:"uniform total order" ~checked:!checked (List.rev !violations)

let check_all collector ~correct =
  [
    validity collector ~correct;
    uniform_agreement collector ~correct;
    uniform_integrity collector;
    uniform_total_order collector;
  ]
