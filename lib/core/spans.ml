open Dpu_kernel
module TE = Dpu_obs.Trace_event
module Json = Dpu_obs.Json

(* Lane (tid) assignment within a node's process. *)
let tid_messages = 0

let tid_kernel = 1

let timeline_pid ~n = n

let message_events collector =
  List.concat_map
    (fun (id, origin, t0) ->
      let name = Msg.id_to_string id in
      match Collector.deliver_times collector id with
      | [] ->
        [
          TE.instant ~name:("undelivered " ^ name) ~cat:"abcast" ~pid:origin
            ~tid:tid_messages ~ts_ms:t0 ();
        ]
      | deliveries ->
        List.map
          (fun (node, t1) ->
            TE.complete ~name ~cat:"abcast" ~pid:node ~tid:tid_messages ~ts_ms:t0
              ~dur_ms:(t1 -. t0)
              ~args:[ ("origin", Json.Int origin); ("send_ms", Json.Float t0) ]
              ())
          deliveries)
    (Collector.sends collector)

let switch_events collector ~n =
  let switches = Collector.switches collector in
  let instants =
    List.map
      (fun (node, generation, time) ->
        TE.instant
          ~name:(Printf.sprintf "install gen=%d" generation)
          ~cat:"dpu" ~pid:node ~tid:tid_kernel ~ts_ms:time
          ~args:[ ("generation", Json.Int generation) ]
          ())
      switches
  in
  let generations =
    List.sort_uniq Int.compare (List.map (fun (_, g, _) -> g) switches)
  in
  let windows =
    List.filter_map
      (fun generation ->
        match Collector.switch_window collector ~generation with
        | Some (lo, hi) ->
          Some
            (TE.complete
               ~name:(Printf.sprintf "replacement gen=%d" generation)
               ~cat:"dpu" ~pid:(timeline_pid ~n) ~tid:0 ~ts_ms:lo ~dur_ms:(hi -. lo)
               ~args:[ ("generation", Json.Int generation) ]
               ())
        | None -> None)
      generations
  in
  instants @ windows

(* From one pass over the kernel trace: the blocked-call spans, then
   the replacement-trigger instants. A blocked span pairs each
   [Call_blocked] with the matching [Call_unblocked] per (node,
   service); the kernel releases blocked calls of one service in FIFO
   order, so a queue per key suffices. Entries orphaned by ring-buffer
   eviction are dropped. *)
let trace_events trace =
  let open Trace in
  let pending : (int * string, float Queue.t) Hashtbl.t = Hashtbl.create 16 in
  let blocked = ref [] and triggers = ref [] in
  iter trace (fun e ->
      match e.kind with
      | Call_blocked (svc, _) ->
        let q =
          match Hashtbl.find_opt pending (e.node, svc) with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.replace pending (e.node, svc) q;
            q
        in
        Queue.add e.time q
      | Call_unblocked svc -> (
        match Hashtbl.find_opt pending (e.node, svc) with
        | Some q when not (Queue.is_empty q) ->
          let t0 = Queue.pop q in
          blocked :=
            TE.complete ~name:("blocked " ^ svc) ~cat:"kernel" ~pid:e.node
              ~tid:tid_kernel ~ts_ms:t0 ~dur_ms:(e.time -. t0) ()
            :: !blocked
        | Some _ | None -> ())
      | App (("change-abcast" | "change-consensus") as tag, data) ->
        triggers :=
          TE.instant
            ~name:(Printf.sprintf "trigger %s -> %s" tag data)
            ~cat:"dpu" ~pid:e.node ~tid:tid_kernel ~ts_ms:e.time ()
          :: !triggers
      | _ -> ());
  List.rev_append !blocked (List.rev !triggers)

let metadata ~n =
  let per_node node =
    [
      TE.process_name ~pid:node (Printf.sprintf "node %d" node);
      TE.thread_name ~pid:node ~tid:tid_messages "abcast messages";
      TE.thread_name ~pid:node ~tid:tid_kernel "kernel / dpu";
    ]
  in
  List.concat_map per_node (List.init n (fun i -> i))
  @ [
      TE.process_name ~pid:(timeline_pid ~n) "replacement timeline";
      TE.thread_name ~pid:(timeline_pid ~n) ~tid:0 "windows";
    ]

(* The replacement windows two ways: straight from the collector, and
   parsed back out of a trace-event list — the round-trip tests pin
   that a merged live trace carries exactly the windows the parent
   measured. *)
let replacement_timeline collector =
  let generations =
    List.sort_uniq Int.compare
      (List.map (fun (_, g, _) -> g) (Collector.switches collector))
  in
  List.filter_map
    (fun generation ->
      Option.map
        (fun window -> (generation, window))
        (Collector.switch_window collector ~generation))
    generations

let of_run ?trace ~n collector =
  let from_trace =
    match trace with
    | Some tr when Trace.enabled tr -> trace_events tr
    | Some _ | None -> []
  in
  metadata ~n @ message_events collector @ switch_events collector ~n @ from_trace

let to_json events = TE.to_json events
