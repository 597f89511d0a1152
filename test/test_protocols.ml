(* Tests for the group-communication protocols: UDP interface, reliable
   point-to-point, failure detector, reliable broadcast, Chandra-Toueg
   consensus, the three ABcast variants and group membership. *)

open Dpu_kernel
module P = Dpu_protocols
module Sim = Dpu_engine.Sim
module Clock = Dpu_runtime.Clock
module Latency = Dpu_net.Latency
module Schedule = Dpu_faults.Schedule

let check = Alcotest.check
let fail = Alcotest.fail

type Payload.t += Blob of string

(* A system with the basic substrate registered; nothing instantiated. *)
let make_system ?(n = 3) ?(seed = 1) ?(loss = 0.0) ?(dup = 0.0) ?link ?faults () =
  let link = match link with Some l -> l | None -> Latency.lan in
  let system = System.create ~seed ~loss ~dup ~link ?faults ~n () in
  P.Udp.register system;
  P.Rp2p.register system;
  P.Fd.register system;
  P.Rbcast.register system;
  P.Consensus_ct.register system;
  system

let ensure_all system svc =
  System.iter_stacks system (fun stack ->
      Registry.ensure_bound (System.registry system) stack svc)

(* Listen for indications of [svc] at [node]; returns the log. *)
let listen system ~node ~svc f =
  let stack = System.stack system node in
  ignore
    (Stack.add_module stack ~name:"listener" ~provides:[] ~requires:[ svc ]
       (fun _ _ ->
         { Stack.default_handlers with
           handle_indication = (fun s p -> if Service.equal s svc then f p) }))

(* ------------------------------------------------------------------ *)
(* UDP module                                                         *)
(* ------------------------------------------------------------------ *)

let test_udp_roundtrip () =
  let system = make_system () in
  ensure_all system Service.net;
  let got = ref [] in
  listen system ~node:1 ~svc:Service.net (fun p ->
      match p with
      | P.Udp.Recv { src; payload = Blob s } -> got := (src, s) :: !got
      | _ -> ());
  Stack.call (System.stack system 0) Service.net
    (P.Udp.Send { dst = 1; size = 64; payload = Blob "hi" });
  System.run_for system 50.0;
  check Alcotest.bool "received" true (!got = [ (0, "hi") ])

let test_udp_crashed_stack_silent () =
  let system = make_system () in
  ensure_all system Service.net;
  let got = ref 0 in
  listen system ~node:1 ~svc:Service.net (fun _ -> incr got);
  Stack.crash (System.stack system 1);
  Stack.call (System.stack system 0) Service.net
    (P.Udp.Send { dst = 1; size = 64; payload = Blob "hi" });
  System.run_for system 50.0;
  check Alcotest.int "nothing" 0 !got

(* ------------------------------------------------------------------ *)
(* RP2P                                                               *)
(* ------------------------------------------------------------------ *)

let rp2p_recv_log system node =
  let got = ref [] in
  listen system ~node ~svc:Service.rp2p (fun p ->
      match p with
      | P.Rp2p.Recv { src; payload = Blob s } -> got := (src, s) :: !got
      | _ -> ());
  got

let test_rp2p_reliable_under_loss () =
  let system = make_system ~loss:0.3 ~seed:5 () in
  ensure_all system Service.rp2p;
  let got = rp2p_recv_log system 1 in
  for i = 1 to 50 do
    Stack.call (System.stack system 0) Service.rp2p
      (P.Rp2p.Send { dst = 1; size = 64; payload = Blob (string_of_int i) })
  done;
  System.run_until_quiescent ~limit:20_000.0 system;
  check Alcotest.int "all delivered" 50 (List.length !got);
  let uniq = List.sort_uniq compare !got in
  check Alcotest.int "exactly once" 50 (List.length uniq);
  let stats = P.Rp2p.stats (System.stack system 0) in
  check Alcotest.bool "retransmissions happened" true (stats.P.Rp2p.retransmissions > 0)

let test_rp2p_dedup_under_duplication () =
  let system = make_system ~dup:0.5 ~seed:6 () in
  ensure_all system Service.rp2p;
  let got = rp2p_recv_log system 1 in
  for i = 1 to 30 do
    Stack.call (System.stack system 0) Service.rp2p
      (P.Rp2p.Send { dst = 1; size = 64; payload = Blob (string_of_int i) })
  done;
  System.run_until_quiescent ~limit:30_000.0 system;
  check Alcotest.int "exactly once despite dups" 30 (List.length !got)

let test_rp2p_gives_up_on_crashed_dst () =
  let system = make_system () in
  ensure_all system Service.rp2p;
  System.crash_node system 1;
  Stack.call (System.stack system 0) Service.rp2p
    (P.Rp2p.Send { dst = 1; size = 64; payload = Blob "x" });
  System.run_until_quiescent ~limit:3_000_000.0 system;
  let stats = P.Rp2p.stats (System.stack system 0) in
  check Alcotest.int "gave up" 1 stats.P.Rp2p.gave_up

let test_rp2p_self_send () =
  let system = make_system () in
  ensure_all system Service.rp2p;
  let got = rp2p_recv_log system 0 in
  Stack.call (System.stack system 0) Service.rp2p
    (P.Rp2p.Send { dst = 0; size = 64; payload = Blob "self" });
  System.run_for system 100.0;
  check Alcotest.bool "self delivery" true (!got = [ (0, "self") ])

let test_rp2p_stats_accepted () =
  let system = make_system () in
  ensure_all system Service.rp2p;
  ignore (rp2p_recv_log system 1);
  for _ = 1 to 5 do
    Stack.call (System.stack system 0) Service.rp2p
      (P.Rp2p.Send { dst = 1; size = 64; payload = Blob "x" })
  done;
  System.run_until_quiescent ~limit:10_000.0 system;
  let s0 = P.Rp2p.stats (System.stack system 0) in
  let s1 = P.Rp2p.stats (System.stack system 1) in
  check Alcotest.int "accepted" 5 s0.P.Rp2p.accepted;
  check Alcotest.int "delivered" 5 s1.P.Rp2p.delivered

let count_retrans_after_warmup ~adaptive () =
  (* A 25 ms link with a 10 ms initial timeout: every early datagram
     retransmits. The adaptive estimator must converge and stop; the
     fixed one keeps retransmitting every message forever. *)
  let sim_link = Latency.constant 25.0 in
  let system = System.create ~seed:8 ~link:sim_link ~n:2 () in
  P.Udp.register system;
  P.Rp2p.register
    ~config:{ P.Rp2p.default_config with adaptive; max_rto_ms = 500.0 }
    system;
  ensure_all system Service.rp2p;
  ignore (rp2p_recv_log system 1);
  (* Warm-up batch. *)
  for i = 1 to 10 do
    Stack.call (System.stack system 0) Service.rp2p
      (P.Rp2p.Send { dst = 1; size = 64; payload = Blob (string_of_int i) })
  done;
  System.run_for system 5_000.0;
  let before = (P.Rp2p.stats (System.stack system 0)).P.Rp2p.retransmissions in
  (* Steady state: 30 more messages, spaced out. *)
  for i = 11 to 40 do
    ignore
      (Clock.defer (System.clock system) ~delay:(float_of_int i *. 60.0) (fun () ->
           Stack.call (System.stack system 0) Service.rp2p
             (P.Rp2p.Send { dst = 1; size = 64; payload = Blob (string_of_int i) })))
  done;
  System.run_until_quiescent ~limit:30_000.0 system;
  let after = (P.Rp2p.stats (System.stack system 0)).P.Rp2p.retransmissions in
  after - before

let test_rp2p_adaptive_rto_converges () =
  let adaptive = count_retrans_after_warmup ~adaptive:true () in
  let fixed = count_retrans_after_warmup ~adaptive:false () in
  check Alcotest.int "adaptive: no steady-state retransmissions" 0 adaptive;
  check Alcotest.bool
    (Printf.sprintf "fixed keeps retransmitting (%d)" fixed)
    true (fixed >= 30)

let test_rp2p_storm_backoff_resets_on_sample () =
  (* After a retransmission episode the timeout is inflated; a clean
     exchange brings it back (storm_backoff resets on a fresh sample).
     Observable effect: later messages on a fast link are not delayed
     by the earlier episode. *)
  (* Episode: partition so the first message retransmits a few times. *)
  let system =
    System.create ~seed:8 ~n:2
      ~faults:[ Schedule.partition ~at:0.0 [ [ 0 ]; [ 1 ] ]; Schedule.heal ~at:300.0 ]
      ()
  in
  P.Udp.register system;
  P.Rp2p.register system;
  ensure_all system Service.rp2p;
  let got = rp2p_recv_log system 1 in
  Stack.call (System.stack system 0) Service.rp2p
    (P.Rp2p.Send { dst = 1; size = 64; payload = Blob "stormy" });
  System.run_for system 2_300.0;
  check Alcotest.int "first delivered after heal" 1 (List.length !got);
  (* Clean phase: send and measure delivery promptness. *)
  let t0 = Clock.now (System.clock system) in
  Stack.call (System.stack system 0) Service.rp2p
    (P.Rp2p.Send { dst = 1; size = 64; payload = Blob "clean" });
  System.run_for system 1_000.0;
  check Alcotest.int "second delivered" 2 (List.length !got);
  ignore t0

(* ------------------------------------------------------------------ *)
(* Failure detector                                                   *)
(* ------------------------------------------------------------------ *)

let fd_events system node =
  let log = ref [] in
  listen system ~node ~svc:Service.fd (fun p ->
      match p with
      | P.Fd.Suspect q -> log := `Suspect q :: !log
      | P.Fd.Restore q -> log := `Restore q :: !log
      | _ -> ());
  log

let test_fd_no_false_suspicion_when_alive () =
  let system = make_system () in
  ensure_all system Service.fd;
  let log = fd_events system 0 in
  System.run_for system 2_000.0;
  check Alcotest.int "quiet" 0 (List.length !log)

let test_fd_detects_crash () =
  let system = make_system () in
  ensure_all system Service.fd;
  let log = fd_events system 0 in
  System.crash_node system 2;
  System.run_for system 2_000.0;
  check Alcotest.bool "suspected 2" true (List.mem (`Suspect 2) !log);
  check Alcotest.bool "not 1" false (List.mem (`Suspect 1) !log);
  check (Alcotest.list Alcotest.int) "env view" [ 2 ]
    (P.Fd.suspects (System.stack system 0))

let test_fd_restore_after_partition_heals () =
  let system =
    make_system
      ~faults:[ Schedule.partition ~at:0.0 [ [ 0 ]; [ 1; 2 ] ]; Schedule.heal ~at:1_000.0 ]
      ()
  in
  ensure_all system Service.fd;
  let log = fd_events system 0 in
  System.run_for system 1_000.0;
  check Alcotest.bool "suspects during partition" true (List.mem (`Suspect 1) !log);
  System.run_for system 1_000.0;
  check Alcotest.bool "restored" true (List.mem (`Restore 1) !log);
  check (Alcotest.list Alcotest.int) "no suspects" [] (P.Fd.suspects (System.stack system 0))

let test_fd_adaptive_timeout () =
  (* After a false suspicion the per-node timeout grows, so a second
     partition of the same length does not trigger a second suspicion. *)
  let config = { P.Fd.period_ms = 20.0; timeout_ms = 100.0; timeout_increment_ms = 400.0 } in
  let cut = [ [ 0 ]; [ 1 ] ] in
  let system =
    System.create ~n:2
      ~faults:
        [
          Schedule.partition ~at:0.0 cut;
          Schedule.heal ~at:300.0;
          Schedule.partition ~at:800.0 cut;
          Schedule.heal ~at:1_100.0;
        ]
      ()
  in
  P.Udp.register system;
  System.iter_stacks system (fun stack ->
      Registry.ensure_bound (System.registry system) stack Service.net;
      ignore (P.Fd.install ~config ~n:2 stack));
  let log = fd_events system 0 in
  System.run_for system 800.0;
  let suspicions = List.length (List.filter (fun e -> e = `Suspect 1) !log) in
  check Alcotest.int "first suspicion" 1 suspicions;
  (* Second, equally long partition: timeout is now 500 ms, so 300 ms of
     silence must pass unnoticed. *)
  System.run_for system 800.0;
  let suspicions' = List.length (List.filter (fun e -> e = `Suspect 1) !log) in
  check Alcotest.int "no second suspicion" 1 suspicions'

(* ------------------------------------------------------------------ *)
(* Reliable broadcast                                                 *)
(* ------------------------------------------------------------------ *)

let test_rbcast_all_deliver () =
  let system = make_system ~n:4 () in
  ensure_all system P.Rbcast.service;
  let logs =
    List.init 4 (fun node ->
        let log = ref [] in
        listen system ~node ~svc:P.Rbcast.service (fun p ->
            match p with
            | P.Rbcast.Deliver { origin; payload = Blob s } -> log := (origin, s) :: !log
            | _ -> ());
        log)
  in
  Stack.call (System.stack system 2) P.Rbcast.service
    (P.Rbcast.Bcast { size = 64; payload = Blob "m" });
  System.run_until_quiescent ~limit:10_000.0 system;
  List.iter
    (fun log -> check Alcotest.bool "delivered everywhere" true (!log = [ (2, "m") ]))
    logs

let test_rbcast_dedup () =
  let system = make_system ~n:3 ~dup:0.5 ~seed:3 () in
  ensure_all system P.Rbcast.service;
  let count = ref 0 in
  listen system ~node:1 ~svc:P.Rbcast.service (fun p ->
      match p with P.Rbcast.Deliver _ -> incr count | _ -> ());
  for _ = 1 to 20 do
    Stack.call (System.stack system 0) P.Rbcast.service
      (P.Rbcast.Bcast { size = 64; payload = Blob "x" })
  done;
  System.run_until_quiescent ~limit:30_000.0 system;
  check Alcotest.int "once each" 20 !count

let test_rbcast_no_relay_still_delivers () =
  let system = System.create ~n:3 () in
  P.Udp.register system;
  P.Rp2p.register system;
  P.Rbcast.register ~relay:false system;
  ensure_all system P.Rbcast.service;
  let count = ref 0 in
  listen system ~node:2 ~svc:P.Rbcast.service (fun p ->
      match p with P.Rbcast.Deliver _ -> incr count | _ -> ());
  Stack.call (System.stack system 0) P.Rbcast.service
    (P.Rbcast.Bcast { size = 64; payload = Blob "x" });
  System.run_until_quiescent ~limit:10_000.0 system;
  check Alcotest.int "delivered without relay" 1 !count

let relay_agreement_scenario ~relay =
  (* Why forward-on-first-receipt matters (uniform agreement when the
     sender dies mid-broadcast): node 0's datagrams to node 2 are
     held back far beyond the run (a slow@ window that never closes),
     then node 0 crashes. Its broadcast reached only node 1 first-hand.
     With relaying node 1 forwards it to node 2; without, node 2 never
     sees it. *)
  let system =
    System.create ~seed:5 ~n:3
      ~faults:
        [
          Schedule.degrade_link ~src:0 ~dst:2 ~link:(Latency.constant 1e9) ~from_:0.0
            ~until:infinity;
        ]
      ()
  in
  P.Udp.register system;
  P.Rp2p.register
    ~config:{ P.Rp2p.default_config with max_retries = 3 }
    system;
  P.Rbcast.register ~relay system;
  ensure_all system P.Rbcast.service;
  let delivered = Array.make 3 false in
  List.iter
    (fun node ->
      listen system ~node ~svc:P.Rbcast.service (fun p ->
          match p with P.Rbcast.Deliver _ -> delivered.(node) <- true | _ -> ()))
    [ 1; 2 ];
  Stack.call (System.stack system 0) P.Rbcast.service
    (P.Rbcast.Bcast { size = 64; payload = Blob "m" });
  ignore
    (Clock.defer (System.clock system) ~delay:5.0 (fun () -> System.crash_node system 0));
  System.run_until_quiescent ~limit:30_000.0 system;
  (delivered.(1), delivered.(2))

let test_rbcast_relay_gives_agreement () =
  let d1, d2 = relay_agreement_scenario ~relay:true in
  check Alcotest.bool "node 1 delivered" true d1;
  check Alcotest.bool "node 2 delivered via relay" true d2

let test_rbcast_no_relay_breaks_agreement () =
  (* The negative control: without relaying, the crash + targeted loss
     leaves the correct nodes disagreeing — demonstrating that the
     relay is what buys uniform agreement. *)
  let d1, d2 = relay_agreement_scenario ~relay:false in
  check Alcotest.bool "node 1 delivered" true d1;
  check Alcotest.bool "node 2 left out" false d2

(* ------------------------------------------------------------------ *)
(* Chandra-Toueg consensus                                            *)
(* ------------------------------------------------------------------ *)

let decisions_log system =
  List.init (System.n system) (fun node ->
      let log = ref [] in
      listen system ~node ~svc:Service.consensus (fun p ->
          match p with
          | P.Consensus_iface.Decide { iid; value = Blob s } -> log := (iid, s) :: !log
          | P.Consensus_iface.Decide { iid; value = P.Consensus_iface.No_value } ->
            log := (iid, "<none>") :: !log
          | _ -> ());
      log)

let propose system ~node ~iid value =
  Stack.call (System.stack system node) Service.consensus
    (P.Consensus_iface.Propose { iid; value = Blob value; weight = String.length value })

let test_consensus_basic_agreement () =
  let system = make_system ~n:3 () in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  let iid = { P.Consensus_iface.epoch = 0; k = 0 } in
  propose system ~node:0 ~iid "a";
  propose system ~node:1 ~iid "b";
  propose system ~node:2 ~iid "c";
  System.run_until_quiescent ~limit:30_000.0 system;
  let decided = List.map (fun log -> List.assoc iid !log) logs in
  (match decided with
  | v :: rest ->
    check Alcotest.bool "validity" true (List.mem v [ "a"; "b"; "c" ]);
    List.iter (fun v' -> check Alcotest.string "agreement" v v') rest
  | [] -> fail "no decisions");
  check Alcotest.bool "decided counter" true
    (P.Consensus_ct.decided_count (System.stack system 0) >= 1)

let test_consensus_single_proposer () =
  let system = make_system ~n:5 () in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  let iid = { P.Consensus_iface.epoch = 0; k = 0 } in
  propose system ~node:3 ~iid "only";
  System.run_until_quiescent ~limit:30_000.0 system;
  List.iter
    (fun log -> check Alcotest.string "all decide the only value" "only" (List.assoc iid !log))
    logs

let test_consensus_multi_instance () =
  let system = make_system ~n:3 () in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  for k = 0 to 9 do
    propose system ~node:(k mod 3) ~iid:{ P.Consensus_iface.epoch = 0; k } (string_of_int k)
  done;
  System.run_until_quiescent ~limit:20_000.0 system;
  List.iter
    (fun log ->
      for k = 0 to 9 do
        check Alcotest.string "instance decided" (string_of_int k)
          (List.assoc { P.Consensus_iface.epoch = 0; k } !log)
      done)
    logs

let test_consensus_epoch_separation () =
  let system = make_system ~n:3 () in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  propose system ~node:0 ~iid:{ P.Consensus_iface.epoch = 0; k = 0 } "old";
  propose system ~node:1 ~iid:{ P.Consensus_iface.epoch = 1; k = 0 } "new";
  System.run_until_quiescent ~limit:30_000.0 system;
  List.iter
    (fun log ->
      check Alcotest.string "epoch 0" "old" (List.assoc { P.Consensus_iface.epoch = 0; k = 0 } !log);
      check Alcotest.string "epoch 1" "new" (List.assoc { P.Consensus_iface.epoch = 1; k = 0 } !log))
    logs

let test_consensus_coordinator_crash () =
  (* Round-0 coordinator of instance 0 is node 0; crash it before it can
     coordinate. The failure detector drives rounds forward. *)
  let system = make_system ~n:5 ~seed:2 () in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  System.crash_node system 0;
  let iid = { P.Consensus_iface.epoch = 0; k = 0 } in
  propose system ~node:1 ~iid "survivor";
  System.run_until_quiescent ~limit:30_000.0 system;
  List.iteri
    (fun node log ->
      if node <> 0 then
        check Alcotest.string "decided despite coordinator crash" "survivor"
          (List.assoc iid !log))
    logs

let test_consensus_crash_seeds_agree () =
  (* Multi-seed: a random minority crash must never break agreement. *)
  for seed = 1 to 8 do
    let system = make_system ~n:5 ~seed () in
    ensure_all system Service.consensus;
    let logs = decisions_log system in
    let victim = seed mod 5 in
    let iid = { P.Consensus_iface.epoch = 0; k = 0 } in
    propose system ~node:((victim + 1) mod 5) ~iid "v";
    ignore
      (Clock.defer (System.clock system) ~delay:(float_of_int (seed * 3)) (fun () ->
           System.crash_node system victim));
    System.run_until_quiescent ~limit:30_000.0 system;
    let decided =
      List.filteri (fun node _ -> node <> victim) logs
      |> List.map (fun log -> List.assoc_opt iid !log)
    in
    List.iter
      (fun d ->
        match d with
        | Some v -> check Alcotest.string "agreement under crash" "v" v
        | None -> fail (Printf.sprintf "correct node undecided (seed %d)" seed))
      decided
  done

let test_consensus_partition_heal () =
  (* A minority partition stalls nothing (majority decides); the healed
     minority node catches up via the decide relay / late-participant
     short-circuit. *)
  let system =
    make_system ~n:5 ~seed:6
      ~faults:
        [ Schedule.partition ~at:0.0 [ [ 0; 1; 2; 3 ]; [ 4 ] ]; Schedule.heal ~at:2_000.0 ]
      ()
  in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  let iid = { P.Consensus_iface.epoch = 0; k = 0 } in
  propose system ~node:1 ~iid "majority";
  System.run_for system 2_000.0;
  List.iteri
    (fun node log ->
      if node <> 4 then
        check Alcotest.string "majority side decided" "majority" (List.assoc iid !log))
    logs;
  System.run_until_quiescent ~limit:30_000.0 system;
  check Alcotest.string "healed node caught up" "majority"
    (List.assoc iid !(List.nth logs 4))

let test_consensus_minority_side_cannot_decide () =
  (* Safety under partition: the 2-node side of a 5-node system must
     not decide anything on its own. *)
  let system =
    make_system ~n:5 ~seed:7
      ~faults:
        [ Schedule.partition ~at:0.0 [ [ 0; 1; 2 ]; [ 3; 4 ] ]; Schedule.heal ~at:3_000.0 ]
      ()
  in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  let iid = { P.Consensus_iface.epoch = 0; k = 0 } in
  propose system ~node:3 ~iid "minority-value";
  System.run_for system 3_000.0;
  check Alcotest.bool "node 3 undecided" true (List.assoc_opt iid !(List.nth logs 3) = None);
  check Alcotest.bool "node 4 undecided" true (List.assoc_opt iid !(List.nth logs 4) = None);
  (* After healing everyone decides the same thing. (It may decide
     "<none>": the majority participants joined via wakeups with
     No_value estimates, and an all-empty quorum legitimately decides
     empty — the consensus-based ABcast simply re-proposes in the next
     instance. What is forbidden is disagreement.) *)
  System.run_until_quiescent ~limit:60_000.0 system;
  let decisions = List.map (fun log -> List.assoc iid !log) logs in
  (match decisions with
  | first :: rest ->
    check Alcotest.bool "a decision was reached" true (first <> "");
    List.iter (fun d -> check Alcotest.string "healed agreement" first d) rest
  | [] -> fail "no logs")

let test_consensus_propose_after_decided_reindicates () =
  let system = make_system ~n:3 () in
  ensure_all system Service.consensus;
  let logs = decisions_log system in
  let iid = { P.Consensus_iface.epoch = 0; k = 0 } in
  propose system ~node:0 ~iid "first";
  System.run_for system 10_000.0;
  propose system ~node:0 ~iid "late";
  System.run_for system 10_000.0;
  let node0 = List.filter (fun (i, _) -> i = iid) !(List.nth logs 0) in
  check Alcotest.bool "re-indicated" true (List.length node0 >= 2);
  List.iter (fun (_, v) -> check Alcotest.string "same decision" "first" v) node0

(* ------------------------------------------------------------------ *)
(* ABcast variants                                                    *)
(* ------------------------------------------------------------------ *)

(* Build a system with a given abcast variant bound on every stack. *)
let make_abcast_system ?(n = 3) ?(seed = 1) ?(loss = 0.0) variant =
  let system = make_system ~n ~seed ~loss () in
  P.Abcast_ct.register system;
  P.Abcast_seq.register system;
  P.Abcast_token.register system;
  System.iter_stacks system (fun stack ->
      ignore (Registry.instantiate (System.registry system) stack ~name:variant));
  system

let abcast_logs system =
  List.init (System.n system) (fun node ->
      let log = ref [] in
      listen system ~node ~svc:Service.abcast (fun p ->
          match p with
          | P.Abcast_iface.Deliver { origin = _; payload = Blob s } -> log := s :: !log
          | _ -> ());
      log)

let abcast system ~node s =
  Stack.call (System.stack system node) Service.abcast
    (P.Abcast_iface.Broadcast { size = 256; payload = Blob s })

let run_abcast_scenario ?(n = 3) ?(seed = 1) ?(loss = 0.0) ~msgs variant =
  let system = make_abcast_system ~n ~seed ~loss variant in
  let logs = abcast_logs system in
  for i = 0 to msgs - 1 do
    let node = i mod n in
    ignore
      (Clock.defer (System.clock system) ~delay:(float_of_int i *. 3.0) (fun () ->
           abcast system ~node (Printf.sprintf "%d:%d" node i)))
  done;
  System.run_until_quiescent ~limit:30_000.0 system;
  (system, List.map (fun log -> List.rev !log) logs)

let check_abcast_properties ~msgs sequences =
  match sequences with
  | [] -> fail "no sequences"
  | first :: rest ->
    check Alcotest.int "all messages delivered" msgs (List.length first);
    check Alcotest.int "no duplicates" msgs (List.length (List.sort_uniq compare first));
    List.iter
      (fun seq -> check (Alcotest.list Alcotest.string) "identical total order" first seq)
      rest

let test_abcast_properties variant () =
  let _system, sequences = run_abcast_scenario ~msgs:30 variant in
  check_abcast_properties ~msgs:30 sequences

let test_abcast_under_loss variant () =
  let _system, sequences = run_abcast_scenario ~seed:4 ~loss:0.1 ~msgs:20 variant in
  check_abcast_properties ~msgs:20 sequences

let test_abcast_n7 variant () =
  let _system, sequences = run_abcast_scenario ~n:7 ~msgs:21 variant in
  check_abcast_properties ~msgs:21 sequences

let test_abcast_under_duplication variant () =
  (* Heavy datagram duplication: dedup layers at every level must hold. *)
  let system = System.create ~seed:21 ~dup:0.4 ~n:3 () in
  P.Udp.register system;
  P.Rp2p.register system;
  P.Fd.register system;
  P.Rbcast.register system;
  P.Consensus_ct.register system;
  P.Abcast_ct.register system;
  P.Abcast_seq.register system;
  P.Abcast_token.register system;
  System.iter_stacks system (fun stack ->
      ignore (Registry.instantiate (System.registry system) stack ~name:variant));
  let logs = abcast_logs system in
  for i = 0 to 14 do
    ignore
      (Clock.defer (System.clock system) ~delay:(float_of_int i *. 6.0) (fun () ->
           abcast system ~node:(i mod 3) (string_of_int i)))
  done;
  System.run_until_quiescent ~limit:30_000.0 system;
  check_abcast_properties ~msgs:15 (List.map (fun l -> List.rev !l) logs)

let prop_abcast_total_order variant =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: total order for random workloads" variant)
    ~count:10
    QCheck.(pair (int_range 1 25) (int_range 1 1000))
    (fun (msgs, seed) ->
      let _system, sequences = run_abcast_scenario ~seed ~msgs variant in
      match sequences with
      | first :: rest ->
        List.length first = msgs && List.for_all (fun s -> s = first) rest
      | [] -> false)

let test_abcast_ct_batching () =
  (* With batching enabled, many concurrent messages need far fewer
     consensus instances. *)
  let count_instances batch_size =
    let system = make_system ~n:3 () in
    P.Abcast_ct.register ~batch_size system;
    System.iter_stacks system (fun stack ->
        ignore
          (Registry.instantiate (System.registry system) stack ~name:P.Abcast_ct.protocol_name));
    let logs = abcast_logs system in
    for i = 0 to 19 do
      abcast system ~node:(i mod 3) (string_of_int i)
    done;
    System.run_until_quiescent ~limit:30_000.0 system;
    check Alcotest.int "all delivered" 20 (List.length !(List.nth logs 0));
    P.Consensus_ct.decided_count (System.stack system 0)
  in
  let unbatched = count_instances 1 in
  let batched = count_instances 8 in
  check Alcotest.bool
    (Printf.sprintf "batched (%d) uses fewer instances than unbatched (%d)" batched unbatched)
    true
    (batched < unbatched)

let test_abcast_token_holder_crash () =
  (* Crash a node while traffic flows; the ring skips it after suspicion
     and the token is regenerated if lost. *)
  let system = make_abcast_system ~n:4 ~seed:9 P.Abcast_token.protocol_name in
  let logs = abcast_logs system in
  for i = 0 to 11 do
    let node = i mod 3 in
    (* only nodes 0-2 send; 3 will crash *)
    ignore
      (Clock.defer (System.clock system) ~delay:(float_of_int i *. 10.0) (fun () ->
           abcast system ~node (string_of_int i)))
  done;
  ignore
    (Clock.defer (System.clock system) ~delay:35.0 (fun () -> System.crash_node system 3));
  System.run_until_quiescent ~limit:30_000.0 system;
  let sequences = List.filteri (fun i _ -> i <> 3) logs in
  match List.map (fun l -> List.rev !l) sequences with
  | first :: rest ->
    check Alcotest.int "survivors deliver everything" 12 (List.length first);
    List.iter (fun s -> check (Alcotest.list Alcotest.string) "order" first s) rest
  | [] -> fail "no logs"

(* ------------------------------------------------------------------ *)
(* Group membership                                                   *)
(* ------------------------------------------------------------------ *)

let make_gm_system ?(n = 3) ?(seed = 1) ?gm_config () =
  let system = make_system ~n ~seed () in
  P.Abcast_ct.register system;
  Dpu_core.Repl.register system;
  P.Gm.register ?config:gm_config system;
  System.iter_stacks system (fun stack ->
      ignore
        (Registry.instantiate (System.registry system) stack ~name:P.Abcast_ct.protocol_name);
      Registry.ensure_bound (System.registry system) stack Service.gm);
  system

let view_logs system =
  List.init (System.n system) (fun node ->
      let log = ref [] in
      listen system ~node ~svc:Service.gm (fun p ->
          match p with
          | P.Gm.View v -> log := v :: !log
          | _ -> ());
      log)

let test_gm_initial_view () =
  let system = make_gm_system () in
  System.run_for system 100.0;
  match P.Gm.current_view (System.stack system 0) with
  | Some v ->
    check Alcotest.int "view 0" 0 v.P.Gm.id;
    check (Alcotest.list Alcotest.int) "all members" [ 0; 1; 2 ] v.P.Gm.members
  | None -> fail "no view"

let test_gm_leave_join () =
  let system = make_gm_system () in
  let logs = view_logs system in
  Stack.call (System.stack system 0) Service.gm (P.Gm.Leave 2);
  System.run_for system 10_000.0;
  Stack.call (System.stack system 1) Service.gm (P.Gm.Join 2);
  System.run_for system 10_000.0;
  List.iter
    (fun log ->
      (* Initial view publication plus the two changes. *)
      let views = List.rev_map (fun v -> v.P.Gm.members) !log in
      check
        (Alcotest.list (Alcotest.list Alcotest.int))
        "same view sequence"
        [ [ 0; 1; 2 ]; [ 0; 1 ]; [ 0; 1; 2 ] ]
        views)
    logs;
  match P.Gm.current_view (System.stack system 0) with
  | Some v -> check Alcotest.int "two changes" 2 v.P.Gm.id
  | None -> fail "no view"

let test_gm_duplicate_proposal_idempotent () =
  let system = make_gm_system () in
  Stack.call (System.stack system 0) Service.gm (P.Gm.Leave 2);
  Stack.call (System.stack system 1) Service.gm (P.Gm.Leave 2);
  System.run_until_quiescent ~limit:20_000.0 system;
  match P.Gm.current_view (System.stack system 0) with
  | Some v ->
    check Alcotest.int "applied once" 1 v.P.Gm.id;
    check (Alcotest.list Alcotest.int) "members" [ 0; 1 ] v.P.Gm.members
  | None -> fail "no view"

let test_gm_excludes_crashed_member () =
  let system =
    make_gm_system ~n:4 ~gm_config:{ P.Gm.exclusion_delay_ms = 150.0 } ()
  in
  System.crash_node system 3;
  System.run_until_quiescent ~limit:30_000.0 system;
  List.iter
    (fun node ->
      match P.Gm.current_view (System.stack system node) with
      | Some v ->
        check (Alcotest.list Alcotest.int) "crashed member excluded" [ 0; 1; 2 ]
          v.P.Gm.members
      | None -> fail "no view")
    [ 0; 1; 2 ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let variant_tests name variant =
    [
      tc (name ^ ": validity/integrity/total order") (test_abcast_properties variant);
      tc (name ^ ": under loss") (test_abcast_under_loss variant);
      tc (name ^ ": under duplication") (test_abcast_under_duplication variant);
      tc (name ^ ": n=7") (test_abcast_n7 variant);
    ]
  in
  Alcotest.run "protocols"
    [
      ( "udp",
        [ tc "roundtrip" test_udp_roundtrip; tc "crashed stack" test_udp_crashed_stack_silent ] );
      ( "rp2p",
        [
          tc "reliable under loss" test_rp2p_reliable_under_loss;
          tc "dedup" test_rp2p_dedup_under_duplication;
          tc "gives up on crashed" test_rp2p_gives_up_on_crashed_dst;
          tc "self send" test_rp2p_self_send;
          tc "stats" test_rp2p_stats_accepted;
          tc "adaptive RTO converges" test_rp2p_adaptive_rto_converges;
          tc "storm backoff resets" test_rp2p_storm_backoff_resets_on_sample;
        ] );
      ( "fd",
        [
          tc "no false suspicion" test_fd_no_false_suspicion_when_alive;
          tc "detects crash" test_fd_detects_crash;
          tc "restores" test_fd_restore_after_partition_heals;
          tc "adaptive timeout" test_fd_adaptive_timeout;
        ] );
      ( "rbcast",
        [
          tc "all deliver" test_rbcast_all_deliver;
          tc "dedup" test_rbcast_dedup;
          tc "no relay" test_rbcast_no_relay_still_delivers;
          tc "relay gives agreement on sender crash" test_rbcast_relay_gives_agreement;
          tc "no relay breaks it (negative control)" test_rbcast_no_relay_breaks_agreement;
        ] );
      ( "consensus",
        [
          tc "agreement" test_consensus_basic_agreement;
          tc "single proposer" test_consensus_single_proposer;
          tc "multi instance" test_consensus_multi_instance;
          tc "epoch separation" test_consensus_epoch_separation;
          tc "coordinator crash" test_consensus_coordinator_crash;
          tc "crash seeds agree" test_consensus_crash_seeds_agree;
          tc "re-indication" test_consensus_propose_after_decided_reindicates;
          tc "partition + heal" test_consensus_partition_heal;
          tc "minority cannot decide" test_consensus_minority_side_cannot_decide;
        ] );
      ("abcast.ct", variant_tests "ct" P.Abcast_ct.protocol_name);
      ("abcast.seq", variant_tests "seq" P.Abcast_seq.protocol_name);
      ("abcast.token", variant_tests "token" P.Abcast_token.protocol_name);
      ( "abcast.special",
        [
          tc "ct batching ablation" test_abcast_ct_batching;
          tc "token node crash" test_abcast_token_holder_crash;
        ] );
      ( "gm",
        [
          tc "initial view" test_gm_initial_view;
          tc "leave/join" test_gm_leave_join;
          tc "idempotent proposals" test_gm_duplicate_proposal_idempotent;
          tc "excludes crashed" test_gm_excludes_crashed_member;
        ] );
      ( "abcast.properties",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_abcast_total_order P.Abcast_ct.protocol_name;
            prop_abcast_total_order P.Abcast_seq.protocol_name;
            prop_abcast_total_order P.Abcast_token.protocol_name;
          ] );
    ]
