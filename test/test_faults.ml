(* Tests for the Dpu_faults subsystem: schedule interpretation through
   System.create ~faults and the Fault_transport shim, spec parsing,
   validation, nemesis determinism, and full-harness soaks that replace
   the ABcast protocol *during* each fault class with every §5 property
   checked across the switch. *)

module Sim = Dpu_engine.Sim
module Clock = Dpu_runtime.Clock
module Rng = Dpu_engine.Rng
module Latency = Dpu_net.Latency
module Datagram = Dpu_net.Datagram
module Schedule = Dpu_faults.Schedule
module Nemesis = Dpu_faults.Nemesis
module FT = Dpu_faults.Fault_transport
module RT = Dpu_runtime.Transport
module Runtime = Dpu_runtime.Runtime
module Corpus = Dpu_workload.Corpus
module System = Dpu_kernel.System
module Run = Dpu_workload.Run
module Shard = Dpu_workload.Shard
module E = Dpu_workload.Experiment

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Schedule interpretation through System.create ~faults              *)
(* ------------------------------------------------------------------ *)

(* The one path a schedule takes into a simulated network: the shim
   that [System.create ~faults] wraps around the simulator transport.
   Raw tagged frames go through the system's transport, so every
   check sees exactly what a protocol would. *)
type Dpu_kernel.Payload.t += Tag of string

let make_system ?(n = 3) ?(loss = 0.0) ?(dup = 0.0) faults =
  let system =
    System.create ~seed:7 ~n ~loss ~dup ~link:(Latency.constant 1.0) ~faults ()
  in
  (system, System.transport system)

let system_inbox tr node =
  let log = ref [] in
  RT.set_handler tr ~node (fun ~src p ->
      match p with Tag tag -> log := (src, tag) :: !log | _ -> ());
  log

let system_send_at system tr t ~src ~dst tag =
  Clock.defer (System.clock system) ~delay:t (fun () ->
      RT.send tr ~src ~dst ~size_bytes:10 (Tag tag))

let test_crash_recover_schedule () =
  let system, tr =
    make_system [ Schedule.crash ~at:10.0 1; Schedule.recover ~at:20.0 1 ]
  in
  let inbox1 = system_inbox tr 1 in
  system_send_at system tr 5.0 ~src:0 ~dst:1 "before";
  system_send_at system tr 15.0 ~src:0 ~dst:1 "during";
  system_send_at system tr 25.0 ~src:0 ~dst:1 "after";
  System.run_until_quiescent system;
  check (Alcotest.list Alcotest.string) "silent while down, back after"
    [ "before"; "after" ] (List.rev_map snd !inbox1);
  check Alcotest.int "absorbed by the shim" 1
    (System.fault_stats system).FT.blocked_crash;
  (* A scheduled crash silences the endpoint; fail-stop is the
     harness's business, so the node still counts as correct. *)
  check (Alcotest.list Alcotest.int) "not fail-stopped" [ 0; 1; 2 ]
    (System.correct_nodes system)

let count_tag box tag = List.length (List.filter (fun (_, t) -> t = tag) !box)

let test_loss_window_schedule () =
  (* The window's loss and the link's own loss are independent trials:
     inside the window a frame survives both with 0.5 * 0.5. *)
  let system, tr =
    make_system ~loss:0.5 [ Schedule.loss_window ~p:0.5 ~from_:0.0 ~until:1_000.0 ]
  in
  let inbox1 = system_inbox tr 1 in
  for i = 0 to 399 do
    let t = float_of_int i in
    system_send_at system tr t ~src:0 ~dst:1 "inside";
    system_send_at system tr (1_000.0 +. t) ~src:0 ~dst:1 "after"
  done;
  System.run_until_quiescent system;
  let inside = count_tag inbox1 "inside" and after = count_tag inbox1 "after" in
  check Alcotest.bool
    (Printf.sprintf "both trials apply inside (%d of 400)" inside)
    true
    (inside > 60 && inside < 140);
  check Alcotest.bool
    (Printf.sprintf "only the link's loss after (%d of 400)" after)
    true
    (after > 160 && after < 240);
  let injected = (System.fault_stats system).FT.injected_loss in
  let lost = (Datagram.counters (System.net system)).Datagram.lost in
  check Alcotest.int "every drop is accounted once" 800 (inside + after + injected + lost)

let test_dup_burst_schedule () =
  (* With the link duplicating every datagram, a burst copy is itself
     duplicated: 4 copies inside the burst, 2 outside. *)
  let system, tr =
    make_system ~dup:1.0 [ Schedule.dup_burst ~p:1.0 ~from_:10.0 ~until:20.0 ]
  in
  let inbox1 = system_inbox tr 1 in
  system_send_at system tr 15.0 ~src:0 ~dst:1 "inside";
  system_send_at system tr 25.0 ~src:0 ~dst:1 "outside";
  System.run_until_quiescent system;
  check Alcotest.int "burst on top of the link" 4 (count_tag inbox1 "inside");
  check Alcotest.int "link only outside" 2 (count_tag inbox1 "outside");
  check Alcotest.int "burst copy counted" 1
    (System.fault_stats system).FT.injected_dup

let test_degrade_link_schedule () =
  let system, tr =
    make_system
      [
        Schedule.degrade_link ~src:0 ~dst:1 ~link:(Latency.constant 40.0)
          ~from_:10.0 ~until:20.0;
      ]
  in
  let arrivals = ref [] in
  RT.set_handler tr ~node:1 (fun ~src:_ p ->
      match p with
      | Tag tag -> arrivals := (tag, System.now system) :: !arrivals
      | _ -> ());
  system_send_at system tr 12.0 ~src:0 ~dst:1 "slow";
  system_send_at system tr 25.0 ~src:0 ~dst:1 "fast";
  System.run_until_quiescent system;
  let time_of tag = List.assoc tag !arrivals in
  (* slow@ adds its delay on top of the 1 ms link. *)
  check (Alcotest.float 1e-6) "degraded inside window" 53.0 (time_of "slow");
  check (Alcotest.float 1e-6) "restored outside" 26.0 (time_of "fast")

let test_partition_heal_schedule () =
  let system, tr =
    make_system ~n:4
      [ Schedule.partition ~at:10.0 [ [ 0; 1 ]; [ 2; 3 ] ]; Schedule.heal ~at:20.0 ]
  in
  let inbox3 = system_inbox tr 3 in
  (* In flight when the partition opens: dropped at arrival. *)
  system_send_at system tr 9.5 ~src:0 ~dst:3 "in-flight";
  system_send_at system tr 15.0 ~src:0 ~dst:3 "cross";
  (* Sent while partitioned, would land after the heal: dropped at
     send all the same. *)
  system_send_at system tr 19.5 ~src:0 ~dst:3 "late";
  system_send_at system tr 25.0 ~src:0 ~dst:3 "healed";
  System.run_until_quiescent system;
  check Alcotest.bool "only post-heal" true (!inbox3 = [ (0, "healed") ]);
  let f = System.fault_stats system in
  check Alcotest.int "dropped at send" 2 f.FT.blocked_partition;
  check Alcotest.int "dropped at arrival" 1 f.FT.rx_blocked

(* ------------------------------------------------------------------ *)
(* Fault_transport: the shim behind the Transport seam                *)
(* ------------------------------------------------------------------ *)

(* The shim wrapped around the simulated backend — the sim stands in
   for "any transport"; the live variant is exercised in test_live. *)
let make_shim ?(n = 3) ?(seed = 11) schedule =
  let sim = Sim.create ~seed () in
  let net = Datagram.create sim ~n ~loss:0.0 ~link:(Latency.constant 1.0) () in
  let rt = Dpu_runtime.Sim_backend.runtime sim net in
  let shim =
    FT.create ~seed:(seed + 1) ~schedule ~clock:(Runtime.clock rt)
      (Runtime.transport rt)
  in
  (sim, shim, FT.transport shim)

let shim_inbox tr node =
  let log = ref [] in
  RT.set_handler tr ~node (fun ~src p -> log := (src, p) :: !log);
  log

let send_at sim tr t ~src ~dst tag =
  ignore
    (Sim.schedule_at sim ~time:t (fun () ->
         RT.send tr ~src ~dst ~size_bytes:10 tag))

let tags box = List.rev_map snd !box

let test_on_event_observability () =
  let sim = Sim.create ~seed:7 () in
  let net = Datagram.create sim ~n:3 ~link:(Latency.constant 1.0) () in
  let rt = Dpu_runtime.Sim_backend.runtime sim net in
  let seen = ref [] in
  let shim =
    FT.create
      ~on_event:(fun ~kind ~detail -> seen := (Sim.now sim, kind, detail) :: !seen)
      ~schedule:
        [ Schedule.crash ~at:5.0 1; Schedule.loss_window ~p:1.0 ~from_:10.0 ~until:20.0 ]
      ~clock:(Runtime.clock rt) (Runtime.transport rt)
  in
  let tr = FT.transport shim in
  send_at sim tr 6.0 ~src:0 ~dst:1 "to-crashed";
  send_at sim tr 12.0 ~src:0 ~dst:2 "lost";
  send_at sim tr 25.0 ~src:0 ~dst:2 "clean";
  Sim.run sim;
  check
    (Alcotest.list
       (Alcotest.triple (Alcotest.float 1e-9) Alcotest.string Alcotest.string))
    "every injection observed, with its endpoints"
    [ (6.0, "blocked_crash", "src=0 dst=1"); (12.0, "injected_loss", "src=0 dst=2") ]
    (List.rev !seen)

let test_shim_crash_blocks_both_directions () =
  let sim, shim, tr =
    make_shim [ Schedule.crash ~at:10.0 1; Schedule.recover ~at:20.0 1 ]
  in
  let inbox0 = shim_inbox tr 0 and inbox1 = shim_inbox tr 1 in
  send_at sim tr 5.0 ~src:0 ~dst:1 "before";
  send_at sim tr 15.0 ~src:0 ~dst:1 "to-crashed";
  send_at sim tr 15.0 ~src:1 ~dst:0 "from-crashed";
  send_at sim tr 25.0 ~src:0 ~dst:1 "after";
  Sim.run sim;
  check (Alcotest.list Alcotest.string) "crashed node silent, then back"
    [ "before"; "after" ] (tags inbox1);
  check (Alcotest.list Alcotest.string) "nothing escapes the crashed node" []
    (tags inbox0);
  check Alcotest.int "both directions absorbed" 2 (FT.stats shim).FT.blocked_crash

let test_shim_partition_symmetry () =
  (* Nodes 2 and 3 appear in no group: they form the implicit leftover
     group. Blocking is symmetric. *)
  let sim, shim, tr =
    make_shim ~n:4
      [ Schedule.partition ~at:10.0 [ [ 0; 1 ] ]; Schedule.heal ~at:20.0 ]
  in
  let boxes = Array.init 4 (fun node -> shim_inbox tr node) in
  send_at sim tr 15.0 ~src:0 ~dst:1 "same-group";
  send_at sim tr 15.0 ~src:2 ~dst:3 "leftover-group";
  send_at sim tr 15.0 ~src:0 ~dst:2 "cross-a";
  send_at sim tr 15.0 ~src:2 ~dst:0 "cross-b";
  send_at sim tr 25.0 ~src:0 ~dst:2 "healed";
  Sim.run sim;
  check (Alcotest.list Alcotest.string) "inside a named group" [ "same-group" ]
    (tags boxes.(1));
  check (Alcotest.list Alcotest.string) "inside the implicit group"
    [ "leftover-group" ] (tags boxes.(3));
  check (Alcotest.list Alcotest.string) "cross-group only after heal"
    [ "healed" ] (tags boxes.(2));
  check (Alcotest.list Alcotest.string) "symmetric: nothing crossed back" []
    (tags boxes.(0));
  check Alcotest.int "both crossings absorbed" 2
    (FT.stats shim).FT.blocked_partition

let test_shim_loss_window_halfopen () =
  let sim, shim, tr =
    make_shim [ Schedule.loss_window ~p:1.0 ~from_:10.0 ~until:20.0 ] in
  let inbox1 = shim_inbox tr 1 in
  send_at sim tr 5.0 ~src:0 ~dst:1 "before";
  send_at sim tr 10.0 ~src:0 ~dst:1 "opens";
  send_at sim tr 15.0 ~src:0 ~dst:1 "inside";
  send_at sim tr 20.0 ~src:0 ~dst:1 "closes";
  send_at sim tr 25.0 ~src:0 ~dst:1 "after";
  Sim.run sim;
  (* [from_, until): the opening instant is inside, the closing instant
     restores the pre-window behaviour. *)
  check (Alcotest.list Alcotest.string) "half-open window"
    [ "before"; "closes"; "after" ] (tags inbox1);
  check Alcotest.int "losses charged to the shim" 2
    (FT.stats shim).FT.injected_loss;
  let c = FT.counters shim in
  check Alcotest.int "absorbed frames still count as sent" 5 c.RT.sent;
  check Alcotest.int "delivered" 3 c.RT.delivered;
  check Alcotest.int "dropped" 2 c.RT.dropped;
  check Alcotest.int "sent = delivered + dropped" c.RT.sent
    (c.RT.delivered + c.RT.dropped)

let test_shim_dup_burst () =
  let sim, shim, tr =
    make_shim [ Schedule.dup_burst ~p:1.0 ~from_:10.0 ~until:20.0 ] in
  let inbox1 = shim_inbox tr 1 in
  send_at sim tr 15.0 ~src:0 ~dst:1 "inside";
  send_at sim tr 25.0 ~src:0 ~dst:1 "outside";
  Sim.run sim;
  let copies tag = List.length (List.filter (( = ) tag) (tags inbox1)) in
  check Alcotest.int "duplicated inside" 2 (copies "inside");
  check Alcotest.int "single outside" 1 (copies "outside");
  check Alcotest.int "dup charged to the shim" 1 (FT.stats shim).FT.injected_dup

let test_shim_degrade_delay () =
  let sim, shim, tr =
    make_shim
      [
        Schedule.degrade_link ~src:0 ~dst:1 ~link:(Latency.constant 40.0)
          ~from_:10.0 ~until:20.0;
      ]
  in
  let arrivals = ref [] in
  RT.set_handler tr ~node:1 (fun ~src:_ tag ->
      arrivals := (tag, Sim.now sim) :: !arrivals);
  send_at sim tr 12.0 ~src:0 ~dst:1 "slow";
  send_at sim tr 25.0 ~src:0 ~dst:1 "fast";
  Sim.run sim;
  let time_of tag = List.assoc tag !arrivals in
  (* The degraded-link delay stacks on top of the base 1 ms link. *)
  check (Alcotest.float 1e-6) "deferred inside the window" 53.0 (time_of "slow");
  check (Alcotest.float 1e-6) "restored outside" 26.0 (time_of "fast");
  check Alcotest.int "delay charged to the shim" 1 (FT.stats shim).FT.delayed

let test_shim_rx_blocks_in_flight () =
  (* A frame sent just before the partition opens is still in flight
     when it lands: the receive-side re-check must absorb it. *)
  let sim, shim, tr =
    make_shim [ Schedule.partition ~at:10.0 [ [ 0 ]; [ 1; 2 ] ] ] in
  let inbox1 = shim_inbox tr 1 in
  send_at sim tr 9.5 ~src:0 ~dst:1 "in-flight";
  Sim.run sim;
  check (Alcotest.list Alcotest.string) "absorbed at arrival" [] (tags inbox1);
  check Alcotest.int "rx-side absorption counted" 1
    (FT.stats shim).FT.rx_blocked;
  let c = FT.counters shim in
  check Alcotest.int "delivered excludes the blocked frame" 0 c.RT.delivered;
  check Alcotest.int "dropped includes it" 1 c.RT.dropped;
  check Alcotest.int "sent = delivered + dropped" c.RT.sent
    (c.RT.delivered + c.RT.dropped)

let test_shim_replay_deterministic () =
  (* Probabilistic faults draw from the shim's private RNG: same seeds,
     same schedule, byte-identical interleaving — twice. *)
  let run_once () =
    let sim, shim, tr =
      make_shim
        [
          Schedule.loss_window ~p:0.4 ~from_:10.0 ~until:60.0;
          Schedule.dup_burst ~p:0.3 ~from_:30.0 ~until:80.0;
        ]
    in
    let log = ref [] in
    RT.set_handler tr ~node:1 (fun ~src tag ->
        log := (src, tag, Sim.now sim) :: !log);
    for i = 0 to 49 do
      send_at sim tr
        (1.0 +. (1.5 *. float_of_int i))
        ~src:0 ~dst:1 (string_of_int i)
    done;
    Sim.run sim;
    (List.rev !log, FT.stats shim)
  in
  let log1, stats1 = run_once () in
  let log2, stats2 = run_once () in
  check Alcotest.bool "same delivery interleaving" true (log1 = log2);
  check Alcotest.bool "same fault accounting" true (stats1 = stats2);
  (* The schedule actually bit — this is not vacuous. *)
  check Alcotest.bool "losses happened" true (stats1.FT.injected_loss > 0);
  check Alcotest.bool "dups happened" true (stats1.FT.injected_dup > 0)

(* ------------------------------------------------------------------ *)
(* The adversarial scenario corpus, on the simulated backend          *)
(* ------------------------------------------------------------------ *)

let test_corpus_well_formed () =
  check Alcotest.int "five scenarios" 5 (List.length Corpus.all);
  List.iter
    (fun (sc : Corpus.t) ->
      match Corpus.validate sc with
      | Ok () -> ()
      | Error msg -> fail (Printf.sprintf "%s: %s" sc.Corpus.name msg))
    Corpus.all;
  check Alcotest.bool "find resolves every name" true
    (List.for_all (fun name -> Corpus.find name <> None) (Corpus.names ()));
  check Alcotest.bool "unknown name is None" true (Corpus.find "nope" = None)

let expect_installed ~what windows =
  List.iter
    (fun (generation, window) ->
      check Alcotest.bool
        (Printf.sprintf "%s: generation %d installed" what generation)
        true (window <> None))
    windows

let test_corpus_scenarios_hold_properties () =
  List.iter
    (fun (sc : Corpus.t) ->
      let what = sc.Corpus.name in
      let r = Run.exec (Corpus.spec ~seed:1 sc) in
      let g = r.Run.groups.(0) in
      check Alcotest.bool (what ^ ": traffic flowed") true
        (Dpu_core.Collector.send_count g.Run.collector > 20);
      check Alcotest.bool (what ^ ": full §5.1 battery holds") true
        (Dpu_props.Report.all_ok (Run.battery r 0));
      match what with
      | "racing-replacements" -> (
        (* Two changes race through generation 0; total order picks one
           winner and the loser is dropped as stale. *)
        match g.Run.windows with
        | [ (1, Some _); (2, None) ] -> ()
        | _ -> fail "racing: expected exactly the first-ordered change to win")
      | "coordinator-crash-mid-switch" ->
        check (Alcotest.list Alcotest.int) "crashed coordinator excluded"
          [ 0; 1; 3; 4 ] g.Run.correct;
        expect_installed ~what g.Run.windows
      | "replacement-under-partition" ->
        check Alcotest.bool "the partition actually bit" true
          ((System.fault_stats (Dpu_core.Middleware.system g.Run.mw)).FT.blocked_partition
          > 0);
        expect_installed ~what g.Run.windows
      | _ -> expect_installed ~what g.Run.windows)
    Corpus.all

(* Every run is a [Run.spec]: executing one twice must give
   byte-identical signatures, and a different seed a different one. *)
let test_corpus_replay_deterministic () =
  let sc =
    match Corpus.find "replacement-under-partition" with
    | Some sc -> sc
    | None -> fail "scenario missing"
  in
  (* Fig. 5 with a fail-stop crash of node 3 at 2 s, before the switch. *)
  let fig5_crash =
    {
      E.default with
      Run.triggers =
        { Run.at_ms = 2_000.0; shard = 0; node = 3; action = Run.Crash } :: E.default.Run.triggers;
    }
  in
  let rolling_closed =
    Shard.rolling
      {
        Shard.default with
        n = 8;
        shards = 4;
        load = Run.Closed { clients_per_node = 2 };
        until_ms = 400.0;
      }
  in
  List.iter
    (fun (what, spec) ->
      let signature () = Run.signature ~name:what (Run.exec spec) in
      let s1 = signature () in
      check Alcotest.bool (what ^ ": byte-identical replay") true
        (String.equal s1 (signature ())))
    [
      ("replacement-under-partition", Corpus.spec ~seed:3 sc);
      ("fig5 + fail-stop crash", fig5_crash);
      ("4-shard closed-loop rolling", rolling_closed);
    ];
  let s3 = Run.signature (Run.exec (Corpus.spec ~seed:3 sc)) in
  let s4 = Run.signature (Run.exec (Corpus.spec ~seed:4 sc)) in
  check Alcotest.bool "the seed matters" true (not (String.equal s3 s4))

(* ------------------------------------------------------------------ *)
(* Specs, validation, inspection                                      *)
(* ------------------------------------------------------------------ *)

let test_spec_parsing () =
  let ok spec =
    match Schedule.event_of_spec spec with
    | Ok e -> e
    | Error msg -> fail msg
  in
  (match (ok "crash@150:2").Schedule.action with
  | Schedule.Crash 2 -> ()
  | _ -> fail "crash spec");
  (match (ok "recover@200:2").Schedule.action with
  | Schedule.Recover 2 -> ()
  | _ -> fail "recover spec");
  (match (ok "partition@100:0,1|2,3").Schedule.action with
  | Schedule.Partition [ [ 0; 1 ]; [ 2; 3 ] ] -> ()
  | _ -> fail "partition spec");
  (match (ok "heal@300").Schedule.action with
  | Schedule.Heal -> ()
  | _ -> fail "heal spec");
  (match (ok "loss@100-200:0.3").Schedule.action with
  | Schedule.Loss_window { p = 0.3; from_ = 100.0; until = 200.0 } -> ()
  | _ -> fail "loss spec");
  (match (ok "dup@100-200:0.1").Schedule.action with
  | Schedule.Dup_burst { p = 0.1; from_ = 100.0; until = 200.0 } -> ()
  | _ -> fail "dup spec");
  match (ok "slow@100-200:0>1:25").Schedule.action with
  | Schedule.Degrade_link
      { src = 0; dst = 1; window = { from_ = 100.0; until = 200.0 }; _ } -> ()
  | _ -> fail "slow spec"

let test_spec_errors () =
  List.iter
    (fun spec ->
      match Schedule.event_of_spec spec with
      | Ok _ -> fail (Printf.sprintf "spec %S should not parse" spec)
      | Error _ -> ())
    [ "crash@abc:1"; "crash@100"; "explode@5"; "loss@100:0.3"; "partition@100:"; "" ]

let test_of_specs_first_error_aborts () =
  (match Schedule.of_specs [ "crash@10:1"; "heal@20" ] with
  | Ok [ _; _ ] -> ()
  | Ok _ | Error _ -> fail "expected two events");
  match Schedule.of_specs [ "crash@10:1"; "nope" ] with
  | Error _ -> ()
  | Ok _ -> fail "expected error"

let test_validate () =
  let ok_or_fail = function Ok () -> () | Error msg -> fail msg in
  ok_or_fail
    (Schedule.validate ~n:3
       [ Schedule.crash ~at:1.0 2; Schedule.loss_window ~p:0.5 ~from_:1.0 ~until:2.0 ]);
  let expect_err sched =
    match Schedule.validate ~n:3 sched with
    | Error _ -> ()
    | Ok () -> fail "expected validation error"
  in
  expect_err [ Schedule.crash ~at:1.0 3 ];
  expect_err [ Schedule.crash ~at:(-1.0) 0 ];
  expect_err [ Schedule.loss_window ~p:1.5 ~from_:1.0 ~until:2.0 ];
  expect_err [ Schedule.loss_window ~p:0.5 ~from_:2.0 ~until:2.0 ];
  expect_err [ Schedule.partition ~at:1.0 [ [ 0; 1 ]; [ 1; 2 ] ] ];
  expect_err [ Schedule.degrade_link ~src:0 ~dst:5 ~link:(Latency.constant 1.0) ~from_:1.0 ~until:2.0 ];
  (* Instant events must happen at a finite time; a window may stay
     open for ever. *)
  let parsed spec =
    match Schedule.event_of_spec spec with Ok e -> [ e ] | Error msg -> fail msg
  in
  List.iter
    (fun spec -> expect_err (parsed spec))
    [ "crash@nan:2"; "heal@inf"; "partition@nan:0|1"; "recover@inf:1" ];
  ok_or_fail (Schedule.validate ~n:3 (parsed "loss@10-inf:0.5"))

let test_crashed_before () =
  let sched =
    [
      Schedule.crash ~at:10.0 1;
      Schedule.crash ~at:20.0 2;
      Schedule.recover ~at:30.0 1;
    ]
  in
  check (Alcotest.list Alcotest.int) "both down" [ 1; 2 ]
    (Schedule.crashed_before sched ~time:25.0);
  check (Alcotest.list Alcotest.int) "one recovered" [ 2 ]
    (Schedule.crashed_before sched ~time:35.0);
  check (Alcotest.list Alcotest.int) "none yet" []
    (Schedule.crashed_before sched ~time:5.0)

let test_duration () =
  check (Alcotest.float 0.0) "empty" 0.0 (Schedule.duration []);
  let sched =
    [ Schedule.crash ~at:50.0 1; Schedule.loss_window ~p:0.5 ~from_:10.0 ~until:90.0 ]
  in
  check (Alcotest.float 0.0) "window close counts" 90.0 (Schedule.duration sched)

(* ------------------------------------------------------------------ *)
(* Nemesis                                                            *)
(* ------------------------------------------------------------------ *)

let test_nemesis_deterministic () =
  let gen seed =
    Nemesis.generate ~rng:(Rng.create ~seed) ~n:6 ~horizon_ms:5_000.0 ~faults:6
      ~recoverable:true ()
  in
  check Alcotest.bool "same seed, same schedule" true (gen 42 = gen 42);
  check Alcotest.bool "different seeds differ" true (gen 42 <> gen 43)

let test_nemesis_schedules_valid () =
  for seed = 1 to 50 do
    let n = 3 + (seed mod 5) in
    let sched =
      Nemesis.generate ~rng:(Rng.create ~seed) ~n ~horizon_ms:4_000.0 ~faults:5
        ~recoverable:(seed mod 2 = 0) ()
    in
    (match Schedule.validate ~n sched with
    | Ok () -> ()
    | Error msg -> fail (Printf.sprintf "seed %d: %s" seed msg));
    (* Never crash node 0; never more than a minority down at once;
       everything settles before 0.9 * horizon. *)
    let down_at_end = Schedule.crashed_before sched ~time:infinity in
    check Alcotest.bool
      (Printf.sprintf "seed %d: node 0 alive" seed)
      false (List.mem 0 down_at_end);
    check Alcotest.bool
      (Printf.sprintf "seed %d: minority down" seed)
      true
      (List.length down_at_end <= (n - 1) / 2);
    check Alcotest.bool
      (Printf.sprintf "seed %d: settles before horizon" seed)
      true
      (Schedule.duration sched <= 0.9 *. 4_000.0)
  done

let test_nemesis_respects_classes () =
  let sched =
    Nemesis.generate ~rng:(Rng.create ~seed:5) ~n:5 ~horizon_ms:4_000.0
      ~classes:[ Nemesis.Loss ] ~faults:4 ()
  in
  check Alcotest.int "one event per fault" 4 (List.length sched);
  List.iter
    (fun e ->
      match e.Schedule.action with
      | Schedule.Loss_window _ -> ()
      | _ -> fail "unexpected fault class")
    sched

(* ------------------------------------------------------------------ *)
(* Full-harness soaks: replacement during each fault class            *)
(* ------------------------------------------------------------------ *)

(* ABcast replacement at 2000 ms while the scheduled fault is active;
   afterwards the §5 properties must hold across the switch. *)
let soak_spec ~seed faults =
  E.fail_stop
    {
      E.default with
      n = 5;
      config = { E.default.Run.config with seed; msg_size = 1024; trace_enabled = true };
      faults;
      load = Run.Open { rate_per_s = 30.0; pattern = Dpu_workload.Load_gen.Poisson };
      until_ms = 4_000.0;
      triggers = [ E.switch ~n:5 ~at_ms:2_000.0 Dpu_core.Variants.sequencer ];
    }

let assert_props_hold ~what result =
  let reports = E.check result in
  let find name =
    match
      List.find_opt (fun r -> r.Dpu_props.Report.property = name) reports
    with
    | Some r -> r
    | None -> fail (Printf.sprintf "%s: missing report %S" what name)
  in
  (* The acceptance pair, called out explicitly... *)
  check Alcotest.bool
    (Printf.sprintf "%s: uniform agreement across the switch" what)
    true (find "uniform agreement").Dpu_props.Report.ok;
  check Alcotest.bool
    (Printf.sprintf "%s: uniform total order across the switch" what)
    true (find "uniform total order").Dpu_props.Report.ok;
  (* ...and everything else too. *)
  List.iter
    (fun r ->
      check Alcotest.bool
        (Printf.sprintf "%s: %s" what r.Dpu_props.Report.property)
        true r.Dpu_props.Report.ok)
    reports;
  (* The switch really happened. *)
  check Alcotest.bool (what ^ ": switch completed") true
    (result.E.switch_window <> None);
  check Alcotest.bool (what ^ ": traffic flowed") true (result.E.sent > 20)

let test_switch_during_crash () =
  let faults = [ Schedule.crash ~at:1_500.0 3 ] in
  let result = E.run (soak_spec ~seed:101 faults) in
  check (Alcotest.list Alcotest.int) "crashed node excluded" [ 0; 1; 2; 4 ]
    (E.group result).Run.correct;
  assert_props_hold ~what:"switch-during-crash" result

let test_switch_during_partition () =
  let faults =
    [ Schedule.partition ~at:1_500.0 [ [ 0; 1; 2; 3 ]; [ 4 ] ]; Schedule.heal ~at:2_600.0 ]
  in
  let result = E.run (soak_spec ~seed:102 faults) in
  check (Alcotest.list Alcotest.int) "nobody crashed" [ 0; 1; 2; 3; 4 ]
    (E.group result).Run.correct;
  assert_props_hold ~what:"switch-during-partition" result

let test_switch_during_loss_window () =
  let faults = [ Schedule.loss_window ~p:0.2 ~from_:1_500.0 ~until:2_600.0 ] in
  let result = E.run (soak_spec ~seed:103 faults) in
  assert_props_hold ~what:"switch-during-loss" result

let test_switch_under_nemesis () =
  (* Randomised soak: a sampled schedule plus a replacement, properties
     checked across the switch. Deterministic in the seed. *)
  List.iter
    (fun seed ->
      let faults =
        Nemesis.generate ~rng:(Rng.create ~seed) ~n:5 ~horizon_ms:4_000.0 ~faults:3 ()
      in
      let result = E.run (soak_spec ~seed faults) in
      assert_props_hold
        ~what:(Printf.sprintf "nemesis seed %d [%s]" seed
                 (Format.asprintf "%a" Schedule.pp faults))
        result)
    [ 201; 202; 203 ]

let test_epoch_buffer_engages () =
  (* Regression for the receive-side hole in the generation filter: the
     isolated node delivers the change message late, after the majority
     has switched and produced new-generation wire traffic. Before
     [Epoch_buffer] that traffic was acknowledged by the transport and
     dropped by every installed module's epoch filter — lost for good —
     and the late sequencer instance deadlocked on a global-sequence gap,
     delivering nothing after its switch. The buffer must engage at the
     late node, and every node must end with the same delivery count. *)
  let module MW = Dpu_core.Middleware in
  let config = { MW.default_config with seed = 102; msg_size = 1024 } in
  let mw =
    MW.create ~config ~n:5
      ~faults:
        [ Schedule.partition ~at:1_500.0 [ [ 0; 1; 2; 3 ]; [ 4 ] ]; Schedule.heal ~at:2_600.0 ]
      ()
  in
  let system = MW.system mw in
  let clock = System.clock system in
  Dpu_workload.Load_gen.start mw ~rate_per_s:30.0 ~until:4_000.0 ();
  ignore
    (Clock.defer clock ~delay:2_000.0 (fun () ->
         MW.change_protocol mw ~node:4 Dpu_core.Variants.sequencer));
  MW.run_until_quiescent ~limit:120_000.0 mw;
  let late = System.stack system 4 in
  check Alcotest.bool "late node stashed future-generation traffic" true
    (Dpu_protocols.Epoch_buffer.stashed late > 0);
  check Alcotest.bool "stash replayed after the late switch" true
    (Dpu_protocols.Epoch_buffer.replayed late > 0);
  let collector = MW.collector mw in
  let count node = List.length (Dpu_core.Collector.delivers_of collector ~node) in
  check Alcotest.bool "traffic flowed" true (count 0 > 20);
  List.iter
    (fun node ->
      check Alcotest.int
        (Printf.sprintf "node %d delivered the full stream" node)
        (count 0) (count node))
    [ 1; 2; 3; 4 ]

let test_crash_then_recover_stays_fail_stop () =
  (* The harness turns a scheduled crash into a fail-stop of the stack;
     a later recover lifts the shim's network silence, but the process
     model has no rejoin, so node 2 stays out of the correct set. *)
  let faults = [ Schedule.crash ~at:500.0 2; Schedule.recover ~at:900.0 2 ] in
  let result = E.run (soak_spec ~seed:104 faults) in
  let g = E.group result in
  check (Alcotest.list Alcotest.int) "crashed node stays excluded" [ 0; 1; 3; 4 ] g.Run.correct;
  check Alcotest.bool "the shim silenced it" true
    ((Dpu_kernel.System.fault_stats (Dpu_core.Middleware.system g.Run.mw)).FT.blocked_crash > 0);
  assert_props_hold ~what:"crash-then-recover" result

let test_faults_after_horizon_pass_through () =
  (* A schedule whose every event lies beyond the run installs the shim
     but never fires it: it must draw no random bit and reorder no
     event, so the run is the fault-free run, message for message. *)
  let late = 1.0e7 in
  let faults =
    [
      Schedule.crash ~at:late 3;
      Schedule.partition ~at:late [ [ 0; 1 ]; [ 2; 3; 4 ] ];
      Schedule.loss_window ~p:0.5 ~from_:late ~until:(2.0 *. late);
      Schedule.dup_burst ~p:0.5 ~from_:late ~until:(2.0 *. late);
      Schedule.degrade_link ~src:0 ~dst:1 ~link:(Latency.constant 9.0) ~from_:late
        ~until:(2.0 *. late);
    ]
  in
  let observe faults =
    let spec = soak_spec ~seed:105 faults in
    let r = E.run { spec with config = { spec.config with trace_enabled = false } } in
    let g = E.group r in
    let c = g.Run.collector in
    ( Dpu_core.Collector.sends c,
      List.init 5 (fun node -> Dpu_core.Collector.delivers_of c ~node),
      Dpu_core.Collector.switches c,
      Dpu_kernel.System.fault_stats (Dpu_core.Middleware.system g.Run.mw) )
  in
  let sends, delivers, switches, stats = observe faults in
  let sends0, delivers0, switches0, _ = observe [] in
  check Alcotest.bool "traffic flowed" true (List.length sends > 20);
  check Alcotest.bool "same sends" true (sends = sends0);
  check Alcotest.bool "same deliveries at every node" true (delivers = delivers0);
  check Alcotest.bool "same switch times" true (switches = switches0);
  check Alcotest.bool "the shim never fired" true (stats = FT.no_stats)

let test_experiment_rejects_bad_schedule () =
  match E.run (soak_spec ~seed:1 [ Schedule.crash ~at:100.0 99 ]) with
  | exception Invalid_argument _ -> ()
  | _ -> fail "expected Invalid_argument"

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "faults"
    [
      ( "schedule",
        [
          tc "crash + recover" test_crash_recover_schedule;
          tc "loss window" test_loss_window_schedule;
          tc "dup burst" test_dup_burst_schedule;
          tc "degrade link" test_degrade_link_schedule;
          tc "partition + heal" test_partition_heal_schedule;
          tc "on_event" test_on_event_observability;
        ] );
      ( "fault-transport",
        [
          tc "crash blocks both directions" test_shim_crash_blocks_both_directions;
          tc "partition symmetry + implicit group" test_shim_partition_symmetry;
          tc "loss window is half-open and restores" test_shim_loss_window_halfopen;
          tc "dup burst" test_shim_dup_burst;
          tc "degrade defers on the clock" test_shim_degrade_delay;
          tc "in-flight frames blocked at arrival" test_shim_rx_blocks_in_flight;
          tc "replay determinism" test_shim_replay_deterministic;
        ] );
      ( "corpus",
        [
          tc "well-formed" test_corpus_well_formed;
          slow "every scenario holds the battery" test_corpus_scenarios_hold_properties;
          slow "replay determinism" test_corpus_replay_deterministic;
        ] );
      ( "spec",
        [
          tc "parses every kind" test_spec_parsing;
          tc "rejects junk" test_spec_errors;
          tc "of_specs aborts on error" test_of_specs_first_error_aborts;
        ] );
      ( "inspection",
        [
          tc "validate" test_validate;
          tc "crashed_before" test_crashed_before;
          tc "duration" test_duration;
        ] );
      ( "nemesis",
        [
          tc "deterministic" test_nemesis_deterministic;
          tc "valid schedules" test_nemesis_schedules_valid;
          tc "respects classes" test_nemesis_respects_classes;
        ] );
      ( "soak",
        [
          slow "switch during crash" test_switch_during_crash;
          slow "switch during partition" test_switch_during_partition;
          slow "switch during loss window" test_switch_during_loss_window;
          slow "switch under nemesis" test_switch_under_nemesis;
          slow "late switch engages epoch buffer" test_epoch_buffer_engages;
          slow "crash then recover stays fail-stop" test_crash_then_recover_stays_fail_stop;
          slow "faults past the horizon pass through" test_faults_after_horizon_pass_through;
          tc "rejects bad schedule" test_experiment_rejects_bad_schedule;
        ] );
    ]
