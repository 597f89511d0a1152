(* The measuring half of the benchmark: one process runs one workload
   for one seed and prints its figures; [run.py] builds and runs it.

   Usage: perfbench.exe WORKLOAD SEED SECONDS TRACE

   A run is a fixed set of sub-runs ("units"), each a whole simulation
   on a seed derived from the run seed and the unit's index. The units
   fix every virtual-time figure (latencies, switch windows, goodput):
   those are pure functions of the run seed. The wall-clock budget is
   spent replaying the units in rounds; a replay must reproduce its
   unit's virtual outcome bit for bit, and only adds CPU samples.

   The host's speed moves with work outside this process, by half and
   more within a minute, so CPU figures are divided by the CPU time of a
   fixed reference pass timed between the slices of every unit.

   TRACE 0 prints the end-to-end metrics, TRACE 1 the per-layer ledger:
   counts from a unit re-run with the metrics registry on, isolated
   timings of single layer calls, and a short live deployment. *)

module MW = Dpu_core.Middleware
module C = Dpu_core.Collector
module Fabric = Dpu_core.Fabric
module Variants = Dpu_core.Variants
module Load_gen = Dpu_workload.Load_gen
module System = Dpu_kernel.System
module Stack = Dpu_kernel.Stack
module Trace = Dpu_kernel.Trace
module Payload = Dpu_kernel.Payload
module Msg = Dpu_kernel.Msg
module Clock = Dpu_runtime.Clock
module Metrics = Dpu_obs.Metrics
module J = Dpu_obs.Json
module Report = Dpu_props.Report

let wall () = Unix.gettimeofday ()

let cpu = Sys.time

(* A fixed piece of work of the same kind as the simulator's (balanced
   tree inserts, boxed floats, short-lived lists promoted by the minor
   collector), written here so that no change to the libraries can
   speed it up. Timed between slices of every unit, it tells how fast
   the host is running right then. *)
module IM = Map.Make (Int)

let reference_pass () =
  let m = ref IM.empty in
  for i = 0 to 3999 do
    m := IM.add ((i * 7919) land 8191) (Float.of_int i *. 0.5) !m
  done;
  let l = List.init 20_000 (fun i -> Float.of_int i *. 1.5) in
  let total = IM.fold (fun _ v acc -> acc +. v) !m (List.fold_left ( +. ) 0.0 l) in
  ignore (Sys.opaque_identity total : float)

let reference_passes = 6

(* CPU time of one reference pass on an unloaded two-core x86-64 VM.
   Set-up time is reported rescaled to a host of that speed. *)
let reference_pass_s = 2.5e-3

let reference_cpu () =
  let c0 = cpu () in
  for _ = 1 to reference_passes do
    reference_pass ()
  done;
  cpu () -. c0

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* ---------- statistics from raw samples ---------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile. [None] (insufficient) unless at least ten
   samples lie beyond it: a p99 needs 1000 samples, a median 20. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 || Float.of_int n *. (1.0 -. q) < 10.0 then None
  else
    let rank = int_of_float (Float.ceil (q *. Float.of_int n)) in
    Some a.(max 0 (min (n - 1) (rank - 1)))

(* The median reported as a metric: the mean of the central tenth of
   the sorted samples (45th to 55th percentile). Where the distribution
   has gaps, as overload's does (one step per position in a burst), the
   nearest-rank median jumps a whole step when one sample crosses it;
   the central mean moves smoothly. [None] unless ten samples lie
   beyond the band. *)
let central_median a =
  let n = Array.length a in
  let lo = n * 45 / 100 and hi = ((n * 55) + 99) / 100 in
  if n - hi < 10 || hi <= lo then None
  else begin
    let s = ref 0.0 in
    for i = lo to hi - 1 do
      s := !s +. a.(i)
    done;
    Some (!s /. Float.of_int (hi - lo))
  end

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean l = List.fold_left ( +. ) 0.0 l /. Float.of_int (max 1 (List.length l))

let sum_f = List.fold_left ( +. ) 0.0

let sum_i = List.fold_left ( + ) 0

let min_f = List.fold_left Float.min infinity

(* ---------- the benchmark's own spans around each layer call ---------- *)

type span = { name : string; parent : string; start : float; stop : float }

let spans : span list ref = ref []

let with_span ~parent name f =
  let start = wall () in
  let r = f () in
  spans := { name; parent; start; stop = wall () } :: !spans;
  r

(* ---------- workloads ---------- *)

type spec = {
  n : int;
  rate : float;  (** aggregate messages per virtual second *)
  pattern : Load_gen.pattern;
  hop : float;  (** per-module dispatch cost, virtual ms *)
  fabric : bool;  (** build as a one-shard {!Fabric} *)
  load_ms : float;  (** load is offered in [0, load_ms) *)
  horizon_ms : float;  (** fixed drain horizon: every message is out by then *)
  warmup_ms : float;
  triggers_ms : float list;  (** CT -> CT replacements *)
  units : int;
}

let msg_size = 4096

(* A unit runs in slices of this much virtual time, with reference
   passes timed between them. *)
let slice_ms = 1000.0

(* Stacks built per execution of a unit, for the set-up figure; the
   last one runs. *)
let setup_builds = 3

(* Messages sent within this long after a trigger are the paper's
   post-switch spike, kept apart from the steady-state figures. *)
let switch_span_ms = 1000.0

(* A message counts towards goodput when every node delivered it
   within this long of its send. *)
let goodput_limit_ms = 250.0

let every ~from ~step ~until =
  let rec go t acc = if t >= until then List.rev acc else go (t +. step) (t :: acc) in
  go from []

(* Why each workload exists, which layers it loads and which it
   bypasses is recorded in BENCHMARK.json. The sizes keep two rounds
   of units inside one run's budget on a two-core machine. *)
let workloads =
  [
    ( "paper_switch",
      {
        n = 7;
        rate = 40.0;
        pattern = Load_gen.Constant;
        hop = 0.5;
        fabric = false;
        load_ms = 15_000.0;
        horizon_ms = 16_000.0;
        warmup_ms = 1_000.0;
        triggers_ms = every ~from:2_000.0 ~step:2_000.0 ~until:15_000.0;
        units = 3;
      } );
    ( "overload",
      {
        n = 7;
        (* 120 msg/s in the first quarter of every second, well past
           the unbatched knee: the ordering backlog builds and drains
           once a second, the same way at every seed. *)
        rate = 30.0;
        pattern = Load_gen.Burst { period_ms = 1000.0; duty = 0.25 };
        hop = 0.5;
        fabric = false;
        load_ms = 12_000.0;
        horizon_ms = 14_000.0;
        warmup_ms = 1_000.0;
        (* 100 ms into every other burst: each switch meets a backlog. *)
        triggers_ms = every ~from:2_100.0 ~step:2_000.0 ~until:12_000.0;
        units = 3;
      } );
    ( "big_group",
      {
        n = 21;
        rate = 20.0;
        pattern = Load_gen.Constant;
        hop = 0.05;
        fabric = true;
        load_ms = 6_000.0;
        horizon_ms = 6_500.0;
        warmup_ms = 500.0;
        triggers_ms = every ~from:1_000.0 ~step:2_000.0 ~until:6_000.0;
        units = 1;
      } );
  ]

(* ---------- one unit ---------- *)

type unit_run = {
  sent : int;
  failed : int;  (** not delivered by every node by the horizon *)
  steady : float list;
  switched : float list;
  windows : float list;  (** per trigger: last install minus trigger *)
  within : int;
  span_s : float;  (** first send to the last in-limit delivery *)
  copies : int;  (** delivered message copies, all nodes *)
  blocked_ms : float;
  reports : Report.t list;
  fingerprint : string;
  setup_cpu : float list;
  run_s : float;
  run_cpu : float;
  ref_cpu : float;  (** reference passes timed between the slices *)
  ref_passes : int;
  alloc_w : float;
  abcast_check_s : float;
  stack_check_s : float;
  check_cpu : float;
  live_mb : float;  (** live heap at the end of the unit, when asked for *)
  layers : (string * float) list;  (** per-layer counts, traced runs only *)
}

(* Per-message figures from the collector, plus a digest of every
   virtual outcome for the determinism checks. *)
let message_figures spec c =
  let in_switch t = List.exists (fun a -> t >= a && t < a +. switch_span_ms) spec.triggers_ms in
  let steady = ref [] and switched = ref [] and within = ref 0 and failed = ref 0 in
  let first_send = ref infinity and last_in_limit = ref neg_infinity in
  let fp = Buffer.create 65536 in
  List.iter
    (fun (id, _, t) ->
      let times = C.deliver_times c id in
      first_send := Float.min !first_send t;
      let last = List.fold_left (fun acc (_, d) -> Float.max acc d) t times in
      if List.length times < spec.n then incr failed
      else if last -. t <= goodput_limit_ms then begin
        incr within;
        last_in_limit := Float.max !last_in_limit last
      end;
      match C.latency_of c id with
      | None -> Buffer.add_string fp "-;"
      | Some l ->
        Printf.bprintf fp "%h;" l;
        if t >= spec.warmup_ms then
          if in_switch t then switched := l :: !switched else steady := l :: !steady)
    (C.sends c);
  let windows =
    List.mapi
      (fun i a ->
        match C.switch_window c ~generation:(i + 1) with
        | Some (_, last) -> last -. a
        | None -> nan)
      spec.triggers_ms
  in
  List.iter (fun w -> Printf.bprintf fp "w%h;" w) windows;
  let copies = sum_i (List.init spec.n (fun node -> List.length (C.delivers_of c ~node))) in
  ( !steady,
    !switched,
    windows,
    !within,
    (!last_in_limit -. !first_send) /. 1000.0,
    !failed,
    copies,
    Digest.to_hex (Digest.string (Buffer.contents fp)) )

let build spec ~seed ~metrics =
  let config =
    {
      MW.default_config with
      seed;
      hop_cost = spec.hop;
      msg_size;
      trace_enabled = true;
      metrics_enabled = metrics;
    }
  in
  if spec.fabric then Fabric.group (Fabric.create ~config ~shards:1 ~n:spec.n ()) 0
  else MW.create ~config ~n:spec.n ()

(* Counts each layer publishes, read after a traced unit. *)
let layer_counts spec mw ~sent ~fd_false ~backlog_max =
  let reg = MW.metrics mw in
  let system = MW.system mw in
  let stacks = Array.to_list (System.stacks system) in
  let msgs = Float.of_int (max 1 sent) in
  let m name = Metrics.sum reg name in
  let per_msg x = x /. msgs in
  let sum_stacks f = Float.of_int (sum_i (List.map f stacks)) in
  let rp2p = List.map Dpu_protocols.Rp2p.stats stacks in
  let retrans = Float.of_int (sum_i (List.map (fun s -> s.Dpu_protocols.Rp2p.retransmissions) rp2p)) in
  let accepted = Float.of_int (sum_i (List.map (fun s -> s.Dpu_protocols.Rp2p.accepted) rp2p)) in
  let trace = System.trace system in
  let net = Dpu_net.Datagram.counters (System.net system) in
  [
    ("engine.events_per_msg", per_msg (m "sim_events_executed_total"));
    ("engine.executed_share", m "sim_events_executed_total" /. m "sim_events_scheduled_total");
    ("net.datagrams_per_msg", per_msg (Float.of_int net.Dpu_net.Datagram.sent));
    ("net.bytes_per_msg", per_msg (Float.of_int net.Dpu_net.Datagram.bytes));
    ("net.egress_backlog_max_ms", backlog_max);
    ("kernel.dispatches_per_msg", per_msg (m "kernel_calls_total" +. m "kernel_indications_total"));
    ("kernel.trace_entries", Float.of_int (Trace.length trace));
    ("kernel.trace_dropped", Float.of_int (Trace.dropped trace));
    ("kernel.blocked_calls", m "kernel_calls_blocked_total");
    ( "protocols.consensus_decisions_per_msg",
      per_msg (sum_stacks Dpu_protocols.Consensus_ct.decided_count /. Float.of_int spec.n) );
    ("protocols.rp2p_retrans_per_msg", per_msg retrans);
    ("protocols.rp2p_useful_share", accepted /. Float.max 1.0 (accepted +. retrans));
    ("protocols.fd_false_suspicions", Float.of_int fd_false);
    ("protocols.epoch_stashed", m "epoch_buffer_stashed_total");
    ("protocols.epoch_replayed", m "epoch_buffer_replayed_total");
    ("core.repl_intercepted_per_msg", per_msg (m "repl_intercepted_calls_total"));
    ( "core.repl_reissued_per_switch",
      m "repl_reissued_total" /. Float.of_int (max 1 (List.length spec.triggers_ms)) );
    ("core.undelivered_at_trigger", m "repl_undelivered");
    ("core.stale_changes", m "repl_stale_changes_total");
  ]

let run_unit ?(measure_heap = false) spec ~seed ~traced =
  let setup_cpu = ref [] in
  let timed_build () =
    let c0 = cpu () in
    let mw = build spec ~seed ~metrics:traced in
    setup_cpu := (cpu () -. c0) :: !setup_cpu;
    mw
  in
  for _ = 2 to setup_builds do
    ignore (timed_build () : MW.t)
  done;
  (* The unit, and the battery below, each start on a collected heap
     so neither pays for the garbage of what ran before it. *)
  Gc.full_major ();
  let mw = timed_build () in
  let system = MW.system mw in
  let clock = System.clock system in
  Load_gen.start mw ~rate_per_s:spec.rate ~pattern:spec.pattern ~size:msg_size ~until:spec.load_ms ();
  List.iteri
    (fun i at ->
      Clock.defer clock ~delay:at (fun () -> MW.change_protocol mw ~node:(i mod spec.n) Variants.ct))
    spec.triggers_ms;
  (* The traced unit samples the failure detectors and the simulated
     egress queues from outside, on a timer of its own. No crash is
     ever injected, so every suspicion is a false one. *)
  let fd_pairs = Hashtbl.create 16 and backlog_max = ref 0.0 in
  if traced then begin
    let net = System.net system in
    ignore
      (Clock.every clock ~period:10.0 (fun () ->
           Array.iter
             (fun st ->
               let me = Stack.node st in
               List.iter (fun s -> Hashtbl.replace fd_pairs (me, s) ()) (Dpu_protocols.Fd.suspects st);
               backlog_max := Float.max !backlog_max (Dpu_net.Datagram.egress_backlog_ms net ~node:me))
             (System.stacks system))
        : Clock.timer)
  end;
  let slices = int_of_float (Float.ceil (spec.horizon_ms /. slice_ms)) in
  let run_s = ref 0.0 and run_cpu = ref 0.0 and ref_cpu = ref 0.0 and alloc_w = ref 0.0 in
  for i = 1 to slices do
    let t1 = wall () and c1 = cpu () and a1 = alloc_words () in
    System.run_until system (Float.min spec.horizon_ms (Float.of_int i *. slice_ms));
    run_cpu := !run_cpu +. (cpu () -. c1);
    alloc_w := !alloc_w +. (alloc_words () -. a1);
    run_s := !run_s +. (wall () -. t1);
    ref_cpu := !ref_cpu +. reference_cpu ()
  done;
  let c = MW.collector mw in
  let nodes = List.init spec.n Fun.id in
  Gc.full_major ();
  let t2 = wall () and k0 = cpu () in
  let abcast = Dpu_props.Abcast_props.check_all c ~correct:nodes in
  let t3 = wall () in
  let generic =
    Dpu_props.Stack_props.check_generic (System.trace system) ~protocols:[ Variants.ct ] ~nodes
  in
  let t4 = wall () and check_cpu = cpu () -. k0 in
  (* Taken while the cluster is still reachable: the collector's record,
     the kernel trace and the stacks only grow during a unit, so this is
     the unit's high-water mark of live data, a function of the seed. *)
  let live_mb = if measure_heap then Float.of_int (Gc.stat ()).Gc.live_words *. 8.0 /. 1e6 else nan in
  let steady, switched, windows, within, span_s, failed, copies, fingerprint =
    message_figures spec c
  in
  let completed =
    Report.make ~property:"every replacement completed at every node"
      ~checked:(List.length windows)
      (List.filter_map
         (fun (at, w) -> if Float.is_nan w then Some (Printf.sprintf "switch at %.0f ms" at) else None)
         (List.combine spec.triggers_ms windows))
  in
  let blocked_ms =
    Array.fold_left
      (fun acc st -> Float.max acc (Dpu_baselines.Maestro.blocked_ms st))
      0.0 (System.stacks system)
  in
  let sent = C.send_count c in
  {
    sent;
    failed;
    steady;
    switched;
    windows;
    within;
    span_s;
    copies;
    blocked_ms;
    reports = (completed :: abcast) @ generic;
    fingerprint;
    setup_cpu = !setup_cpu;
    run_s = !run_s;
    run_cpu = !run_cpu;
    ref_cpu = !ref_cpu;
    ref_passes = slices * reference_passes;
    alloc_w = !alloc_w;
    abcast_check_s = t3 -. t2;
    stack_check_s = t4 -. t3;
    check_cpu;
    live_mb;
    layers =
      (if traced then
         layer_counts spec mw ~sent ~fd_false:(Hashtbl.length fd_pairs) ~backlog_max:!backlog_max
       else []);
  }

(* ---------- isolated layer timings ---------- *)

(* ns and allocated words per call of [f], median of five batches. *)
let time_op ~iters f =
  let batch () =
    let a0 = alloc_words () and t0 = wall () in
    for _ = 1 to iters do
      f ()
    done;
    let dt = wall () -. t0 and da = alloc_words () -. a0 in
    (dt *. 1e9 /. Float.of_int iters, da /. Float.of_int iters)
  in
  let runs = List.init 5 (fun _ -> batch ()) in
  (median (List.map fst runs), median (List.map snd runs))

let micro_engine () =
  let sim = Dpu_engine.Sim.create ~seed:1 () in
  let noop () = () in
  time_op ~iters:200_000 (fun () ->
      ignore (Dpu_engine.Sim.schedule sim ~delay:1.0 noop : Dpu_engine.Sim.handle);
      ignore (Dpu_engine.Sim.step sim : bool))

let micro_dispatch ~trace_on =
  let sim = Dpu_engine.Sim.create ~seed:1 () in
  let clock = Dpu_runtime.Sim_backend.clock sim in
  let trace = Trace.create ~enabled:trace_on ~capacity:100_000 () in
  let st = Stack.create ~clock ~node:0 ~hop_cost:0.0 ~trace () in
  let svc = Dpu_kernel.Service.make "perfbench" in
  let m =
    Stack.add_module st ~name:"sink" ~provides:[ svc ] ~requires:[] (fun _ _ -> Stack.default_handlers)
  in
  Stack.bind st svc m;
  let payload = Dpu_core.App_msg.App (Msg.make ~origin:0 ~seq:0 "x") in
  time_op ~iters:200_000 (fun () ->
      Stack.call st svc payload;
      while Dpu_engine.Sim.step sim do
        ()
      done)

(* A 4 KB ABcast data frame as RP2P puts it on the wire. *)
let data_frame () =
  let msg = Msg.make ~origin:1 ~seq:42 (String.make 4096 'x') in
  Dpu_protocols.Rp2p.Wire_data
    {
      src = 1;
      seq = 7;
      attempt = 0;
      size = 4096;
      payload =
        Dpu_protocols.Abcast_ct.Disseminate
          { epoch = 0; item = { id = msg.Msg.id; size = 4096; payload = Dpu_core.App_msg.App msg } };
    }

let micro_wire () =
  let frame = data_frame () in
  let seal () = Payload.Envelope.seal ~src:1 ~service:"dpu" ~generation:3 frame in
  let sealed = Bytes.of_string (seal ()) in
  let ns_seal, w_seal = time_op ~iters:5_000 (fun () -> ignore (seal () : string)) in
  let ns_open, _ =
    time_op ~iters:5_000 (fun () -> ignore (Payload.Envelope.open_slice sealed : _ * _))
  in
  (ns_seal, w_seal, ns_open)

let micro_wheel () =
  let wheel = Dpu_live.Timer_wheel.create () in
  let now = ref 0.0 and noop () = () in
  time_op ~iters:200_000 (fun () ->
      Dpu_live.Timer_wheel.add wheel ~now:!now ~delay:1.0 noop;
      now := !now +. 1.0;
      Dpu_live.Timer_wheel.advance wheel ~now:!now)

let micro_udp () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      let peers = [| Unix.getsockname fd |] in
      let u = Dpu_live.Udp_transport.create ~me:0 ~fd ~peers () in
      let tr = Dpu_live.Udp_transport.transport u in
      let got = ref 0 in
      Dpu_runtime.Transport.set_handler tr ~node:0 (fun ~src:_ _ -> incr got);
      let frame = data_frame () in
      let ns, _ =
        time_op ~iters:2_000 (fun () ->
            let before = !got and deadline = wall () +. 1.0 in
            Dpu_runtime.Transport.send tr ~src:0 ~dst:0 ~size_bytes:4096 frame;
            while !got = before do
              ignore (Dpu_live.Udp_transport.drain u : int);
              if wall () > deadline then failwith "loopback datagram lost"
            done)
      in
      ns)

let micro_layers () =
  let ns_ev, w_ev = with_span ~parent:"layers" "engine.schedule_step" micro_engine in
  let ns_on, w_on = with_span ~parent:"layers" "kernel.call.trace_on" (fun () -> micro_dispatch ~trace_on:true) in
  let ns_off, w_off = with_span ~parent:"layers" "kernel.call.trace_off" (fun () -> micro_dispatch ~trace_on:false) in
  let ns_seal, w_seal, ns_open = with_span ~parent:"layers" "wire.seal_open" micro_wire in
  let ns_wheel, _ = with_span ~parent:"layers" "live.timer_wheel" micro_wheel in
  let ns_udp = with_span ~parent:"layers" "live.udp_roundtrip" micro_udp in
  [
    ("engine.ns_per_event", ns_ev);
    ("engine.words_per_event", w_ev);
    ("kernel.ns_per_dispatch.trace_on", ns_on);
    ("kernel.ns_per_dispatch.trace_off", ns_off);
    ("kernel.words_per_dispatch.trace_on", w_on);
    ("kernel.words_per_dispatch.trace_off", w_off);
    ("wire.ns_per_seal", ns_seal);
    ("wire.ns_per_open", ns_open);
    ("wire.words_per_seal", w_seal);
    ("live.ns_per_timer_op", ns_wheel);
    ("live.ns_per_udp_roundtrip", ns_udp);
  ]

(* ---------- a live deployment, for the per-layer ledger ---------- *)

(* Two processes on loopback UDP, CT switched to the sequencer half way:
   the only path that encodes frames and runs the UDP transport, the
   timer wheel and the node event loop. Its wall-clock figures move too
   much from run to run on a shared host to serve as end-to-end metrics,
   so they enter the per-layer ledger only. *)
let live_layers ~seed =
  let p =
    {
      Dpu_live.Serve.default with
      n = 2;
      load = 300.0;
      duration_ms = 4_000.0;
      drain_ms = 500.0;
      switch_at_ms = 2_000.0;
      msg_size = 1024;
      seed;
    }
  in
  let children_cpu () =
    let t = Unix.times () in
    t.Unix.tms_cutime +. t.Unix.tms_cstime
  in
  let c0 = children_cpu () in
  Result.map
    (fun (o : Dpu_live.Serve.outcome) ->
      let cpu_s = children_cpu () -. c0 in
      let c = o.Dpu_live.Serve.collector and reports = o.Dpu_live.Serve.node_reports in
      let field f name =
        sum_f
          (List.concat_map
             (fun (r : Dpu_live.Node.report) ->
               match J.member r.Dpu_live.Node.metrics "metrics" with
               | Some (J.List ms) ->
                 List.filter_map
                   (fun m ->
                     if J.member m "name" = Some (J.Str name) then Option.bind (J.member m f) J.to_float_opt
                     else None)
                   ms
               | _ -> [])
             reports)
      in
      let msgs = Float.of_int (max 1 (C.send_count c)) in
      let copies = sum_i (List.init p.n (fun node -> List.length (C.delivers_of c ~node))) in
      let frames =
        sum_i
          (List.map
             (fun (r : Dpu_live.Node.report) -> r.Dpu_live.Node.counters.Dpu_runtime.Transport.sent)
             reports)
      in
      let lats = sorted (List.filter_map (fun (id, _, _) -> C.latency_of c id) (C.sends c)) in
      let q x = Option.value ~default:nan (quantile lats x) in
      let busy = field "value" "live_busy_ms" and idle = field "value" "live_idle_ms" in
      ( o.Dpu_live.Serve.checks,
        [
          ("live.cpu_us_per_msg", cpu_s *. 1e6 /. Float.of_int (max 1 copies));
          ("live.busy_share", busy /. (busy +. idle));
          ( "live.select_wait_mean_ms",
            field "sum" "live_select_wait_ms" /. field "count" "live_select_wait_ms" );
          ("live.wheel_fired_per_msg", field "value" "live_wheel_fired" /. msgs);
          ("live.frames_per_msg", Float.of_int frames /. msgs);
          ("live.gen_shortfall", msgs /. (p.load *. p.duration_ms /. 1000.0));
          ("live.lat_p50_ms", q 0.5);
          ("live.lat_p99_ms", q 0.99);
        ] ))
    (Dpu_live.Serve.run p)

(* ---------- one run ---------- *)

let end_to_end_units =
  [
    ("lat_p50_ms", "ms");
    ("switch_lat_p50_ms", "ms");
    ("switch_ms", "ms");
    ("goodput_msg_s", "msg/s");
    ("cpu_per_msg_ref", "ref");
    ("live_heap_mb", "MB");
    ("setup_s", "s");
  ]

let per_layer_units =
  [
    ("engine.events_per_msg", "count");
    ("engine.executed_share", "ratio");
    ("engine.ns_per_event", "ns");
    ("engine.words_per_event", "words");
    ("engine.sim_speed", "vs/s");
    ("engine.alloc_mw_per_vs", "Mwords/vs");
    ("engine.time_share", "ratio");
    ("net.datagrams_per_msg", "count");
    ("net.bytes_per_msg", "B");
    ("net.egress_backlog_max_ms", "ms");
    ("kernel.dispatches_per_msg", "count");
    ("kernel.ns_per_dispatch.trace_on", "ns");
    ("kernel.ns_per_dispatch.trace_off", "ns");
    ("kernel.words_per_dispatch.trace_on", "words");
    ("kernel.words_per_dispatch.trace_off", "words");
    ("kernel.trace_entries", "count");
    ("kernel.trace_dropped", "count");
    ("kernel.blocked_calls", "count");
    ("kernel.time_share", "ratio");
    ("protocols.consensus_decisions_per_msg", "count");
    ("protocols.rp2p_retrans_per_msg", "count");
    ("protocols.rp2p_useful_share", "ratio");
    ("protocols.fd_false_suspicions", "count");
    ("protocols.epoch_stashed", "count");
    ("protocols.epoch_replayed", "count");
    ("core.repl_intercepted_per_msg", "count");
    ("core.repl_reissued_per_switch", "count");
    ("core.undelivered_at_trigger", "count");
    ("core.stale_changes", "count");
    ("props.abcast_check_s", "s");
    ("props.stack_check_s", "s");
    ("wire.ns_per_seal", "ns");
    ("wire.ns_per_open", "ns");
    ("wire.words_per_seal", "words");
    ("live.cpu_us_per_msg", "us");
    ("live.busy_share", "ratio");
    ("live.select_wait_mean_ms", "ms");
    ("live.wheel_fired_per_msg", "count");
    ("live.frames_per_msg", "count");
    ("live.gen_shortfall", "ratio");
    ("live.lat_p50_ms", "ms");
    ("live.lat_p99_ms", "ms");
    ("live.ns_per_timer_op", "ns");
    ("live.ns_per_udp_roundtrip", "ns");
    ("obs.traced_run_overhead", "ratio");
    ("determinism.seed_shift_p50", "ratio");
    ("app.cpu_us_per_msg", "us");
    ("app.check_cpu_s", "s");
    ("app.setup_cpu_s", "s");
    ("host.ref_pass_us", "us");
    ("app.blocked_ms", "ms");
    ("app.fail_share", "ratio");
  ]

let pp_quantiles name samples =
  let a = sorted samples in
  let show q = match quantile a q with Some v -> Printf.sprintf "%.3f" v | None -> "null" in
  Printf.printf "  %-10s n=%-6d p50=%s p90=%s p99=%s p999=%s\n" name (Array.length a) (show 0.5)
    (show 0.9) (show 0.99) (show 0.999)

let virtual_outcome u = (u.fingerprint, u.sent, u.failed)

let p50_all u = Option.value ~default:nan (quantile (sorted (u.steady @ u.switched)) 0.5)

let () =
  let usage () =
    prerr_endline "usage: perfbench.exe WORKLOAD SEED SECONDS TRACE(0|1)";
    exit 2
  in
  if Array.length Sys.argv <> 5 then usage ();
  let name = Sys.argv.(1) in
  let seed = try int_of_string Sys.argv.(2) with Failure _ -> usage () in
  let seconds = try float_of_string Sys.argv.(3) with Failure _ -> usage () in
  let traced = Sys.argv.(4) = "1" in
  let spec =
    match List.assoc_opt name workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %s (have: %s)\n" name
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let unit_seed i = (seed * 1000) + i in
  let t_start = wall () in
  let units =
    Array.init spec.units (fun i ->
        with_span ~parent:"run" (Printf.sprintf "unit.%d" i) (fun () ->
            run_unit ~measure_heap:(i = 0) spec ~seed:(unit_seed i) ~traced:false))
  in
  let executions = Array.map (fun u -> [ u ]) units in
  (* Replay whole rounds while another one fits in the budget, and at
     least one: every unit then has two executions or more. *)
  let round = ref (wall () -. t_start) and rounds = ref 1 in
  while !rounds < 2 || wall () -. t_start +. !round <= seconds do
    let t0 = wall () in
    Array.iteri
      (fun i u ->
        let r =
          with_span ~parent:"run" (Printf.sprintf "replay.%d" i) (fun () ->
              run_unit spec ~seed:(unit_seed i) ~traced:false)
        in
        if virtual_outcome r <> virtual_outcome u then fail "determinism: replay of unit %d differs" i;
        executions.(i) <- r :: executions.(i))
      units;
    round := wall () -. t0;
    incr rounds
  done;
  let units = Array.to_list units and executions = Array.to_list executions in
  let all_runs = List.concat executions in
  let steady = List.concat_map (fun u -> u.steady) units in
  let switched = List.concat_map (fun u -> u.switched) units in
  let windows = List.concat_map (fun u -> u.windows) units in
  let sent = sum_i (List.map (fun u -> u.sent) units) in
  let failed = sum_i (List.map (fun u -> u.failed) units) in
  List.iter
    (fun (r : Report.t) ->
      if not r.Report.ok then fail "%s: %s" r.Report.property (String.concat "; " r.Report.violations))
    (List.concat_map (fun u -> u.reports) all_runs);
  let need what = function
    | Some v -> v
    | None ->
      fail "%s: fewer samples than the figure needs" what;
      nan
  in
  (* CPU costs over every execution of the run, divided by the CPU time
     of one reference pass timed alongside. *)
  let total f = sum_f (List.map f all_runs) in
  let ref_pass = total (fun u -> u.ref_cpu) /. total (fun u -> Float.of_int u.ref_passes) in
  let cpu_per_copy = total (fun u -> u.run_cpu) /. total (fun u -> Float.of_int u.copies) in
  let check_cpu = total (fun u -> u.check_cpu) /. Float.of_int (List.length all_runs) in
  let setup_cpu = median (List.concat_map (fun u -> u.setup_cpu) all_runs) in
  let best f runs = min_f (List.map f runs) in
  let end_to_end =
    [
      ("lat_p50_ms", need "lat_p50_ms" (central_median (sorted steady)));
      ("switch_lat_p50_ms", need "switch_lat_p50_ms" (central_median (sorted switched)));
      ("switch_ms", mean windows);
      ( "goodput_msg_s",
        Float.of_int (sum_i (List.map (fun u -> u.within) units))
        /. sum_f (List.map (fun u -> u.span_s) units) );
      ("cpu_per_msg_ref", cpu_per_copy /. ref_pass);
      ("live_heap_mb", (List.hd units).live_mb);
      ("setup_s", setup_cpu /. ref_pass *. reference_pass_s);
    ]
  in
  let values =
    if not traced then end_to_end
    else begin
      let base = List.hd units in
      (* The traced unit: metrics registry and sampling timer on. It
         must reproduce the untraced unit's virtual outcome exactly. *)
      let tr = with_span ~parent:"trace" "traced" (fun () -> run_unit spec ~seed:(unit_seed 0) ~traced:true) in
      if virtual_outcome tr <> virtual_outcome base then
        fail "determinism: traced run differs from the untraced one";
      (* A unit on a seed of its own shows how far virtual figures move
         with RNG order alone. *)
      let other =
        with_span ~parent:"trace" "second_seed" (fun () ->
            run_unit spec ~seed:(unit_seed spec.units) ~traced:false)
      in
      let layers = with_span ~parent:"trace" "layers" micro_layers in
      let live =
        match with_span ~parent:"trace" "live" (fun () -> live_layers ~seed:(unit_seed 0)) with
        | Ok (checks, figures) ->
          List.iter
            (fun (r : Report.t) ->
              if not r.Report.ok then
                fail "live %s: %s" r.Report.property (String.concat "; " r.Report.violations))
            checks;
          figures
        | Error e ->
          fail "live deployment: %s" e;
          []
      in
      let counts = tr.layers @ layers @ live in
      let get k = Option.value ~default:nan (List.assoc_opt k counts) in
      let base_run = best (fun u -> u.run_s) (List.hd executions) in
      let msgs = Float.of_int base.sent in
      let derived =
        [
          ( "engine.sim_speed",
            spec.horizon_ms /. 1000.0 *. Float.of_int (List.length units)
            /. sum_f (List.map (best (fun u -> u.run_s)) executions) );
          ("engine.alloc_mw_per_vs", base.alloc_w /. 1e6 /. (spec.horizon_ms /. 1000.0));
          ( "engine.time_share",
            get "engine.events_per_msg" *. msgs *. get "engine.ns_per_event" /. 1e9 /. base_run );
          ( "kernel.time_share",
            get "kernel.dispatches_per_msg" *. msgs *. get "kernel.ns_per_dispatch.trace_on" /. 1e9
            /. base_run );
          ("props.abcast_check_s", mean (List.map (best (fun u -> u.abcast_check_s)) executions));
          ("props.stack_check_s", mean (List.map (best (fun u -> u.stack_check_s)) executions));
          ("obs.traced_run_overhead", tr.run_s /. base_run);
          ("determinism.seed_shift_p50", Float.abs (p50_all other -. p50_all base) /. p50_all base);
          ("app.cpu_us_per_msg", cpu_per_copy *. 1e6);
          ("app.check_cpu_s", check_cpu);
          ("app.setup_cpu_s", setup_cpu);
          ("host.ref_pass_us", ref_pass *. 1e6);
          ("app.blocked_ms", List.fold_left (fun acc u -> Float.max acc u.blocked_ms) 0.0 units);
          ("app.fail_share", Float.of_int failed /. Float.of_int (max 1 sent));
        ]
      in
      derived @ counts
    end
  in
  let metrics =
    List.map
      (fun (k, unit) -> (k, unit, Option.value ~default:nan (List.assoc_opt k values)))
      (if traced then per_layer_units else end_to_end_units)
  in
  Printf.printf "perfbench %s seed=%d units=%d executions=%d sent=%d failed=%d\n" name seed
    (List.length units) (List.length all_runs) sent failed;
  pp_quantiles "latency" steady;
  pp_quantiles "switch_lat" switched;
  pp_quantiles "switch_ms" windows;
  List.iter
    (fun sp -> Printf.printf "  span %-6s %-22s %.3f s\n" sp.parent sp.name (sp.stop -. sp.start))
    (List.rev !spans);
  List.iter (fun (k, u, v) -> Printf.printf "  %-40s %14.6g %s\n" k v u) metrics;
  List.iter (Printf.printf "  [FAIL] %s\n") (List.rev !failures);
  let correct = !failures = [] in
  let metric_json (k, unit, v) = (k, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]) in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int sent);
            ("failed", J.Int failed);
            ("metrics", J.Obj (List.map metric_json metrics));
          ]));
  exit (if correct then 0 else 1)
