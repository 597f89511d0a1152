module Sim = Dpu_engine.Sim
module Rng = Dpu_engine.Rng
module Datagram = Dpu_net.Datagram
module Clock = Dpu_runtime.Clock
module Runtime = Dpu_runtime.Runtime
module Fault_transport = Dpu_faults.Fault_transport

type backend =
  | Simulated of {
      sim : Sim.t;
      net : Payload.t Datagram.t;
      shim : Payload.t Fault_transport.t option;
    }
  | External

type t = {
  backend : backend;
  runtime : Payload.t Dpu_runtime.Runtime.t;
  trace : Trace.t;
  metrics : Dpu_obs.Metrics.t;
  registry : Registry.t;
  stacks : Stack.t option array;
  local : int list;
  group_id : int option;
}

let group_labels = function Some g -> [ ("group", string_of_int g) ] | None -> []

let make ?group_id ~backend ~runtime ~trace ~metrics ~hop_cost ~n ~local () =
  let clock = Dpu_runtime.Runtime.clock runtime in
  let stacks = Array.make n None in
  List.iter
    (fun node ->
      if node < 0 || node >= n then
        invalid_arg (Printf.sprintf "System: local node %d out of range" node);
      stacks.(node) <-
        Some (Stack.create ~clock ~node ?group:group_id ~hop_cost ~trace ~metrics ()))
    local;
  {
    backend;
    runtime;
    trace;
    metrics;
    registry = Registry.create ();
    stacks;
    local;
    group_id;
  }

let create ?(seed = 1) ?sim ?(loss = 0.0) ?(dup = 0.0) ?(link = Dpu_net.Latency.lan)
    ?(faults = []) ?(hop_cost = 0.05) ?(trace_enabled = true)
    ?(metrics = Dpu_obs.Metrics.noop) ~n () =
  (match Dpu_faults.Schedule.validate ~n faults with
  | Ok () -> ()
  | Error msg -> invalid_arg ("System.create: bad fault schedule: " ^ msg));
  (* A standalone system owns its simulator (and its metric rows); a
     joining one is the shared simulator's next group, and the fabric
     that built the simulator registers it once. *)
  let sim, group_id =
    match sim with
    | None ->
      let sim = Sim.create ~seed () in
      Sim.register_metrics sim metrics;
      (sim, None)
    | Some sim -> (sim, Some (Sim.groups sim))
  in
  let group = Sim.new_group sim in
  (* Group 0 (every standalone system) draws from the root stream; a
     later group from the keyed substream for its id, which no draw on
     the root moves — so a group's randomness is independent of how
     many groups share the simulator. *)
  let rng =
    match group_id with
    | None | Some 0 -> Sim.rng sim
    | Some g -> Sim.substream sim ~key:g
  in
  let net = Datagram.create sim ~n ~rng:(Rng.split rng) ~loss ~dup ~link () in
  Datagram.register_metrics net metrics ~labels:(group_labels group_id);
  let base = Dpu_runtime.Sim_backend.runtime ~group ~rng sim net in
  let runtime, shim =
    match faults with
    | [] -> (base, None)
    | schedule ->
      let clock = Runtime.clock base in
      let shim =
        Fault_transport.create ~seed:(seed + 0x5eed) ~schedule ~clock
          (Runtime.transport base)
      in
      ( Runtime.create ~clock ~transport:(Fault_transport.transport shim) ~rng,
        Some shim )
  in
  make ?group_id
    ~backend:(Simulated { sim; net; shim })
    ~runtime ~trace:(Trace.create ~enabled:trace_enabled ()) ~metrics ~hop_cost ~n
    ~local:(List.init n Fun.id) ()

let of_runtime ?(hop_cost = 0.05) ?(trace_enabled = true)
    ?(metrics = Dpu_obs.Metrics.noop) ?local ~runtime ~n () =
  let trace = Trace.create ~enabled:trace_enabled () in
  let local = match local with None -> List.init n Fun.id | Some l -> l in
  make ~backend:External ~runtime ~trace ~metrics ~hop_cost ~n ~local ()

let n t = Array.length t.stacks

let group_id t = t.group_id

let metric_labels t = group_labels t.group_id

let runtime t = t.runtime

let clock t = Dpu_runtime.Runtime.clock t.runtime

let transport t = Dpu_runtime.Runtime.transport t.runtime

let rng t = Dpu_runtime.Runtime.rng t.runtime

let net t =
  match t.backend with
  | Simulated { net; _ } -> net
  | External -> invalid_arg "System.net: not a simulated deployment"

let fault_stats t =
  match t.backend with
  | Simulated { shim = Some shim; _ } -> Fault_transport.stats shim
  | Simulated { shim = None; _ } | External -> Fault_transport.no_stats

let trace t = t.trace

let metrics t = t.metrics

let registry t = t.registry

let local_nodes t = t.local

let stack t i =
  match t.stacks.(i) with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "System.stack: node %d is not local" i)

let iter_stacks t f = Array.iter (function Some s -> f s | None -> ()) t.stacks

let stacks t = Array.of_list (List.filter_map Fun.id (Array.to_list t.stacks))

let crash_node t i =
  (match t.stacks.(i) with Some s -> Stack.crash s | None -> ());
  match t.backend with Simulated { net; _ } -> Datagram.crash net i | External -> ()

let correct_nodes t =
  match t.backend with
  | Simulated { net; _ } -> Datagram.correct_nodes net
  | External ->
    List.filter
      (fun i ->
        match t.stacks.(i) with Some s -> not (Stack.is_crashed s) | None -> false)
      t.local

let now t = Clock.now (clock t)

let sim_exn t =
  match t.backend with
  | Simulated { sim; _ } -> sim
  | External -> invalid_arg "System: not a simulated deployment"

let run_for t d = Sim.run_for (sim_exn t) d

let run_until t time = Sim.run ~until:time (sim_exn t)

let run_until_quiescent ?limit t =
  match limit with
  | None -> Sim.run (sim_exn t)
  | Some l -> Sim.run ~until:l (sim_exn t)
