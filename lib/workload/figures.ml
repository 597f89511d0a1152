module Series = Dpu_engine.Series
module Stats = Dpu_engine.Stats
module E = Experiment

(* The Fig. 5 setting at size [n], [load] and [seed]; the switch is
   rebuilt for [n], so it still fires from the highest node. *)
let setting ?(until_ms = E.default.Run.until_ms) ?(switch_at_ms = 5_000.0) ~n ~load ~seed
    () =
  {
    E.default with
    Run.n;
    config = { E.default.Run.config with seed };
    load = Run.Open { rate_per_s = load; pattern = Load_gen.Poisson };
    until_ms;
    triggers = [ E.switch ~n ~at_ms:switch_at_ms Dpu_core.Variants.ct ];
  }

(* Run one experiment for a sweep cell: when the sweep carries a
   metrics registry, enable collection and fold this run's snapshot
   into the worker's registry so the merged parent registry accounts
   for every cell. *)
let run_counted reg (spec : Run.spec) =
  let with_metrics = reg != Dpu_obs.Metrics.noop in
  let r = E.run { spec with config = { spec.config with metrics_enabled = with_metrics } } in
  if with_metrics then
    Dpu_obs.Metrics.merge reg
      (Dpu_obs.Metrics.snapshot (Dpu_core.Middleware.metrics (E.group r).Run.mw));
  r

(* One cell per spec, each validated here first, so a rejected spec
   raises [Invalid_argument] before any cell simulates or any worker
   forks. A cell may also run variations of its spec that drop
   triggers or the layer; those stay valid. *)
let sweep ?jobs ?metrics specs f =
  Array.iter Run.validate specs;
  Sweep.run ?jobs ?metrics ~cells:(Array.length specs) (fun reg i ->
      f (run_counted reg) i specs.(i))

(* The three runs behind a Fig. 6 point, in this order: no layer,
   layer without a switch, and the switch. *)
let layer_runs run base =
  let no_layer = run (E.with_layer None base) in
  let with_layer = run { base with Run.triggers = [] } in
  (no_layer, with_layer, run base)

let figure5 ?(n = 7) ?(load = 40.0) ?(seed = 1) () = E.run (setting ~n ~load ~seed ())

let render_figure5 (r : E.result) =
  let buf = Buffer.create 4096 in
  let windowed = Series.window_average r.latency ~width:250.0 in
  let points = List.map (fun (p : Series.point) -> (p.time, p.value)) windowed in
  let ymax = List.fold_left (fun acc (_, y) -> Float.max acc y) 1.0 points in
  let window_markers =
    match r.switch_window with
    | Some (lo, hi) ->
      (* A vertical band of markers over the replacement window. *)
      let column x = List.init 8 (fun i -> (x, ymax *. float_of_int (i + 1) /. 8.0)) in
      [ ("replacement window", column lo @ column hi) ]
    | None -> []
  in
  let spec = r.run.Run.spec in
  let load =
    match spec.load with
    | Run.Open { rate_per_s; _ } -> Printf.sprintf "%.0f msg/s" rate_per_s
    | Run.Closed { clients_per_node } -> Printf.sprintf "%d clients/node" clients_per_node
  in
  let switch =
    match E.switch_at spec with
    | Some at_ms -> Printf.sprintf "switch at %.0f ms" at_ms
    | None -> "no switch"
  in
  Buffer.add_string buf
    (Ascii.chart
       ~title:
         (Printf.sprintf "Figure 5: ABcast latency vs send time (n=%d, %s, %s)" spec.n
            load switch)
       ~x_unit:"ms (send time)" ~y_unit:"ms"
       (("avg latency (250 ms windows)", points) :: window_markers));
  (match r.switch_window with
  | Some (lo, hi) ->
    Buffer.add_string buf
      (Printf.sprintf "replacement window: %.1f .. %.1f ms (%.1f ms)\n" lo hi (hi -. lo))
  | None -> Buffer.add_string buf "no replacement completed\n");
  Buffer.add_string buf
    (Printf.sprintf "normal: %.2f ms (n=%d)   during replacement: %.2f ms (n=%d)\n"
       (Stats.mean r.normal) (Stats.count r.normal) (Stats.mean r.during)
       (Stats.count r.during));
  Buffer.contents buf

type fig6_point = {
  n : int;
  load : float;
  no_layer_ms : float;
  with_layer_ms : float;
  during_ms : float;
}

let figure6_sweep ?(ns = [ 3; 7 ]) ?(loads = [ 10.0; 20.0; 40.0; 60.0; 80.0 ])
    ?(seed = 1) ?jobs ?metrics () =
  let grid =
    Array.of_list (List.concat_map (fun n -> List.map (fun load -> (n, load)) loads) ns)
  in
  let specs =
    Array.map
      (fun (n, load) -> setting ~until_ms:8_000.0 ~switch_at_ms:4_000.0 ~n ~load ~seed ())
      grid
  in
  sweep ?jobs ?metrics specs (fun run idx base ->
      let no_layer, with_layer, switching = layer_runs run base in
      let n, load = grid.(idx) in
      {
        n;
        load;
        no_layer_ms = Stats.mean no_layer.E.normal;
        with_layer_ms = Stats.mean with_layer.E.normal;
        during_ms = Stats.mean switching.E.during;
      })

let render_figure6 points =
  let buf = Buffer.create 4096 in
  let ns = List.sort_uniq Int.compare (List.map (fun p -> p.n) points) in
  List.iter
    (fun n ->
      let mine = List.filter (fun p -> p.n = n) points in
      let series name f = (name, List.map (fun p -> (p.load, f p)) mine) in
      Buffer.add_string buf
        (Ascii.chart
           ~title:(Printf.sprintf "Figure 6: latency vs load (n=%d)" n)
           ~x_unit:"msg/s" ~y_unit:"ms"
           [
             series "normal, without replacement layer" (fun p -> p.no_layer_ms);
             series "normal, with replacement layer" (fun p -> p.with_layer_ms);
             series "during replacement" (fun p -> p.during_ms);
           ]))
    ns;
  let rows =
    List.map
      (fun p ->
        [
          string_of_int p.n;
          Printf.sprintf "%.0f" p.load;
          Printf.sprintf "%.2f" p.no_layer_ms;
          Printf.sprintf "%.2f" p.with_layer_ms;
          Printf.sprintf "%+.1f%%"
            ((p.with_layer_ms -. p.no_layer_ms) /. p.no_layer_ms *. 100.0);
          Printf.sprintf "%.2f" p.during_ms;
        ])
      points
  in
  Buffer.add_string buf
    (Ascii.table
       ~header:[ "n"; "load"; "no-layer"; "with-layer"; "overhead"; "during-switch" ]
       rows);
  Buffer.contents buf

type headline = {
  layer_overhead_pct : float;
  spike_pct : float;
  spike_duration_ms : float;
  app_blocked_ms : float;
}

(* Marshal-safe per-seed slice of the headline aggregation: raw sample
   arrays, not [Stats.t] (which the parent re-folds in seed order so
   the float arithmetic matches the sequential run exactly). *)
type headline_cell = {
  hc_no_layer : float array;
  hc_with_layer : float array;
  hc_normal : float array;
  hc_during : float array;
  hc_duration_ms : float;
  hc_blocked_ms : float;
}

let headline_sweep ?(n = 7) ?(load = 40.0) ?(seeds = [ 1; 2; 3; 4; 5 ]) ?jobs
    ?metrics () =
  (* One switch yields only a handful of during-window messages (the
     window is about one ABcast latency), so the headline aggregates
     several seeds for statistical weight. Each seed is one sweep cell. *)
  let specs = Array.of_list (List.map (fun seed -> setting ~n ~load ~seed ()) seeds) in
  let outcome =
    sweep ?jobs ?metrics specs (fun run _ base ->
        let no_layer, with_layer, switching = layer_runs run base in
        {
          hc_no_layer = Stats.samples no_layer.E.normal;
          hc_with_layer = Stats.samples with_layer.E.normal;
          hc_normal = Stats.samples switching.E.normal;
          hc_during = Stats.samples switching.E.during;
          hc_duration_ms = switching.E.switch_duration_ms;
          hc_blocked_ms = (E.group switching).Run.blocked_ms;
        })
  in
  let no_layer_all = Stats.create () in
  let with_layer_all = Stats.create () in
  let normal_all = Stats.create () in
  let during_all = Stats.create () in
  let durations = Stats.create () in
  let blocked = ref 0.0 in
  Array.iter
    (fun c ->
      Array.iter (Stats.add no_layer_all) c.hc_no_layer;
      Array.iter (Stats.add with_layer_all) c.hc_with_layer;
      Array.iter (Stats.add normal_all) c.hc_normal;
      Array.iter (Stats.add during_all) c.hc_during;
      Stats.add durations c.hc_duration_ms;
      blocked := Float.max !blocked c.hc_blocked_ms)
    outcome.Sweep.results;
  let overhead =
    (Stats.mean with_layer_all -. Stats.mean no_layer_all)
    /. Stats.mean no_layer_all *. 100.0
  in
  let spike =
    (Stats.mean during_all -. Stats.mean normal_all) /. Stats.mean normal_all *. 100.0
  in
  ( {
      layer_overhead_pct = overhead;
      spike_pct = spike;
      spike_duration_ms = Stats.mean durations;
      app_blocked_ms = !blocked;
    },
    outcome.Sweep.stats )

let render_headline h =
  Ascii.table
    ~header:[ "metric"; "paper"; "measured" ]
    [
      [ "replacement-layer overhead"; "~5%"; Printf.sprintf "%.1f%%" h.layer_overhead_pct ];
      [ "latency spike during switch"; "~50%"; Printf.sprintf "%.1f%%" h.spike_pct ];
      [
        "replacement duration"; "~1 s (short period)";
        Printf.sprintf "%.0f ms" h.spike_duration_ms;
      ];
      [ "application blocked"; "never"; Printf.sprintf "%.1f ms" h.app_blocked_ms ];
    ]

type comparison_row = {
  approach : string;
  normal_ms : float;
  during_switch_ms : float;
  switch_duration : float;
  blocked : float;
  all_delivered : bool;
}

let compare_approaches_sweep ?(n = 5) ?(load = 40.0) ?(seed = 1) ?jobs ?metrics () =
  let approaches = [| "repl"; "graceful"; "maestro" |] in
  let spec a = E.with_layer (List.assoc a E.approaches) (setting ~n ~load ~seed ()) in
  let specs = Array.map spec approaches in
  let outcome =
    sweep ?jobs ?metrics specs (fun run idx spec ->
        let r = run spec in
        {
          approach = approaches.(idx);
          normal_ms = Stats.mean r.E.normal;
          during_switch_ms = Stats.mean r.E.during;
          switch_duration = r.E.switch_duration_ms;
          blocked = (E.group r).Run.blocked_ms;
          all_delivered = r.E.delivered_everywhere = r.E.sent;
        })
  in
  (Array.to_list outcome.Sweep.results, outcome.Sweep.stats)

let render_comparison rows =
  Ascii.table
    ~header:
      [ "approach"; "normal [ms]"; "during switch [ms]"; "switch [ms]"; "blocked [ms]"; "all delivered" ]
    (List.map
       (fun r ->
         [
           r.approach;
           Printf.sprintf "%.2f" r.normal_ms;
           Printf.sprintf "%.2f" r.during_switch_ms;
           Printf.sprintf "%.1f" r.switch_duration;
           Printf.sprintf "%.1f" r.blocked;
           string_of_bool r.all_delivered;
         ])
       rows)
