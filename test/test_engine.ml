(* Unit and property tests for the discrete-event engine. *)

module Heap = Dpu_engine.Heap
module Rng = Dpu_engine.Rng
module Sim = Dpu_engine.Sim
module Stats = Dpu_engine.Stats
module Series = Dpu_engine.Series

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)
(* ------------------------------------------------------------------ *)

let test_heap_empty () =
  let h = Heap.create () in
  check Alcotest.int "length" 0 (Heap.length h);
  check Alcotest.bool "is_empty" true (Heap.is_empty h);
  check Alcotest.bool "pop" true (Heap.pop h = None);
  check Alcotest.bool "peek" true (Heap.peek h = None);
  check Alcotest.bool "min_priority" true (Heap.min_priority h = None)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.add h ~priority:p p) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = List.init 5 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> nan) in
  check (Alcotest.list (Alcotest.float 0.0)) "ascending" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] order

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.add h ~priority:1.0 v) [ "a"; "b"; "c"; "d" ];
  Heap.add h ~priority:0.5 "first";
  let order =
    List.init 5 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> "?")
  in
  check (Alcotest.list Alcotest.string) "stable ties" [ "first"; "a"; "b"; "c"; "d" ] order

let test_heap_peek_nondestructive () =
  let h = Heap.create () in
  Heap.add h ~priority:2.0 "x";
  Heap.add h ~priority:1.0 "y";
  check Alcotest.bool "peek min" true (Heap.peek h = Some (1.0, "y"));
  check Alcotest.int "length unchanged" 2 (Heap.length h);
  check Alcotest.bool "min_priority" true (Heap.min_priority h = Some 1.0)

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.add h ~priority:3.0 3;
  Heap.add h ~priority:1.0 1;
  (match Heap.pop h with
  | Some (_, 1) -> ()
  | Some _ | None -> fail "expected 1");
  Heap.add h ~priority:2.0 2;
  Heap.add h ~priority:0.5 0;
  let rest = List.init 3 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> -1) in
  check (Alcotest.list Alcotest.int) "rest" [ 0; 2; 3 ] rest

let test_heap_pop_exn () =
  let h = Heap.create () in
  check Alcotest.bool "pop_exn empty raises" true
    (match Heap.pop_exn h with _ -> false | exception Heap.Empty -> true);
  check Alcotest.bool "min_priority_exn empty raises" true
    (match Heap.min_priority_exn h with _ -> false | exception Heap.Empty -> true);
  List.iter (fun p -> Heap.add h ~priority:p p) [ 3.0; 1.0; 2.0 ];
  check (Alcotest.float 1e-9) "min priority" 1.0 (Heap.min_priority_exn h);
  check (Alcotest.float 1e-9) "pop min" 1.0 (Heap.pop_exn h);
  check (Alcotest.float 1e-9) "next min priority" 2.0 (Heap.min_priority_exn h);
  check (Alcotest.float 1e-9) "pop next" 2.0 (Heap.pop_exn h);
  check (Alcotest.float 1e-9) "pop last" 3.0 (Heap.pop_exn h);
  check Alcotest.bool "empty again" true (Heap.is_empty h)

let test_heap_clear () =
  let h = Heap.create () in
  for i = 1 to 10 do
    Heap.add h ~priority:(float_of_int i) i
  done;
  Heap.clear h;
  check Alcotest.int "cleared" 0 (Heap.length h);
  Heap.add h ~priority:1.0 42;
  check Alcotest.bool "usable after clear" true (Heap.pop h = Some (1.0, 42))

let test_heap_iter_unordered () =
  let h = Heap.create () in
  for i = 1 to 20 do
    Heap.add h ~priority:(float_of_int (20 - i)) i
  done;
  let seen = ref 0 in
  Heap.iter_unordered h (fun _ -> incr seen);
  check Alcotest.int "all visited" 20 !seen

let test_heap_growth () =
  let h = Heap.create () in
  for i = 1000 downto 1 do
    Heap.add h ~priority:(float_of_int i) i
  done;
  check Alcotest.int "length" 1000 (Heap.length h);
  let prev = ref neg_infinity in
  let sorted = ref true in
  for _ = 1 to 1000 do
    match Heap.pop h with
    | Some (p, _) ->
      if p < !prev then sorted := false;
      prev := p
    | None -> sorted := false
  done;
  check Alcotest.bool "sorted drain" true !sorted

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap drains in sorted stable order" ~count:200
    QCheck.(list (pair (float_range 0.0 100.0) small_int))
    (fun entries ->
      let h = Heap.create () in
      List.iteri (fun i (p, v) -> Heap.add h ~priority:p (p, i, v)) entries;
      let rec drain acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some (_, x) -> drain (x :: acc)
      in
      let drained = drain [] in
      let expected =
        List.mapi (fun i (p, v) -> (p, i, v)) entries
        |> List.stable_sort (fun (p1, i1, _) (p2, i2, _) ->
               match compare p1 p2 with 0 -> compare i1 i2 | c -> c)
      in
      drained = expected)

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check (Alcotest.float 0.0) "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref true in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then same := false
  done;
  check Alcotest.bool "different streams" false !same

let test_rng_float_range () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    if x < 0.0 || x >= 1.0 then fail "float out of [0,1)"
  done

let test_rng_int_range () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 13 in
    if x < 0 || x >= 13 then fail "int out of range"
  done

let test_rng_bool_extremes () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 50 do
    check Alcotest.bool "p=1" true (Rng.bool r ~p:1.0);
    check Alcotest.bool "p=0" false (Rng.bool r ~p:0.0)
  done

let test_rng_uniform_bounds () =
  let r = Rng.create ~seed:9 in
  for _ = 1 to 500 do
    let x = Rng.uniform r ~lo:5.0 ~hi:6.5 in
    if x < 5.0 || x >= 6.5 then fail "uniform out of bounds"
  done

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.exponential r ~mean:3.0 in
    if x < 0.0 then fail "negative exponential";
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  if abs_float (mean -. 3.0) > 0.15 then
    fail (Printf.sprintf "exponential mean off: %f" mean)

let test_rng_normal_moments () =
  let r = Rng.create ~seed:13 in
  let n = 20_000 in
  let s = Stats.create () in
  for _ = 1 to n do
    Stats.add s (Rng.normal r ~mean:10.0 ~stddev:2.0)
  done;
  if abs_float (Stats.mean s -. 10.0) > 0.1 then fail "normal mean off";
  if abs_float (Stats.stddev s -. 2.0) > 0.1 then fail "normal stddev off"

let test_rng_lognormal_positive () =
  let r = Rng.create ~seed:15 in
  for _ = 1 to 1000 do
    if Rng.lognormal r ~mu:0.0 ~sigma:1.0 <= 0.0 then fail "lognormal not positive"
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:17 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_split_independent () =
  let r = Rng.create ~seed:19 in
  let a = Rng.split r in
  let b = Rng.split r in
  let equal = ref true in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then equal := false
  done;
  check Alcotest.bool "split streams differ" false !equal

let test_rng_copy_snapshot () =
  let r = Rng.create ~seed:21 in
  ignore (Rng.float r);
  let c = Rng.copy r in
  check (Alcotest.float 0.0) "copy continues identically" (Rng.float r) (Rng.float c)

let stream rng = List.init 8 (fun _ -> Rng.int64 rng)

(* The property the sharded fabric rests on: shard [k]'s stream is a
   function of (root seed, k) alone — never of how many other shards
   exist or in what order they were created. *)
let test_rng_split_key_independent_of_population () =
  let streams_with ~shards =
    List.init shards (fun k ->
        let root = Rng.create ~seed:42 in
        stream (Rng.split_key root ~key:k))
  in
  let four = streams_with ~shards:4 in
  let sixteen = streams_with ~shards:16 in
  List.iteri
    (fun k s ->
      check (Alcotest.list Alcotest.int64)
        (Printf.sprintf "shard %d stream unchanged at 16 shards" k)
        s (List.nth sixteen k))
    four

let test_rng_split_key_pure () =
  let r = Rng.create ~seed:7 in
  let before = stream (Rng.copy r) in
  ignore (Rng.split_key r ~key:3);
  ignore (Rng.split_key r ~key:9);
  check (Alcotest.list Alcotest.int64) "parent not advanced" before (stream r)

let test_rng_split_key_distinct () =
  let r = Rng.create ~seed:5 in
  let a = stream (Rng.split_key r ~key:0) in
  let b = stream (Rng.split_key r ~key:1) in
  check Alcotest.bool "distinct keys, distinct streams" false (a = b)

let test_rng_split_key_zero_matches_split () =
  (* split_key ~key:0 is the same derivation split performs, minus the
     parent advance — pin that so the two stay interchangeable for the
     first child. *)
  let a = Rng.create ~seed:11 and b = Rng.create ~seed:11 in
  check (Alcotest.list Alcotest.int64) "key 0 = first split child"
    (stream (Rng.split a))
    (stream (Rng.split_key b ~key:0))

(* ------------------------------------------------------------------ *)
(* Sim                                                                *)
(* ------------------------------------------------------------------ *)

let test_sim_substream_ignores_root_draws () =
  (* A fabric group's stream is keyed off the root's initial state, so
     group 0 drawing from the root first cannot move it. *)
  let sim = Sim.create ~seed:9 () in
  let before = stream (Sim.substream sim ~key:2) in
  ignore (Rng.split (Sim.rng sim) : Rng.t);
  ignore (Rng.float (Sim.rng sim) : float);
  check (Alcotest.list Alcotest.int64) "unmoved by root draws" before
    (stream (Sim.substream sim ~key:2));
  check (Alcotest.list Alcotest.int64) "split_key of the seed's root"
    (stream (Rng.split_key (Rng.create ~seed:9) ~key:2))
    before

let test_sim_schedule_order () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~delay:3.0 (fun () -> log := 3 :: !log));
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Sim.schedule sim ~delay:2.0 (fun () -> log := 2 :: !log));
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "order" [ 1; 2; 3 ] (List.rev !log)

let test_sim_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.schedule sim ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_clock_advances () =
  let sim = Sim.create () in
  let seen = ref 0.0 in
  ignore (Sim.schedule sim ~delay:5.5 (fun () -> seen := Sim.now sim));
  Sim.run sim;
  check (Alcotest.float 1e-9) "clock at event" 5.5 !seen;
  check (Alcotest.float 1e-9) "clock after run" 5.5 (Sim.now sim)

let test_sim_negative_delay_clamped () =
  let sim = Sim.create () in
  let ran = ref false in
  ignore (Sim.schedule sim ~delay:(-4.0) (fun () -> ran := true));
  Sim.run sim;
  check Alcotest.bool "ran at now" true !ran;
  check (Alcotest.float 0.0) "clock" 0.0 (Sim.now sim)

let test_sim_schedule_at_past () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~delay:10.0 (fun () -> ()));
  Sim.run sim;
  let ran_at = ref 0.0 in
  ignore (Sim.schedule_at sim ~time:3.0 (fun () -> ran_at := Sim.now sim));
  Sim.run sim;
  check (Alcotest.float 1e-9) "clamped to now" 10.0 !ran_at

let test_sim_cancel () =
  let sim = Sim.create () in
  let ran = ref false in
  let h = Sim.schedule sim ~delay:1.0 (fun () -> ran := true) in
  Sim.cancel sim h;
  check Alcotest.bool "cancelled flag" true (Sim.is_cancelled sim h);
  Sim.run sim;
  check Alcotest.bool "not run" false !ran

let test_sim_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.schedule sim ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Sim.run ~until:5.5 sim;
  check Alcotest.int "only first five" 5 !count;
  check (Alcotest.float 1e-9) "clock at horizon" 5.5 (Sim.now sim);
  Sim.run sim;
  check Alcotest.int "rest run later" 10 !count

let test_sim_run_for () =
  let sim = Sim.create () in
  Sim.run_for sim 100.0;
  check (Alcotest.float 1e-9) "advances on empty queue" 100.0 (Sim.now sim);
  Sim.run_for sim 50.0;
  check (Alcotest.float 1e-9) "cumulative" 150.0 (Sim.now sim)

let test_sim_every () =
  let sim = Sim.create () in
  let count = ref 0 in
  let h = Sim.every sim ~period:10.0 (fun () -> incr count) in
  Sim.run ~until:55.0 sim;
  check Alcotest.int "five ticks" 5 !count;
  Sim.cancel sim h;
  Sim.run ~until:200.0 sim;
  check Alcotest.int "stops after cancel" 5 !count

let test_sim_stop () =
  let sim = Sim.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore (Sim.schedule sim ~delay:1.0 (fun () -> incr count; if !count = 3 then Sim.stop sim))
  done;
  Sim.run sim;
  check Alcotest.int "stopped early" 3 !count

let test_sim_max_events () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec loop () =
    incr count;
    ignore (Sim.schedule sim ~delay:1.0 loop)
  in
  ignore (Sim.schedule sim ~delay:1.0 loop);
  Sim.run ~max_events:50 sim;
  check Alcotest.int "bounded" 50 !count

let test_sim_max_events_ignores_cancelled () =
  (* Regression: reaping a cancelled event from the queue must not
     charge the [max_events] budget — a bounded run would end early. *)
  let sim = Sim.create () in
  let count = ref 0 in
  let handles =
    List.init 10 (fun i ->
        Sim.schedule sim ~delay:(float_of_int (i + 1)) (fun () -> incr count))
  in
  (* Cancel the five earliest events; the five live ones must all fit
     in a budget of exactly five executions. *)
  List.iteri (fun i h -> if i < 5 then Sim.cancel sim h) handles;
  Sim.run ~max_events:5 sim;
  check Alcotest.int "all live events ran" 5 !count;
  check Alcotest.int "executed counter agrees" 5 (Sim.events_executed sim)

let test_sim_max_events_keeps_clock () =
  (* Regression: exiting [run ~until] via [max_events] with events still
     queued before the horizon must NOT fast-forward the clock — the
     next [step] would move virtual time backwards. *)
  let sim = Sim.create () in
  for i = 1 to 10 do
    ignore (Sim.schedule sim ~delay:(float_of_int i) (fun () -> ()))
  done;
  Sim.run ~until:20.0 ~max_events:3 sim;
  check (Alcotest.float 1e-9) "clock at last executed event" 3.0 (Sim.now sim);
  ignore (Sim.step sim : bool);
  check (Alcotest.float 1e-9) "clock moves forward" 4.0 (Sim.now sim);
  Sim.run ~until:20.0 sim;
  check (Alcotest.float 1e-9) "horizon honoured once drained" 20.0 (Sim.now sim)

let test_sim_stop_keeps_clock () =
  let sim = Sim.create () in
  for i = 1 to 5 do
    ignore
      (Sim.schedule sim ~delay:(float_of_int i) (fun () ->
           if Sim.now sim >= 2.0 then Sim.stop sim))
  done;
  Sim.run ~until:50.0 sim;
  check (Alcotest.float 1e-9) "stopped at event time" 2.0 (Sim.now sim)

let test_sim_until_ff_past_queued_beyond_horizon () =
  (* The fast-forward is still correct when the next event lies beyond
     the horizon. *)
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~delay:30.0 (fun () -> ()));
  Sim.run ~until:20.0 ~max_events:5 sim;
  check (Alcotest.float 1e-9) "fast-forwarded" 20.0 (Sim.now sim)

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~delay:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Sim.schedule sim ~delay:0.0 (fun () -> log := "inner" :: !log))));
  ignore (Sim.schedule sim ~delay:2.0 (fun () -> log := "later" :: !log));
  Sim.run sim;
  check (Alcotest.list Alcotest.string) "nested order" [ "outer"; "inner"; "later" ]
    (List.rev !log)

let test_sim_pending () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> ()));
  ignore (Sim.schedule sim ~delay:2.0 (fun () -> ()));
  check Alcotest.int "two pending" 2 (Sim.pending sim);
  Sim.run sim;
  check Alcotest.int "drained" 0 (Sim.pending sim)

let test_sim_stale_handle_after_reuse () =
  (* Arena slots are recycled through a free list; a handle kept past
     its event's execution must not cancel whatever event now occupies
     the slot. *)
  let sim = Sim.create () in
  let stale = Sim.schedule sim ~delay:1.0 (fun () -> ()) in
  Sim.run sim;
  let ran = ref false in
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> ran := true));
  Sim.cancel sim stale;
  check Alcotest.bool "stale handle reads cancelled" true (Sim.is_cancelled sim stale);
  Sim.run sim;
  check Alcotest.bool "recycled slot's event still fires" true !ran

let test_sim_group_ready_fifo () =
  let sim = Sim.create () in
  let g = Sim.new_group sim in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~delay:1.0 (fun () ->
         for i = 1 to 4 do
           ignore (Sim.schedule_group sim ~group:g ~delay:0.0 (fun () -> log := i :: !log))
         done));
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "ready queue drains FIFO" [ 1; 2; 3; 4 ]
    (List.rev !log)

let test_sim_group_drain_order () =
  (* Ready queues drain lowest group id first, and all ready work runs
     before the next heap pop — one group's immediate cascade never
     interleaves with another group's. *)
  let sim = Sim.create () in
  let g0 = Sim.new_group sim in
  let g1 = Sim.new_group sim in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~delay:1.0 (fun () ->
         ignore (Sim.schedule_group sim ~group:g1 ~delay:0.0 (fun () -> log := "b0" :: !log));
         ignore (Sim.schedule_group sim ~group:g0 ~delay:0.0 (fun () -> log := "a0" :: !log));
         ignore (Sim.schedule sim ~delay:0.0 (fun () -> log := "heap" :: !log));
         ignore (Sim.schedule_group sim ~group:g0 ~delay:0.0 (fun () -> log := "a1" :: !log))));
  Sim.run sim;
  check
    (Alcotest.list Alcotest.string)
    "group 0 first, then group 1, heap event last"
    [ "a0"; "a1"; "b0"; "heap" ] (List.rev !log);
  check Alcotest.int "two groups allocated" 2 (Sim.groups sim)

let test_sim_group_positive_delay_uses_heap () =
  (* A positive delay through schedule_group is ordinary heap
     scheduling: the clock must advance to fire it. *)
  let sim = Sim.create () in
  let g = Sim.new_group sim in
  let at = ref 0.0 in
  ignore (Sim.schedule_group sim ~group:g ~delay:2.5 (fun () -> at := Sim.now sim));
  check Alcotest.int "nothing on the ready queue" 0 (Sim.ready_pending sim ~group:g);
  Sim.run sim;
  check (Alcotest.float 1e-9) "fired via the heap at +2.5" 2.5 !at

let test_sim_group_pending_counts () =
  let sim = Sim.create () in
  let g0 = Sim.new_group sim in
  let g1 = Sim.new_group sim in
  ignore
    (Sim.schedule sim ~delay:1.0 (fun () ->
         ignore (Sim.schedule_group sim ~group:g0 ~delay:0.0 (fun () -> ()));
         ignore (Sim.schedule_group sim ~group:g0 ~delay:0.0 (fun () -> ()));
         ignore (Sim.schedule_group sim ~group:g1 ~delay:0.0 (fun () -> ()));
         check Alcotest.int "g0 ready" 2 (Sim.ready_pending sim ~group:g0);
         check Alcotest.int "g1 ready" 1 (Sim.ready_pending sim ~group:g1);
         check Alcotest.int "pending counts ready events" 3 (Sim.pending sim)));
  Sim.run sim;
  check Alcotest.int "all drained" 0 (Sim.pending sim)

let test_sim_group_cancel_ready () =
  let sim = Sim.create () in
  let g = Sim.new_group sim in
  let ran = ref false in
  ignore
    (Sim.schedule sim ~delay:1.0 (fun () ->
         let h = Sim.schedule_group sim ~group:g ~delay:0.0 (fun () -> ran := true) in
         Sim.cancel sim h));
  Sim.run sim;
  check Alcotest.bool "cancelled ready event did not run" false !ran

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_stats_empty () =
  let s = Stats.create () in
  check Alcotest.int "count" 0 (Stats.count s);
  check Alcotest.bool "mean nan" true (Float.is_nan (Stats.mean s));
  check Alcotest.bool "percentile nan" true (Float.is_nan (Stats.percentile s 50.0))

let test_stats_known_values () =
  let s = Stats.create () in
  Stats.add_all s [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean s);
  check (Alcotest.float 1e-6) "variance" (32.0 /. 7.0) (Stats.variance s);
  check (Alcotest.float 0.0) "min" 2.0 (Stats.min s);
  check (Alcotest.float 0.0) "max" 9.0 (Stats.max s)

let test_stats_percentiles () =
  let s = Stats.create () in
  Stats.add_all s [ 1.0; 2.0; 3.0; 4.0 ];
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile s 0.0);
  check (Alcotest.float 1e-9) "p100" 4.0 (Stats.percentile s 100.0);
  check (Alcotest.float 1e-9) "median interp" 2.5 (Stats.median s);
  check (Alcotest.float 1e-9) "p25" 1.75 (Stats.percentile s 25.0)

let test_stats_single () =
  let s = Stats.create () in
  Stats.add s 42.0;
  check (Alcotest.float 0.0) "mean" 42.0 (Stats.mean s);
  check Alcotest.bool "variance nan" true (Float.is_nan (Stats.variance s));
  check (Alcotest.float 0.0) "median" 42.0 (Stats.median s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add_all a [ 1.0; 2.0 ];
  Stats.add_all b [ 3.0; 4.0 ];
  let m = Stats.merge a b in
  check Alcotest.int "count" 4 (Stats.count m);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean m)

let test_stats_clear () =
  let s = Stats.create () in
  Stats.add_all s [ 1.0; 2.0 ];
  Stats.clear s;
  check Alcotest.int "count" 0 (Stats.count s);
  Stats.add s 5.0;
  check (Alcotest.float 0.0) "usable" 5.0 (Stats.mean s)

let test_stats_samples_order () =
  let s = Stats.create () in
  Stats.add_all s [ 3.0; 1.0; 2.0 ];
  check (Alcotest.array (Alcotest.float 0.0)) "insertion order" [| 3.0; 1.0; 2.0 |]
    (Stats.samples s)

let test_stats_nan_sorts_first () =
  (* [Float.compare] gives NaN a deterministic position (smallest);
     polymorphic compare relied on the boxed-float fallback. *)
  let s = Stats.create () in
  Stats.add_all s [ 2.0; nan; 1.0 ];
  check Alcotest.bool "p0 is the NaN" true (Float.is_nan (Stats.percentile s 0.0));
  check (Alcotest.float 1e-9) "p100 unaffected" 2.0 (Stats.percentile s 100.0)

let test_stats_pp_empty () =
  (* An empty accumulator must render, not raise or print NaNs. *)
  let s = Stats.create () in
  check Alcotest.string "renders n=0" "n=0" (Format.asprintf "%a" Stats.pp s)

let test_stats_pp_single () =
  let s = Stats.create () in
  Stats.add s 42.0;
  let out = Format.asprintf "%a" Stats.pp s in
  check Alcotest.bool "mentions n=1" true
    (String.length out >= 4 && String.sub out 0 4 = "n=1 ");
  (* A single sample has undefined variance but pp must still produce
     the mean/percentiles. *)
  check Alcotest.bool "mentions the value" true
    (let needle = "42.000" in
     let nl = String.length needle and hl = String.length out in
     let rec go i = i + nl <= hl && (String.sub out i nl = needle || go (i + 1)) in
     go 0)

let test_stats_percentile_after_more_adds () =
  (* The sorted cache must invalidate on insertion. *)
  let s = Stats.create () in
  Stats.add_all s [ 10.0; 20.0 ];
  ignore (Stats.median s);
  Stats.add s 0.0;
  check (Alcotest.float 1e-9) "median updated" 10.0 (Stats.median s)

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"mean within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let s = Stats.create () in
      Stats.add_all s xs;
      Stats.mean s >= Stats.min s -. 1e-9 && Stats.mean s <= Stats.max s +. 1e-9)

let prop_stats_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(list_of_size Gen.(2 -- 50) (float_range 0.0 100.0))
    (fun xs ->
      let s = Stats.create () in
      Stats.add_all s xs;
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 100.0 ] in
      let vals = List.map (Stats.percentile s) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | [ _ ] | [] -> true
      in
      mono vals)

(* ------------------------------------------------------------------ *)
(* Series                                                             *)
(* ------------------------------------------------------------------ *)

let test_series_points_sorted () =
  let s = Series.create () in
  Series.add s ~time:3.0 ~value:30.0;
  Series.add s ~time:1.0 ~value:10.0;
  Series.add s ~time:2.0 ~value:20.0;
  let times = List.map (fun (p : Series.point) -> p.time) (Series.points s) in
  check (Alcotest.list (Alcotest.float 0.0)) "sorted" [ 1.0; 2.0; 3.0 ] times

let test_series_between () =
  let s = Series.create () in
  List.iter (fun t -> Series.add s ~time:t ~value:t) [ 0.0; 1.0; 2.0; 3.0; 4.0 ];
  let got = List.map (fun (p : Series.point) -> p.time) (Series.between s ~lo:1.0 ~hi:3.0) in
  check (Alcotest.list (Alcotest.float 0.0)) "half-open window" [ 1.0; 2.0 ] got

let test_series_stats () =
  let s = Series.create () in
  List.iter (fun v -> Series.add s ~time:v ~value:v) [ 1.0; 2.0; 3.0 ];
  check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean (Series.stats s));
  check Alcotest.int "count between" 1
    (Stats.count (Series.stats_between s ~lo:1.5 ~hi:2.5))

let test_series_window_average () =
  let s = Series.create () in
  Series.add s ~time:0.5 ~value:10.0;
  Series.add s ~time:0.7 ~value:20.0;
  Series.add s ~time:2.5 ~value:30.0;
  let windows = Series.window_average s ~width:1.0 in
  match windows with
  | [ w0; w2 ] ->
    check (Alcotest.float 1e-9) "first window mean" 15.0 w0.Series.value;
    check (Alcotest.float 1e-9) "first window mid" 0.5 w0.Series.time;
    check (Alcotest.float 1e-9) "skip empty window" 30.0 w2.Series.value;
    check (Alcotest.float 1e-9) "third window mid" 2.5 w2.Series.time
  | _ -> fail "expected exactly two windows"

let test_series_map_values () =
  let s = Series.create () in
  Series.add s ~time:1.0 ~value:2.0;
  let doubled = Series.map_values s (fun v -> v *. 2.0) in
  check (Alcotest.float 0.0) "mapped" 4.0 (List.hd (Series.values doubled))

let prop_series_window_preserves_weighted_mean =
  QCheck.Test.make ~name:"series length preserved by map" ~count:100
    QCheck.(list (pair (float_range 0.0 100.0) (float_range 0.0 10.0)))
    (fun pts ->
      let s = Series.create () in
      List.iter (fun (t, v) -> Series.add s ~time:t ~value:v) pts;
      Series.length (Series.map_values s (fun v -> v +. 1.0)) = List.length pts)

(* ------------------------------------------------------------------ *)

let qtests = [ prop_heap_sorted; prop_stats_mean_bounded; prop_stats_percentile_monotone;
               prop_series_window_preserves_weighted_mean ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "engine"
    [
      ( "heap",
        [
          tc "empty" test_heap_empty;
          tc "order" test_heap_order;
          tc "fifo ties" test_heap_fifo_ties;
          tc "peek nondestructive" test_heap_peek_nondestructive;
          tc "interleaved" test_heap_interleaved;
          tc "pop_exn" test_heap_pop_exn;
          tc "clear" test_heap_clear;
          tc "iter_unordered" test_heap_iter_unordered;
          tc "growth" test_heap_growth;
        ] );
      ( "rng",
        [
          tc "determinism" test_rng_determinism;
          tc "seeds differ" test_rng_seeds_differ;
          tc "float range" test_rng_float_range;
          tc "int range" test_rng_int_range;
          tc "bool extremes" test_rng_bool_extremes;
          tc "uniform bounds" test_rng_uniform_bounds;
          tc "exponential mean" test_rng_exponential_mean;
          tc "normal moments" test_rng_normal_moments;
          tc "lognormal positive" test_rng_lognormal_positive;
          tc "shuffle permutation" test_rng_shuffle_permutation;
          tc "split independent" test_rng_split_independent;
          tc "copy snapshot" test_rng_copy_snapshot;
          tc "split_key population-independent" test_rng_split_key_independent_of_population;
          tc "split_key pure" test_rng_split_key_pure;
          tc "split_key distinct" test_rng_split_key_distinct;
          tc "split_key key 0 = split" test_rng_split_key_zero_matches_split;
        ] );
      ( "sim",
        [
          tc "schedule order" test_sim_schedule_order;
          tc "same-time fifo" test_sim_same_time_fifo;
          tc "clock advances" test_sim_clock_advances;
          tc "negative delay clamped" test_sim_negative_delay_clamped;
          tc "schedule_at past" test_sim_schedule_at_past;
          tc "cancel" test_sim_cancel;
          tc "until" test_sim_until;
          tc "run_for" test_sim_run_for;
          tc "every" test_sim_every;
          tc "stop" test_sim_stop;
          tc "max_events" test_sim_max_events;
          tc "max_events ignores cancelled" test_sim_max_events_ignores_cancelled;
          tc "max_events keeps clock" test_sim_max_events_keeps_clock;
          tc "stop keeps clock" test_sim_stop_keeps_clock;
          tc "ff past horizon-queued" test_sim_until_ff_past_queued_beyond_horizon;
          tc "nested scheduling" test_sim_nested_scheduling;
          tc "pending" test_sim_pending;
          tc "stale handle after slot reuse" test_sim_stale_handle_after_reuse;
          tc "group ready fifo" test_sim_group_ready_fifo;
          tc "group drain order" test_sim_group_drain_order;
          tc "group positive delay via heap" test_sim_group_positive_delay_uses_heap;
          tc "group pending counts" test_sim_group_pending_counts;
          tc "group cancel ready" test_sim_group_cancel_ready;
          tc "substream ignores root draws" test_sim_substream_ignores_root_draws;
        ] );
      ( "stats",
        [
          tc "empty" test_stats_empty;
          tc "known values" test_stats_known_values;
          tc "percentiles" test_stats_percentiles;
          tc "single" test_stats_single;
          tc "merge" test_stats_merge;
          tc "clear" test_stats_clear;
          tc "samples order" test_stats_samples_order;
          tc "nan ordering" test_stats_nan_sorts_first;
          tc "cache invalidation" test_stats_percentile_after_more_adds;
          tc "pp empty" test_stats_pp_empty;
          tc "pp single sample" test_stats_pp_single;
        ] );
      ( "series",
        [
          tc "points sorted" test_series_points_sorted;
          tc "between" test_series_between;
          tc "stats" test_series_stats;
          tc "window average" test_series_window_average;
          tc "map values" test_series_map_values;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qtests);
    ]
