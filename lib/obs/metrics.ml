type hist = {
  bounds : float array; (* ascending upper bounds; final bucket is +inf *)
  bucket_counts : int array; (* length = Array.length bounds + 1 *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type value =
  | Counter of int ref
  | Gauge of float ref
  | Int_fn of (unit -> int)
  | Float_fn of (unit -> float)
  | Hist of hist

type instrument = {
  i_name : string;
  i_labels : (string * string) list; (* sorted by key *)
  i_value : value;
}

type t = {
  mutable enabled : bool;
  sink : bool;
  tbl : (string, instrument) Hashtbl.t;
  mutable rev_order : instrument list;
}

type counter = { c_reg : t; c_cell : int ref }

type gauge = { g_reg : t; g_cell : float ref }

type histogram = { h_reg : t; h_hist : hist }

let create ?(enabled = true) () =
  { enabled; sink = false; tbl = Hashtbl.create 64; rev_order = [] }

(* The shared disabled registry: creating instruments against it
   returns dummies and registers nothing, so the instrumented hot paths
   cost one boolean test. *)
let noop = { enabled = false; sink = true; tbl = Hashtbl.create 1; rev_order = [] }

let enabled t = t.enabled

let set_enabled t b = if not t.sink then t.enabled <- b

let sort_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let key name labels =
  name ^ "{"
  ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
  ^ "}"

let register t ~name ~labels value =
  let labels = sort_labels labels in
  let k = key name labels in
  match Hashtbl.find_opt t.tbl k with
  | Some i -> i
  | None ->
    let i = { i_name = name; i_labels = labels; i_value = value } in
    Hashtbl.replace t.tbl k i;
    t.rev_order <- i :: t.rev_order;
    i

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

let counter t ?(labels = []) name =
  if t.sink then { c_reg = t; c_cell = ref 0 }
  else
    match (register t ~name ~labels (Counter (ref 0))).i_value with
    | Counter c -> { c_reg = t; c_cell = c }
    | _ ->
      invalid_arg
        (Printf.sprintf "Metrics.counter: %s is registered with another type" name)

let incr c = if c.c_reg.enabled then Stdlib.incr c.c_cell

let add c k = if c.c_reg.enabled then c.c_cell := !(c.c_cell) + k

let counter_value c = !(c.c_cell)

(* ------------------------------------------------------------------ *)
(* Gauges                                                             *)
(* ------------------------------------------------------------------ *)

let gauge t ?(labels = []) name =
  if t.sink then { g_reg = t; g_cell = ref 0.0 }
  else
    match (register t ~name ~labels (Gauge (ref 0.0))).i_value with
    | Gauge g -> { g_reg = t; g_cell = g }
    | _ ->
      invalid_arg
        (Printf.sprintf "Metrics.gauge: %s is registered with another type" name)

let set g v = if g.g_reg.enabled then g.g_cell := v

let gauge_value g = !(g.g_cell)

let register_int t ?(labels = []) name fn =
  if not t.sink then ignore (register t ~name ~labels (Int_fn fn) : instrument)

let register_float t ?(labels = []) name fn =
  if not t.sink then ignore (register t ~name ~labels (Float_fn fn) : instrument)

(* ------------------------------------------------------------------ *)
(* Histograms                                                         *)
(* ------------------------------------------------------------------ *)

let default_bounds =
  [| 0.25; 0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 250.0; 500.0; 1000.0; 5000.0 |]

let make_hist bounds =
  {
    bounds;
    bucket_counts = Array.make (Array.length bounds + 1) 0;
    h_count = 0;
    h_sum = 0.0;
    h_min = infinity;
    h_max = neg_infinity;
  }

let histogram t ?(labels = []) ?(bounds = default_bounds) name =
  if t.sink then { h_reg = t; h_hist = make_hist [||] }
  else
    match (register t ~name ~labels (Hist (make_hist bounds))).i_value with
    | Hist h -> { h_reg = t; h_hist = h }
    | _ ->
      invalid_arg
        (Printf.sprintf "Metrics.histogram: %s is registered with another type" name)

let observe hd x =
  if hd.h_reg.enabled then begin
    let h = hd.h_hist in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. x;
    if x < h.h_min then h.h_min <- x;
    if x > h.h_max then h.h_max <- x;
    let nb = Array.length h.bounds in
    let rec bucket i = if i >= nb || x <= h.bounds.(i) then i else bucket (i + 1) in
    let b = bucket 0 in
    h.bucket_counts.(b) <- h.bucket_counts.(b) + 1
  end

let histogram_count hd = hd.h_hist.h_count

let histogram_sum hd = hd.h_hist.h_sum

(* Bucket-based quantile estimation in the Prometheus
   histogram_quantile style: find the bucket where the cumulative count
   crosses rank [q * total] and interpolate linearly inside it. The
   observed extremes tighten the first bucket's lower edge and cap the
   open-ended +inf bucket, so p999 of a histogram whose tail sits in
   the last bounded bucket never reports an infinite value. *)
let quantile_of_buckets ~bounds ~counts ?lo:(observed_min = nan) ?hi:(observed_max = nan) q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Metrics.quantile_of_buckets: q outside [0, 1]";
  if Array.length counts <> Array.length bounds + 1 then
    invalid_arg "Metrics.quantile_of_buckets: counts must have one more entry than bounds";
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then None
  else begin
    let rank = q *. float_of_int total in
    let nb = Array.length bounds in
    (* First bucket whose cumulative count reaches [rank]; [below] is
       the cumulative count strictly before it. *)
    let rec find i below =
      let cum = below + counts.(i) in
      if float_of_int cum >= rank || i >= nb then (i, below)
      else find (i + 1) cum
    in
    let i, below = find 0 0 in
    let lower =
      if i = 0 then
        if Float.is_nan observed_min then 0.0 else Float.min observed_min bounds.(0)
      else bounds.(i - 1)
    in
    if i >= nb then
      (* The open +inf bucket: no upper edge to interpolate towards —
         report the best finite estimate available. *)
      Some
        (if not (Float.is_nan observed_max) then observed_max
         else if nb > 0 then bounds.(nb - 1)
         else if not (Float.is_nan observed_min) then observed_min
         else 0.0)
    else begin
      let upper = bounds.(i) in
      let inside = float_of_int counts.(i) in
      let fraction = if inside <= 0.0 then 1.0 else (rank -. float_of_int below) /. inside in
      let v = lower +. ((upper -. lower) *. fraction) in
      let v = if Float.is_nan observed_max then v else Float.min v observed_max in
      let v = if Float.is_nan observed_min then v else Float.max v observed_min in
      Some v
    end
  end

let hist_quantile h q =
  if h.h_count = 0 then None
  else
    quantile_of_buckets ~bounds:h.bounds ~counts:h.bucket_counts ~lo:h.h_min
      ~hi:h.h_max q

let histogram_quantile hd q = hist_quantile hd.h_hist q

(* ------------------------------------------------------------------ *)
(* Snapshot / query                                                   *)
(* ------------------------------------------------------------------ *)

let instruments t = List.rev t.rev_order

let read_value = function
  | Counter c -> float_of_int !c
  | Gauge g -> !g
  | Int_fn f -> float_of_int (f ())
  | Float_fn f -> f ()
  | Hist h -> float_of_int h.h_count

let value t ?(labels = []) name =
  match Hashtbl.find_opt t.tbl (key name (sort_labels labels)) with
  | Some i -> Some (read_value i.i_value)
  | None -> None

let sum t name =
  List.fold_left
    (fun acc i -> if String.equal i.i_name name then acc +. read_value i.i_value else acc)
    0.0 (instruments t)

let names t =
  List.sort_uniq String.compare (List.map (fun i -> i.i_name) (instruments t))

let hist_json h =
  let mean = if h.h_count = 0 then Json.Null else Json.Float (h.h_sum /. float_of_int h.h_count) in
  let buckets =
    List.init
      (Array.length h.bucket_counts)
      (fun i ->
        let le =
          if i < Array.length h.bounds then Json.Float h.bounds.(i) else Json.Str "inf"
        in
        Json.Obj [ ("le", le); ("count", Json.Int h.bucket_counts.(i)) ])
  in
  [
    ("type", Json.Str "histogram");
    ("count", Json.Int h.h_count);
    ("sum", Json.Float h.h_sum);
    ("min", if h.h_count = 0 then Json.Null else Json.Float h.h_min);
    ("max", if h.h_count = 0 then Json.Null else Json.Float h.h_max);
    ("mean", mean);
    ("buckets", Json.List buckets);
  ]

let value_json = function
  | Counter c -> [ ("type", Json.Str "counter"); ("value", Json.Int !c) ]
  | Int_fn f -> [ ("type", Json.Str "counter"); ("value", Json.Int (f ())) ]
  | Gauge g -> [ ("type", Json.Str "gauge"); ("value", Json.Float !g) ]
  | Float_fn f -> [ ("type", Json.Str "gauge"); ("value", Json.Float (f ())) ]
  | Hist h -> hist_json h

let instrument_json i =
  Json.Obj
    (("name", Json.Str i.i_name)
    :: ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) i.i_labels))
    :: value_json i.i_value)

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str "dpu.metrics/1");
      ("enabled", Json.Bool t.enabled);
      ("metrics", Json.List (List.map instrument_json (instruments t)));
    ]

(* ------------------------------------------------------------------ *)
(* Snapshots: pure-data copies that survive Marshal                   *)
(* ------------------------------------------------------------------ *)

type sample_value =
  | S_counter of int
  | S_gauge of float
  | S_hist of hist

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : sample_value;
}

type snapshot = sample list

let copy_hist h =
  {
    bounds = Array.copy h.bounds;
    bucket_counts = Array.copy h.bucket_counts;
    h_count = h.h_count;
    h_sum = h.h_sum;
    h_min = h.h_min;
    h_max = h.h_max;
  }

let snapshot t =
  List.map
    (fun i ->
      let v =
        match i.i_value with
        | Counter c -> S_counter !c
        | Int_fn f -> S_counter (f ())
        | Gauge g -> S_gauge !g
        | Float_fn f -> S_gauge (f ())
        | Hist h -> S_hist (copy_hist h)
      in
      { s_name = i.i_name; s_labels = i.i_labels; s_value = v })
    (instruments t)

let merge_hist_into dst src =
  if Array.length dst.bounds = Array.length src.bounds then begin
    Array.iteri
      (fun i c -> dst.bucket_counts.(i) <- dst.bucket_counts.(i) + c)
      src.bucket_counts;
    dst.h_count <- dst.h_count + src.h_count;
    dst.h_sum <- dst.h_sum +. src.h_sum;
    if src.h_min < dst.h_min then dst.h_min <- src.h_min;
    if src.h_max > dst.h_max then dst.h_max <- src.h_max
  end

let merge t snap =
  if not t.sink then
    List.iter
      (fun s ->
        match Hashtbl.find_opt t.tbl (key s.s_name s.s_labels) with
        | None ->
          let value =
            match s.s_value with
            | S_counter v -> Counter (ref v)
            | S_gauge v -> Gauge (ref v)
            | S_hist h -> Hist (copy_hist h)
          in
          ignore (register t ~name:s.s_name ~labels:s.s_labels value : instrument)
        | Some i -> (
          match (i.i_value, s.s_value) with
          | Counter c, S_counter v -> c := !c + v
          | Gauge g, S_gauge v -> if v > !g then g := v
          | Hist dst, S_hist src -> merge_hist_into dst src
          (* Callback registrations sample this process and cannot
             absorb foreign values; mismatched kinds are skipped. *)
          | (Counter _ | Gauge _ | Int_fn _ | Float_fn _ | Hist _), _ -> ()))
      snap

let snapshot_sum snap name =
  List.fold_left
    (fun acc s ->
      if String.equal s.s_name name then
        acc
        +.
        match s.s_value with
        | S_counter v -> float_of_int v
        | S_gauge v -> v
        | S_hist h -> float_of_int h.h_count
      else acc)
    0.0 snap

let pp_summary ppf t =
  let sorted =
    List.sort
      (fun a b ->
        let label_compare (k1, v1) (k2, v2) =
          match String.compare k1 k2 with 0 -> String.compare v1 v2 | c -> c
        in
        match String.compare a.i_name b.i_name with
        | 0 -> List.compare label_compare a.i_labels b.i_labels
        | c -> c)
      (instruments t)
  in
  List.iter
    (fun i ->
      let labels =
        match i.i_labels with
        | [] -> ""
        | l ->
          "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l) ^ "}"
      in
      match i.i_value with
      | Hist h ->
        if h.h_count = 0 then
          Format.fprintf ppf "%s%s count=0@." i.i_name labels
        else
          let q p = Option.value ~default:Float.nan (hist_quantile h p) in
          Format.fprintf ppf
            "%s%s count=%d mean=%.3f min=%.3f max=%.3f p50=%.3f p99=%.3f p999=%.3f@."
            i.i_name labels h.h_count
            (h.h_sum /. float_of_int h.h_count)
            h.h_min h.h_max (q 0.5) (q 0.99) (q 0.999)
      | v -> Format.fprintf ppf "%s%s %g@." i.i_name labels (read_value v))
    sorted
