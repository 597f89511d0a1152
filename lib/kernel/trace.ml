type kind =
  | Add_module of string
  | Remove_module of string
  | Bind of string * string
  | Unbind of string * string
  | Call of string * string
  | Call_blocked of string * string
  | Call_unblocked of string
  | Indication of string * string
  | Crash
  | App of string * string

type entry = { time : float; node : int; kind : kind }

type dispatch =
  | Called
  | Blocked
  | Indicated

(* Bounded ring buffer kept as four parallel columns: the [n] retained
   entries start at index [start] (oldest) and wrap at [cap], the
   columns' common length. [meta] packs the node above a 4-bit kind
   tag; [a] and [b] hold the kind's strings ([""] where it has fewer),
   which are pointers to strings the caller already owns — recording
   copies nothing. The columns grow geometrically up to [capacity];
   once full, recording overwrites the oldest entry, so a long soak
   keeps the most recent — i.e. the interesting — tail of the trace. *)
type t = {
  mutable enabled : bool;
  capacity : int;
  mutable cap : int;
  mutable times : Float.Array.t;
  mutable meta : int array;
  mutable a : string array;
  mutable b : string array;
  mutable start : int;
  mutable n : int;
  mutable dropped : int;
}

let tag_bits = 4

let create ?(enabled = true) ?(capacity = 2_000_000) () =
  assert (capacity > 0);
  {
    enabled;
    capacity;
    cap = 0;
    times = Float.Array.create 0;
    meta = [||];
    a = [||];
    b = [||];
    start = 0;
    n = 0;
    dropped = 0;
  }

let enabled t = t.enabled

let set_enabled t b = t.enabled <- b

(* Physical slot of the [i]-th retained entry. *)
let slot t i =
  let j = t.start + i in
  if j >= t.cap then j - t.cap else j

let grow t =
  let cap' = Stdlib.min t.capacity (Stdlib.max 64 (t.cap * 2)) in
  let times = Float.Array.create cap' in
  let meta = Array.make cap' 0 and a = Array.make cap' "" and b = Array.make cap' "" in
  for i = 0 to t.n - 1 do
    let j = slot t i in
    Float.Array.unsafe_set times i (Float.Array.unsafe_get t.times j);
    Array.unsafe_set meta i (Array.unsafe_get t.meta j);
    Array.unsafe_set a i (Array.unsafe_get t.a j);
    Array.unsafe_set b i (Array.unsafe_get t.b j)
  done;
  t.times <- times;
  t.meta <- meta;
  t.a <- a;
  t.b <- b;
  t.cap <- cap';
  t.start <- 0

(* Allocation-free: writes one row, evicting the oldest when full. *)
let push t ~time ~node tag a b =
  if t.n = t.cap && t.cap < t.capacity then grow t;
  let i =
    if t.n < t.cap then begin
      let i = slot t t.n in
      t.n <- t.n + 1;
      i
    end
    else begin
      let i = t.start in
      t.start <- (if i + 1 = t.cap then 0 else i + 1);
      t.dropped <- t.dropped + 1;
      i
    end
  in
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.meta i ((node lsl tag_bits) lor tag);
  Array.unsafe_set t.a i a;
  Array.unsafe_set t.b i b

(* The kind tag is the constructor's position in [kind] (0-9);
   [kind_of_row] below is the inverse. *)
let record t ~time ~node kind =
  if t.enabled then
    match kind with
    | Add_module m -> push t ~time ~node 0 m ""
    | Remove_module m -> push t ~time ~node 1 m ""
    | Bind (s, m) -> push t ~time ~node 2 s m
    | Unbind (s, m) -> push t ~time ~node 3 s m
    | Call (s, p) -> push t ~time ~node 4 s p
    | Call_blocked (s, p) -> push t ~time ~node 5 s p
    | Call_unblocked s -> push t ~time ~node 6 s ""
    | Indication (s, p) -> push t ~time ~node 7 s p
    | Crash -> push t ~time ~node 8 "" ""
    | App (tag, data) -> push t ~time ~node 9 tag data

let record_dispatch t ~time ~node d ~service ~payload =
  if t.enabled then
    push t ~time ~node (match d with Called -> 4 | Blocked -> 5 | Indicated -> 7) service payload

let kind_of_row tag a b =
  match tag with
  | 0 -> Add_module a
  | 1 -> Remove_module a
  | 2 -> Bind (a, b)
  | 3 -> Unbind (a, b)
  | 4 -> Call (a, b)
  | 5 -> Call_blocked (a, b)
  | 6 -> Call_unblocked a
  | 7 -> Indication (a, b)
  | 8 -> Crash
  | _ -> App (a, b)

let get t i =
  let j = slot t i in
  let meta = Array.unsafe_get t.meta j in
  {
    time = Float.Array.unsafe_get t.times j;
    node = meta asr tag_bits;
    kind =
      kind_of_row
        (meta land ((1 lsl tag_bits) - 1))
        (Array.unsafe_get t.a j) (Array.unsafe_get t.b j);
  }

let fold t ~init f =
  let acc = ref init in
  for i = 0 to t.n - 1 do
    acc := f !acc (get t i)
  done;
  !acc

let iter t f =
  for i = 0 to t.n - 1 do
    f (get t i)
  done

let entries t = List.init t.n (get t)

let length t = t.n

let truncated t = t.dropped > 0

let dropped t = t.dropped

let filter t p = List.rev (fold t ~init:[] (fun acc e -> if p e then e :: acc else acc))

let kind_to_string = function
  | Add_module m -> Printf.sprintf "add-module %s" m
  | Remove_module m -> Printf.sprintf "remove-module %s" m
  | Bind (s, m) -> Printf.sprintf "bind %s -> %s" s m
  | Unbind (s, m) -> Printf.sprintf "unbind %s -/- %s" s m
  | Call (s, p) -> Printf.sprintf "call %s [%s]" s p
  | Call_blocked (s, p) -> Printf.sprintf "call-blocked %s [%s]" s p
  | Call_unblocked s -> Printf.sprintf "call-unblocked %s" s
  | Indication (s, p) -> Printf.sprintf "indication %s [%s]" s p
  | Crash -> "crash"
  | App (tag, data) -> Printf.sprintf "app %s [%s]" tag data

let pp_entry ppf e =
  Format.fprintf ppf "%10.3f n%d %s" e.time e.node (kind_to_string e.kind)
