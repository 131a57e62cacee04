(* Pure helpers behind the benchmark's statistics: percentiles, the
   tail-percentile choice, span self time, metric-name validation and
   the throughput aggregation. No I/O, no simulation; unit-tested in
   test/test_perfbench.ml. *)

(* The percentiles op_tail_s may report. A coarse ladder keeps the
   reported percentile the same across runs whose op counts differ a
   little, so two runs always compare like with like. *)
let tail_ladder = [ 50.0; 90.0; 99.0; 99.9 ]

let min_beyond = 10

(* Nearest-rank: the 1-based rank of percentile [q] among [n]
   samples. The epsilon keeps q*n/100 = 90.0000001 from rounding up
   past an exact integer. *)
let rank ~n q =
  max 1 (min n (int_of_float (Float.ceil ((q /. 100.0 *. float n) -. 1e-9))))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Helpers.percentile: no samples";
  sorted.(rank ~n q - 1)

let beyond ~n q = n - rank ~n q

(* The highest ladder percentile with at least [min_beyond] samples
   strictly after its rank; [None] when even the median has fewer. *)
let tail_percentile n =
  List.fold_left
    (fun acc q -> if beyond ~n q >= min_beyond then Some q else acc)
    None tail_ladder

let median sorted = percentile sorted 50.0

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* --- Span self time ----------------------------------------------------- *)

type span = {
  key : string;  (** layer the span is attributed to *)
  track : int;  (** spans only nest within one track *)
  start : float;
  stop : float;
}

(* Total length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
         let a = Float.max a lo and b = Float.min b hi in
         if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
         match cur with
         | None -> (total, Some (a, b))
         | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
         | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) ivs
  in
  match last with
  | None -> total
  | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of it that
   its children cover. A child is a span of the same track that
   starts inside it; ties in start time put the longer span first,
   so it becomes the parent. *)
let self_times spans =
  let by_track = Hashtbl.create 8 in
  List.iter
    (fun s ->
       let l = Option.value ~default:[] (Hashtbl.find_opt by_track s.track) in
       Hashtbl.replace by_track s.track (s :: l))
    spans;
  let out = ref [] in
  Hashtbl.iter
    (fun _ ss ->
       let ss =
         List.sort
           (fun a b ->
              match compare a.start b.start with
              | 0 -> compare b.stop a.stop
              | c -> c)
           ss
       in
       (* Stack of open spans, innermost first, each with the
          intervals of its direct children. *)
       let finish (s, kids) =
         out := (s, (s.stop -. s.start) -. covered ~lo:s.start ~hi:s.stop !kids)
                :: !out
       in
       let rec pop_closed at = function
         | ((s, _) as top) :: rest when s.stop <= at ->
           finish top;
           pop_closed at rest
         | stack -> stack
       in
       let stack =
         List.fold_left
           (fun stack s ->
              let stack = pop_closed s.start stack in
              (match stack with
               | (_, kids) :: _ -> kids := (s.start, s.stop) :: !kids
               | [] -> ());
              (s, ref []) :: stack)
           [] ss
       in
       List.iter finish stack)
    by_track;
  List.rev !out

(* Self time summed per key. *)
let self_by_key spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, t) ->
       Hashtbl.replace tbl s.key
         (t +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.key)))
    (self_times spans);
  fun key -> Option.value ~default:0.0 (Hashtbl.find_opt tbl key)

(* --- Names -------------------------------------------------------------- *)

(* Metric and workload names: 1..64 characters of [A-Za-z0-9_.-],
   starting with a letter or digit. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
      | _ -> false)
  && String.for_all ok_char s

(* --- Aggregation -------------------------------------------------------- *)

(* Application warp-instructions per host second over a set of ops,
   each given as (warp instructions, seconds): the summed work over
   the summed time, so a long op weighs by its length rather than
   counting as one ratio among equals. *)
let winstr_per_s ops =
  let w, t =
    List.fold_left (fun (w, t) (wi, s) -> (w + wi, t +. s)) (0, 0.0) ops
  in
  if t <= 0.0 then 0.0 else float w /. t
