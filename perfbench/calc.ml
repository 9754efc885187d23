(* The benchmark's own arithmetic: percentiles with their sample
   counts, self time, repeat fractions, metric-name checks and the
   rendering of the one-line result. Kept apart from the workloads so
   the tests can pin every formula. *)

(* Nearest-rank percentile: the 1-based rank of the smallest sample
   with at least [p] percent of the samples at or below it. Integer
   arithmetic, so p99 of 100 samples is rank 99 and never 100 by a
   rounding error. *)
let rank ~n ~p =
  if n < 1 || p < 1 || p > 100 then invalid_arg "Calc.rank";
  ((p * n) + 99) / 100

type percentile = {
  value : float;
  samples : int;  (** samples the percentile was taken over *)
  beyond : int;  (** samples strictly above its rank *)
}

let percentile samples ~p =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  let r = rank ~n ~p in
  { value = a.(r - 1); samples = n; beyond = n - r }

(* Median with the middle pair averaged, as the run-to-run comparison
   takes it. *)
let median samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Calc.median"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Length covered by a set of [(start, stop)] intervals, each point
   counted once however many intervals cover it. *)
let covered intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, last) (s, e) ->
        match last with
        | None -> (total, Some (s, e))
        | Some (ls, le) ->
          if s <= le then (total, Some (ls, max le e))
          else (total + (le - ls), Some (s, e)))
      (0, None) sorted
  in
  match last with None -> total | Some (s, e) -> total + (e - s)

(* A span's self time: its duration minus the time its children
   cover. *)
let self_time ~start ~stop ~children = stop - start - covered children

(* Share of [keys] that repeat an earlier key. *)
let repeat_frac keys =
  let seen = Hashtbl.create 1024 in
  let n, repeats =
    List.fold_left
      (fun (n, r) k ->
        if Hashtbl.mem seen k then (n + 1, r + 1)
        else begin
          Hashtbl.add seen k ();
          (n + 1, r)
        end)
      (0, 0) keys
  in
  if n = 0 then 0. else float repeats /. float n

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c ->
         is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

type metric = { name : string; value : float; unit_ : string }

(* The full metric list [spec] of [(name, unit)], in its order, from
   the [measured] [(name, value)] pairs; a metric the run did not
   measure reads 0. A measured name outside [spec] is a bug. *)
let complete spec measured =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name spec) then
        invalid_arg ("Calc.complete: unlisted metric " ^ name))
    measured;
  List.map
    (fun (name, unit_) ->
      let value = Option.value (List.assoc_opt name measured) ~default:0. in
      { name; value; unit_ })
    spec

(* The last line of a run: one JSON object. Every value keeps all its
   digits; a malformed name or unit, or a value JSON cannot carry, is a
   bug in the benchmark and raises. *)
let result_line ~correct ~attempted ~failed metrics =
  let field m =
    if not (valid_name m.name && valid_unit m.unit_) then
      invalid_arg ("Calc.result_line: bad metric name or unit " ^ m.name);
    if not (Float.is_finite m.value) then
      invalid_arg ("Calc.result_line: non-finite value for " ^ m.name);
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map field metrics))
