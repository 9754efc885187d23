(* In-memory span recorder for the traced passes. Each span is one
   call from the benchmark into a layer: its name, start and end on the
   monotonic clock, the span that caused it, and the id of the job or
   frame it belongs to. Spans stay in memory until the pass ends and
   are then written out as JSON lines. A disabled recorder runs the
   same calls without reading the clock, which is how a pass measures
   its own tracing overhead. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [root] when nothing in the pass caused it *)
  key : int;  (** job or frame id *)
  start_ns : int;
  stop_ns : int;
}

let root = -1

type t = { enabled : bool; mutable spans : span list; mutable next : int }

let create ~enabled = { enabled; spans = []; next = 0 }
let now_ns () = Int64.to_int (Telemetry.Trace.now_ns ())

(* Run [f] as span [name]; returns its result and the span id (for
   children to name as their parent). *)
let with_span t ?(parent = root) ~key name f =
  if not t.enabled then (f (), root)
  else begin
    let id = t.next in
    t.next <- id + 1;
    let start_ns = now_ns () in
    let v = f () in
    let stop_ns = now_ns () in
    t.spans <- { id; name; parent; key; start_ns; stop_ns } :: t.spans;
    (v, id)
  end

let span t ?parent ~key name f = fst (with_span t ?parent ~key name f)

(* A span the caller timed itself, for calls that do not nest in one
   function call (a frame's send and its answer). *)
let add t ?(parent = root) ~key name ~start_ns ~stop_ns =
  if t.enabled then begin
    t.spans <- { id = t.next; name; parent; key; start_ns; stop_ns } :: t.spans;
    t.next <- t.next + 1
  end
let spans t = List.rev t.spans

type layer = { calls : int; total_ns : int; self_ns : int }

(* Per-name totals. A span's self time is its duration minus the time
   its children cover ({!Calc.self_time}). *)
let layers t =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> root then
        Hashtbl.add children s.parent (s.start_ns, s.stop_ns))
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        Calc.self_time ~start:s.start_ns ~stop:s.stop_ns
          ~children:(Hashtbl.find_all children s.id)
      in
      let l =
        Option.value
          (Hashtbl.find_opt by_name s.name)
          ~default:{ calls = 0; total_ns = 0; self_ns = 0 }
      in
      Hashtbl.replace by_name s.name
        {
          calls = l.calls + 1;
          total_ns = l.total_ns + (s.stop_ns - s.start_ns);
          self_ns = l.self_ns + self;
        })
    t.spans;
  by_name

let write_jsonl t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"key\":%d,\"start_ns\":%d,\
         \"end_ns\":%d}\n"
        s.id s.name s.parent s.key s.start_ns s.stop_ns)
    (spans t);
  close_out oc
