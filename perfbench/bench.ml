(* The repository benchmark. One process runs one workload:

     bench.exe --workload W --seed N --seconds S --trace 0|1

   - measure-cold: the suite corpus measured on ivb, hsw and skl by a
     fresh 2-worker engine over an empty store, pass after pass;
   - serve-warm: a bhive_serve daemon on hsw, warmed by one corpus
     pass, answering a closed loop of 2 connections that replay the
     corpus in 16-block predict_batch frames.

   The corpus comes from --corpus-seed and --scale; --seed shuffles
   the order in which its jobs or blocks are submitted. The program
   sees only the generated blocks. With --trace 0 the run reports the
   end-to-end metrics; with --trace 1 a separate traced pass, the layer
   probe, times each call the benchmark makes into a layer over the
   workload's jobs, the re-run path over a filled store included, and
   reports the per-layer metrics. Every run checks its outputs against
   a reference path and rejects a run whose counters show another
   regime than the workload's (README.md). The last line of stdout is
   one JSON object. *)

open Perfbench
module Json = Telemetry.Json
module Wire = Serve.Wire

let workload = ref ""
let seed = ref 1
let corpus_seed = ref (Int64.to_int Corpus.Suite.default_config.seed)
let seconds = ref 10.
let trace = ref 0
let scale = ref 800
let serve_exe = ref ""

let workers = 2
(* Set-ups per run: warming a daemon costs seconds, a corpus-only
   set-up milliseconds, and a median of few millisecond samples is too
   jittery to compare. *)
let setups = 3
let cheap_setups = 15
let frame_blocks = 16
let wire_reps = 20
let warm_passes = 20
let serve_uarch = "hsw"

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* A broken regime guard or an unusable environment: no result. *)
let reject fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: rejected: " ^ s);
      exit 1)
    fmt

let now_s () = float (Spans.now_ns ()) /. 1e9

let time f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let run_root = ".bench_run"
let run_dir =
  lazy (Printf.sprintf "%s/%s-%d" run_root !workload (Unix.getpid ()))

let fresh_dir name =
  let d = Filename.concat (Lazy.force run_dir) name in
  rm_rf d;
  d

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Corpus and jobs                                                     *)
(* ------------------------------------------------------------------ *)

(* The corpus is fixed by --corpus-seed; --seed only shuffles it.
   Block costs are heavy-tailed, so corpora drawn from different seeds
   at this scale differ by several percent in total work, more than the
   bounds the benchmark must hold; a shuffle changes the order in which
   work reaches the engine or the daemon, not its amount. *)
let corpus () =
  let blocks =
    Array.of_list
      (Corpus.Suite.generate
         ~config:
           { Corpus.Suite.scale = !scale; seed = Int64.of_int !corpus_seed }
         ())
  in
  let rng = Random.State.make [| !seed |] in
  for i = Array.length blocks - 1 downto 1 do
    let k = Random.State.int rng (i + 1) in
    let b = blocks.(i) in
    blocks.(i) <- blocks.(k);
    blocks.(k) <- b
  done;
  Array.to_list blocks

let env = Harness.Environment.default

(* One job per (uarch, block), AVX2 blocks skipped on uarches without
   AVX2 — the jobs bhive_validate submits. *)
let jobs_of blocks =
  List.concat_map
    (fun (u : Uarch.Descriptor.t) ->
      List.filter_map
        (fun (b : Corpus.Block.t) ->
          if (not u.supports_avx2) && Corpus.Block.uses_avx2 b then None
          else Some { Engine.env; uarch = u; block = b.insts })
        blocks)
    Uarch.All.all

(* First occurrence of each fingerprint, with its submission slot. *)
let unique jobs =
  let seen = Hashtbl.create 4096 in
  List.filter
    (fun (fp, _, _) ->
      if Hashtbl.mem seen fp then false
      else begin
        Hashtbl.add seen fp ();
        true
      end)
    (List.mapi (fun i j -> (Engine.fingerprint j, i, j)) jobs)
  |> Array.of_list

type setup = {
  jobs : Engine.job list;
  uniq : (string * int * Engine.job) array;
}

let prepare () =
  let jobs = jobs_of (corpus ()) in
  { jobs; uniq = unique jobs }

(* Set up [reps] times; set-up time is the median. [f ~last] is one
   set-up; the last one's value is kept. *)
let repeat_setup ~reps f =
  let rec go i acc =
    let v, dt = time (fun () -> f ~last:(i = reps - 1)) in
    if i = reps - 1 then (v, Calc.median (dt :: acc))
    else go (i + 1) (dt :: acc)
  in
  go 0 []

(* Run [pass] until [budget] seconds have gone, at least once. Passes
   run back to back, so each pays its share of the collector's work, as
   it would in a long-running process. *)
let passes_for budget pass =
  let t0 = now_s () in
  let rec go acc =
    let acc = pass () :: acc in
    if now_s () -. t0 >= budget then List.rev acc else go acc
  in
  go []

let new_engine ?progress ?store () =
  Engine.create ~jobs:workers ~faults:Faultsim.none ?progress ?store ()

let same_outcome (a : Engine.outcome) (b : Engine.outcome) = compare a b = 0

(* Quarantined or lost slots of one batch. *)
let batch_failed (s : Engine.stats) = s.quarantined + Engine.lost s

type pass = {
  wall : float;  (** seconds *)
  done_ms : float list;
      (** for each job the pass executed, the time from the start of the
          pass to its result *)
  stats : Engine.stats;
  util : float;
  open_s : float;
  bytes : int;
}

(* One engine over [store_dir]: open the store, create the engine,
   resolve every job, close. The whole of it is the pass's wall. The
   outcomes go to [check] after the clock stops and are not kept. *)
let engine_pass st store_dir ~check =
  let t0 = now_s () in
  (* The engine calls this under its lock, once per executed job. It
     writes into a float array made beforehand, so the hook allocates
     nothing on the worker domains. *)
  let done_ms = Array.make (Array.length st.uniq) nan in
  let progress ~done_ ~total:_ =
    done_ms.(done_ - 1) <- (now_s () -. t0) *. 1e3
  in
  let store, open_s = time (fun () -> Store.open_ store_dir) in
  let engine = new_engine ~progress ~store () in
  let batch = Engine.run_batch engine st.jobs in
  let wall = now_s () -. t0 in
  let stats = Engine.stats engine in
  let busy =
    List.fold_left (fun a (w : Engine.worker_stat) -> a +. w.busy_seconds) 0.
      (Engine.worker_stats engine)
  in
  let bytes = (Store.stats store).s_bytes in
  Store.close store;
  check batch.outcomes;
  {
    wall;
    done_ms =
      List.filter (fun x -> not (Float.is_nan x)) (Array.to_list done_ms);
    stats;
    util = busy /. (stats.wall_seconds *. float workers);
    open_s;
    bytes;
  }

(* End-to-end metrics of measure-cold. Throughput is the jobs of one
   pass over the median pass wall. A latency sample is one job: the time
   from submitting the job list to that job's result, over every job of
   every pass. A pass wall would give only about ten samples a run, too
   few for a steady p90 on a shared box. *)
let pass_metrics ~setup_s ~rss (ps : pass list) =
  let jobs = (List.hd ps).stats.submitted in
  let wall = Calc.median (List.map (fun p -> p.wall) ps) in
  let lat = List.concat_map (fun p -> p.done_ms) ps in
  let p50 = Calc.percentile lat ~p:50 and p90 = Calc.percentile lat ~p:90 in
  log "%d passes of %d jobs; p90 is over %d jobs with %d beyond it"
    (List.length ps) jobs p90.samples p90.beyond;
  [
    ("setup_s", setup_s);
    ("throughput_per_s", float jobs /. wall);
    ("latency_p50_ms", p50.value);
    ("latency_p90_ms", p90.value);
    ("peak_rss_mb", rss);
  ]

let per_call_us (l : Spans.layer option) =
  match l with
  | Some l when l.calls > 0 -> float l.total_ns /. float l.calls /. 1e3
  | _ -> 0.

let calls (l : Spans.layer option) =
  match l with Some l -> l.calls | None -> 0

let write_spans r =
  let path = Printf.sprintf "%s/%s.spans.jsonl" run_root !workload in
  Spans.write_jsonl r path;
  log "spans written to %s" path

(* ------------------------------------------------------------------ *)
(* measure-cold                                                        *)
(* ------------------------------------------------------------------ *)

(* Regime guard: nothing served from the store, every unique job run
   exactly once. *)
let guard_cold st (p : pass) =
  if p.stats.store_hits <> 0 || p.stats.executed <> Array.length st.uniq then
    reject
      "measure-cold pass had %d store hits and %d executions for %d unique \
       jobs"
      p.stats.store_hits p.stats.executed (Array.length st.uniq)

(* Regime guard of a re-run: nothing executed, every store lookup a
   hit — a stale store generation must not turn it into a cold run. *)
let guard_warm (p : pass) =
  if p.stats.executed <> 0 || Engine.store_hit_rate p.stats <> 1. then
    reject "warm pass executed %d jobs at store hit rate %g" p.stats.executed
      (Engine.store_hit_rate p.stats)

let cold_pass st ~check =
  let dir = fresh_dir "store" in
  let p = engine_pass st dir ~check in
  rm_rf dir;
  guard_cold st p;
  p

(* Reference path: Harness.Profiler.profile called directly on every
   unique job, split over the workers. *)
let reference_profiles st =
  let n = Array.length st.uniq in
  let out = Array.make n (Error (Engine.Profiler_failure (Rejected Unstable)))
  in
  let work lo hi () =
    for i = lo to hi - 1 do
      let _, _, (j : Engine.job) = st.uniq.(i) in
      out.(i) <-
        Result.map_error
          (fun f -> Engine.Profiler_failure f)
          (Harness.Profiler.profile j.env j.uarch j.block)
    done
  in
  let d = Domain.spawn (work (n / 2) n) in
  work 0 (n / 2) ();
  Domain.join d;
  out

(* Count the unique jobs whose outcome differs from the reference.
   Quarantined slots are failures, not mismatches. *)
let mismatches st (outcomes : Engine.outcome array) reference =
  let bad = ref 0 in
  Array.iteri
    (fun i (_, slot, _) ->
      match outcomes.(slot) with
      | Error (Engine.Quarantined _) -> ()
      | o -> if not (same_outcome o reference.(i)) then incr bad)
    st.uniq;
  !bad

type replay_stats = {
  mutable mismatched : int;
  mutable faults : int;
  mutable sim_cycles : int;
  mutable map_keys : string list;
}

(* Replay one unique job through the layers Harness.Profiler.profile
   calls, from outside: the profile call itself, then per unroll
   factor Mapping.run, and the two simulations the profiler makes
   (warm-up on flushed caches, then the timed run on warm ones), each
   split into Pipeline.Trace.of_steps and Pipeline.Core.simulate. The
   replayed calls are children of the profile span, so the profiler's
   self time is what is left of it. Xsem.Executor.run_unrolled over
   the final page table runs outside the profile span: it is a
   reference for the mapping layer's cost, not part of the profile. *)
let replay_job r rs machines ~key (engine_outcome : Engine.outcome)
    (j : Engine.job) =
  let prof, pid =
    Spans.with_span r ~key "harness.profile" (fun () ->
        Harness.Profiler.profile j.env j.uarch j.block)
  in
  (match engine_outcome with
  | Error (Engine.Quarantined _) -> ()
  | o ->
    if
      not
        (same_outcome o
           (Result.map_error (fun f -> Engine.Profiler_failure f) prof))
    then rs.mismatched <- rs.mismatched + 1);
  let machine : Pipeline.Machine.t =
    match List.assq_opt j.uarch !machines with
    | Some m -> m
    | None ->
      let m = Pipeline.Machine.create j.uarch in
      machines := (j.uarch, m) :: !machines;
      m
  in
  let bytes =
    Spans.span r ~key "x86.encode" (fun () ->
        Bytes.to_string (X86.Encoder.encode_block j.block))
  in
  let factors = Harness.Unroll.choose j.env.unroll j.block in
  let simulate steps =
    let tr =
      Spans.span r ~parent:pid ~key "pipeline.trace" (fun () ->
          Pipeline.Trace.of_steps j.uarch steps)
    in
    let res =
      Spans.span r ~parent:pid ~key "pipeline.cycle" (fun () ->
          Pipeline.Core.simulate ~scratch:machine.scratch j.uarch
            ~l1d:machine.l1d ~l1i:machine.l1i ~l2:machine.l2 tr)
    in
    rs.sim_cycles <- rs.sim_cycles + res.cycles
  in
  let point unroll =
    rs.map_keys <- (bytes ^ "@" ^ string_of_int unroll) :: rs.map_keys;
    match
      Spans.span r ~parent:pid ~key "harness.mapping" (fun () ->
          Harness.Mapping.run j.env j.block ~unroll)
    with
    | Error _ -> false
    | Ok m ->
      rs.faults <- rs.faults + m.faults;
      Pipeline.Machine.reset machine;
      simulate m.steps;
      simulate m.steps;
      ignore
        (Spans.span r ~key "xsem.execute" (fun () ->
             let st = Xsem.Machine_state.create () in
             Xsem.Machine_state.init_constant st
               (Harness.Environment.fill_value_u64 j.env);
             st.ftz <- j.env.disable_underflow;
             Xsem.Executor.run_unrolled st m.mmu j.block ~unroll));
      true
  in
  if point factors.large && factors.small <> 0 then ignore (point factors.small)

(* ------------------------------------------------------------------ *)
(* Frames and the layer probe                                          *)
(* ------------------------------------------------------------------ *)

let chunks n lst =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 lst

type frame = { payload : string; req : Wire.request; size : int }

(* The corpus's blocks as 16-block predict_batch frames for
   [serve_uarch]. *)
let frames_of blocks =
  List.map
    (fun bs ->
      let req =
        Wire.Predict_batch
          {
            Wire.pb_uarch = serve_uarch;
            pb_deadline_ms = None;
            pb_filters = Manifest.Spec.default_filters;
            pb_blocks =
              List.map
                (fun b ->
                  { Wire.bb_asm = Corpus.Block.text b; bb_block_hex = None })
                bs;
          }
      in
      { payload = Wire.request_to_string req; req; size = List.length bs })
    (chunks frame_blocks blocks)
  |> Array.of_list

(* The jobs a frame resolves to, through the daemon's own resolution. *)
let frame_jobs f =
  match f.req with
  | Wire.Predict_batch pb ->
    List.map
      (fun bb ->
        match Wire.job_of_predict (Wire.predict_of_batch_block pb bb) with
        | Ok j -> j
        | Error msg -> reject "corpus block does not resolve: %s" msg)
      pb.pb_blocks
  | _ -> assert false

(* Each frame's reply rendered through Serve.Wire from an engine's
   [outcomes] for [st.jobs], matched by job fingerprint. *)
let render_replies st (outcomes : Engine.outcome array) frames =
  let by_fp = Hashtbl.create 4096 in
  Array.iter
    (fun (fp, slot, _) -> Hashtbl.replace by_fp fp outcomes.(slot))
    st.uniq;
  let outcome j =
    match Hashtbl.find_opt by_fp (Engine.fingerprint j) with
    | Some o -> o
    | None -> reject "a frame's job is not among the measured jobs"
  in
  Array.map
    (fun f ->
      Wire.response_to_string
        (Wire.Results
           (List.map
              (fun j -> Wire.Result (Wire.outcome_json (outcome j)))
              (frame_jobs f))))
    frames

(* The wire calls the daemon makes for one frame, replayed from
   outside: decode the request, parse and resolve each block, render
   the reply. Encoding is the client's side of the same frame. *)
let replay_wire r (expected : string array) key f =
  let span name f = Spans.span r ~key name f in
  ignore (span "serve.wire.encode" (fun () -> Wire.request_to_string f.req));
  (match
     span "serve.wire.decode" (fun () -> Wire.request_of_string f.payload)
   with
  | Ok (Wire.Predict_batch pb) ->
    List.iter
      (fun bb ->
        ignore (span "x86.parse" (fun () -> X86.Parser.block bb.Wire.bb_asm));
        ignore
          (span "serve.resolve" (fun () ->
               Wire.job_of_predict (Wire.predict_of_batch_block pb bb))))
      pb.pb_blocks
  | _ -> reject "frame does not decode");
  match Wire.response_of_string expected.(key) with
  | Ok resp ->
    ignore (span "serve.render" (fun () -> Wire.response_to_string resp))
  | Error msg -> reject "reference frame does not decode: %s" msg

(* Replay every unique job of [st] through the profiler's layers. *)
let replay_profiles r st (outcomes : Engine.outcome array) =
  let rs = { mismatched = 0; faults = 0; sim_cycles = 0; map_keys = [] } in
  let machines = ref [] in
  Array.iteri
    (fun key (_, slot, j) -> replay_job r rs machines ~key outcomes.(slot) j)
    st.uniq;
  rs

(* Time every layer from outside over one workload's inputs, into [r]:
   [outcomes] are an engine's answers for [st.jobs], [frames] and
   [replies] the same blocks as the daemon is asked and must answer.

   - Store.put of the engine's payloads under the engine's keys, which
     fills the store a re-run reads;
   - the re-run path: fresh engines re-resolve [st.jobs] over that
     store, where every job must be a store hit byte-equal to
     [outcomes], then Engine.fingerprint and Store.get per job;
   - the profile replay ({!replay_job}), whose outcomes must equal
     [outcomes];
   - the wire calls the daemon makes per frame ({!replay_wire}).

   Returns the number of outputs that differ from the engine's, the
   layer metrics, and the wall of the profile replay. *)
let probe_layers r st (outcomes : Engine.outcome array) frames replies =
  let bad = ref 0 in
  let expected =
    Array.map
      (fun (_, slot, _) -> Marshal.to_string outcomes.(slot) [])
      st.uniq
  in
  let dir = fresh_dir "probe-store" in
  let store = Store.open_ dir in
  let writes = ref 0 in
  Array.iteri
    (fun key (fp, _, (j : Engine.job)) ->
      let gen = Engine.generation j.uarch in
      if
        Spans.span r ~key "store.put" (fun () ->
            Store.put store ~key:fp ~gen expected.(key))
      then incr writes)
    st.uniq;
  let bytes = (Store.stats store).s_bytes in
  Store.close store;
  let check (o : Engine.outcome array) =
    Array.iteri
      (fun i (_, slot, _) ->
        if Marshal.to_string o.(slot) [] <> expected.(i) then incr bad)
      st.uniq
  in
  let warm =
    List.init warm_passes (fun _ ->
        let w = engine_pass st dir ~check in
        guard_warm w;
        w)
  in
  let store = Store.open_ dir in
  Array.iteri
    (fun key (_, _, (j : Engine.job)) ->
      let fp =
        Spans.span r ~key "engine.fingerprint" (fun () -> Engine.fingerprint j)
      in
      let gen = Engine.generation j.uarch in
      match
        Spans.span r ~key "store.get" (fun () -> Store.get store ~key:fp ~gen)
      with
      | Store.Hit payload -> if payload <> expected.(key) then incr bad
      | Store.Stale | Store.Miss -> incr bad)
    st.uniq;
  Store.close store;
  rm_rf dir;
  let rs, profile_wall = time (fun () -> replay_profiles r st outcomes) in
  for _ = 1 to wire_reps do
    Array.iteri (replay_wire r replies) frames
  done;
  write_spans r;
  let layers = Spans.layers r in
  let l name = Hashtbl.find_opt layers name in
  let total name =
    Option.fold ~none:0.
      ~some:(fun (x : Spans.layer) -> float x.total_ns)
      (l name)
  in
  let per_call name = (name ^ ".us_per_call", per_call_us (l name)) in
  let us name span = (name, per_call_us (l span)) in
  let profile_ns = total "harness.profile" in
  let self_ns =
    Option.fold ~none:0.
      ~some:(fun (x : Spans.layer) -> float x.self_ns)
      (l "harness.profile")
  in
  let n_map = float (calls (l "harness.mapping")) in
  let jobs = float (calls (l "harness.profile")) in
  let median_of f = Calc.median (List.map f warm) in
  let metrics =
    [
      per_call "x86.parse";
      per_call "x86.encode";
      per_call "xsem.execute";
      per_call "harness.mapping";
      ("harness.mapping.calls", n_map);
      ("harness.mapping.repeat_frac", Calc.repeat_frac rs.map_keys);
      ("harness.mapping.faults_per_call", float rs.faults /. n_map);
      ( "harness.mapping.restart_ratio",
        total "harness.mapping" /. total "xsem.execute" );
      per_call "pipeline.trace";
      per_call "pipeline.cycle";
      ( "pipeline.cycle.ns_per_sim_cycle",
        total "pipeline.cycle" /. float rs.sim_cycles );
      ("harness.profile.us_per_job", profile_ns /. jobs /. 1e3);
      ("harness.profile.self_us_per_job", self_ns /. jobs /. 1e3);
      ("harness.profile.share.mapping", total "harness.mapping" /. profile_ns);
      ("harness.profile.share.trace", total "pipeline.trace" /. profile_ns);
      ("harness.profile.share.cycle", total "pipeline.cycle" /. profile_ns);
      ("harness.profile.share.self", self_ns /. profile_ns);
      per_call "engine.fingerprint";
      ( "engine.warm.us_per_job",
        median_of (fun w -> w.wall) /. float (List.length st.jobs) *. 1e6 );
      per_call "store.put";
      ("store.writes", float !writes);
      ("store.bytes_written", float bytes);
      ("store.open_ms", median_of (fun w -> w.open_s *. 1e3));
      per_call "store.get";
      ("store.hit_rate", Engine.store_hit_rate (List.hd warm).stats);
      us "serve.wire.encode_us" "serve.wire.encode";
      us "serve.wire.decode_us" "serve.wire.decode";
      us "serve.resolve_us" "serve.resolve";
      us "serve.render_us" "serve.render";
    ]
  in
  (rs.mismatched + !bad, metrics, profile_wall)

(* ------------------------------------------------------------------ *)
(* measure-cold                                                        *)
(* ------------------------------------------------------------------ *)

let measure_cold () =
  let st, setup_s =
    repeat_setup ~reps:cheap_setups (fun ~last:_ -> prepare ())
  in
  let submitted = List.length st.jobs in
  log "measure-cold: %d jobs, %d unique, set-up %.3f s" submitted
    (Array.length st.uniq) setup_s;
  if !trace = 0 then begin
    (* every pass must resolve to the first pass's outcomes, and those
       to the reference path's *)
    let first = ref None and bad = ref 0 in
    let check outcomes =
      match !first with
      | None -> first := Some outcomes
      | Some f ->
        let first = Array.map (fun (_, slot, _) -> f.(slot)) st.uniq in
        bad := !bad + mismatches st outcomes first
    in
    let ps = passes_for !seconds (fun () -> cold_pass st ~check) in
    let rss = peak_rss_mb "self" in
    let bad =
      !bad + mismatches st (Option.get !first) (reference_profiles st)
    in
    let failed = List.fold_left (fun a p -> a + batch_failed p.stats) 0 ps in
    ( bad = 0,
      submitted * List.length ps,
      failed,
      pass_metrics ~setup_s ~rss ps )
  end
  else begin
    (* One untraced cold pass gives the engine's counters and the
       outcomes every replay is checked against. The profile replay
       runs once untraced, for the tracing overhead. *)
    let outcomes = ref [||] in
    let p = cold_pass st ~check:(fun o -> outcomes := o) in
    let outcomes = !outcomes in
    let frames = frames_of (corpus ()) in
    let replies = render_replies st outcomes frames in
    let _, untraced =
      time (fun () -> replay_profiles (Spans.create ~enabled:false) st outcomes)
    in
    let r = Spans.create ~enabled:true in
    let bad, metrics, traced = probe_layers r st outcomes frames replies in
    ( bad = 0,
      submitted,
      batch_failed p.stats,
      metrics
      @ [
          ("engine.executed", float p.stats.executed);
          ("engine.memo_hits", float p.stats.cache_hits);
          ("engine.worker_util", p.util);
          ("trace.overhead_frac", (traced /. untraced) -. 1.);
        ] )
  end

(* ------------------------------------------------------------------ *)
(* serve-warm                                                          *)
(* ------------------------------------------------------------------ *)

let daemon = ref None

let stop_daemon () =
  match !daemon with
  | None -> ()
  | Some pid ->
    daemon := None;
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now_s () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when now_s () < deadline ->
        Unix.sleepf 0.01;
        wait ()
      | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ()

let start_daemon sock =
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"BHIVE_" kv))
         (Array.to_list (Unix.environment ())))
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err =
    Unix.openfile
      (Filename.concat (Lazy.force run_dir) "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let pid =
    Unix.create_process_env !serve_exe
      [| !serve_exe; sock; "--shards"; "1" |]
      env null null err
  in
  Unix.close null;
  Unix.close err;
  daemon := Some pid;
  match Serve.Client.connect ~retries:200 ~retry_interval:0.02 sock with
  | Ok c -> (pid, c)
  | Error msg -> reject "daemon did not come up: %s" msg

let request_raw (c : Serve.Client.t) payload =
  match
    Wire.write_frame c.fd payload;
    Wire.read_frame c.fd
  with
  | Ok reply -> Some reply
  | Error _ -> None
  | exception Unix.Unix_error _ -> None

let daemon_stats c =
  match request_raw c (Wire.request_to_string Wire.Stats) with
  | None -> reject "stats request failed"
  | Some reply -> (
    match Wire.response_of_string reply with
    | Ok (Wire.Stats_reply s) ->
      fun path ->
        Option.value ~default:0. (Option.bind (Json.path path s) Json.number)
    | _ -> reject "malformed stats reply")

type tally = {
  mutable ok : int;  (** blocks answered byte-equal to the reference *)
  mutable refused : int;
  mutable lost : int;
  mutable bad : int;  (** answered, but not byte-equal *)
  mutable lat_ms : float list;
}

let new_tally () =
  { ok = 0; refused = 0; lost = 0; bad = 0; lat_ms = [] }

(* Classify a reply that is not byte-equal to the reference frame. *)
let classify t ~expected ~size reply =
  match Option.map Wire.response_of_string reply with
  | Some (Ok (Wire.Results slots)) ->
    let exp_slots =
      match Wire.response_of_string expected with
      | Ok (Wire.Results s) -> s
      | _ -> []
    in
    List.iteri
      (fun i slot ->
        match slot with
        | Wire.Refused _ -> t.refused <- t.refused + 1
        | s ->
          if List.nth_opt exp_slots i = Some s then t.ok <- t.ok + 1
          else t.bad <- t.bad + 1)
      slots
  | _ -> t.lost <- t.lost + size

(* Closed loop of [workers] connections for [budget] seconds: each
   connection sends its next frame as soon as the answer to its previous
   one is in, starting at its own offset into the frames and wrapping.
   One thread drives every connection: the client does almost no work
   per frame, and one runnable client thread rather than one per
   connection leaves more of the 2-core box to the daemon. [record ~key
   ~start ~stop] sees each round trip. *)
let closed_loop sock (frames : frame array) (expected : string array) ~budget
    ~record =
  let n = Array.length frames in
  let t = new_tally () in
  let conns =
    List.init workers (fun w ->
        match Serve.Client.connect ~retries:50 ~retry_interval:0.02 sock with
        | Ok c -> (c, ref (w * n / workers), ref 0.)
        | Error msg -> reject "%s" msg)
  in
  let send ((c : Serve.Client.t), k, sent) =
    sent := now_s ();
    match Wire.write_frame c.fd frames.(!k mod n).payload with
    | () -> true
    | exception Unix.Unix_error _ -> false
  in
  let t0 = now_s () in
  let stop = t0 +. budget in
  (* Handle one connection's answer; false once it is done. *)
  let answered ((c : Serve.Client.t), k, sent) =
    let reply =
      match Wire.read_frame c.fd with
      | Ok r -> Some r
      | Error _ -> None
      | exception Unix.Unix_error _ -> None
    in
    let t1 = now_s () in
    let i = !k mod n and size = frames.(!k mod n).size in
    record ~key:i ~start:!sent ~stop:t1;
    (match reply with
    | Some r when r = expected.(i) ->
      t.ok <- t.ok + size;
      t.lat_ms <- ((t1 -. !sent) *. 1e3) :: t.lat_ms
    | reply ->
      classify t ~expected:expected.(i) ~size reply;
      (* a frame that is not fully answered misses any latency limit *)
      t.lat_ms <- infinity :: t.lat_ms);
    incr k;
    reply <> None && t1 < stop && send (c, k, sent)
  in
  let live = ref (List.filter send conns) in
  while !live <> [] do
    let fds = List.map (fun ((c : Serve.Client.t), _, _) -> c.fd) !live in
    let ready =
      match Unix.select fds [] [] (-1.) with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    live :=
      List.filter
        (fun ((c : Serve.Client.t), _, _ as conn) ->
          (not (List.mem c.fd ready)) || answered conn)
        !live
  done;
  List.iter (fun (c, _, _) -> Serve.Client.close c) conns;
  (t, now_s () -. t0)

let serve_warm () =
  let sock = Filename.concat (Lazy.force run_dir) "d.sock" in
  (* Set-up: generate the frames, start the daemon, warm it with one
     corpus pass over one connection. Every set-up but the last stops
     its daemon again. *)
  let (frames, pid, warm_replies), setup_s =
    repeat_setup ~reps:setups (fun ~last ->
        let frames = frames_of (corpus ()) in
        let pid, c = start_daemon sock in
        let replies = Array.map (fun f -> request_raw c f.payload) frames in
        Serve.Client.close c;
        if not last then stop_daemon ();
        (frames, pid, replies))
  in
  let blocks = Array.fold_left (fun a f -> a + f.size) 0 frames in
  log "serve-warm: %d blocks in %d frames, set-up %.3f s" blocks
    (Array.length frames) setup_s;
  (* Reference: a local engine's answers to the jobs the frames resolve
     to, rendered through Serve.Wire. *)
  let st =
    let jobs = List.concat_map frame_jobs (Array.to_list frames) in
    { jobs; uniq = unique jobs }
  in
  let outcomes = (Engine.run_batch (new_engine ()) st.jobs).outcomes in
  let expected = render_replies st outcomes frames in
  let warm_bad =
    Array.fold_left ( + ) 0
      (Array.mapi
         (fun k r -> if r = Some expected.(k) then 0 else 1)
         warm_replies)
  in
  let c =
    match Serve.Client.connect sock with Ok c -> c | Error m -> reject "%s" m
  in
  let before = daemon_stats c in
  let run_loop budget record =
    closed_loop sock frames expected ~budget ~record
  in
  let t, wall =
    run_loop
      (if !trace = 0 then !seconds else !seconds /. 2.)
      (fun ~key:_ ~start:_ ~stop:_ -> ())
  in
  let after = daemon_stats c in
  let delta path = after path -. before path in
  let executed = delta [ "serving"; "executed" ] in
  if executed <> 0. then
    reject "serve-warm timed phase executed %g entries in the daemon" executed;
  (* a refused or lost frame counts as the worst latency the run saw *)
  let lat =
    List.map (fun x -> if Float.is_finite x then x else wall *. 1e3) t.lat_ms
  in
  let failed = t.refused + t.lost + t.bad in
  let traced_bad = ref 0 in
  let result =
    if !trace = 0 then begin
      let rss = peak_rss_mb (string_of_int pid) in
      let pct p = Calc.percentile lat ~p in
      let p50 = pct 50 and p90 = pct 90 and p99 = pct 99 in
      log "%d frames; p90 %d and p99 %d beyond; p99 %.3f ms" p90.samples
        p90.beyond p99.beyond p99.value;
      [
        ("setup_s", setup_s);
        ("throughput_per_s", float t.ok /. wall);
        ("latency_p50_ms", p50.value);
        ("latency_p90_ms", p90.value);
        ("peak_rss_mb", rss);
      ]
    end
    else begin
      let untraced_p50 = Calc.median lat in
      let r = Spans.create ~enabled:true in
      let ns x = int_of_float (x *. 1e9) in
      let tt, _ =
        run_loop (!seconds /. 2.) (fun ~key ~start ~stop ->
            Spans.add r ~key "serve.client.frame" ~start_ns:(ns start)
              ~stop_ns:(ns stop))
      in
      let traced_p50 = Calc.median tt.lat_ms in
      let final = daemon_stats c in
      let bad, metrics, _ = probe_layers r st outcomes frames expected in
      traced_bad := tt.bad + bad;
      let served = delta [ "serving"; "requests" ] in
      let accepted = final [ "serving"; "accepted" ] in
      metrics
      @ [
          ("engine.executed", delta [ "engine"; "executed" ]);
          ("engine.memo_hits", delta [ "engine"; "cache_hits" ]);
          ("serve.warm_hit_frac", delta [ "serving"; "warm_hits" ] /. served);
          ( "serve.coalesce_ratio",
            (accepted +. final [ "serving"; "coalesced" ]) /. accepted );
          ("serve.executed", executed);
          ("trace.overhead_frac", (traced_p50 /. untraced_p50) -. 1.);
        ]
    end
  in
  Serve.Client.close c;
  stop_daemon ();
  let correct = warm_bad = 0 && t.bad = 0 && !traced_bad = 0 in
  (correct, t.ok + failed, failed, result)

(* ------------------------------------------------------------------ *)

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "measure-cold | serve-warm");
      ("--seed", Arg.Set_int seed, "shuffle seed of the corpus (default 1)");
      ( "--corpus-seed",
        Arg.Set_int corpus_seed,
        "corpus generation seed (default: the suite's)" );
      ("--seconds", Arg.Set_float seconds, "measurement time per run");
      ( "--trace",
        Arg.Set_int trace,
        "0: end-to-end metrics; 1: per-layer metrics" );
      ("--scale", Arg.Set_int scale, "corpus scale divisor (default 800)");
      ("--serve-exe", Arg.Set_string serve_exe, "path to bhive_serve.exe");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W [--seed N] [--seconds S] [--trace 0|1]";
  let run =
    match !workload with
    | "measure-cold" -> measure_cold
    | "serve-warm" ->
      if not (Sys.file_exists !serve_exe) then
        reject "--serve-exe %S not found" !serve_exe;
      serve_warm
    | w -> reject "unknown workload %S" w
  in
  if !trace <> 0 && !trace <> 1 then reject "--trace must be 0 or 1";
  (* The engine settings come from the workload, never from the
     caller's environment. *)
  List.iter
    (fun k -> if Sys.getenv_opt k <> None then Unix.putenv k "")
    [
      "BHIVE_JOBS"; "BHIVE_FAULTS"; "BHIVE_STORE"; "BHIVE_TRACE"; "BHIVE_SCALE";
    ];
  if not (Sys.file_exists run_root) then Sys.mkdir run_root 0o755;
  Sys.mkdir (Lazy.force run_dir) 0o755;
  at_exit (fun () ->
      stop_daemon ();
      rm_rf (Lazy.force run_dir));
  (* a run stopped from outside still stops its daemon *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  let correct, attempted, failed, metrics = run () in
  let metrics =
    Calc.complete
      (if !trace = 0 then Catalog.end_to_end else Catalog.per_layer)
      metrics
  in
  List.iter
    (fun (m : Calc.metric) ->
      Printf.printf "%-36s %18.6f %s\n" m.name m.value m.unit_)
    metrics;
  print_endline (Calc.result_line ~correct ~attempted ~failed metrics);
  if not correct then begin
    prerr_endline "perfbench: outputs differ from the reference path";
    exit 1
  end
