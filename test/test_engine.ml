(* Tests for the supervising measurement engine: determinism of
   parallel batches versus the sequential path, memoisation,
   worker-count independence, and — new with the fault-injection
   substrate — byte-identical recovery under injected crashes and
   stalls, the no-lost-jobs accounting identity, and the pinned fault
   ledger [Faultsim.draw] deals out. *)

let config = { Corpus.Suite.default_config with scale = 2000 }
let blocks = lazy (Corpus.Suite.generate ~config ())

(* a thinner slice for the (workers x fault seeds) matrix, which builds
   the same dataset ten times *)
let chaos_blocks =
  lazy (List.filteri (fun i _ -> i mod 3 = 0) (Lazy.force blocks))

let all_uarches =
  [ Uarch.All.ivy_bridge; Uarch.All.haswell; Uarch.All.skylake ]

(* Strip the engine out of the comparison: datasets are plain data. *)
let build ~jobs uarch =
  Bhive.Dataset.build ~engine:(Engine.create ~jobs ()) uarch (Lazy.force blocks)

let check_datasets_equal what (a : Bhive.Dataset.t) (b : Bhive.Dataset.t) =
  Alcotest.(check int) (what ^ ": n_input") a.n_input b.n_input;
  Alcotest.(check int) (what ^ ": n_avx2") a.n_avx2_excluded b.n_avx2_excluded;
  Alcotest.(check int)
    (what ^ ": entry count")
    (List.length a.entries) (List.length b.entries);
  Alcotest.(check bool) (what ^ ": entries identical") true (a.entries = b.entries);
  Alcotest.(check bool) (what ^ ": failures identical") true (a.failures = b.failures);
  Alcotest.(check bool) (what ^ ": rejected identical") true (a.rejected = b.rejected);
  Alcotest.(check bool) (what ^ ": quarantined identical") true
    (a.quarantined = b.quarantined)

let test_parallel_matches_sequential () =
  List.iter
    (fun (u : Uarch.Descriptor.t) ->
      check_datasets_equal ("parallel vs sequential on " ^ u.short)
        (build ~jobs:1 u) (build ~jobs:4 u))
    all_uarches

let test_worker_count_independent () =
  let u = Uarch.All.haswell in
  let ds1 = build ~jobs:1 u in
  List.iter
    (fun jobs ->
      check_datasets_equal (Printf.sprintf "jobs=%d vs jobs=1" jobs) ds1
        (build ~jobs u))
    [ 2; 4 ]

let test_memo_cache_hits () =
  let engine = Engine.create ~jobs:1 ~faults:Faultsim.none () in
  let job =
    {
      Engine.env = Harness.Environment.default;
      uarch = Uarch.All.haswell;
      block = Corpus.Paper_blocks.gzip_crc;
    }
  in
  let first = Engine.run_batch engine [ job ] in
  let s1 = Engine.stats engine in
  Alcotest.(check int) "first submission executes" 1 s1.executed;
  Alcotest.(check int) "no hit yet" 0 s1.cache_hits;
  let again = Engine.run_batch engine [ job ] in
  let s2 = Engine.stats engine in
  Alcotest.(check int) "resubmission does not execute" 1 s2.executed;
  Alcotest.(check int) "resubmission hits the cache" 1 s2.cache_hits;
  Alcotest.(check bool) "memoised result identical" true
    (first.outcomes.(0) = again.outcomes.(0))

let test_batch_dedup () =
  let engine = Engine.create ~jobs:2 ~faults:Faultsim.none () in
  let job block =
    { Engine.env = Harness.Environment.default; uarch = Uarch.All.haswell; block }
  in
  let a = job Corpus.Paper_blocks.gzip_crc in
  let b = job Corpus.Paper_blocks.division in
  let { Engine.outcomes; _ } = Engine.run_batch engine [ a; b; a; a; b ] in
  let s = Engine.stats engine in
  Alcotest.(check int) "submitted" 5 s.submitted;
  Alcotest.(check int) "only unique jobs execute" 2 s.executed;
  Alcotest.(check int) "duplicates are hits" 3 s.cache_hits;
  Alcotest.(check bool) "duplicate slots agree" true
    (outcomes.(0) = outcomes.(2) && outcomes.(2) = outcomes.(3));
  Alcotest.(check bool) "order preserved" true (outcomes.(1) = outcomes.(4))

let test_fingerprint_sensitivity () =
  let base =
    {
      Engine.env = Harness.Environment.default;
      uarch = Uarch.All.haswell;
      block = Corpus.Paper_blocks.gzip_crc;
    }
  in
  Alcotest.(check string) "fingerprint is stable" (Engine.fingerprint base)
    (Engine.fingerprint base);
  Alcotest.(check bool) "uarch changes the fingerprint" false
    (Engine.fingerprint base
    = Engine.fingerprint { base with uarch = Uarch.All.skylake });
  Alcotest.(check bool) "env changes the fingerprint" false
    (Engine.fingerprint base
    = Engine.fingerprint
        { base with env = Harness.Environment.agner_baseline });
  Alcotest.(check bool) "block changes the fingerprint" false
    (Engine.fingerprint base
    = Engine.fingerprint { base with block = Corpus.Paper_blocks.division })

let test_progress_hook () =
  let calls = ref [] in
  let engine =
    Engine.create ~jobs:1 ~faults:Faultsim.none
      ~progress:(fun ~done_ ~total -> calls := (done_, total) :: !calls)
      ()
  in
  let job block =
    { Engine.env = Harness.Environment.default; uarch = Uarch.All.haswell; block }
  in
  ignore
    (Engine.run_batch engine
       [ job Corpus.Paper_blocks.gzip_crc; job Corpus.Paper_blocks.division ]);
  Alcotest.(check (list (pair int int)))
    "progress reported per executed job" [ (1, 2); (2, 2) ] (List.rev !calls)

let test_phase_metrics () =
  let engine = Engine.create ~jobs:1 ~faults:Faultsim.none () in
  let job =
    {
      Engine.env = Harness.Environment.default;
      uarch = Uarch.All.haswell;
      block = Corpus.Paper_blocks.gzip_crc;
    }
  in
  Engine.phase engine "first" (fun () -> ignore (Engine.run_batch engine [ job ]));
  Engine.phase engine "second" (fun () -> ignore (Engine.run_batch engine [ job ]));
  match Engine.phases engine with
  | [ p1; p2 ] ->
    Alcotest.(check string) "phase order" "first" p1.phase_name;
    Alcotest.(check int) "first executes" 1 p1.phase_executed;
    Alcotest.(check int) "second hits cache" 1 p2.phase_cache_hits;
    Alcotest.(check int) "second executes nothing" 0 p2.phase_executed;
    let json = Engine.phases_to_json engine in
    let contains needle =
      let n = String.length needle and h = String.length json in
      let rec at i = i + n <= h && (String.sub json i n = needle || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) "json names the phases" true
      (contains "\"section\": \"first\"" && contains "\"section\": \"second\"");
    Alcotest.(check bool) "json reports hit rate" true
      (contains "\"cache_hit_rate\"");
    Alcotest.(check bool) "json reports the fault block" true
      (contains "\"faults\"")
  | phases ->
    Alcotest.fail (Printf.sprintf "expected two phases, got %d" (List.length phases))

(* --- fault injection ------------------------------------------------- *)

let faults_of spec =
  match Faultsim.parse spec with
  | Ok c -> c
  | Error msg -> Alcotest.fail (Printf.sprintf "bad fault spec %S: %s" spec msg)

let chaos_build ~jobs ~faults uarch =
  Bhive.Dataset.build
    ~engine:(Engine.create ~jobs ~faults ())
    uarch
    (Lazy.force chaos_blocks)

(* The tentpole guarantee: under recoverable fault rates, accepted
   output is byte-identical to the fault-free run for every (worker
   count, fault seed) combination — the matrix ISSUE.md pins down. *)
let test_chaos_matrix () =
  let u = Uarch.All.haswell in
  let clean = chaos_build ~jobs:1 ~faults:Faultsim.none u in
  Alcotest.(check bool) "fault-free run quarantines nothing" true
    (clean.quarantined = []);
  List.iter
    (fun seed ->
      List.iter
        (fun jobs ->
          let faults =
            faults_of (Printf.sprintf "crash=0.02,stall=0.01,seed=%d" seed)
          in
          let ds = chaos_build ~jobs ~faults u in
          check_datasets_equal
            (Printf.sprintf "jobs=%d seed=%d vs fault-free" jobs seed)
            clean ds)
        [ 1; 2; 4 ])
    [ 0; 42; 1337 ]

(* Accounting identity: whatever the fault rates, every submitted job
   is completed or quarantined — nothing is lost, nothing raises. *)
let test_no_lost_jobs () =
  List.iter
    (fun spec ->
      let engine =
        Engine.create ~jobs:4 ~faults:(faults_of spec) ~max_retries:2 ()
      in
      ignore
        (Bhive.Dataset.build ~engine Uarch.All.haswell
           (Lazy.force chaos_blocks));
      let s = Engine.stats engine in
      Alcotest.(check int) (spec ^ ": no lost jobs") 0 (Engine.lost s);
      Alcotest.(check int)
        (spec ^ ": completed + quarantined = submitted")
        s.submitted
        (s.completed + s.quarantined))
    [
      "crash=0.02,stall=0.01,seed=7";
      "crash=0.3,stall=0.2,seed=9";
      "crash=0.8,seed=5";
    ]

(* Unrecoverable rates produce quarantines; the manifest must be stable
   across worker counts (same jobs, same attempt histories, same
   order). *)
let test_quarantine_manifest_stable () =
  let faults = faults_of "crash=0.6,seed=11" in
  let run jobs =
    let engine = Engine.create ~jobs ~faults ~max_retries:1 () in
    ignore
      (Bhive.Dataset.build ~engine Uarch.All.haswell (Lazy.force chaos_blocks));
    let path = Filename.temp_file "bhive_quarantine" ".jsonl" in
    let n = Engine.write_quarantine_manifest engine path in
    let contents = In_channel.with_open_text path In_channel.input_all in
    Sys.remove path;
    (Engine.quarantines engine, n, contents)
  in
  let q1, n1, m1 = run 1 in
  Alcotest.(check bool) "crash=0.6 with one retry quarantines something" true
    (n1 > 0);
  Alcotest.(check int) "manifest counts its records" (List.length q1) n1;
  List.iter
    (fun jobs ->
      let q, n, m = run jobs in
      Alcotest.(check int) (Printf.sprintf "jobs=%d: same count" jobs) n1 n;
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: same quarantine records" jobs)
        true (q = q1);
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d: byte-identical manifest" jobs)
        m1 m)
    [ 2; 4 ]

(* Certain crash: the worker domain dies on every attempt. The
   supervisor must replenish the pool each time, record exponential
   backoff, and quarantine after the retry budget — and a resubmission
   of the quarantined fingerprint must be a cache hit, not a re-run. *)
let test_certain_crash_supervision () =
  let engine =
    Engine.create ~jobs:2
      ~faults:(faults_of "crash=1,seed=2")
      ~max_retries:3 ()
  in
  let job =
    {
      Engine.env = Harness.Environment.default;
      uarch = Uarch.All.haswell;
      block = Corpus.Paper_blocks.gzip_crc;
    }
  in
  let { Engine.outcomes; quarantined } = Engine.run_batch engine [ job ] in
  (match outcomes.(0) with
  | Error (Engine.Quarantined q) ->
    Alcotest.(check int) "4 attempts (1 + 3 retries)" 4
      (List.length q.q_attempts);
    List.iteri
      (fun i (a : Engine.attempt_record) ->
        Alcotest.(check int) "attempts numbered in order" i a.att_number;
        Alcotest.(check string) "every attempt crashed" "crash" a.att_verdict;
        let expected_backoff = if i < 3 then 10 * (1 lsl i) else 0 in
        Alcotest.(check int) "deterministic exponential backoff"
          expected_backoff a.att_backoff_ms)
      q.q_attempts
  | _ -> Alcotest.fail "expected a quarantined outcome");
  Alcotest.(check int) "one quarantine in the batch manifest" 1
    (List.length quarantined);
  let s = Engine.stats engine in
  Alcotest.(check int) "4 crashes" 4 s.crashes;
  Alcotest.(check int) "3 retries" 3 s.retries;
  Alcotest.(check int) "a replacement domain per crash" 4
    s.workers_replenished;
  Alcotest.(check int) "the profiler never ran" 0 s.profiler_calls;
  (* resubmission: the quarantine is memoised like any other outcome *)
  let again = Engine.run_batch engine [ job ] in
  let s2 = Engine.stats engine in
  Alcotest.(check bool) "quarantined outcome memoised" true
    (again.outcomes.(0) = outcomes.(0));
  Alcotest.(check bool) "no fresh quarantine on resubmission" true
    (again.quarantined = []);
  Alcotest.(check int) "resubmission is a cache hit" 1 s2.cache_hits;
  Alcotest.(check int) "still zero lost" 0 (Engine.lost s2)

(* Stalls inside the deadline are absorbed; past it the attempt times
   out and retries. Either way recoverable stall rates must not change
   accepted output. *)
let test_stalls_absorbed_or_retried () =
  let engine =
    Engine.create ~jobs:1 ~faults:(faults_of "stall=0.9,seed=6") ()
  in
  let job block =
    { Engine.env = Harness.Environment.default; uarch = Uarch.All.haswell; block }
  in
  let jobs =
    [ job Corpus.Paper_blocks.gzip_crc; job Corpus.Paper_blocks.division ]
  in
  let clean =
    Engine.run_batch (Engine.create ~jobs:1 ~faults:Faultsim.none ()) jobs
  in
  let stalled = Engine.run_batch engine jobs in
  let s = Engine.stats engine in
  Alcotest.(check bool) "stalls were injected" true
    (s.stalls_absorbed + s.timeouts > 0);
  Alcotest.(check bool) "output unchanged by stalls" true
    (clean.outcomes = stalled.outcomes);
  Alcotest.(check int) "nothing lost" 0 (Engine.lost s)

(* --- cross-uarch groups ---------------------------------------------- *)

(* The blocks on ivb, hsw and skl in ONE batch, AVX2 blocks skipped on
   ivb (the bhive_validate job list): each block's jobs form one group
   that shares its Fig. 2 mappings. *)
let multi_uarch_jobs blocks =
  List.concat_map
    (fun (u : Uarch.Descriptor.t) ->
      List.filter_map
        (fun (b : Corpus.Block.t) ->
          if (not u.supports_avx2) && Corpus.Block.uses_avx2 b then None
          else
            Some
              {
                Engine.env = Harness.Environment.default;
                uarch = u;
                block = b.insts;
              })
        blocks)
    all_uarches

let outcome_bytes (o : Engine.outcome) =
  Marshal.to_string o [ Marshal.No_sharing ]

(* A crash kills the domain before the later members of its group
   start; the supervisor must requeue them beside the crashed job.
   Whatever the worker count, nothing is lost, every completed outcome
   is byte-identical to the fault-free batch's, and the outcomes and
   the quarantine manifest are byte-identical across worker counts. *)
let test_crash_mid_group () =
  let jobs = multi_uarch_jobs (Lazy.force chaos_blocks) in
  let clean =
    (Engine.run_batch (Engine.create ~jobs:1 ~faults:Faultsim.none ()) jobs)
      .outcomes
  in
  List.iter
    (fun spec ->
      let run n =
        let what = Printf.sprintf "%s jobs=%d" spec n in
        let engine = Engine.create ~jobs:n ~faults:(faults_of spec) () in
        let { Engine.outcomes; _ } = Engine.run_batch engine jobs in
        let s = Engine.stats engine in
        Alcotest.(check bool) (what ^ ": crashes injected") true (s.crashes > 0);
        Alcotest.(check int) (what ^ ": no lost jobs") 0 (Engine.lost s);
        Alcotest.(check int)
          (what ^ ": completed + quarantined = submitted")
          s.submitted
          (s.completed + s.quarantined);
        Array.iteri
          (fun i o ->
            match o with
            | Error (Engine.Quarantined _) -> ()
            | _ ->
              if outcome_bytes o <> outcome_bytes clean.(i) then
                Alcotest.failf "%s: slot %d differs from the fault-free batch"
                  what i)
          outcomes;
        let path = Filename.temp_file "bhive_quarantine" ".jsonl" in
        ignore (Engine.write_quarantine_manifest engine path);
        let manifest = In_channel.with_open_text path In_channel.input_all in
        Sys.remove path;
        (Array.map outcome_bytes outcomes, manifest)
      in
      let o1, m1 = run 1 in
      List.iter
        (fun n ->
          let o, m = run n in
          Alcotest.(check bool)
            (Printf.sprintf "%s: jobs=%d outcomes = jobs=1 outcomes" spec n)
            true (o = o1);
          Alcotest.(check string)
            (Printf.sprintf "%s: jobs=%d byte-identical manifest" spec n)
            m1 m)
        [ 2; 4 ])
    [ "crash=0.3,stall=0.2,seed=9"; "crash=0.8,seed=5" ]

(* Differential oracle for the group memo: every outcome of a
   fault-free multi-uarch batch equals a direct profiler call, and the
   engine runs Mapping.run once per distinct (env, block, unroll) —
   every other mapping request is answered by the memo and counted in
   profiler.mapping.shared. *)
let test_group_mapping_shared () =
  let seen = Hashtbl.create 256 in
  let jobs =
    List.filter
      (fun j ->
        let fp = Engine.fingerprint j in
        (not (Hashtbl.mem seen fp)) && (Hashtbl.add seen fp (); true))
      (multi_uarch_jobs (Lazy.force chaos_blocks))
  in
  let calls = ref 0 in
  let keys = Hashtbl.create 256 in
  let counting env block ~unroll =
    incr calls;
    Hashtbl.replace keys (env, block, unroll) ();
    Harness.Mapping.run env block ~unroll
  in
  let reference =
    List.map
      (fun (j : Engine.job) ->
        match Harness.Profiler.profile ~map:counting j.env j.uarch j.block with
        | Ok p -> Ok p
        | Error f -> Error (Engine.Profiler_failure f))
      jobs
  in
  let distinct = Hashtbl.length keys in
  Alcotest.(check bool) "unroll keys repeat across uarches" true
    (!calls > distinct);
  let shared = Telemetry.Metrics.counter "profiler.mapping.shared" in
  List.iter
    (fun n ->
      let engine = Engine.create ~jobs:n ~faults:Faultsim.none () in
      let before = Telemetry.Metrics.value shared in
      let { Engine.outcomes; _ } = Engine.run_batch engine jobs in
      let shared_calls = Telemetry.Metrics.value shared - before in
      List.iteri
        (fun i r ->
          if outcome_bytes outcomes.(i) <> outcome_bytes r then
            Alcotest.failf "jobs=%d: slot %d differs from a direct profile" n i)
        reference;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: one profile per job" n)
        (List.length jobs) (Engine.stats engine).profiler_calls;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: one Mapping.run per distinct key" n)
        (!calls - distinct) shared_calls)
    [ 1; 2 ]

(* --- Faultsim -------------------------------------------------------- *)

let test_faultsim_parse () =
  (match Faultsim.parse "crash=0.01,stall=0.005,seed=42" with
  | Ok c ->
    Alcotest.(check (float 0.0)) "crash" 0.01 c.crash;
    Alcotest.(check (float 0.0)) "stall" 0.005 c.stall;
    Alcotest.(check int64) "seed" 42L c.seed;
    (match Faultsim.parse (Faultsim.to_string c) with
    | Ok c' -> Alcotest.(check bool) "to_string round-trips" true (c = c')
    | Error msg -> Alcotest.fail msg)
  | Error msg -> Alcotest.fail msg);
  (* a rate that needs all 17 significant digits still round-trips *)
  let c = { Faultsim.none with crash = 0.1 +. 0.2 } in
  Alcotest.(check string) "17-digit rate rendered exactly"
    "crash=0.30000000000000004,stall=0,seed=0" (Faultsim.to_string c);
  Alcotest.(check bool) "17-digit rate round-trips" true
    (Faultsim.parse (Faultsim.to_string c) = Ok c);
  Alcotest.(check bool) "differs from crash=0.3" true
    (Faultsim.to_string c
    <> Faultsim.to_string { Faultsim.none with crash = 0.3 });
  Alcotest.(check bool) "empty spec is none" true
    (Faultsim.parse "" = Ok Faultsim.none);
  Alcotest.(check bool) "'none' is none" true
    (Faultsim.parse "none" = Ok Faultsim.none);
  let rejects spec =
    Alcotest.(check bool)
      (Printf.sprintf "%S rejected" spec)
      true
      (Result.is_error (Faultsim.parse spec))
  in
  rejects "crash=1.5";
  rejects "crash=-0.1";
  rejects "crash=abc";
  rejects "seed=x";
  rejects "bogus=1";
  rejects "crash";
  (* corruption injection is gone: a spec asking for it must fail,
     never run without it *)
  rejects "corrupt=0.002";
  rejects "corrupt=0"

(* The chaos fault ledger: Faultsim.draw for crash=0.2,stall=0.2,seed=42
   over fingerprints job-0..job-63 (eight per line) x attempts 0-3, one
   character per draw: '.' none, 'C' crash, 'a'..'e' a stall of
   25/50/100/200/400 ms. Pinned so the draw stream (its key bytes and
   its crash-then-stall order) cannot shift unnoticed. *)
let golden_ledger =
  {|...C C.CC ..C. C.ec .C.. C..e .C.e .CCe
.... C... ...C .b.C .CdC .... .c.. ..bC
C.C. ..b. ...c C... ..CC .... a... ..Ca
...d d..C C.c. a.C. .bC. .ae. .... ....
d.b. ...d .... .bb. ..bC .cC. .CC. C..C
.CC. .CC. .C.b .C.. .... CC.C e.bC .aC.
.C.. .Cb. Cb.C dc.. ...C C.CC ...a cCC.
..C. .b.b Cc.a C... ..e. .... .... C...|}

let render_ledger c =
  let draw_char fingerprint attempt =
    match Faultsim.draw c ~fingerprint ~attempt with
    | None -> '.'
    | Some Faultsim.Crash -> 'C'
    | Some (Faultsim.Stall ms) -> (
      match ms with
      | 25 -> 'a'
      | 50 -> 'b'
      | 100 -> 'c'
      | 200 -> 'd'
      | 400 -> 'e'
      | _ -> '?')
  in
  List.init 8 (fun row ->
      List.init 8 (fun col ->
          let fingerprint = Printf.sprintf "job-%d" ((8 * row) + col) in
          String.init 4 (draw_char fingerprint))
      |> String.concat " ")
  |> String.concat "\n"

let test_faultsim_draw_deterministic () =
  let c = faults_of "crash=0.2,stall=0.2,seed=42" in
  let draws fingerprint =
    List.init 64 (fun attempt -> Faultsim.draw c ~fingerprint ~attempt)
  in
  Alcotest.(check bool) "same key, same faults" true
    (draws "job-a" = draws "job-a");
  Alcotest.(check bool) "different fingerprints, different streams" true
    (draws "job-a" <> draws "job-b");
  let c' = faults_of "crash=0.2,stall=0.2,seed=43" in
  Alcotest.(check bool) "different seeds, different streams" true
    (List.init 64 (fun a -> Faultsim.draw c' ~fingerprint:"job-a" ~attempt:a)
    <> draws "job-a");
  Alcotest.(check bool) "none never faults" true
    (List.for_all
       (fun a -> Faultsim.draw Faultsim.none ~fingerprint:"x" ~attempt:a = None)
       (List.init 64 Fun.id));
  Alcotest.(check string) "golden chaos ledger" golden_ledger (render_ledger c)

let suite =
  [
    Alcotest.test_case "parallel = sequential (ivb/hsw/skl)" `Quick
      test_parallel_matches_sequential;
    Alcotest.test_case "worker-count independence (1/2/4)" `Quick
      test_worker_count_independent;
    Alcotest.test_case "memo cache hits" `Quick test_memo_cache_hits;
    Alcotest.test_case "in-batch dedup" `Quick test_batch_dedup;
    Alcotest.test_case "fingerprint sensitivity" `Quick test_fingerprint_sensitivity;
    Alcotest.test_case "progress hook" `Quick test_progress_hook;
    Alcotest.test_case "phase metrics" `Quick test_phase_metrics;
    Alcotest.test_case "chaos matrix: workers x seeds byte-identical" `Quick
      test_chaos_matrix;
    Alcotest.test_case "no lost jobs under any fault rate" `Quick
      test_no_lost_jobs;
    Alcotest.test_case "quarantine manifest stable across workers" `Quick
      test_quarantine_manifest_stable;
    Alcotest.test_case "certain crash: supervision and backoff" `Quick
      test_certain_crash_supervision;
    Alcotest.test_case "stalls absorbed or retried" `Quick
      test_stalls_absorbed_or_retried;
    Alcotest.test_case "crash mid-group: rest requeued, byte-identical"
      `Quick test_crash_mid_group;
    Alcotest.test_case "group mapping memo: oracle and shared count" `Quick
      test_group_mapping_shared;
    Alcotest.test_case "faultsim: parse" `Quick test_faultsim_parse;
    Alcotest.test_case "faultsim: deterministic draws" `Quick
      test_faultsim_draw_deterministic;
  ]
