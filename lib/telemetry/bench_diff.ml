(* See bench_diff.mli. *)

(* Slack of the threshold-relative counter checks (see bench_diff.mli). *)
let executed_rel = 0.10
let executed_abs = 4.0
let hit_rate_rel = 0.05
let wall_rel = 0.50
let wall_abs = 1.0

type severity = Info | Warning | Regression

type finding = {
  severity : severity;
  metric : string;
  baseline : float;
  current : float;
  limit : float;
  detail : string;
}

type verdict = Pass | Warn | Fail | Mismatch

type report = { findings : finding list; verdict : verdict }

let num_field name j = Option.bind (Json.member name j) Json.number

let schema_version = 9.0

(* v5: the first schema carrying the manifest/experiment identity and
   the journal digest; anything older cannot prove the two runs
   executed the same experiment. *)
let min_schema_version = 5.0

let check_schema j =
  match num_field "schema_version" j with
  | None ->
    Error
      "summary has no schema_version field (schema v1, before the telemetry \
       snapshot): schema too old to compare"
  | Some v when v < min_schema_version ->
    Error
      (Printf.sprintf
         "summary schema version %s is too old to compare (minimum %s)"
         (Json.number_to_string v)
         (Json.number_to_string min_schema_version))
  | Some _ -> Ok ()

let finding severity metric ~baseline ~current ~limit detail =
  { severity; metric; baseline; current; limit; detail }

(* One comparison: [violated] decides against the limit; findings at or
   below the limit become Info entries so CI logs show what was checked. *)
let check ~severity ~metric ~baseline ~current ~limit ~violated ~detail acc =
  let severity, detail =
    if violated then (severity, detail) else (Info, "ok")
  in
  finding severity metric ~baseline ~current ~limit detail :: acc

let check_executed ~metric ~baseline ~current acc =
  let limit = (baseline *. (1.0 +. executed_rel)) +. executed_abs in
  check ~severity:Regression ~metric ~baseline ~current ~limit
    ~violated:(current > limit)
    ~detail:"more profiler executions than baseline (cache effectiveness regressed)"
    acc

let check_hit_rate ~metric ~baseline ~current acc =
  let limit = baseline *. (1.0 -. hit_rate_rel) in
  check ~severity:Regression ~metric ~baseline ~current ~limit
    ~violated:(current < limit)
    ~detail:"cache-hit rate dropped past threshold" acc

let check_wall ~wall_fails ~metric ~baseline ~current acc =
  let limit = (baseline *. (1.0 +. wall_rel)) +. wall_abs in
  let severity = if wall_fails then Regression else Warning in
  check ~severity ~metric ~baseline ~current ~limit
    ~violated:(current > limit)
    ~detail:"wall time regressed past threshold" acc

(* --- the gate table ------------------------------------------------- *)

type kind =
  | Floor
  | Ceiling
  | Equal
  | Ratio_floor of { warn_below_parity : bool }

type bound =
  | Flag of { name : string; docv : string; doc : string }
  | Fixed of float
  | Baseline_value

type gate = {
  path : string list;
  kind : kind;
  bound : bound;
  since : float;
  detail : string;
}

let flag name docv doc = Flag { name; docv; doc }

let gates =
  [
    {
      path = [ "faults"; "lost" ];
      kind = Equal;
      bound = Fixed 0.0;
      since = 3.0;
      detail = "jobs lost (completed + quarantined <> submitted)";
    };
    {
      path = [ "faults"; "quarantined_jobs" ];
      kind = Ceiling;
      bound = Baseline_value;
      since = 3.0;
      detail = "more quarantined jobs than baseline (recovery regressed)";
    };
    {
      path = [ "store"; "hit_rate" ];
      kind = Floor;
      bound =
        flag "min-store-hit-rate" "RATE"
          "Fail unless the current run's store hit rate \
           ($(b,store.hit_rate)) is at least RATE — e.g. 0.95 for the \
           warm-cache job.";
      since = 4.0;
      detail =
        "store hit rate below required floor (warm run re-profiled too much)";
    };
    {
      (* simulated blocks over cumulative in-simulator core-seconds: far
         less runner-noise-sensitive than wall time *)
      path = [ "perf"; "blocks_per_sec" ];
      kind = Ratio_floor { warn_below_parity = true };
      bound =
        flag "min-speedup" "RATE"
          "Fail unless the current run's simulator throughput \
           ($(b,perf.blocks_per_sec), simulated blocks per in-simulator \
           core-second) is at least RATE times the baseline's — e.g. 0.8 \
           for the CI perf job. Ratios between RATE and 1.0 warn.";
      since = 6.0;
      detail = "simulator throughput";
    };
    {
      path = [ "serving"; "lost" ];
      kind = Equal;
      bound = Fixed 0.0;
      since = 7.0;
      detail =
        "requests lost (sent but never answered) — accept-then-hang or \
         connection drop under load";
    };
    {
      path = [ "serving"; "shed_after_accept" ];
      kind = Equal;
      bound = Fixed 0.0;
      since = 7.0;
      detail =
        "requests shed after admission (deadline expiry or drain cut) — \
         admission control let in more than the server could finish";
    };
    {
      path = [ "serving"; "coalesce_ratio" ];
      kind = Floor;
      bound =
        flag "min-coalesce" "RATIO"
          "Fail unless the current run's request coalesce ratio \
           ($(b,serving.coalesce_ratio), requests answered per engine \
           submission) is at least RATIO — e.g. 1.05 for the CI serve job, \
           which replays duplicate blocks concurrently.";
      since = 7.0;
      detail =
        "coalesce ratio below floor (concurrent duplicate requests are not \
         sharing in-flight runs)";
    };
    {
      path = [ "serving"; "requests_per_sec" ];
      kind = Ratio_floor { warn_below_parity = false };
      bound =
        flag "min-rps" "RATE"
          "Fail unless the current run's serving throughput \
           ($(b,serving.requests_per_sec), answered requests per replay \
           second) is at least RATE times the baseline's — e.g. 0.8 for the \
           CI serve-perf job.";
      since = 8.0;
      detail = "serving throughput";
    };
    {
      path = [ "serving"; "p99_ms" ];
      kind = Ceiling;
      bound =
        flag "max-p99-ms" "MS"
          "Fail if the current run's p99 request latency \
           ($(b,serving.p99_ms)) exceeds MS milliseconds.";
      since = 7.0;
      detail = "p99 latency above ceiling";
    };
    (* The refine rows arrived with the current schema; pin their
       [since] to 9.0 when [schema_version] next moves. *)
    {
      path = [ "refine"; "final_error" ];
      kind = Ceiling;
      bound =
        flag "max-refine-error" "ERR"
          "Fail if the current run's descriptor-refinement final error \
           ($(b,refine.final_error)) exceeds ERR — the CI refine job's \
           recovery gate.";
      since = schema_version;
      detail =
        "refinement final error above ceiling (the search failed to recover \
         the descriptor)";
    };
    {
      path = [ "refine"; "store_hit_rate" ];
      kind = Floor;
      bound =
        flag "min-refine-hit-rate" "RATE"
          "Fail unless the current run's cross-eval refinement store hit \
           rate ($(b,refine.store_hit_rate)) is at least RATE — e.g. 0.5 to \
           prove candidate evaluations re-simulate only the blocks their \
           patch touches.";
      since = schema_version;
      detail =
        "candidate evaluations re-simulated too many blocks (incremental \
         re-simulation through block generations regressed)";
    };
  ]

let find_gate name =
  List.find
    (fun g -> match g.bound with Flag f -> f.name = name | _ -> false)
    gates

(* Evaluate one row. [limits] holds the rows the caller requested by
   flag, with their values; an always-on row needs no request. *)
let eval_gate ~baseline ~current ~limits acc g =
  let metric = String.concat "." g.path in
  let num doc = Option.bind (Json.path g.path doc) Json.number in
  let refuse limit detail =
    finding Regression metric ~baseline:0.0 ~current:0.0 ~limit detail :: acc
  in
  let judge limit c =
    let absolute violated =
      check ~severity:Regression ~metric ~baseline:limit ~current:c ~limit
        ~violated ~detail:g.detail acc
    in
    match g.kind with
    | Floor -> absolute (c < limit)
    | Ceiling -> absolute (c > limit)
    | Equal -> absolute (c <> limit)
    | Ratio_floor { warn_below_parity } -> (
      match num baseline with
      | None ->
        refuse limit
          (metric ^ " missing from the baseline summary — cannot anchor a ratio")
      | Some b when b <= 0.0 ->
        refuse limit
          (Printf.sprintf
             "baseline %s is %s — cannot anchor a ratio; regenerate the \
              baseline from a run that measures it"
             metric (Json.number_to_string b))
      | Some b ->
        let ratio = c /. b in
        let judged severity ~limit detail =
          finding severity metric ~baseline:b ~current:c ~limit detail :: acc
        in
        if ratio < limit then
          judged Regression ~limit:(b *. limit)
            (Printf.sprintf "%s regressed to %.2fx baseline (floor %.2fx)"
               g.detail ratio limit)
        else if warn_below_parity && ratio < 1.0 then
          judged Warning ~limit:b
            (Printf.sprintf
               "%s at %.2fx baseline (above the %.2fx floor, below parity)"
               g.detail ratio limit)
        else judged Info ~limit:(b *. limit) "ok")
  in
  match (g.bound, num current) with
  | Fixed limit, Some c -> judge limit c
  | Baseline_value, Some c -> judge (Option.value (num baseline) ~default:0.0) c
  | (Fixed _ | Baseline_value), None -> acc
  | Flag f, c -> (
    match (List.assoc_opt g limits, num_field "schema_version" current, c) with
    | None, _, _ -> acc
    | Some limit, Some v, _ when v < g.since ->
      refuse limit
        (Printf.sprintf
           "--%s requires a schema v%s summary (this one is v%s) — \
            regenerate it with the current harness"
           f.name
           (Json.number_to_string g.since)
           (Json.number_to_string v))
    | Some limit, _, None ->
      refuse limit (metric ^ " missing from the current summary — cannot gate it")
    | Some limit, _, Some c -> judge limit c)

(* --- identical-mode support (warm-cache CI gate) ---------------------- *)

(* Keys whose values legitimately differ between two runs of the same
   experiment: timing, utilization, tier traffic (a warm run executes
   nothing), scheduling-dependent job accounting (a resumed run
   replays completed sections from the journal, so where submissions
   and retries land shifts even though every section's output is
   byte-identical), worker count, and run metadata. Everything else —
   schema, scale, manifest/experiment ids, journal digest, section
   structure and section output digests — must match byte-for-byte. *)
let volatile_keys =
  [
    "wall_seconds";
    "engine_wall_seconds";
    "perf";
    "busy_seconds";
    "utilization";
    "telemetry";
    "store";
    "submitted";
    "executed";
    "cache_hits";
    "cache_hit_rate";
    "completed";
    "quarantined";
    "retries";
    "jobs";
    "profiler_calls";
    "workers";
    "faults";
    "rev";
    "generated_unix_time";
    (* schema v7: the serving object is all latency/throughput/traffic
       measurement — volatile by nature; its absolute invariants (lost,
       shed_after_accept) are gate-table rows instead *)
    "serving";
  ]

let rec strip_volatile (j : Json.t) : Json.t =
  match j with
  | Json.Object kvs ->
    Json.Object
      (List.filter_map
         (fun (k, v) ->
           if List.mem k volatile_keys then None
           else Some (k, strip_volatile v))
         kvs)
  | Json.List items -> Json.List (List.map strip_volatile items)
  | other -> other

(* Identity at the top level is an allowlist, not a blocklist: exactly
   the fields that define the experiment and its deterministic output.
   Any other top-level object — the [refine] summary with its
   resume-dependent store rates, or a future schema's addition an older
   gate has never heard of — is volatile for the identity check; its
   absolute invariants are gate-table rows instead. (Below the top
   level the blocklist above still applies: section objects mix
   deterministic digests with volatile timings.) *)
let identity_keys = [ "schema_version"; "scale"; "name"; "manifest"; "sections" ]

let strip_top (j : Json.t) : Json.t =
  match j with
  | Json.Object kvs ->
    Json.Object
      (List.filter_map
         (fun (k, v) ->
           if List.mem k identity_keys then Some (k, strip_volatile v)
           else None)
         kvs)
  | other -> strip_volatile other

(* Structural diff of the stripped trees; collects dotted paths of the
   first [limit] mismatches. *)
let diff_paths ~limit a b =
  let out = ref [] and count = ref 0 in
  let emit path what =
    if !count < limit then
      out := (String.concat "." (List.rev path), what) :: !out;
    incr count
  in
  let rec go path (a : Json.t) (b : Json.t) =
    match (a, b) with
    | Json.Object ka, Json.Object kb ->
      List.iter
        (fun (k, va) ->
          match List.assoc_opt k kb with
          | None -> emit (k :: path) "missing from current"
          | Some vb -> go (k :: path) va vb)
        ka;
      List.iter
        (fun (k, _) ->
          if not (List.mem_assoc k ka) then
            emit (k :: path) "absent from baseline")
        kb
    | Json.List la, Json.List lb ->
      if List.length la <> List.length lb then
        emit path
          (Printf.sprintf "list length %d vs %d" (List.length la)
             (List.length lb))
      else
        List.iteri
          (fun i (va, vb) -> go (string_of_int i :: path) va vb)
          (List.combine la lb)
    | a, b -> if a <> b then emit path "value differs"
  in
  go [] a b;
  (List.rev !out, !count)

let sections j =
  match Option.bind (Json.member "sections" j) Json.list_value with
  | None -> []
  | Some items ->
    List.filter_map
      (fun s ->
        match Option.bind (Json.member "section" s) Json.string_value with
        | Some name -> Some (name, s)
        | None -> None)
      items

let manifest_field doc name =
  Option.bind (Json.path [ "manifest"; name ] doc) Json.string_value

let compare_summaries ?(wall_fails = false) ?(require_identical = false)
    ?(limits = []) ~baseline ~current () =
  (* Same experiment? Two summaries with different experiment ids were
     produced by manifests that measure different things — comparing
     their numbers would gate CI on an apples-to-oranges diff, so this
     is a distinct verdict, not a threshold failure. A different
     manifest id under the same experiment id (e.g. the chaos manifest:
     same corpus/sections, different fault injection) is fine and only
     worth a note. *)
  match (manifest_field baseline "experiment", manifest_field current "experiment") with
  | Some b, Some c when b <> c ->
    let short id = String.sub id 0 (min 12 (String.length id)) in
    {
      findings =
        [
          finding Regression "manifest.experiment" ~baseline:0.0 ~current:1.0
            ~limit:0.0
            (Printf.sprintf
               "different experiments: baseline %s vs current %s — these \
                runs are not comparable"
               (short b) (short c));
        ];
      verdict = Mismatch;
    }
  | _ ->
  let acc = ref [] in
  let add f = acc := f :: !acc in
  (match (manifest_field baseline "id", manifest_field current "id") with
  | Some b, Some c when b <> c ->
    add
      (finding Info "manifest.id" ~baseline:0.0 ~current:1.0 ~limit:0.0
         "manifest ids differ (same experiment, different execution \
          configuration)")
  | _ -> ());
  (* identical mode declares the counter fields volatile (a resumed or
     warm run legitimately shifts memo hits into store hits and moves
     submissions between sections), so gating them against relative
     thresholds would contradict the mode's own contract — the identity
     check and the gate table below are the gate instead. *)
  let gate_thresholds = not require_identical in
  let relative ?(prefix = "") b_doc c_doc path checker =
    let num doc = Option.bind (Json.path path doc) Json.number in
    match (num b_doc, num c_doc) with
    | Some b, Some c ->
      acc :=
        checker ~metric:(prefix ^ String.concat "." path) ~baseline:b
          ~current:c !acc
    | _ -> ()
  in
  let counters ?prefix b_doc c_doc ~wall =
    if gate_thresholds then begin
      relative ?prefix b_doc c_doc [ "executed" ] check_executed;
      relative ?prefix b_doc c_doc [ "cache_hit_rate" ] check_hit_rate;
      relative ?prefix b_doc c_doc [ wall ] (check_wall ~wall_fails)
    end
  in
  counters baseline current ~wall:"engine_wall_seconds";
  (* the store tier's hit rate, whenever the baseline consulted one *)
  if gate_thresholds then
    relative baseline current [ "store"; "hit_rate" ]
      (fun ~metric ~baseline ~current acc ->
        if baseline > 0.0 then check_hit_rate ~metric ~baseline ~current acc
        else acc);
  (* a submitted-count change is not a regression, but it explains
     executed-count drift, so surface it *)
  (match (num_field "submitted" baseline, num_field "submitted" current) with
  | Some b, Some c when b <> c ->
    add
      (finding Info "submitted" ~baseline:b ~current:c ~limit:b
         "workload size changed — regenerate the baseline if intended")
  | _ -> ());
  acc := List.fold_left (eval_gate ~baseline ~current ~limits) !acc gates;
  (* identical mode: after stripping volatile fields, the two summaries
     must be structurally equal — the warm-run byte-identity gate *)
  if require_identical then begin
    let a = strip_top baseline and b = strip_top current in
    if a = b then
      add (finding Info "identical" ~baseline:0.0 ~current:0.0 ~limit:0.0 "ok")
    else begin
      let paths, total = diff_paths ~limit:16 a b in
      List.iter
        (fun (path, what) ->
          add
            (finding Regression ("identical:" ^ path) ~baseline:0.0
               ~current:1.0 ~limit:0.0 what))
        paths;
      if total > 16 then
        add
          (finding Regression "identical" ~baseline:0.0
             ~current:(float_of_int total) ~limit:0.0
             (Printf.sprintf "%d differing paths in total" total))
    end
  end;
  let base_sections = sections baseline in
  let cur_sections = sections current in
  List.iter
    (fun (name, bs) ->
      match List.assoc_opt name cur_sections with
      | None ->
        add
          (finding Regression name ~baseline:1.0 ~current:0.0 ~limit:1.0
             "section present in baseline but missing from current run")
      | Some cs -> counters ~prefix:(name ^ ".") bs cs ~wall:"wall_seconds")
    base_sections;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name base_sections) then
        add
          (finding Info name ~baseline:0.0 ~current:1.0 ~limit:0.0
             "new section (absent from baseline)"))
    cur_sections;
  let findings = List.rev !acc in
  let verdict =
    if List.exists (fun f -> f.severity = Regression) findings then Fail
    else if List.exists (fun f -> f.severity = Warning) findings then Warn
    else Pass
  in
  { findings; verdict }

let severity_tag = function
  | Info -> "info"
  | Warning -> "WARN"
  | Regression -> "FAIL"

let verdict_tag = function
  | Pass -> "PASS"
  | Warn -> "PASS (with warnings)"
  | Fail -> "FAIL"
  | Mismatch -> "MISMATCH (different experiment)"

let pp_report fmt r =
  List.iter
    (fun f ->
      if f.severity <> Info || f.detail <> "ok" then
        Format.fprintf fmt "%-4s %-32s baseline=%s current=%s limit=%s  %s@."
          (severity_tag f.severity) f.metric
          (Json.number_to_string f.baseline)
          (Json.number_to_string f.current)
          (Json.number_to_string f.limit)
          f.detail)
    r.findings;
  let checked = List.length r.findings in
  let bad =
    List.length (List.filter (fun f -> f.severity = Regression) r.findings)
  in
  let warned =
    List.length (List.filter (fun f -> f.severity = Warning) r.findings)
  in
  Format.fprintf fmt "bench-diff: %s (%d comparisons, %d regressions, %d warnings)@."
    (verdict_tag r.verdict) checked bad warned

let exit_code r =
  match r.verdict with Fail -> 1 | Mismatch -> 3 | Pass | Warn -> 0
