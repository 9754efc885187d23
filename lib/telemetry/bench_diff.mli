(** The bench regression gate: compare two [bench_summary.json]
    documents (a checked-in baseline and a fresh run) and decide
    whether the perf trajectory regressed.

    Three families of counters are compared against the baseline, at
    the top level and per section (matched by section name):

    - {b executed} job counts — more profiler executions than the
      baseline means the memo cache or the batch plan regressed; the
      gate fails when [current > baseline * 1.10 + 4]. Counts are
      deterministic at a fixed [BHIVE_SCALE], so the slack only absorbs
      intentional drift.
    - {b cache-hit rate} — fails when [current < baseline * 0.95]. The
      store tier's [store.hit_rate] is compared the same way whenever
      the baseline consulted a store.
    - {b wall seconds} — noisy on shared CI runners, so violations of
      [current > baseline * 1.5 + 1] are warnings unless [wall_fails]
      is set.

    A section present in the baseline but missing from the current
    summary is a failure; a new section is reported as info. Beyond
    these, every row of {!gates} is evaluated. All comparisons use
    strict inequality: a value exactly at its limit passes. *)

(** The schema version every summary this harness writes carries
    (bench runs and [bhive_load] runs alike). *)
val schema_version : float

(** Oldest summary schema the comparison understands (5.0, the first
    carrying the manifest/experiment identity and journal digest).
    Older summaries cannot answer "did these two runs execute the same
    experiment?", so they are rejected rather than half-compared. *)
val min_schema_version : float

(** Reject a summary whose [schema_version] predates
    {!min_schema_version} — or is absent entirely (schema v1) — with a
    "schema too old" message suitable for the CLI's exit-2 path. *)
val check_schema : Json.t -> (unit, string) result

type severity = Info | Warning | Regression

type finding = {
  severity : severity;
  metric : string;  (** e.g. "table5.executed" or "engine_wall_seconds" *)
  baseline : float;
  current : float;
  limit : float;  (** the violated (or respected) bound *)
  detail : string;
}

(** [Mismatch] is the distinct verdict for two summaries whose
    [manifest.experiment] ids differ: the runs measured {e different
    experiments}, so no threshold comparison of their numbers is
    meaningful. It maps to its own exit code. *)
type verdict = Pass | Warn | Fail | Mismatch

type report = { findings : finding list; verdict : verdict }

type kind =
  | Floor  (** current >= limit *)
  | Ceiling  (** current <= limit *)
  | Equal  (** current = limit *)
  | Ratio_floor of { warn_below_parity : bool }
      (** current >= limit x the baseline's value at the same path; with
          [warn_below_parity], a ratio between the limit and 1.0 warns *)

type bound =
  | Flag of { name : string; docv : string; doc : string }
      (** requested as [--name VALUE]; the value is the limit *)
  | Fixed of float  (** always on, against this limit *)
  | Baseline_value
      (** always on, against the baseline's value at the same path (0
          when the baseline lacks it) *)

(** One row of the regression contract: the summary field at [path]
    (its dotted form names the finding), the comparison [kind], where
    the limit comes from, the schema version that introduced the field,
    and the failure [detail] — for a ratio row, the name of the
    measured quantity, rendered as "<detail> regressed to 0.70x
    baseline (floor 0.80x)".

    Rules shared by every row, so a new gate is one new row:
    - an always-on row is skipped when the current summary lacks its
      field;
    - a requested flag row fails when the current summary's
      [schema_version] is older than [since] ("requires a schema vN
      summary"), when the current summary lacks the field, or — for a
      ratio row — when the baseline lacks it or holds zero ("cannot
      anchor a ratio"); a summary without any [schema_version] (only
      hand-built documents: the CLI refuses them) is not
      version-checked;
    - rows gate in identical mode too: they are absolute or
      baseline-anchored invariants, not the relative counter checks
      that mode switches off. *)
type gate = {
  path : string list;
  kind : kind;
  bound : bound;
  since : float;
  detail : string;
}

(** The rows, in evaluation (and report) order. *)
val gates : gate list

(** The flag row named [name] (without the leading dashes).
    @raise Not_found if no row has that flag. *)
val find_gate : string -> gate

(** Remove fields that legitimately differ between two runs of the
    same workload (wall times, utilization, tier traffic, telemetry
    snapshot, run metadata) from a summary, recursively. What remains
    must be byte-identical between a cold and a warm run. *)
val strip_volatile : Json.t -> Json.t

(** What [?require_identical] actually compares: at the top level only
    an allowlist of identity-defining fields survives ([schema_version],
    [scale], [name], [manifest], [sections]) — an unknown extra
    top-level object (the schema-v9 [refine] summary, or anything a
    future schema adds) is volatile rather than a mismatch — and below
    the top level {!strip_volatile} applies. *)
val strip_top : Json.t -> Json.t

(** [compare_summaries ?wall_fails ?require_identical ?limits ~baseline
    ~current ()] runs the counter checks above and every row of
    {!gates}; [limits] pairs each requested flag row with its value.

    [?require_identical] demands the two summaries be structurally
    equal after {!strip_top}; each differing path fails as
    [identical:<path>]. In identical mode the relative counter checks
    are skipped — those fields are volatile by the mode's own contract
    (a warm or resumed run shifts memo hits into store hits) — while
    the gate rows still gate. *)
val compare_summaries :
  ?wall_fails:bool ->
  ?require_identical:bool ->
  ?limits:(gate * float) list ->
  baseline:Json.t -> current:Json.t -> unit -> report

val pp_report : Format.formatter -> report -> unit

(** CI exit code: [Pass]/[Warn] → 0, [Fail] → 1, [Mismatch] → 3. *)
val exit_code : report -> int
