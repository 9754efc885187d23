(* Execute a manifest end-to-end through one shared engine.

   Every section renders into a buffer; the buffer is journaled
   (output + digest + engine counter deltas) and then printed, so a
   replayed section is indistinguishable on stdout from an executed
   one. Section timing and engine chatter go to [info] (stderr by
   default) — stdout carries exactly the experiment output.

   Resume: a section with a [section_end] record in the journal is
   replayed from it; everything else runs, and anything the persistent
   store already holds is served without re-profiling. The summary's
   non-volatile content is therefore byte-identical between an
   uninterrupted run and any kill/resume sequence of the same
   manifest.

   Execution-parameter precedence is CLI flag > environment > manifest
   ([overrides] carries the flags); experiment-defining parameters
   (corpus, uarches, models, filters, sections) come only from the
   manifest. *)

module Json = Telemetry.Json

(* Raised out of [run] by the [kill_after_jobs] test hook: simulates a
   mid-section kill at an exact, deterministic point (the Nth resolved
   job) while leaving journal and store exactly as a real kill would. *)
exception Killed

(* Cooperative interrupt (the bhive_run SIGINT/SIGTERM handlers set
   this): honoured at the next section boundary, exactly like
   --max-sections — the in-progress section finishes, its journal
   entry is appended (the journal tail stays well-formed), remaining
   sections are skipped, and the outcome reports [interrupted = true]
   so the CLI exits 3. Re-running the same manifest resumes from the
   journal. Reset at the start of every [run]. *)
let interrupt_flag = Atomic.make false
let request_interrupt () = Atomic.set interrupt_flag true

type overrides = {
  o_jobs : int option;
  o_store : string option;
  o_faults : Faultsim.config option;
  o_max_retries : int option;
  o_quorum : int option;
}

let no_overrides =
  {
    o_jobs = None;
    o_store = None;
    o_faults = None;
    o_max_retries = None;
    o_quorum = None;
  }

type outcome = {
  manifest_id : string;
  experiment_id : string;
  journal_digest : string option;  (** [Some] once every section completed *)
  interrupted : bool;  (** stopped by [max_sections] *)
  sections_replayed : int;
  sections_executed : int;
  stats : Engine.stats;
  lost : int;
  quarantined_jobs : int;
  summary_path : string option;  (** where the summary was written *)
}

(* ------------------------------------------------------------------ *)
(* Shared run context: every lazy is forced at most once per run, and  *)
(* always through the run's single engine.                             *)
(* ------------------------------------------------------------------ *)

type ctx = {
  spec : Spec.t;
  engine : Engine.t;
  journal : Journal.t;
  progress : (done_:int -> total:int -> unit) option;
      (* the run's kill/progress hook; sections that build their own
         engines (refine) must install it there too, or
         [kill_after_jobs] could never land inside them *)
  env : Harness.Environment.t;
  config : Corpus.Suite.config;
  suite : Corpus.Block.t list Lazy.t;
  extended : Corpus.Block.t list Lazy.t;
  google : Corpus.Block.t list Lazy.t;
  classifier : Classify.Categories.t Lazy.t;
  uarches : Uarch.Descriptor.t list;
  datasets : (Uarch.Descriptor.t * Bhive.Dataset.t Lazy.t) list;
  evals : (string * Bhive.Validation.eval list) list Lazy.t;
}

let make_ctx (spec : Spec.t) engine journal progress =
  let config =
    let d = Corpus.Suite.default_config in
    {
      Corpus.Suite.scale = spec.corpus.scale;
      seed = Option.value ~default:d.Corpus.Suite.seed spec.corpus.seed;
    }
  in
  let env = Spec.environment spec in
  let suite = lazy (Corpus.Suite.generate ~config ()) in
  let uarches = Spec.resolved_uarches spec in
  let datasets =
    List.map
      (fun u -> (u, lazy (Bhive.Dataset.build ~env ~engine u (Lazy.force suite))))
      uarches
  in
  let keep_models evals =
    match spec.models with
    | [] -> evals
    | keys ->
      let names = List.filter_map Spec.model_display keys in
      List.filter
        (fun (e : Bhive.Validation.eval) -> List.mem e.model names)
        evals
  in
  {
    spec;
    engine;
    journal;
    progress;
    env;
    config;
    suite;
    extended = lazy (Corpus.Suite.generate_extended ~config ());
    google = lazy (Corpus.Suite.generate_google ~config ());
    classifier = lazy (Classify.Categories.fit (Lazy.force suite));
    uarches;
    datasets;
    evals =
      lazy
        (List.map
           (fun ((u : Uarch.Descriptor.t), ds) ->
             ( u.name,
               keep_models
                 (Bhive.Validation.evaluate_all ~engine (Lazy.force ds)) ))
           datasets);
  }

let dataset_of ctx short =
  let u, ds =
    List.find
      (fun ((u : Uarch.Descriptor.t), _) -> u.short = short)
      ctx.datasets
  in
  (u, Lazy.force ds)

let uarch_exn short =
  match Uarch.All.by_short short with
  | Some u -> u
  | None -> invalid_arg ("unknown uarch " ^ short)

(* ------------------------------------------------------------------ *)
(* Section bodies (ported from bench/main.ml and the former CLI        *)
(* bodies; all output through [fmt])                                   *)
(* ------------------------------------------------------------------ *)

let sec_corpus ctx fmt =
  Format.fprintf fmt "suite: %d blocks (scale 1/%d)@."
    (List.length (Lazy.force ctx.suite))
    ctx.config.scale

let sec_dump ctx fmt ~variant ~app ~limit ~freq =
  let blocks =
    match variant with
    | "extended" -> Lazy.force ctx.extended
    | "google" -> Lazy.force ctx.google
    | _ -> Lazy.force ctx.suite
  in
  let blocks =
    match app with
    | Some name -> List.filter (fun (b : Corpus.Block.t) -> b.app = name) blocks
    | None -> blocks
  in
  let blocks =
    match limit with
    | Some n -> List.filteri (fun i _ -> i < n) blocks
    | None -> blocks
  in
  List.iter
    (fun (b : Corpus.Block.t) ->
      if freq then Format.fprintf fmt "# %s freq=%d@." b.id b.freq
      else Format.fprintf fmt "# %s@." b.id;
      Format.fprintf fmt "%s@.@." (Corpus.Block.text b))
    blocks

let sec_ablation_suite ctx fmt =
  let rows =
    Bhive.Ablation.suite_ablation ~engine:ctx.engine (Lazy.force ctx.suite)
  in
  Bhive.Report.suite_ablation fmt rows

let sec_ablation_block ctx fmt block_name =
  let block = Option.get (Spec.paper_block block_name) in
  let rows = Bhive.Ablation.block_ablation ~engine:ctx.engine block in
  Bhive.Report.block_ablation fmt rows

let sec_classifier ctx fmt =
  ignore (Lazy.force ctx.classifier);
  Format.fprintf fmt "classifier fitted on %d blocks@."
    (List.length (Lazy.force ctx.suite))

let sec_dataset ctx fmt short =
  let (u : Uarch.Descriptor.t), ds = dataset_of ctx short in
  Format.fprintf fmt "profiling on %s...@." u.name;
  Format.fprintf fmt "  %d/%d blocks measured (%.1f%%), %d AVX2-excluded@."
    (Bhive.Dataset.size ds) ds.n_input
    (100.0 *. Bhive.Dataset.profiled_fraction ds)
    ds.n_avx2_excluded;
  if ds.quarantined <> [] then
    Format.fprintf fmt "  %d block(s) quarantined by the engine@."
      (List.length ds.quarantined);
  match ctx.spec.output.export_prefix with
  | Some prefix ->
    let path = Printf.sprintf "%s-%s.csv" prefix u.short in
    Bhive.Export.to_file path ds;
    Format.fprintf fmt "  dataset written to %s@." path
  | None -> ()

let sec_validate ctx fmt =
  Bhive.Report.overall_error fmt (Lazy.force ctx.evals)

let sec_errors ctx fmt =
  let cls = Lazy.force ctx.classifier in
  let evals = Lazy.force ctx.evals in
  List.iter
    (fun (uarch_name, per_model) ->
      Bhive.Report.per_app_error fmt ~uarch:uarch_name per_model;
      Bhive.Report.per_category_error fmt ~uarch:uarch_name cls per_model)
    evals;
  match List.assoc_opt "Haswell" evals with
  | Some per_model -> Bhive.Report.per_length_error fmt ~uarch:"Haswell" per_model
  | None -> ()

let sec_case_study ctx fmt =
  let hsw, hsw_ds = dataset_of ctx "hsw" in
  let models, _ = Bhive.Validation.standard_models ~engine:ctx.engine hsw_ds in
  let measure block =
    match Engine.profile ctx.engine ctx.env hsw block with
    | Ok p -> p.throughput
    | Error _ -> nan
  in
  let rows =
    List.map
      (fun (name, block) ->
        ( name,
          block,
          measure block,
          List.map
            (fun (m : Models.Model_intf.t) -> (m.name, m.predict block))
            models ))
      [
        ("unsigned division (64/32-bit)", Corpus.Paper_blocks.division);
        ("zero idiom (vxorps xmm2,xmm2,xmm2)", Corpus.Paper_blocks.zero_idiom);
        ("gzip updcrc inner loop", Corpus.Paper_blocks.gzip_crc);
      ]
  in
  Bhive.Report.case_study fmt rows;
  (* the mis-scheduling figure: IACA vs llvm-mca schedules on the gzip
     block *)
  let block = Corpus.Paper_blocks.gzip_crc in
  List.iter
    (fun (m : Models.Model_intf.t) ->
      match m.schedule with
      | Some sched when m.name <> "OSACA" ->
        Bhive.Report.schedule fmt ~model:m.name ~block (sched block)
      | _ -> ())
    models

let sec_google ctx fmt =
  let hsw, hsw_ds = dataset_of ctx "hsw" in
  let google = Lazy.force ctx.google in
  let spanner, dremel =
    List.partition (fun (b : Corpus.Block.t) -> b.app = "spanner") google
  in
  let cls = Lazy.force ctx.classifier in
  Bhive.Report.composition fmt
    ~title:
      "Figure: basic block composition of Spanner and Dremel \
       (frequency-weighted)"
    (Classify.Composition.rows ~weighted:true cls google);
  let models, _ = Bhive.Validation.standard_models ~engine:ctx.engine hsw_ds in
  let models =
    List.filter (fun (m : Models.Model_intf.t) -> m.name <> "OSACA") models
  in
  let rows =
    List.map
      (fun (app, blocks) ->
        let ds = Bhive.Dataset.build ~env:ctx.env ~engine:ctx.engine hsw blocks in
        ( app,
          List.map
            (fun m -> Bhive.Validation.evaluate_entries hsw m ds.entries)
            models ))
      [ ("Spanner", spanner); ("Dremel", dremel) ]
  in
  Bhive.Report.google_numbers fmt rows

let sec_instruction_table ctx fmt short =
  let u = uarch_exn short in
  Bhive.Report.rule fmt
    (Printf.sprintf
       "Per-instruction characterisation on %s (llvm-exegesis-style)"
       u.Uarch.Descriptor.name);
  Exegesis.Characterize.pp_table fmt
    (Exegesis.Characterize.table ~engine:ctx.engine u)

let sec_port_mapping ctx fmt short =
  let u = uarch_exn short in
  Bhive.Report.rule fmt
    (Printf.sprintf
       "Port-mapping inference on %s (Abel-Reineke-style blocker probes)"
       u.Uarch.Descriptor.name);
  Exegesis.Portmap.pp_survey fmt
    (Exegesis.Portmap.survey ~engine:ctx.engine u
       Exegesis.Portmap.standard_targets)

let sec_ablation_unroll ctx fmt =
  Bhive.Report.rule fmt
    "Ablation: unroll-factor sweep on the TensorFlow block (naive strategy)";
  let block = Corpus.Paper_blocks.tensorflow_ablation in
  List.iter
    (fun u ->
      let env =
        { ctx.env with Harness.Environment.unroll = Harness.Environment.Naive u }
      in
      match Engine.profile ctx.engine env Uarch.All.haswell block with
      | Ok p ->
        Format.fprintf fmt "  u=%-4d tp=%8.2f accepted=%b l1i_misses=%d@." u
          p.throughput p.accepted p.large.counters.l1i_misses
      | Error e ->
        let fingerprint =
          Engine.fingerprint { Engine.env; uarch = Uarch.All.haswell; block }
        in
        Format.fprintf fmt "  u=%-4d failed: %s@." u
          (Engine.error_to_string ~fingerprint e))
    [ 4; 8; 16; 32; 64; 100; 200 ]

let accepted_fraction ctx env blocks =
  let { Engine.outcomes; _ } =
    Engine.run_batch ctx.engine
      (List.map
         (fun (b : Corpus.Block.t) ->
           { Engine.env; uarch = Uarch.All.haswell; block = b.insts })
         blocks)
  in
  let ok =
    Array.fold_left
      (fun acc -> function
        | Ok (p : Harness.Profiler.profile) when p.accepted -> acc + 1
        | _ -> acc)
      0 outcomes
  in
  100.0 *. float_of_int ok /. float_of_int (List.length blocks)

let sec_ablation_filters ctx fmt =
  Bhive.Report.rule fmt
    "Ablation: clean-timing threshold sweep (accepted fraction of suite \
     sample)";
  let blocks = List.filteri (fun i _ -> i mod 7 = 0) (Lazy.force ctx.suite) in
  List.iter
    (fun min_clean ->
      let env = { ctx.env with Harness.Environment.min_clean } in
      Format.fprintf fmt "  min_clean=%-3d accepted=%.2f%%@." min_clean
        (accepted_fraction ctx env blocks))
    [ 2; 4; 8; 12; 16 ]

let sec_ablation_noise ctx fmt =
  Bhive.Report.rule fmt
    "Ablation: context-switch rate vs acceptance (suite sample)";
  let blocks = List.filteri (fun i _ -> i mod 7 = 0) (Lazy.force ctx.suite) in
  List.iter
    (fun rate ->
      let env = { ctx.env with Harness.Environment.context_switch_rate = rate } in
      Format.fprintf fmt "  ctx_switch_rate=%.2f accepted=%.2f%%@." rate
        (accepted_fraction ctx env blocks))
    [ 0.0; 0.08; 0.25; 0.5 ]

let sec_speed ctx fmt =
  Bhive.Report.rule fmt
    "Speed: profiler vs analyzers on the gzip block (ns per prediction)";
  let open Bechamel in
  let block = Corpus.Paper_blocks.gzip_crc in
  let hsw = Uarch.All.haswell in
  let iaca = Models.Iaca.create hsw in
  let mca = Models.Llvm_mca.create hsw in
  let osaca = Models.Osaca.create hsw in
  let env = ctx.env in
  let tests =
    Test.make_grouped ~name:"prediction"
      [
        Test.make ~name:"bhive-profiler"
          (Staged.stage (fun () ->
               ignore (Harness.Profiler.profile env hsw block)));
        Test.make ~name:"iaca-like"
          (Staged.stage (fun () -> ignore (iaca.predict block)));
        Test.make ~name:"llvm-mca-like"
          (Staged.stage (fun () -> ignore (mca.predict block)));
        Test.make ~name:"osaca-like"
          (Staged.stage (fun () -> ignore (osaca.predict block)));
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Format.fprintf fmt "  %-24s %12.0f ns/run@." name est
      | _ -> Format.fprintf fmt "  %-24s (no estimate)@." name)
    results

let print_ground_truth_schedule fmt uarch block =
  (* map, execute a few copies, and dump the simulated core's schedule *)
  match Harness.Mapping.run Harness.Environment.default block ~unroll:4 with
  | Error f ->
    Format.fprintf fmt "cannot map block: %s@."
      (Harness.Mapping.failure_to_string f)
  | Ok mapped ->
    let machine = Pipeline.Machine.create uarch in
    ignore (Pipeline.Machine.run machine mapped.steps);
    let r = Pipeline.Machine.run ~record_schedule:true machine mapped.steps in
    let insts = Array.of_list block in
    Format.fprintf fmt "@.ground-truth schedule (4 unrolled iterations, warm):@.";
    List.iter
      (fun (e : Pipeline.Core.schedule_entry) ->
        let n = Array.length insts in
        let name =
          if n > 0 then X86.Inst.to_string insts.(e.static_index mod n) else ""
        in
        if e.port < 0 then
          Format.fprintf fmt "  %4d..%-4d (eliminated)  %s@." e.dispatch
            e.complete name
        else
          Format.fprintf fmt "  %4d..%-4d p%d %-7s %s@." e.dispatch e.complete
            e.port
            (Uarch.Uop.kind_name e.uop.kind)
            name)
      r.schedule

let sec_profile ctx fmt ~asm ~uarch:short ~with_models ~schedule =
  let uarch = uarch_exn short in
  let block =
    match X86.Parser.block asm with
    | Ok (_ :: _ as b) -> b
    | Ok [] | Error _ ->
      (* Spec.validate rejects these before a run starts *)
      invalid_arg "unparseable profile section"
  in
  let env = ctx.env in
  Format.fprintf fmt "block (%d instructions, %d bytes):@." (List.length block)
    (X86.Encoder.block_length block);
  List.iter (fun i -> Format.fprintf fmt "    %s@." (X86.Inst.to_string i)) block;
  (match Engine.profile ctx.engine env uarch block with
  | Ok p ->
    Format.fprintf fmt "@.measured inverse throughput on %s: %.2f cycles/iteration@."
      uarch.Uarch.Descriptor.name p.throughput;
    Format.fprintf fmt "accepted: %b%s@." p.accepted
      (match p.reject with
      | Some Harness.Profiler.Misaligned_access -> " (misaligned access)"
      | Some Harness.Profiler.Never_clean -> " (no clean timing)"
      | Some Harness.Profiler.Unstable -> " (unstable timings)"
      | None -> "");
    Format.fprintf fmt "unroll factors: %d / %d; pages mapped: %d@."
      p.factors.large p.factors.small p.large.faults;
    Format.fprintf fmt "counters: %s@."
      (Format.asprintf "%a" Pipeline.Counters.pp p.large.counters)
  | Error e ->
    let fingerprint = Engine.fingerprint { Engine.env; uarch; block } in
    Format.fprintf fmt "@.profiling failed: %s@."
      (Engine.error_to_string ~fingerprint e));
  if schedule then print_ground_truth_schedule fmt uarch block;
  if with_models then begin
    Format.fprintf fmt "@.";
    List.iter
      (fun (m : Models.Model_intf.t) ->
        match m.predict block with
        | Models.Model_intf.Throughput tp ->
          Format.fprintf fmt "%-10s %.2f@." m.name tp
        | Models.Model_intf.Unsupported r ->
          Format.fprintf fmt "%-10s - (%s)@." m.name r)
      [
        Models.Iaca.create uarch;
        Models.Llvm_mca.create uarch;
        Models.Osaca.create uarch;
      ]
  end

(* Descriptor refinement (lib/refine): perturb the reference table with
   the pinned seed, then search the repair. Every candidate evaluation
   is journaled through [Journal.add_extra] tagged with the section
   name; a resumed run feeds those records back as [prior_steps], so a
   kill mid-search replays the already-evaluated prefix verbatim and
   continues from there. The finished search's summary object is also
   journaled ([refine_summary]) so the run summary can carry it even
   when this section itself is replayed. *)
let sec_refine ctx fmt ~name ~uarch:short ~seed ~edits ~target_error ~max_evals =
  let reference = uarch_exn short in
  let corpus =
    List.map (fun (b : Corpus.Block.t) -> b.insts) (Lazy.force ctx.suite)
  in
  let broken, truth = Refine.Perturb.break ~seed ~edits reference in
  Format.fprintf fmt "perturb %s: seed=%Ld edits=%d -> %s@."
    reference.Uarch.Descriptor.short seed edits
    (Uarch.Overlay.to_string truth);
  let prior_steps =
    List.filter
      (fun j ->
        Option.bind (Json.member "section" j) Json.string_value = Some name)
      (Journal.extras ~type_:"refine_step" ctx.journal)
  in
  let record_step j =
    match j with
    | Json.Object fields ->
      Journal.add_extra ctx.journal
        (Json.Object (fields @ [ ("section", Json.String name) ]))
    | _ -> ()
  in
  let r =
    Refine.Driver.run ~jobs:(Engine.jobs ctx.engine)
      ?store:(Engine.store ctx.engine) ?progress:ctx.progress ~record_step
      ~prior_steps ~truth ~env:ctx.env ~reference
      ~start:broken.Uarch.Descriptor.profile ~corpus
      { Refine.Driver.target_error; max_evals }
  in
  Format.pp_print_string fmt (Refine.Driver.report r);
  Format.pp_print_flush fmt ();
  match Refine.Driver.summary_json ~truth r with
  | Json.Object fields ->
    Journal.add_extra ctx.journal
      (Json.Object
         (("type", Json.String "refine_summary")
         :: ("section", Json.String name)
         :: fields))
  | _ -> ()

let exec_section ctx fmt ~name (kind : Spec.kind) =
  match kind with
  | Spec.Corpus_load -> sec_corpus ctx fmt
  | Spec.Corpus_dump { variant; app; limit; freq } ->
    sec_dump ctx fmt ~variant ~app ~limit ~freq
  | Spec.Applications -> Bhive.Report.applications fmt (Lazy.force ctx.suite)
  | Spec.Ablation_suite -> sec_ablation_suite ctx fmt
  | Spec.Ablation_block { block } -> sec_ablation_block ctx fmt block
  | Spec.Classifier -> sec_classifier ctx fmt
  | Spec.Categories ->
    Bhive.Report.categories fmt
      (Lazy.force ctx.classifier)
      (Lazy.force ctx.suite)
  | Spec.Exemplars ->
    Bhive.Report.exemplars fmt
      (Classify.Categories.exemplars
         (Lazy.force ctx.classifier)
         (Lazy.force ctx.suite))
  | Spec.Composition { title } ->
    Bhive.Report.composition fmt ~title
      (Classify.Composition.rows
         (Lazy.force ctx.classifier)
         (Lazy.force ctx.suite))
  | Spec.Dataset { uarch } -> sec_dataset ctx fmt uarch
  | Spec.Validate -> sec_validate ctx fmt
  | Spec.Errors -> sec_errors ctx fmt
  | Spec.Case_study -> sec_case_study ctx fmt
  | Spec.Google -> sec_google ctx fmt
  | Spec.Instruction_table { uarch } -> sec_instruction_table ctx fmt uarch
  | Spec.Port_mapping { uarch } -> sec_port_mapping ctx fmt uarch
  | Spec.Ablation_unroll -> sec_ablation_unroll ctx fmt
  | Spec.Ablation_filters -> sec_ablation_filters ctx fmt
  | Spec.Ablation_noise -> sec_ablation_noise ctx fmt
  | Spec.Speed -> sec_speed ctx fmt
  | Spec.Profile { asm; uarch; with_models; schedule } ->
    sec_profile ctx fmt ~asm ~uarch ~with_models ~schedule
  | Spec.Refine { uarch; seed; edits; target_error; max_evals } ->
    sec_refine ctx fmt ~name ~uarch ~seed ~edits ~target_error ~max_evals

(* ------------------------------------------------------------------ *)
(* Summary (schema v5)                                                 *)
(* ------------------------------------------------------------------ *)

let section_json jobs (e : Journal.entry) =
  let num i = Json.Number (float_of_int i) in
  let rate =
    if e.e_submitted = 0 then 0.0
    else float_of_int e.e_cache_hits /. float_of_int e.e_submitted
  in
  Json.Object
    [
      ("section", Json.String e.e_section);
      ("output_sha256", Json.String e.e_digest);
      ("wall_seconds", Json.Number e.e_wall_seconds);
      ("jobs", num jobs);
      ("submitted", num e.e_submitted);
      ("executed", num e.e_executed);
      ("cache_hits", num e.e_cache_hits);
      ("cache_hit_rate", Json.Number rate);
      ("retries", num e.e_retries);
      ("quarantined", num e.e_quarantined);
    ]

let summary_json ~(spec : Spec.t) ~manifest_id ~experiment_id ~journal_digest
    ?refine engine sections =
  let rev =
    match Sys.getenv_opt "BHIVE_REV" with
    | Some r when String.trim r <> "" -> String.trim r
    | _ -> "unknown"
  in
  let sections_json =
    List.map (section_json (Engine.jobs engine)) sections
  in
  match Engine.summary_json engine with
  | Json.Object fields ->
    let fields = List.filter (fun (k, _) -> k <> "sections") fields in
    (* Simulator throughput, from the pipeline's always-on counters.
       [blocks_per_sec] is simulated blocks over cumulative in-simulator
       core-seconds — a machine-load-insensitive rate the CI perf job
       gates on (bhive_bench_diff --min-speedup). The wall breakdown is
       informational and volatile, like every other timing field. *)
    let perf =
      let value name =
        Telemetry.Metrics.value (Telemetry.Metrics.counter name)
      in
      let blocks = value "pipeline.blocks" in
      let sim_seconds = float_of_int (value "pipeline.sim_ns") /. 1e9 in
      let engine_wall =
        match List.assoc_opt "engine_wall_seconds" fields with
        | Some (Json.Number w) -> w
        | _ -> 0.0
      in
      Json.Object
        [
          ("blocks", Json.Number (float_of_int blocks));
          ("sim_seconds", Json.Number sim_seconds);
          ( "blocks_per_sec",
            Json.Number
              (if sim_seconds > 0.0 then float_of_int blocks /. sim_seconds
               else 0.0) );
          ( "wall",
            Json.Object
              [
                ("engine_seconds", Json.Number engine_wall);
                ("sim_seconds", Json.Number sim_seconds);
                ( "other_seconds",
                  Json.Number (Float.max 0.0 (engine_wall -. sim_seconds)) );
              ] );
        ]
    in
    Json.Object
      (("schema_version", Json.Number Telemetry.Bench_diff.schema_version)
      :: ("scale", Json.Number (float_of_int spec.corpus.scale))
      :: ("rev", Json.String rev)
      :: ("name", Json.String spec.name)
      :: ( "manifest",
           Json.Object
             [
               ("id", Json.String manifest_id);
               ("experiment", Json.String experiment_id);
               ("journal", Json.String journal_digest);
             ] )
      :: (fields
         @ [ ("perf", perf) ]
         @ (match refine with Some r -> [ ("refine", r) ] | None -> [])
         @ [
             ("sections", Json.List sections_json);
             ("telemetry", Telemetry.Metrics.snapshot ());
           ]))
  | other -> other

(* ------------------------------------------------------------------ *)
(* The run loop                                                        *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let resolve_execution (spec : Spec.t) overrides =
  let first_some l = List.find_map Fun.id l in
  let* env_jobs = Engine.jobs_from_env () in
  let* env_store = Engine.store_path_from_env () in
  let* env_faults =
    match Sys.getenv_opt "BHIVE_FAULTS" with
    | None -> Ok None
    | Some s when String.trim s = "" -> Ok None
    | Some _ -> Result.map Option.some (Faultsim.env_result ())
  in
  Ok
    ( first_some [ overrides.o_jobs; env_jobs; spec.jobs ],
      first_some [ overrides.o_store; env_store; spec.store ],
      first_some [ overrides.o_faults; env_faults; spec.faults ],
      first_some [ overrides.o_max_retries; spec.policy.max_retries ],
      first_some [ overrides.o_quorum; spec.policy.quorum ] )

let run ?(overrides = no_overrides) ?(fresh = false) ?max_sections
    ?kill_after_jobs ?(out = Format.std_formatter)
    ?(info = Format.err_formatter) (spec : Spec.t) =
  Atomic.set interrupt_flag false;
  let* () = Spec.validate spec in
  let* () = Spec.validate_outputs spec in
  let manifest_id = Spec.id spec in
  let experiment_id = Spec.experiment_id spec in
  let* jobs, store_path, faults, max_retries, quorum =
    resolve_execution spec overrides
  in
  let progress =
    match kill_after_jobs with
    | None -> None
    | Some n ->
      let count = ref 0 in
      Some
        (fun ~done_:_ ~total:_ ->
          incr count;
          if !count >= n then raise Killed)
  in
  let engine =
    Engine.create ?jobs ?progress ?faults ?store_path ?max_retries ?quorum ()
  in
  let* journal =
    match spec.output.journal with
    | None -> Ok (Journal.memory ())
    | Some path -> Journal.open_ ~fresh ~manifest_id path
  in
  Fun.protect
    ~finally:(fun () -> Journal.close journal)
    (fun () ->
      let ctx = make_ctx spec engine journal progress in
      let replayed = ref 0 and executed = ref 0 in
      let interrupted = ref false in
      List.iteri
        (fun i s ->
          if
            Atomic.get interrupt_flag
            || (match max_sections with Some k -> i >= k | None -> false)
          then interrupted := true
          else if not !interrupted then begin
            let name = Spec.section_name s in
            match Journal.find journal ~index:i ~section:name with
            | Some e ->
              incr replayed;
              Format.fprintf info "(%s replayed from journal)@." name;
              Format.pp_print_string out e.Journal.e_output;
              Format.pp_print_flush out ()
            | None ->
              Journal.section_start journal ~index:i ~section:name;
              let before = Engine.stats engine in
              let t0 = Unix.gettimeofday () in
              let buf = Buffer.create 4096 in
              let bfmt = Format.formatter_of_buffer buf in
              Engine.phase engine name (fun () ->
                  exec_section ctx bfmt ~name s.kind);
              Format.pp_print_flush bfmt ();
              let output = Buffer.contents buf in
              let wall = Unix.gettimeofday () -. t0 in
              let after = Engine.stats engine in
              Journal.add journal
                {
                  Journal.e_index = i;
                  e_section = name;
                  e_output = output;
                  e_digest =
                    (if Spec.volatile_output s then "-"
                     else Store.Sha256.hex output);
                  e_submitted = after.submitted - before.submitted;
                  e_executed = after.executed - before.executed;
                  e_cache_hits = after.cache_hits - before.cache_hits;
                  e_retries = after.retries - before.retries;
                  e_quarantined = after.quarantined - before.quarantined;
                  e_wall_seconds = wall;
                };
              incr executed;
              Format.pp_print_string out output;
              Format.pp_print_flush out ();
              Format.fprintf info "(%s finished in %.1fs)@." name wall
          end)
        spec.sections;
      (* quarantine manifest: only jobs this process actually gave up
         on (replayed sections re-report nothing) *)
      let quarantines = Engine.quarantines engine in
      if quarantines <> [] then begin
        let n = Engine.write_quarantine_manifest engine spec.output.failures in
        Format.fprintf info "%d quarantined job(s) written to %s@." n
          spec.output.failures
      end;
      let s = Engine.stats engine in
      Format.fprintf info
        "engine: %d workers, %d jobs submitted, %d executed, %d cache hits \
         (%.1f%%)@."
        (Engine.jobs engine) s.submitted s.executed s.cache_hits
        (100.0 *. Engine.hit_rate s);
      (match Engine.store engine with
      | None -> ()
      | Some store ->
        Format.fprintf info
          "store (%s): %d hits, %d misses, %d invalidated, %d writes (hit \
           rate %.1f%%), %d entries@."
          (Store.dir store) s.store_hits s.store_misses s.store_invalidated
          s.store_writes
          (100.0 *. Engine.store_hit_rate s)
          (Store.stats store).Store.s_live);
      if not (Faultsim.is_none (Engine.faults engine)) then
        Format.fprintf info
          "faults (%s): %d retries, %d crashes, %d timeouts, %d stalls \
           absorbed, %d workers replenished, %d jobs quarantined@."
          (Faultsim.to_string (Engine.faults engine))
          s.retries s.crashes s.timeouts s.stalls_absorbed
          s.workers_replenished s.quarantined;
      let journal_digest =
        if !interrupted then None
        else
          Some
            (Journal.digest
               (List.mapi
                  (fun i s ->
                    let name = Spec.section_name s in
                    match Journal.find journal ~index:i ~section:name with
                    | Some e -> (name, e.Journal.e_digest)
                    | None -> (name, "?"))
                  spec.sections))
      in
      let summary_path =
        match (journal_digest, spec.output.summary) with
        | Some digest, Some path ->
          let ordered =
            List.sort
              (fun (a : Journal.entry) b -> compare a.e_index b.e_index)
              (Journal.entries journal)
          in
          (* the last refine_summary record wins: the journal carries
             one per completed refine section, and a replayed section
             re-uses the record its original execution appended *)
          let refine =
            match
              List.rev (Journal.extras ~type_:"refine_summary" journal)
            with
            | [] -> None
            | Json.Object fields :: _ ->
              Some
                (Json.Object
                   (List.filter (fun (k, _) -> k <> "type") fields))
            | j :: _ -> Some j
          in
          let summary =
            summary_json ~spec ~manifest_id ~experiment_id
              ~journal_digest:digest ?refine engine ordered
          in
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (Json.to_string summary);
              Out_channel.output_char oc '\n');
          Format.fprintf info "summary written to %s@." path;
          Some path
        | _ -> None
      in
      Ok
        {
          manifest_id;
          experiment_id;
          journal_digest;
          interrupted = !interrupted;
          sections_replayed = !replayed;
          sections_executed = !executed;
          stats = s;
          lost = Engine.lost s;
          quarantined_jobs = List.length quarantines;
          summary_path;
        })
