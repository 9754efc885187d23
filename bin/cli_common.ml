(* Shared CLI plumbing: every executable in this directory is a thin
   wrapper that synthesizes a manifest and hands it to
   [Manifest.Runner]. This module owns the one copy of the shared
   flags — --jobs, --store, --faults, --max-retries, --trace,
   --emit-manifest — and the exit-code policy, so the
   wrappers contain only their experiment-specific flags.

   [setup] also validates every engine-relevant environment variable
   up front: a malformed BHIVE_JOBS / BHIVE_FAULTS / BHIVE_STORE is a
   one-line error and exit 2, never a silent fallback. *)

open Cmdliner

let faults_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (Faultsim.parse s)),
      fun fmt c -> Format.pp_print_string fmt (Faultsim.to_string c) )

let faults_arg =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault injection for the measurement substrate, as \
           a comma-separated spec: $(b,crash=0.01,stall=0.005,seed=42). \
           Crashes and stalls only delay a measurement, never change it. \
           Overrides \\$BHIVE_FAULTS; $(b,none) disables injection.")

let max_retries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-retries" ] ~docv:"N"
        ~doc:
          "Retries after a job's first failed attempt before it is \
           quarantined (default 4).")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persistent measurement store directory — the engine's disk cache \
           tier. Measured results are appended to it and warm runs are \
           served from it without re-profiling. Overrides \\$BHIVE_STORE.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Measurement worker domains (default \\$BHIVE_JOBS or the \
           machine's recommended domain count). Results are identical for \
           any value.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "Stream a JSONL span trace of the run to PATH. Overrides \
           \\$BHIVE_TRACE.")

let emit_arg =
  Arg.(
    value & flag
    & info [ "emit-manifest" ]
        ~doc:
          "Print the manifest this invocation would execute (as canonical \
           JSON) and exit without running it. The output is a valid input \
           for $(b,bhive_run).")

type setup = { overrides : Manifest.Runner.overrides; emit : bool }

(* Evaluates before the command body runs: environment validation and
   trace installation happen exactly once per process. *)
let setup : setup Term.t =
  let apply faults max_retries store jobs trace emit =
    (match Engine.validate_env () with
    | Ok () -> ()
    | Error msg ->
      prerr_endline ("bhive: " ^ msg);
      exit 2);
    (match trace with
    | Some path -> Telemetry.Trace.install_file path
    | None -> Telemetry.Trace.init_from_env ());
    {
      overrides =
        {
          Manifest.Runner.o_jobs = jobs;
          o_store = store;
          o_faults = faults;
          o_max_retries = max_retries;
        };
      emit;
    }
  in
  Term.(
    const apply $ faults_arg $ max_retries_arg $ store_arg $ jobs_arg
    $ trace_arg $ emit_arg)

(* Exit-code policy, shared by every wrapper and bhive_run itself:
   0 success, 1 lost jobs, 2 invalid manifest / environment / output
   paths, 3 interrupted (--max-sections stopped before the last
   section). *)
let run_spec ?fresh ?max_sections ?kill_after_jobs (s : setup) spec =
  if s.emit then begin
    print_string (Manifest.Spec.to_string spec);
    exit 0
  end;
  match
    Manifest.Runner.run ~overrides:s.overrides ?fresh ?max_sections
      ?kill_after_jobs spec
  with
  | exception Manifest.Runner.Killed ->
    prerr_endline "bhive: killed (--kill-after-jobs)";
    exit 3
  | Error msg ->
    prerr_endline ("bhive: " ^ msg);
    exit 2
  | Ok (o : Manifest.Runner.outcome) ->
    if o.lost <> 0 then begin
      Printf.eprintf "FATAL: %d job(s) lost\n" o.lost;
      exit 1
    end;
    if o.interrupted then exit 3;
    exit 0
