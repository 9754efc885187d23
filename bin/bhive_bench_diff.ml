(* bhive_bench_diff: compare two bench_summary.json files and exit
   non-zero when the perf trajectory regressed — the CI gate.

     bhive_bench_diff baseline.json current.json [gate flags]

   Exit codes: 0 pass (warnings allowed), 1 regression, 2 unreadable /
   unparseable / too-old-schema input, 3 the two summaries come from
   different experiments (manifest experiment ids differ) and are not
   comparable at all. See Telemetry.Bench_diff for the comparison
   rules. *)

open Cmdliner

let read_summary what path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg ->
    Error (Printf.sprintf "cannot read %s summary %s: %s" what path msg)
  | contents -> (
    match Telemetry.Json.parse contents with
    | Ok v -> Ok v
    | Error msg ->
      Error (Printf.sprintf "cannot parse %s summary %s: %s" what path msg))

let describe what j =
  let field name =
    Option.bind (Telemetry.Json.member name j) (fun v ->
        match v with
        | Telemetry.Json.String s -> Some s
        | Telemetry.Json.Number n -> Some (Telemetry.Json.number_to_string n)
        | _ -> None)
  in
  Printf.printf "%s: scale=%s rev=%s\n" what
    (Option.value ~default:"?" (field "scale"))
    (Option.value ~default:"?" (field "rev"))

module Bench_diff = Telemetry.Bench_diff

let run baseline_path current_path wall_fails identical limits =
  match
    (read_summary "baseline" baseline_path, read_summary "current" current_path)
  with
  | Error msg, _ | _, Error msg ->
    prerr_endline msg;
    exit 2
  | Ok baseline, Ok current ->
    (* pre-manifest summaries (schema < 5: no manifest ids, counters
       not yet classified volatile) cannot be compared: say so
       precisely instead of failing on a missing field *)
    (match
       (Bench_diff.check_schema baseline, Bench_diff.check_schema current)
     with
    | Error msg, _ ->
      Printf.eprintf
        "baseline %s: %s\nRegenerate it with the current bench harness (see \
         bench/README.md).\n"
        baseline_path msg;
      exit 2
    | _, Error msg ->
      Printf.eprintf "current %s: %s\n" current_path msg;
      exit 2
    | Ok (), Ok () -> ());
    describe "baseline" baseline;
    describe "current " current;
    let report =
      Bench_diff.compare_summaries ~wall_fails ~require_identical:identical
        ~limits ~baseline ~current ()
    in
    Bench_diff.pp_report Format.std_formatter report;
    exit (Bench_diff.exit_code report)

(* One optional float flag per flag row of the gate table; the term
   yields the requested rows with their values. *)
let limits =
  let flag (g : Bench_diff.gate) =
    match g.bound with
    | Flag { name; docv; doc } ->
      let value =
        Arg.(value & opt (some float) None & info [ name ] ~docv ~doc)
      in
      Some Term.(const (Option.map (fun v -> (g, v))) $ value)
    | Fixed _ | Baseline_value -> None
  in
  List.fold_right
    (fun t rest -> Term.(const (fun x xs -> Option.to_list x @ xs) $ t $ rest))
    (List.filter_map flag Bench_diff.gates)
    (Term.const [])

let cmd =
  let baseline =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline bench_summary.json.")
  in
  let current =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"CURRENT" ~doc:"Freshly generated bench_summary.json.")
  in
  let wall_fails =
    Arg.(
      value & flag
      & info [ "fail-on-wall" ]
          ~doc:
            "Treat wall-time violations as regressions instead of warnings \
             (leave off on shared CI runners).")
  in
  let identical =
    Arg.(
      value & flag
      & info [ "identical" ]
          ~doc:
            "Require the two summaries to be structurally identical after \
             stripping volatile fields (wall times, utilization, store/cache \
             traffic, telemetry snapshot). The warm-cache and kill-resume \
             CI gate: the second run must reproduce the first run's \
             experiment output byte-for-byte. Relative counter thresholds \
             are not gated in this mode (those fields are volatile by its \
             contract); absolute invariants still are.")
  in
  let term =
    Term.(const run $ baseline $ current $ wall_fails $ identical $ limits)
  in
  Cmd.v
    (Cmd.info "bhive_bench_diff"
       ~doc:"Gate on bench_summary.json regressions between two revisions.")
    term

let () = exit (Cmd.eval cmd)
