(** Plain-text rendering of the paper's tables and figures.

    Figures are rendered as labelled horizontal bar charts; tables as
    aligned columns. Every renderer prints to the given formatter so the
    bench harness can tee them into the experiment log. *)

let rule fmt title =
  Format.fprintf fmt "@.=== %s ===@." title

(* --- tables ---------------------------------------------------------- *)

let suite_ablation fmt (rows : Ablation.suite_row list) =
  rule fmt "Table I: measurement-technique ablation (percent of suite profiled)";
  let any_quarantined =
    List.exists (fun (r : Ablation.suite_row) -> r.n_quarantined > 0) rows
  in
  Format.fprintf fmt "%-34s %-10s %s%s@." "(Additional) Technique" "Profiled"
    "Blocks"
    (if any_quarantined then "       Quarantined" else "");
  List.iter
    (fun (r : Ablation.suite_row) ->
      Format.fprintf fmt "%-34s %6.2f%%    %d/%d%s@." r.technique
        r.profiled_percent r.n_profiled r.n_total
        (if any_quarantined then Printf.sprintf "    %d" r.n_quarantined
         else ""))
    rows

let block_ablation fmt (rows : Ablation.block_row list) =
  rule fmt "Table II: incremental optimizations on one TensorFlow block";
  Format.fprintf fmt "%-30s %-12s %-12s %s@." "(Additional) Optimization"
    "Measured" "L1D misses" "L1I misses";
  List.iter
    (fun (r : Ablation.block_row) ->
      Format.fprintf fmt "%-30s %-12s %-12s %s@." r.optimization r.measured
        r.l1d_misses r.l1i_misses)
    rows

let applications fmt (blocks : Corpus.Block.t list) =
  rule fmt "Table III: source applications of basic blocks";
  Format.fprintf fmt "%-14s %-24s %s@." "Application" "Domain" "# Basic Blocks";
  let by_app = Corpus.Suite.count_by_app blocks in
  List.iter
    (fun (app, n) ->
      let domain =
        match List.find_opt (fun (a : Corpus.Apps.t) -> a.name = app) Corpus.Apps.all_apps with
        | Some a -> a.domain
        | None -> "-"
      in
      Format.fprintf fmt "%-14s %-24s %d@." app domain n)
    by_app;
  Format.fprintf fmt "%-14s %-24s %d@." "Total" "" (List.length blocks)

let categories fmt (cls : Classify.Categories.t) (blocks : Corpus.Block.t list) =
  rule fmt "Table IV: basic block categories (LDA, 6 topics)";
  Format.fprintf fmt "%-12s %-45s %s@." "Category" "Description" "# Basic Blocks";
  List.iter
    (fun (l, n) ->
      Format.fprintf fmt "%-12s %-45s %d@."
        (Classify.Categories.label_name l)
        (Classify.Categories.label_description l)
        n)
    (Classify.Categories.category_counts cls blocks)

let overall_error fmt (evals : (string * Validation.eval list) list) =
  rule fmt "Table V: overall error of evaluated models";
  Format.fprintf fmt "%-16s %-10s %-10s %s@." "Microarchitecture" "Model"
    "Avg Error" "95% bootstrap CI";
  List.iter
    (fun (uarch_name, per_model) ->
      List.iteri
        (fun i (e : Validation.eval) ->
          let ci =
            Bstats.Bootstrap.mean_ci (List.map Validation.error_of e.samples)
          in
          Format.fprintf fmt "%-16s %-10s %-10.4f [%.4f, %.4f]@."
            (if i = 0 then uarch_name else "")
            e.model e.average_error ci.lo ci.hi)
        per_model)
    evals

let case_study fmt
    (rows :
      (string * X86.Inst.t list * float * (string * Models.Model_intf.prediction) list)
      list) =
  rule fmt "Table VI: interesting basic blocks (measured vs predicted inverse throughput)";
  List.iter
    (fun (name, block, measured, predictions) ->
      Format.fprintf fmt "@.%s:@." name;
      List.iter
        (fun inst -> Format.fprintf fmt "    %s@." (X86.Inst.to_string inst))
        block;
      Format.fprintf fmt "  measured: %.2f@." measured;
      List.iter
        (fun (model, p) ->
          match p with
          | Models.Model_intf.Throughput tp ->
            Format.fprintf fmt "  %-10s %.2f@." model tp
          | Models.Model_intf.Unsupported reason ->
            Format.fprintf fmt "  %-10s - (%s)@." model reason)
        predictions)
    rows

let google_numbers fmt
    (rows : (string * Validation.eval list) list) =
  rule fmt "Table VII: accuracy on Spanner and Dremel (Haswell)";
  Format.fprintf fmt "%-10s %-10s %-14s %-14s %s@." "Application" "Model"
    "Average Error" "Weighted Error" "Kendall's Tau";
  List.iter
    (fun (app, per_model) ->
      List.iteri
        (fun i (e : Validation.eval) ->
          Format.fprintf fmt "%-10s %-10s %-14.4f %-14.4f %.4f@."
            (if i = 0 then app else "")
            e.model e.average_error e.weighted_error e.kendall_tau)
        per_model)
    rows

(* --- figures (text bars) --------------------------------------------- *)

let per_app_error fmt ~uarch (evals : Validation.eval list) =
  rule fmt (Printf.sprintf "Figure: per-application error on %s (frequency-weighted)" uarch);
  List.iter
    (fun (e : Validation.eval) ->
      Format.fprintf fmt "@.[%s]@." e.model;
      let rows = Validation.by_app e in
      let max_value = List.fold_left (fun m (_, v) -> Float.max m v) 0.0 rows in
      List.iter
        (fun (app, err) ->
          Format.fprintf fmt "  %-12s |%s| %.3f@." app
            (Bstats.Summary.bar ~max_value err)
            err)
        rows)
    evals

let per_category_error fmt ~uarch (cls : Classify.Categories.t)
    (evals : Validation.eval list) =
  rule fmt (Printf.sprintf "Figure: per-cluster error on %s" uarch);
  List.iter
    (fun (e : Validation.eval) ->
      Format.fprintf fmt "@.[%s]@." e.model;
      let rows = Validation.by_category cls e in
      let max_value =
        List.fold_left
          (fun m (_, v) -> if Float.is_nan v then m else Float.max m v)
          0.0 rows
      in
      List.iter
        (fun (l, err) ->
          if Float.is_nan err then
            Format.fprintf fmt "  %-12s (no blocks)@." (Classify.Categories.label_name l)
          else
            Format.fprintf fmt "  %-12s |%s| %.3f@."
              (Classify.Categories.label_name l)
              (Bstats.Summary.bar ~max_value err)
              err)
        rows)
    evals

let composition fmt ~title (rows : Classify.Composition.row list) =
  rule fmt title;
  Format.fprintf fmt "%-14s" "";
  List.iter
    (fun l -> Format.fprintf fmt " %8s" (Classify.Categories.label_name l))
    Classify.Categories.all_labels;
  Format.fprintf fmt "@.";
  List.iter
    (fun (r : Classify.Composition.row) ->
      Format.fprintf fmt "%a@." Classify.Composition.pp_row r)
    rows

let exemplars fmt (pairs : (Classify.Categories.label * Corpus.Block.t) list) =
  rule fmt "Figure: example basic blocks per category";
  List.iter
    (fun (l, (b : Corpus.Block.t)) ->
      Format.fprintf fmt "@.%s (%s) — from %s:@."
        (Classify.Categories.label_name l)
        (Classify.Categories.label_description l)
        b.app;
      List.iter
        (fun inst -> Format.fprintf fmt "    %s@." (X86.Inst.to_string inst))
        b.insts)
    pairs

let per_length_error fmt ~uarch (evals : Validation.eval list) =
  rule fmt
    (Printf.sprintf "Figure (extension): error vs block length on %s" uarch);
  List.iter
    (fun (e : Validation.eval) ->
      Format.fprintf fmt "@.[%s]@." e.model;
      let rows = Validation.by_length e in
      let max_value =
        List.fold_left
          (fun m (_, v, _) -> if Float.is_nan v then m else Float.max m v)
          0.0 rows
      in
      List.iter
        (fun (name, err, n) ->
          if n = 0 then Format.fprintf fmt "  %-8s (no blocks)@." name
          else
            Format.fprintf fmt "  %-8s |%s| %.3f (n=%d)@." name
              (Bstats.Summary.bar ~max_value err)
              err n)
        rows)
    evals

(* Gantt-style schedule rendering for the mis-scheduling case study. *)
let schedule fmt ~model ~block (entries : Models.Model_intf.schedule_entry list) =
  Format.fprintf fmt "@.[%s schedule]@." model;
  let insts = Array.of_list block in
  (* show the middle iterations (steady state) *)
  let iters =
    List.sort_uniq compare
      (List.map (fun (e : Models.Model_intf.schedule_entry) -> e.iteration) entries)
  in
  let mid =
    match iters with
    | [] -> []
    | _ ->
      let n = List.length iters in
      List.filteri (fun i _ -> i >= n / 2 && i < (n / 2) + 2) iters
  in
  let shown =
    List.filter
      (fun (e : Models.Model_intf.schedule_entry) -> List.mem e.iteration mid)
      entries
  in
  let t0 =
    List.fold_left
      (fun m (e : Models.Model_intf.schedule_entry) -> min m e.dispatch)
      max_int shown
  in
  List.iter
    (fun (e : Models.Model_intf.schedule_entry) ->
      let pad = String.make (max 0 (e.dispatch - t0)) ' ' in
      let width = max 1 (e.complete - e.dispatch) in
      Format.fprintf fmt "  it%d p%d %s%s %s@." e.iteration e.port pad
        (String.make width '=')
        (if e.inst_index < Array.length insts then
           X86.Inst.to_string insts.(e.inst_index)
         else ""))
    shown
