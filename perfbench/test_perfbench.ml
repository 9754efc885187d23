(* Tests for the benchmark's own arithmetic and its metric catalog. *)

open Perfbench
module Json = Telemetry.Json

let close_to = Alcotest.float 1e-9

let test_percentile () =
  let hundred = List.init 100 (fun i -> float (i + 1)) in
  let p99 = Calc.percentile hundred ~p:99 in
  Alcotest.check close_to "p99 of 1..100" 99. p99.value;
  Alcotest.(check int) "samples" 100 p99.samples;
  Alcotest.(check int) "beyond p99 of 100" 1 p99.beyond;
  let thousand = List.init 1000 (fun i -> float (1000 - i)) in
  let p99 = Calc.percentile thousand ~p:99 in
  Alcotest.check close_to "p99 of 1..1000, unsorted input" 990. p99.value;
  Alcotest.(check int) "ten beyond p99 of 1000" 10 p99.beyond;
  let p50 = Calc.percentile (List.init 10 (fun i -> float i)) ~p:50 in
  Alcotest.check close_to "p50 of 0..9 is the 5th sample" 4. p50.value;
  Alcotest.(check int) "beyond p50 of 10" 5 p50.beyond;
  let p90 = Calc.percentile (List.init 9 (fun i -> float i)) ~p:90 in
  Alcotest.check close_to "p90 of 9 samples is the slowest" 8. p90.value;
  let one = Calc.percentile [ 7. ] ~p:99 in
  Alcotest.check close_to "single sample" 7. one.value;
  Alcotest.(check int) "nothing beyond a single sample" 0 one.beyond;
  Alcotest.check_raises "p outside 1..100" (Invalid_argument "Calc.rank")
    (fun () -> ignore (Calc.percentile [ 1. ] ~p:0))

let test_median () =
  Alcotest.check close_to "odd" 3. (Calc.median [ 5.; 1.; 3. ]);
  Alcotest.check close_to "even averages the middle pair" 2.5
    (Calc.median [ 4.; 1.; 3.; 2. ])

let test_self_time () =
  let self children = Calc.self_time ~start:0 ~stop:100 ~children in
  Alcotest.(check int) "nested children" 70 (self [ (10, 30); (50, 60) ]);
  Alcotest.(check int) "overlapping children count once" 70
    (self [ (10, 30); (20, 40) ]);
  Alcotest.(check int) "touching children" 60
    (self [ (30, 40); (10, 30); (40, 50) ]);
  (* children replayed after the parent subtract their whole length *)
  Alcotest.(check int) "replayed children" 60
    (self [ (100, 130); (130, 140) ]);
  Alcotest.(check int) "no children" 100 (self [])

let test_repeat_frac () =
  Alcotest.check close_to "two of four repeat" 0.5
    (Calc.repeat_frac [ "a"; "b"; "a"; "a" ]);
  Alcotest.check close_to "all distinct" 0. (Calc.repeat_frac [ "a"; "b" ]);
  Alcotest.check close_to "empty" 0. (Calc.repeat_frac [])

let test_names () =
  let check valid expect names =
    List.iter (fun n -> Alcotest.(check bool) n expect (valid n)) names
  in
  check Calc.valid_name true
    [ "setup_s"; "harness.profile.share.self"; "9lives"; "a-b" ];
  check Calc.valid_name false
    [ ""; "_x"; ".x"; "a b"; "a/b"; String.make 65 'a' ];
  check Calc.valid_unit true [ "ms"; "1/s"; "%"; "MiB"; "count" ];
  check Calc.valid_unit false [ ""; "ms "; "a:b"; String.make 17 'a' ]

let test_result_line () =
  let m name value unit_ = { Calc.name; value; unit_ } in
  let line ms = Calc.result_line ~correct:true ~attempted:3 ~failed:0 ms in
  let j = Json.parse_exn (line [ m "latency_ms" 0.1 "ms"; m "n" 2. "count" ]) in
  let num path = Option.bind (Json.path path j) Json.number in
  Alcotest.(check (option close_to))
    "value keeps its digits" (Some 0.1)
    (num [ "metrics"; "latency_ms"; "value" ]);
  Alcotest.(check (option close_to))
    "attempted" (Some 3.) (num [ "attempted" ]);
  Alcotest.check_raises "non-finite value"
    (Invalid_argument "Calc.result_line: non-finite value for x") (fun () ->
      ignore (line [ m "x" nan "s" ]));
  Alcotest.check_raises "bad name"
    (Invalid_argument "Calc.result_line: bad metric name or unit _x")
    (fun () -> ignore (line [ m "_x" 1. "s" ]))

let test_complete () =
  let spec = [ ("a", "s"); ("b", "count") ] in
  let got = Calc.complete spec [ ("b", 4.) ] in
  Alcotest.(check (list (pair string string)))
    "spec order and units" spec
    (List.map (fun (m : Calc.metric) -> (m.name, m.unit_)) got);
  Alcotest.(check (list close_to))
    "unmeasured reads 0" [ 0.; 4. ]
    (List.map (fun (m : Calc.metric) -> m.value) got);
  Alcotest.check_raises "unlisted metric"
    (Invalid_argument "Calc.complete: unlisted metric c") (fun () ->
      ignore (Calc.complete spec [ ("c", 1.) ]))

(* BENCHMARK.json must list exactly the catalog's metrics. *)
let test_catalog () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let j = Json.parse_exn (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let listed key =
    match Option.bind (Json.member key j) Json.list_value with
    | None -> Alcotest.fail ("BENCHMARK.json has no list " ^ key)
    | Some l ->
      List.map
        (fun m ->
          let s k =
            Option.get (Option.bind (Json.member k m) Json.string_value)
          in
          (s "name", s "unit"))
        l
  in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" Catalog.end_to_end (listed "end_to_end");
  Alcotest.check pairs "per_layer" Catalog.per_layer (listed "per_layer");
  let all = Catalog.end_to_end @ Catalog.per_layer in
  List.iter
    (fun (n, u) ->
      Alcotest.(check bool)
        ("valid " ^ n) true
        (Calc.valid_name n && Calc.valid_unit u))
    all;
  Alcotest.(check int)
    "names unique" (List.length all)
    (List.length (List.sort_uniq compare (List.map fst all)))

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "perfbench"
    [
      ( "calc",
        [
          case "percentile and sample counts" test_percentile;
          case "median" test_median;
          case "self time" test_self_time;
          case "repeat_frac" test_repeat_frac;
          case "name and unit charset" test_names;
          case "result line" test_result_line;
          case "complete" test_complete;
        ] );
      ("catalog", [ case "matches BENCHMARK.json" test_catalog ]);
    ]
