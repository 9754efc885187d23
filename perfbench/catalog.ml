(* The metric catalog: what each kind of run prints, in order, with
   units. BENCHMARK.json lists the same names; a test keeps the two
   equal. *)

(* The end-to-end metrics every --trace 0 run prints. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("peak_rss_mb", "MiB");
  ]

(* The per-layer metrics every --trace 1 run prints, layer by layer.
   Both workloads time every layer; only counts a workload has no
   source for read 0 (README.md has the table of which workload moves
   which). *)
let per_layer =
  [
    ("x86.parse.us_per_call", "us");
    ("x86.encode.us_per_call", "us");
    ("xsem.execute.us_per_call", "us");
    ("harness.mapping.us_per_call", "us");
    ("harness.mapping.calls", "count");
    ("harness.mapping.repeat_frac", "ratio");
    ("harness.mapping.faults_per_call", "count");
    ("harness.mapping.restart_ratio", "ratio");
    ("pipeline.trace.us_per_call", "us");
    ("pipeline.cycle.us_per_call", "us");
    ("pipeline.cycle.ns_per_sim_cycle", "ns");
    ("harness.profile.us_per_job", "us");
    ("harness.profile.self_us_per_job", "us");
    ("harness.profile.share.mapping", "ratio");
    ("harness.profile.share.trace", "ratio");
    ("harness.profile.share.cycle", "ratio");
    ("harness.profile.share.self", "ratio");
    ("engine.executed", "count");
    ("engine.memo_hits", "count");
    ("engine.worker_util", "ratio");
    ("engine.fingerprint.us_per_call", "us");
    ("engine.warm.us_per_job", "us");
    ("store.put.us_per_call", "us");
    ("store.writes", "count");
    ("store.bytes_written", "B");
    ("store.open_ms", "ms");
    ("store.get.us_per_call", "us");
    ("store.hit_rate", "ratio");
    ("serve.wire.encode_us", "us");
    ("serve.wire.decode_us", "us");
    ("serve.resolve_us", "us");
    ("serve.render_us", "us");
    ("serve.warm_hit_frac", "ratio");
    ("serve.coalesce_ratio", "ratio");
    ("serve.executed", "count");
    ("trace.overhead_frac", "ratio");
  ]
