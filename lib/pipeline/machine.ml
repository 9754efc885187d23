(** A simulated machine: one microarchitecture core plus its caches,
    private L1D and L1I and a unified L2. Cache contents persist across
    [run] calls until [reset], mirroring warm-up behaviour on real
    hardware. The machine also owns the simulator's scratch state
    ({!Core.Scratch}), so repeated [run] calls perform no per-simulation
    machine-state allocation. *)

type t = {
  descriptor : Uarch.Descriptor.t;
  l1d : Memsim.Cache.t;
  l1i : Memsim.Cache.t;
  l2 : Memsim.Cache.t;  (** unified second level *)
  scratch : Core.Scratch.t;
}

(* Always-on throughput accounting: timed simulations, their
   in-simulator nanoseconds (trace build plus cycle loop) and the
   nanoseconds spent replaying warm-up cache traffic. Plain atomic
   counters — cheap enough to never gate, and the source of the bench
   summary's blocks-per-second figure. *)
let m_blocks = Telemetry.Metrics.counter "pipeline.blocks"
let m_sim_ns = Telemetry.Metrics.counter "pipeline.sim_ns"
let m_warm_ns = Telemetry.Metrics.counter "pipeline.warm_ns"

let create (descriptor : Uarch.Descriptor.t) =
  {
    descriptor;
    l1d = Memsim.Cache.l1_default ();
    l1i = Memsim.Cache.l1_default ();
    l2 = Memsim.Cache.create ~size_bytes:(256 * 1024) ~ways:8 ~line_bytes:64;
    scratch = Core.Scratch.create descriptor;
  }

let reset t =
  Memsim.Cache.flush t.l1d;
  Memsim.Cache.flush t.l1i;
  Memsim.Cache.flush t.l2

let elapsed_ns t0 = Int64.to_int (Int64.sub (Telemetry.Trace.now_ns ()) t0)

(* One timed simulation [f], wrapped in a "pipeline.simulate" span. The
   branch on [Trace.enabled] keeps the traced path (closure, attribute
   thunk) off the hot path when no sink is installed. *)
let traced t (f : unit -> Core.result) =
  if not (Telemetry.Trace.enabled ()) then f ()
  else begin
    let result = ref None in
    Telemetry.Trace.span "pipeline.simulate"
      ~attrs:(fun () ->
        match !result with
        | None -> [ ("uarch", Telemetry.Trace.Str t.descriptor.short) ]
        | Some (r : Core.result) ->
          let c = r.counters in
          let ports =
            String.concat ","
              (Array.to_list (Array.map string_of_int c.port_cycles))
          in
          [
            ("uarch", Telemetry.Trace.Str t.descriptor.short);
            ("cycles", Telemetry.Trace.Int r.cycles);
            ("instructions", Telemetry.Trace.Int c.instructions);
            ("uops", Telemetry.Trace.Int c.uops);
            ("port_cycles", Telemetry.Trace.Str ports);
            ("frontend_stall_cycles", Telemetry.Trace.Int c.frontend_stall_cycles);
            ("rob_stall_cycles", Telemetry.Trace.Int c.rob_stall_cycles);
            ( "port_contention_cycles",
              Telemetry.Trace.Int c.port_contention_cycles );
          ])
      (fun () -> result := Some (f ()));
    match !result with Some r -> r | None -> assert false
  end

let simulate ?record_schedule t trace =
  Core.simulate ?record_schedule ~scratch:t.scratch t.descriptor ~l1d:t.l1d
    ~l1i:t.l1i ~l2:t.l2 trace

(* Simulate the timing of one completed architectural execution. *)
let run ?record_schedule t (steps : Xsem.Executor.step list) : Core.result =
  traced t (fun () ->
      let t0 = Telemetry.Trace.now_ns () in
      let r = simulate ?record_schedule t (Trace.of_steps t.descriptor steps) in
      Telemetry.Metrics.add m_sim_ns (elapsed_ns t0);
      Telemetry.Metrics.incr m_blocks;
      r)

(* The profiler's warm-then-time pattern on one trace: the warm-up is a
   cache-only replay, so only the timed run counts as a simulated block
   and only its trace build and cycle loop count as simulator time. *)
let measure ?record_schedule t (steps : Xsem.Executor.step list) : Core.result =
  reset t;
  traced t (fun () ->
      let t0 = Telemetry.Trace.now_ns () in
      let trace = Trace.of_steps t.descriptor steps in
      let build_ns = elapsed_ns t0 in
      let t1 = Telemetry.Trace.now_ns () in
      Core.warm ~l1d:t.l1d ~l1i:t.l1i ~l2:t.l2 trace;
      let warm_ns = elapsed_ns t1 in
      let t2 = Telemetry.Trace.now_ns () in
      let r = simulate ?record_schedule t trace in
      Telemetry.Metrics.add m_sim_ns (build_ns + elapsed_ns t2);
      Telemetry.Metrics.add m_warm_ns warm_ns;
      Telemetry.Metrics.incr m_blocks;
      r)
