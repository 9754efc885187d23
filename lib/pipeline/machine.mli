(** A simulated machine: one microarchitecture core plus its caches,
    private L1D and L1I and a unified L2. Cache contents persist across
    [run] calls until [reset], mirroring warm-up behaviour on real
    hardware. The machine also owns the simulator's reusable scratch
    state, so repeated [run] calls perform no per-simulation
    machine-state allocation. *)

type t = {
  descriptor : Uarch.Descriptor.t;
  l1d : Memsim.Cache.t;
  l1i : Memsim.Cache.t;
  l2 : Memsim.Cache.t;  (** unified second level *)
  scratch : Core.Scratch.t;
}

val create : Uarch.Descriptor.t -> t

(** Flush all three caches (L1D, L1I and L2), restoring the state of a
    newly created machine. *)
val reset : t -> unit

(** Simulate the timing of one completed architectural execution;
    deterministic given the machine state. *)
val run : ?record_schedule:bool -> t -> Xsem.Executor.step list -> Core.result

(** [measure t steps] is BHive's warm-then-time measurement of one
    execution: flush the caches, build the trace once, warm the caches
    with {!Core.warm} (the discarded first execution, of which only the
    cache contents survive), then run the one timed simulation on the
    same trace. The result equals {!reset}, then a discarded [run], then
    a timed [run]; a corpus-wide test pins the identity. Counts one
    simulated block; the cache replay is timed separately
    ([pipeline.warm_ns]). *)
val measure :
  ?record_schedule:bool -> t -> Xsem.Executor.step list -> Core.result
