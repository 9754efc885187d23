(** Batched simulation: reuse one {!Machine.t} — caches, port scheduler,
    scratch arrays — across many independent blocks instead of building
    machine state per block.

    [Memsim.Cache.flush] restores a cache to its freshly-created state,
    and {!Core.Scratch} resets by epoch bump, so a run after
    {!Machine.reset} on a reused machine is byte-identical to a run on a
    brand-new one; the identity is pinned by the test suite and by the
    bench diff gate. *)

(* Per-domain machine cache, keyed by descriptor physical identity. The
   shipped descriptors are module-level constants, so this holds at most
   a few entries per domain; domains never share a machine, keeping the
   mutable scratch state race-free. *)
let dls_cache : (Uarch.Descriptor.t * Machine.t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(** The calling domain's cached machine for [d], created on first use. *)
let for_descriptor (d : Uarch.Descriptor.t) =
  let cache = Domain.DLS.get dls_cache in
  match List.assq_opt d !cache with
  | Some m -> m
  | None ->
    let m = Machine.create d in
    cache := (d, m) :: !cache;
    m

(** Simulate many independent blocks under one machine; each block runs
    from cold caches, so results match per-block [Machine.create]
    exactly. *)
let simulate_batch ?record_schedule (d : Uarch.Descriptor.t)
    (steps_list : Xsem.Executor.step list list) : Core.result list =
  let m = for_descriptor d in
  List.map
    (fun steps ->
      Machine.reset m;
      Machine.run ?record_schedule m steps)
    steps_list
