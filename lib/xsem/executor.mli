(** Straight-line execution of basic blocks over the architectural
    semantics, with full observability of memory accesses, events, and
    faults. *)

type step = {
  index : int;  (** dynamic index within the run *)
  inst : X86.Inst.t;
  accesses : Memsim.Mmu.access list;
  events : Semantics.event list;
}

type run_result =
  | Completed of step list
  | Faulted of {
      steps : step list;  (** steps completed before the fault *)
      fault : Memsim.Fault.t;
      at : int;  (** index of the faulting instruction *)
    }

(** Execute the instruction list once, mutating [state] and memory. *)
val run :
  Machine_state.t -> Memsim.Mmu.t -> X86.Inst.t list -> run_result

(** Execute [unroll] consecutive copies of the block. *)
val run_unrolled :
  Machine_state.t -> Memsim.Mmu.t -> X86.Inst.t list -> unroll:int -> run_result

val all_events : run_result -> Semantics.event list
val completed : run_result -> bool
