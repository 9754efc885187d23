(** Straight-line block execution over the architectural semantics.

    Runs an instruction sequence once (basic blocks contain no control
    flow), collecting every memory access and event. On a memory fault the
    partial trace up to the fault is reported together with the fault —
    exactly the observability the BHive monitor process gets from a
    SIGSEGV. *)

open X86

(* One executed instruction and what it did. *)
type step = {
  index : int;  (** dynamic index within the run *)
  inst : Inst.t;
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

let run (st : Machine_state.t) (mmu : Memsim.Mmu.t) (insts : Inst.t list) :
    run_result =
  let steps = ref [] in
  let rec go idx = function
    | [] -> Completed (List.rev !steps)
    | inst :: rest -> (
      st.rip <- Int64.add st.rip (Int64.of_int (Encoder.encoded_length inst));
      match Semantics.exec st mmu inst with
      | outcome ->
        steps :=
          { index = idx; inst; accesses = outcome.accesses; events = outcome.events }
          :: !steps;
        go (idx + 1) rest
      | exception Memsim.Fault.Fault f ->
        Faulted { steps = List.rev !steps; fault = f; at = idx })
  in
  go 0 insts

(* Convenience wrapper: execute [unroll] copies of the block. *)
let run_unrolled st mmu insts ~unroll =
  let rec repeat acc n = if n = 0 then acc else repeat (insts :: acc) (n - 1) in
  run st mmu (List.concat (repeat [] unroll))

let all_events = function
  | Completed steps -> List.concat_map (fun s -> s.events) steps
  | Faulted { steps; _ } -> List.concat_map (fun s -> s.events) steps

let completed = function Completed _ -> true | Faulted _ -> false
