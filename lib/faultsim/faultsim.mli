(** Deterministic, seeded fault injection for the simulated measurement
    substrate.

    The real BHive harness survives a hostile environment: worker
    processes die on unmappable blocks, measurements stall under OS
    interference, and hardware counters occasionally return garbage.
    This module makes those failure modes first-class and {e exactly
    reproducible}: whether a given profiling attempt crashes, stalls or
    returns a corrupted timing is a pure function of the fault
    configuration and the attempt's identity — the job fingerprint, the
    attempt number, and the trial index within the attempt. Nothing
    depends on wall time, worker count or scheduling order, which is
    what lets the engine's recovery machinery promise byte-identical
    output under any fault seed (for recoverable fault rates).

    Configuration comes from the [BHIVE_FAULTS] environment variable
    (or the [--faults] CLI flag), a comma-separated key=value spec:

    {v BHIVE_FAULTS=crash=0.01,stall=0.005,corrupt=0.002,seed=42 v}

    Unset keys default to rate 0 / seed 0; the empty string and unset
    variable both mean "no faults". *)

type config = {
  crash : float;  (** per-trial probability the worker domain dies *)
  stall : float;
      (** per-trial probability of a simulated-clock stall; whether the
          stall exceeds the job deadline is the engine's decision *)
  corrupt : float;
      (** per-trial probability the returned timing is corrupted *)
  seed : int64;  (** fault-stream seed; independent of the noise seed *)
}

(** No faults: all rates zero. [draw] on this config never faults and
    performs no work. *)
val none : config

val is_none : config -> bool

(** Parse a [crash=..,stall=..,corrupt=..,seed=..] spec. Rates must be
    in [0, 1]; unknown keys and malformed values are errors. The empty
    string parses to {!none}. *)
val parse : string -> (config, string) result

(** Canonical spec string: [parse (to_string c) = Ok c]. *)
val to_string : config -> string

(** Read [BHIVE_FAULTS] without raising: unset or empty is [Ok none];
    a malformed value is [Error msg] with the same one-line message
    {!of_env} raises. This is what CLI startup validation uses to turn
    a bad spec into a clean non-zero exit. *)
val env_result : unit -> (config, string) result

(** Read [BHIVE_FAULTS]. Unset or empty means {!none}; a malformed
    value raises [Failure] with a usable message — a chaos run that
    silently ran without chaos would defeat its purpose. *)
val of_env : unit -> config

(** One injected fault. *)
type fault =
  | Crash  (** the worker domain executing the job dies *)
  | Stall of int
      (** the measurement hangs for this many {e simulated}
          milliseconds (25–400); no wall-clock time passes *)
  | Corrupt of int64
      (** the timing comes back corrupted; the payload seeds the
          corruption so distinct trials corrupt differently *)

val fault_to_string : fault -> string

(** [draw cfg ~fingerprint ~attempt ~trial] decides deterministically
    whether this trial faults. Fault classes are checked in order
    crash, stall, corrupt — at most one fires per trial. *)
val draw :
  config -> fingerprint:string -> attempt:int -> trial:int -> fault option

(** Corrupt a measured throughput: scales it by a salt-derived factor
    in [0.25, 4] bounded away from 1, so a corrupted value never equals
    the clean one and two different salts essentially never agree —
    which is what quorum voting relies on to outvote corruption. *)
val corrupt_throughput : salt:int64 -> float -> float
