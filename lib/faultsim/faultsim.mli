(** Deterministic, seeded fault injection for the simulated measurement
    substrate.

    The real BHive harness survives a hostile environment: worker
    processes die on unmappable blocks and measurements stall under OS
    interference. This module makes those failure modes first-class and
    {e exactly reproducible}: whether a given profiling attempt crashes
    or stalls is a pure function of the fault configuration and the
    attempt's identity — the job fingerprint and the attempt number.
    Nothing depends on wall time, worker count or scheduling order,
    which is what lets the engine's recovery machinery promise
    byte-identical output under any fault seed (for recoverable fault
    rates). Faults only delay or deny a measurement; none changes the
    value of one, so an accepted result is always the fault-free one.

    Configuration comes from the [BHIVE_FAULTS] environment variable
    (or the [--faults] CLI flag), a comma-separated key=value spec:

    {v BHIVE_FAULTS=crash=0.01,stall=0.005,seed=42 v}

    Unset keys default to rate 0 / seed 0; the empty string and unset
    variable both mean "no faults". *)

type config = {
  crash : float;  (** per-attempt probability the worker domain dies *)
  stall : float;
      (** per-attempt probability of a simulated-clock stall; whether
          the stall exceeds the job deadline is the engine's decision *)
  seed : int64;  (** fault-stream seed; independent of the noise seed *)
}

(** No faults: all rates zero. [draw] on this config never faults and
    performs no work. *)
val none : config

val is_none : config -> bool

(** Parse a [crash=..,stall=..,seed=..] spec. Rates must be in [0, 1];
    unknown keys (including the removed [corrupt]) and malformed values
    are errors. The empty string parses to {!none}. *)
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

val fault_to_string : fault -> string

(** [draw cfg ~fingerprint ~attempt] decides deterministically whether
    this attempt faults. Fault classes are checked in order crash,
    stall — at most one fires per attempt. *)
val draw : config -> fingerprint:string -> attempt:int -> fault option
