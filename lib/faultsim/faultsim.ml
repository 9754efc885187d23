(* See faultsim.mli for the contract.

   Determinism: every decision derives from one SplitMix64 stream
   seeded by (config seed XOR FNV-1a of "fingerprint\x00attempt\x000").
   The trailing "0" is a fixed field that keeps the key bytes, and so
   every pinned crash and stall decision (test_engine's golden ledger),
   stable. The stream is consumed in a fixed order (crash, stall,
   then payload), so adding a fault class later can only extend —
   never reshuffle — existing draws. *)

type config = { crash : float; stall : float; seed : int64 }

let none = { crash = 0.0; stall = 0.0; seed = 0L }

let is_none c = c.crash = 0.0 && c.stall = 0.0

let float_to_string f =
  (* the first of %.12g/%.15g/%.17g that parses back to [f] (%.17g
     always does), so to_string stays canonical and a rate that
     round-trips at 12 digits keeps its bytes *)
  let s12 = Printf.sprintf "%.12g" f in
  if float_of_string s12 = f then s12
  else
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15 else Printf.sprintf "%.17g" f

let to_string c =
  Printf.sprintf "crash=%s,stall=%s,seed=%Ld" (float_to_string c.crash)
    (float_to_string c.stall) c.seed

let parse spec =
  let spec = String.trim spec in
  if spec = "" || spec = "none" then Ok none
  else
    let parts = String.split_on_char ',' spec in
    let rec fold acc = function
      | [] -> Ok acc
      | part :: rest -> (
        match String.index_opt part '=' with
        | None -> Error (Printf.sprintf "expected key=value, got %S" part)
        | Some i -> (
          let key = String.trim (String.sub part 0 i) in
          let v = String.trim (String.sub part (i + 1) (String.length part - i - 1)) in
          let rate () =
            match float_of_string_opt v with
            | Some r when r >= 0.0 && r <= 1.0 -> Ok r
            | Some _ -> Error (Printf.sprintf "%s=%s: rate must be in [0, 1]" key v)
            | None -> Error (Printf.sprintf "%s=%s: not a number" key v)
          in
          match key with
          | "crash" -> Result.bind (rate ()) (fun r -> fold { acc with crash = r } rest)
          | "stall" -> Result.bind (rate ()) (fun r -> fold { acc with stall = r } rest)
          | "seed" -> (
            match Int64.of_string_opt v with
            | Some s -> fold { acc with seed = s } rest
            | None -> Error (Printf.sprintf "seed=%s: not an integer" v))
          | _ ->
            Error
              (Printf.sprintf "unknown key %S (expected crash, stall or seed)"
                 key)))
    in
    fold none parts

let env_result () =
  match Sys.getenv_opt "BHIVE_FAULTS" with
  | None -> Ok none
  | Some s -> (
    match parse s with
    | Ok c -> Ok c
    | Error msg -> Error (Printf.sprintf "invalid BHIVE_FAULTS=%S: %s" s msg))

let of_env () =
  match env_result () with Ok c -> c | Error msg -> failwith msg

type fault = Crash | Stall of int

let fault_to_string = function
  | Crash -> "crash"
  | Stall ms -> Printf.sprintf "stall:%dms" ms

let attempt_rng (c : config) ~fingerprint ~attempt =
  let key =
    Bstats.Rng.seed_of_string (Printf.sprintf "%s\x00%d\x000" fingerprint attempt)
  in
  Bstats.Rng.create (Int64.logxor c.seed key)

let draw c ~fingerprint ~attempt =
  if is_none c then None
  else begin
    let rng = attempt_rng c ~fingerprint ~attempt in
    if Bstats.Rng.bernoulli rng c.crash then Some Crash
    else if Bstats.Rng.bernoulli rng c.stall then
      (* 25, 50, 100, 200 or 400 simulated ms: some stalls fit inside
         the engine's 100ms deadline, some blow past it *)
      Some (Stall (25 * (1 lsl Bstats.Rng.int rng 5)))
    else None
  end
