(** Dynamic basic-block tracer.

    Plays the role DynamoRIO plays in the paper's collection pipeline: it
    observes a program's execution at basic-block granularity and records
    each distinct block with its execution count. Blocks are recovered by
    {e decoding the program's code bytes} rather than trusting the
    generator's structures — precise static disassembly of x86 is
    undecidable, which is why BHive collects dynamically in the first
    place; round-tripping through the encoder keeps this honest. *)

type record = {
  block : Block.t;
  count : int;
}

(* Execute the program's control flow (branch outcomes drawn from the
   given RNG) for at most [max_steps] block executions, counting visits. *)
let trace ?(max_steps = 10_000) (rng : Bstats.Rng.t) (program : Program.t) :
    record list =
  let encoded = Program.encode program in
  let counts = Array.make (Array.length encoded) 0 in
  let rec step node steps =
    if steps >= max_steps || node < 0 || node >= Array.length encoded then ()
    else begin
      counts.(node) <- counts.(node) + 1;
      match snd encoded.(node) with
      | Program.Return -> ()
      | Program.Fallthrough -> step (node + 1) (steps + 1)
      | Program.Jump target -> step target (steps + 1)
      | Program.Branch { taken; p_taken } ->
        if Bstats.Rng.float rng < p_taken then step taken (steps + 1)
        else step (node + 1) (steps + 1)
    end
  in
  step 0 0;
  Array.to_list encoded
  |> List.mapi (fun i (bytes, _) -> (i, bytes))
  |> List.filter_map (fun (i, bytes) ->
         if counts.(i) = 0 then None
         else
           let insts = X86.Encoder.decode_block bytes in
           Some
             {
               block =
                 Block.make
                   ~id:(Printf.sprintf "%s/bb%d" program.name i)
                   ~app:program.name ~freq:counts.(i) insts;
               count = counts.(i);
             })
