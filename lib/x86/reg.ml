(** x86-64 register file description with aliasing information.

    General-purpose registers are represented as a 64-bit root plus an
    access width, so that e.g. [%al], [%ax], [%eax] and [%rax] all alias
    the same root. The high-byte registers AH..DH are representable but
    only for the four legacy roots. Vector registers are XMM/YMM over the
    same 16 roots. *)

type gpr =
  | RAX
  | RCX
  | RDX
  | RBX
  | RSP
  | RBP
  | RSI
  | RDI
  | R8
  | R9
  | R10
  | R11
  | R12
  | R13
  | R14
  | R15

type t =
  | Gpr of gpr * Width.t  (** e.g. [Gpr (RAX, D)] is [%eax] *)
  | Gpr8h of gpr  (** AH/CH/DH/BH; root must be RAX/RCX/RDX/RBX *)
  | Xmm of int  (** 128-bit vector register, index 0..15 *)
  | Ymm of int  (** 256-bit vector register, index 0..15 *)
  | Rip

let all_gprs =
  [ RAX; RCX; RDX; RBX; RSP; RBP; RSI; RDI; R8; R9; R10; R11; R12; R13; R14; R15 ]

let gpr_index = function
  | RAX -> 0
  | RCX -> 1
  | RDX -> 2
  | RBX -> 3
  | RSP -> 4
  | RBP -> 5
  | RSI -> 6
  | RDI -> 7
  | R8 -> 8
  | R9 -> 9
  | R10 -> 10
  | R11 -> 11
  | R12 -> 12
  | R13 -> 13
  | R14 -> 14
  | R15 -> 15

let gpr_of_index = function
  | 0 -> RAX
  | 1 -> RCX
  | 2 -> RDX
  | 3 -> RBX
  | 4 -> RSP
  | 5 -> RBP
  | 6 -> RSI
  | 7 -> RDI
  | 8 -> R8
  | 9 -> R9
  | 10 -> R10
  | 11 -> R11
  | 12 -> R12
  | 13 -> R13
  | 14 -> R14
  | 15 -> R15
  | n -> invalid_arg (Printf.sprintf "Reg.gpr_of_index: %d" n)

(** Dependence-tracking root: GPRs alias on their 64-bit root; XMMk and
    YMMk alias on vector root k. *)
type root = Root_gpr of gpr | Root_vec of int | Root_rip

let root = function
  | Gpr (g, _) | Gpr8h g -> Root_gpr g
  | Xmm i | Ymm i -> Root_vec i
  | Rip -> Root_rip

(* Dense index of a root, for array-based renaming tables:
   0..15 GPRs, 16..31 vector, 32 rip. *)
let root_index = function
  | Root_gpr g -> gpr_index g
  | Root_vec i -> 16 + i
  | Root_rip -> 32

let num_roots = 33

let width = function
  | Gpr (_, w) -> w
  | Gpr8h _ -> Width.B
  | Xmm _ | Ymm _ | Rip -> Width.Q

let byte_size = function
  | Gpr (_, w) -> Width.bytes w
  | Gpr8h _ -> 1
  | Xmm _ -> 16
  | Ymm _ -> 32
  | Rip -> 8

let is_gpr = function Gpr _ | Gpr8h _ -> true | _ -> false
let is_vector = function Xmm _ | Ymm _ -> true | _ -> false
let is_ymm = function Ymm _ -> true | _ -> false

let equal (a : t) b = a = b
let compare (a : t) b = Stdlib.compare a b

let gpr_base_name = function
  | RAX -> "ax"
  | RCX -> "cx"
  | RDX -> "dx"
  | RBX -> "bx"
  | RSP -> "sp"
  | RBP -> "bp"
  | RSI -> "si"
  | RDI -> "di"
  | R8 -> "r8"
  | R9 -> "r9"
  | R10 -> "r10"
  | R11 -> "r11"
  | R12 -> "r12"
  | R13 -> "r13"
  | R14 -> "r14"
  | R15 -> "r15"

let is_extended_gpr g = gpr_index g >= 8

let name = function
  | Gpr (g, w) when is_extended_gpr g -> (
    let base = gpr_base_name g in
    match w with
    | Width.B -> base ^ "b"
    | Width.W -> base ^ "w"
    | Width.D -> base ^ "d"
    | Width.Q -> base)
  | Gpr (g, w) -> (
    let base = gpr_base_name g in
    match (w, g) with
    | Width.Q, _ -> "r" ^ base
    | Width.D, _ -> "e" ^ base
    | Width.W, _ -> base
    | Width.B, (RAX | RCX | RDX | RBX) -> String.sub base 0 1 ^ "l"
    | Width.B, _ -> base ^ "l" (* sil, dil, bpl, spl *))
  | Gpr8h g -> String.sub (gpr_base_name g) 0 1 ^ "h"
  | Xmm i -> Printf.sprintf "xmm%d" i
  | Ymm i -> Printf.sprintf "ymm%d" i
  | Rip -> "rip"

let pp fmt t = Format.pp_print_string fmt (name t)

(* Parse a register name without any % sigil, e.g. "eax", "r10d", "xmm3". *)
let of_name s =
  let s = String.lowercase_ascii s in
  let starts p = String.length s > String.length p && String.sub s 0 (String.length p) = p in
  let legacy base =
    List.find_opt (fun g -> gpr_base_name g = base)
      [ RAX; RCX; RDX; RBX; RSP; RBP; RSI; RDI ]
  in
  let numbered base =
    List.find_opt (fun g -> gpr_base_name g = base)
      [ R8; R9; R10; R11; R12; R13; R14; R15 ]
  in
  let vec prefix mk =
    if starts prefix then
      match int_of_string_opt (String.sub s (String.length prefix) (String.length s - String.length prefix)) with
      | Some i when i >= 0 && i < 16 -> Some (mk i)
      | _ -> None
    else None
  in
  match s with
  | "rip" -> Some Rip
  | "ah" -> Some (Gpr8h RAX)
  | "ch" -> Some (Gpr8h RCX)
  | "dh" -> Some (Gpr8h RDX)
  | "bh" -> Some (Gpr8h RBX)
  | "al" -> Some (Gpr (RAX, B))
  | "cl" -> Some (Gpr (RCX, B))
  | "dl" -> Some (Gpr (RDX, B))
  | "bl" -> Some (Gpr (RBX, B))
  | "sil" -> Some (Gpr (RSI, B))
  | "dil" -> Some (Gpr (RDI, B))
  | "bpl" -> Some (Gpr (RBP, B))
  | "spl" -> Some (Gpr (RSP, B))
  | _ -> (
    match vec "xmm" (fun i -> Xmm i) with
    | Some r -> Some r
    | None -> (
      match vec "ymm" (fun i -> Ymm i) with
      | Some r -> Some r
      | None ->
        if starts "r" && String.length s >= 2 then (
          (* r8..r15 with optional b/w/d suffix, or rax-style *)
          match legacy (String.sub s 1 (String.length s - 1)) with
          | Some g -> Some (Gpr (g, Q))
          | None -> (
            let body, w =
              let n = String.length s in
              match s.[n - 1] with
              | 'b' when numbered (String.sub s 0 (n - 1)) <> None ->
                (String.sub s 0 (n - 1), Width.B)
              | 'w' when numbered (String.sub s 0 (n - 1)) <> None ->
                (String.sub s 0 (n - 1), Width.W)
              | 'd' when numbered (String.sub s 0 (n - 1)) <> None ->
                (String.sub s 0 (n - 1), Width.D)
              | _ -> (s, Width.Q)
            in
            match numbered body with
            | Some g -> Some (Gpr (g, w))
            | None -> None))
        else if starts "e" then (
          match legacy (String.sub s 1 (String.length s - 1)) with
          | Some g -> Some (Gpr (g, D))
          | None -> None)
        else (
          match legacy s with
          | Some g -> Some (Gpr (g, W))
          | None -> None)))

(* Common shorthands used throughout the code base and tests. *)
let rax = Gpr (RAX, Q)
let rbx = Gpr (RBX, Q)
let rcx = Gpr (RCX, Q)
let rdx = Gpr (RDX, Q)
let rsi = Gpr (RSI, Q)
let rdi = Gpr (RDI, Q)
let rbp = Gpr (RBP, Q)
let rsp = Gpr (RSP, Q)
let r8 = Gpr (R8, Q)
let r9 = Gpr (R9, Q)
let r10 = Gpr (R10, Q)
let r11 = Gpr (R11, Q)
let r12 = Gpr (R12, Q)
let r13 = Gpr (R13, Q)
let r14 = Gpr (R14, Q)
let r15 = Gpr (R15, Q)
let eax = Gpr (RAX, D)
let ebx = Gpr (RBX, D)
let ecx = Gpr (RCX, D)
let edx = Gpr (RDX, D)
let ax = Gpr (RAX, W)
let al = Gpr (RAX, B)
let bl = Gpr (RBX, B)
let cl = Gpr (RCX, B)
let dl = Gpr (RDX, B)
let xmm i = Xmm i
let ymm i = Ymm i
