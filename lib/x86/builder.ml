(** Concise construction DSL for instructions.

    Operands are given in Intel order (destination first), matching
    [Inst.t]. Typical usage:

    {[
      let open X86.Builder in
      [ add ~w:Q (r rdi) (i 1);
        mov ~w:D (r eax) (r edx);
        xor ~w:B (r al) (mb ~base:rdi ~disp:(-1) ()) ]
    ]} *)

let r reg = Operand.Reg reg
let i n = Operand.Imm (Int64.of_int n)
let i64 n = Operand.Imm n

let mb ?base ?index ?(scale = 1) ?(disp = 0) () =
  Operand.mem ?base ?index ~scale ~disp:(Int64.of_int disp) ()

let mk = Inst.make

(* Integer two-operand ops, default 64-bit. *)
let mov ?(w = Width.Q) dst src = mk ~width:w Opcode.Mov [ dst; src ]
let add ?(w = Width.Q) dst src = mk ~width:w Opcode.Add [ dst; src ]
let sub ?(w = Width.Q) dst src = mk ~width:w Opcode.Sub [ dst; src ]
let adc ?(w = Width.Q) dst src = mk ~width:w Opcode.Adc [ dst; src ]
let sbb ?(w = Width.Q) dst src = mk ~width:w Opcode.Sbb [ dst; src ]
let and_ ?(w = Width.Q) dst src = mk ~width:w Opcode.And [ dst; src ]
let or_ ?(w = Width.Q) dst src = mk ~width:w Opcode.Or [ dst; src ]
let xor ?(w = Width.Q) dst src = mk ~width:w Opcode.Xor [ dst; src ]
let cmp ?(w = Width.Q) a b = mk ~width:w Opcode.Cmp [ a; b ]
let test ?(w = Width.Q) a b = mk ~width:w Opcode.Test [ a; b ]
let xchg ?(w = Width.Q) a b = mk ~width:w Opcode.Xchg [ a; b ]
let lea ?(w = Width.Q) dst src = mk ~width:w Opcode.Lea [ dst; src ]

let inc ?(w = Width.Q) dst = mk ~width:w Opcode.Inc [ dst ]
let dec ?(w = Width.Q) dst = mk ~width:w Opcode.Dec [ dst ]
let neg ?(w = Width.Q) dst = mk ~width:w Opcode.Neg [ dst ]
let not_ ?(w = Width.Q) dst = mk ~width:w Opcode.Not [ dst ]
let bswap ?(w = Width.Q) dst = mk ~width:w Opcode.Bswap [ dst ]

let shl ?(w = Width.Q) dst amount = mk ~width:w Opcode.Shl [ dst; amount ]
let shr ?(w = Width.Q) dst amount = mk ~width:w Opcode.Shr [ dst; amount ]
let sar ?(w = Width.Q) dst amount = mk ~width:w Opcode.Sar [ dst; amount ]
let rol ?(w = Width.Q) dst amount = mk ~width:w Opcode.Rol [ dst; amount ]
let ror ?(w = Width.Q) dst amount = mk ~width:w Opcode.Ror [ dst; amount ]

let shld ?(w = Width.Q) dst src amount = mk ~width:w Opcode.Shld [ dst; src; amount ]
let shrd ?(w = Width.Q) dst src amount = mk ~width:w Opcode.Shrd [ dst; src; amount ]

let imul ?(w = Width.Q) dst src = mk ~width:w Opcode.Imul_rr [ dst; src ]
let imul3 ?(w = Width.Q) dst src imm = mk ~width:w Opcode.Imul_rr [ dst; src; imm ]
let div ?(w = Width.Q) src = mk ~width:w Opcode.Div [ src ]
let idiv ?(w = Width.Q) src = mk ~width:w Opcode.Idiv [ src ]
let cdq = mk ~width:Width.D Opcode.Cdq []
let cqo = mk ~width:Width.Q Opcode.Cqo []

let movzx ?(from = Width.B) ?(w = Width.D) dst src =
  mk ~width:w (Opcode.Movzx from) [ dst; src ]

let movsx ?(from = Width.B) ?(w = Width.D) dst src =
  mk ~width:w (Opcode.Movsx from) [ dst; src ]

let movsxd dst src = mk ~width:Width.Q Opcode.Movsxd [ dst; src ]

let cmov ?(w = Width.Q) cond dst src = mk ~width:w (Opcode.Cmov cond) [ dst; src ]
let set cond dst = mk ~width:Width.B (Opcode.Set cond) [ dst ]

let push src = mk ~width:Width.Q Opcode.Push [ src ]
let pop dst = mk ~width:Width.Q Opcode.Pop [ dst ]

let bsf ?(w = Width.Q) dst src = mk ~width:w Opcode.Bsf [ dst; src ]
let bsr ?(w = Width.Q) dst src = mk ~width:w Opcode.Bsr [ dst; src ]
let popcnt ?(w = Width.Q) dst src = mk ~width:w Opcode.Popcnt [ dst; src ]
let lzcnt ?(w = Width.Q) dst src = mk ~width:w Opcode.Lzcnt [ dst; src ]
let tzcnt ?(w = Width.Q) dst src = mk ~width:w Opcode.Tzcnt [ dst; src ]
let bt ?(w = Width.Q) a b = mk ~width:w Opcode.Bt [ a; b ]
let bts ?(w = Width.Q) a b = mk ~width:w Opcode.Bts [ a; b ]
let btr ?(w = Width.Q) a b = mk ~width:w Opcode.Btr [ a; b ]
let andn ?(w = Width.Q) dst s1 s2 = mk ~width:w Opcode.Andn [ dst; s1; s2 ]
let blsi ?(w = Width.Q) dst src = mk ~width:w Opcode.Blsi [ dst; src ]
let blsr ?(w = Width.Q) dst src = mk ~width:w Opcode.Blsr [ dst; src ]
let bextr ?(w = Width.Q) dst src ctl = mk ~width:w Opcode.Bextr [ dst; src; ctl ]
let crc32 ?(w = Width.Q) dst src = mk ~width:w Opcode.Crc32 [ dst; src ]
let nop = mk Opcode.Nop []

let jmp target = mk Opcode.Jmp [ target ]
let ret = mk Opcode.Ret []

(* Vector moves *)
let movaps dst src = mk (Opcode.Movap Opcode.Ps) [ dst; src ]
let movapd dst src = mk (Opcode.Movap Opcode.Pd) [ dst; src ]
let movups dst src = mk (Opcode.Movup Opcode.Ps) [ dst; src ]
let movupd dst src = mk (Opcode.Movup Opcode.Pd) [ dst; src ]
let movss dst src = mk (Opcode.Movs_x Opcode.Ss) [ dst; src ]
let movsd_x dst src = mk (Opcode.Movs_x Opcode.Sd) [ dst; src ]
let movdqa dst src = mk Opcode.Movdqa [ dst; src ]
let movdqu dst src = mk Opcode.Movdqu [ dst; src ]
let movd dst src = mk ~width:Width.D Opcode.Movd [ dst; src ]

(* Vector FP arithmetic; SSE 2-operand or AVX 3-operand depending on the
   number of arguments. *)
let vec2 opcode dst src = mk opcode [ dst; src ]
let vec3 opcode dst s1 s2 = mk opcode [ dst; s1; s2 ]

let addps dst src = vec2 (Opcode.Fadd Opcode.Ps) dst src
let addss dst src = vec2 (Opcode.Fadd Opcode.Ss) dst src
let addsd dst src = vec2 (Opcode.Fadd Opcode.Sd) dst src
let subsd dst src = vec2 (Opcode.Fsub Opcode.Sd) dst src
let mulps dst src = vec2 (Opcode.Fmul Opcode.Ps) dst src
let mulss dst src = vec2 (Opcode.Fmul Opcode.Ss) dst src
let mulsd dst src = vec2 (Opcode.Fmul Opcode.Sd) dst src
let divss dst src = vec2 (Opcode.Fdiv Opcode.Ss) dst src
let maxps dst src = vec2 (Opcode.Fmax Opcode.Ps) dst src
let minss dst src = vec2 (Opcode.Fmin Opcode.Ss) dst src
let maxss dst src = vec2 (Opcode.Fmax Opcode.Ss) dst src
let andps dst src = vec2 (Opcode.Fand Opcode.Ps) dst src
let orps dst src = vec2 (Opcode.For_ Opcode.Ps) dst src
let xorps dst src = vec2 (Opcode.Fxor Opcode.Ps) dst src
let xorpd dst src = vec2 (Opcode.Fxor Opcode.Pd) dst src
let vxorps dst s1 s2 = vec3 (Opcode.Fxor Opcode.Ps) dst s1 s2
let vaddps dst s1 s2 = vec3 (Opcode.Fadd Opcode.Ps) dst s1 s2
let vmulps dst s1 s2 = vec3 (Opcode.Fmul Opcode.Ps) dst s1 s2
let ucomiss a b = vec2 (Opcode.Ucomis Opcode.Ss) a b
let haddps dst src = vec2 (Opcode.Haddp Opcode.Ps) dst src

(* Conversions *)
let cvtsi2ss ?(w = Width.D) dst src = mk ~width:w (Opcode.Cvtsi2 Opcode.Ss) [ dst; src ]
let cvttss2si ?(w = Width.D) dst src = mk ~width:w (Opcode.Cvt2si (Opcode.Ss, true)) [ dst; src ]
let cvtss2sd dst src = mk Opcode.Cvtss2sd [ dst; src ]
let cvtsd2ss dst src = mk Opcode.Cvtsd2ss [ dst; src ]
let cvtdq2ps dst src = mk Opcode.Cvtdq2ps [ dst; src ]
let cvtps2dq dst src = mk Opcode.Cvtps2dq [ dst; src ]

(* Shuffles *)
let shufps dst src imm = mk (Opcode.Shufp Opcode.Ps) [ dst; src; imm ]
let unpcklps dst src = mk (Opcode.Unpckl Opcode.Ps) [ dst; src ]
let unpckhps dst src = mk (Opcode.Unpckh Opcode.Ps) [ dst; src ]
let pshufd dst src imm = mk Opcode.Pshufd [ dst; src; imm ]
let pshufb dst src = mk Opcode.Pshufb [ dst; src ]
let movmskps dst src = mk ~width:Width.D (Opcode.Movmsk Opcode.Ps) [ dst; src ]
let pmovmskb dst src = mk ~width:Width.D Opcode.Pmovmskb [ dst; src ]

(* Integer vector *)
let paddb dst src = vec2 (Opcode.Padd Opcode.I8) dst src
let paddw dst src = vec2 (Opcode.Padd Opcode.I16) dst src
let paddd dst src = vec2 (Opcode.Padd Opcode.I32) dst src
let psubd dst src = vec2 (Opcode.Psub Opcode.I32) dst src
let pmulld dst src = vec2 (Opcode.Pmull Opcode.I32) dst src
let pmuludq dst src = vec2 Opcode.Pmuludq dst src
let pmaddwd dst src = vec2 Opcode.Pmaddwd dst src
let pand dst src = vec2 Opcode.Pand dst src
let por dst src = vec2 Opcode.Por dst src
let pxor dst src = vec2 Opcode.Pxor dst src
let pandn dst src = vec2 Opcode.Pandn dst src
let pcmpeqb dst src = vec2 (Opcode.Pcmpeq Opcode.I8) dst src
let pcmpeqd dst src = vec2 (Opcode.Pcmpeq Opcode.I32) dst src
let pcmpgtd dst src = vec2 (Opcode.Pcmpgt Opcode.I32) dst src
let pmaxsd dst src = vec2 (Opcode.Pmaxs Opcode.I32) dst src
let pslld dst amount = mk (Opcode.Psll Opcode.I32) [ dst; amount ]
let punpckldq dst src = vec2 (Opcode.Punpckl Opcode.I32) dst src
let punpcklbw dst src = vec2 (Opcode.Punpckl Opcode.I8) dst src
let packsswb dst src = vec2 (Opcode.Packss Opcode.I16) dst src
let ptest a b = vec2 Opcode.Ptest a b
let pinsrd dst src imm = mk ~width:Width.D (Opcode.Pinsr Opcode.I32) [ dst; src; imm ]

(* FMA *)
let vfmadd231ps dst s1 s2 = vec3 (Opcode.Vfmadd (231, Opcode.Ps)) dst s1 s2

(* AVX lane ops *)
let vbroadcastss dst src = mk (Opcode.Vbroadcast Opcode.Ss) [ dst; src ]
let vinsertf128 dst s1 s2 imm = mk Opcode.Vinsertf128 [ dst; s1; s2; imm ]
let vzeroupper = mk Opcode.Vzeroupper []
