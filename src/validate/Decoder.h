//===- validate/Decoder.h - x86-64 decoder for the JIT subset ---*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hostile-input-safe decoder for the exact x86-64 subset the JIT
/// emitter (codegen/Jit.cpp) produces — and nothing more. Every fetch is
/// bounds-checked and every malformation is a typed rejection, never
/// undefined behaviour:
/// truncated instructions, trailing bytes after ret, a missing ret,
/// non-canonical prefixes (a redundant 0x40 REX), and any opcode, ModRM
/// mode, addressing form, or prefix combination outside the emitted
/// grammar all fail with a byte offset and a message.
///
/// The grammar (DESIGN.md section 15): optional 66/F3 prefix, optional
/// REX (GPR forms only, never 0x40, never REX.X), one of the emitter's
/// opcodes, ModRM either register-register (mod = 11) or [rdi + disp8]
/// (mod = 01, rm = rdi, REX.B clear). Keeping the accepted language this
/// small is what makes the downstream symbolic execution sound: whatever
/// decodes is fully modelled.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_VALIDATE_DECODER_H
#define SKS_VALIDATE_DECODER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sks {

/// The emitter's instruction vocabulary.
enum class X86Op : uint8_t {
  XorRR,     ///< 31 /r, mod=11, reg==rm (zero + flag-normalize idiom)
  MovRR,     ///< 8B /r, mod=11
  CmpRR,     ///< 3B /r, mod=11
  CMovL,     ///< 0F 4C /r, mod=11
  CMovG,     ///< 0F 4F /r, mod=11
  GprLoad,   ///< 8B /r, [rdi+disp8]
  GprStore,  ///< 89 /r, [rdi+disp8]
  PXor,      ///< 66 0F EF /r, mod=11, reg==rm (zero idiom)
  MovDqa,    ///< 66 0F 6F /r, mod=11
  PMinSD,    ///< 66 0F 38 39 /r, mod=11 (SSE4.1)
  PMaxSD,    ///< 66 0F 38 3D /r, mod=11
  PCmpGtQ,   ///< 66 0F 38 37 /r, mod=11 (SSE4.2)
  BlendVPD,  ///< 66 0F 38 15 /r, mod=11 (implicit xmm0 mask, bit 63)
  MovdLoad,  ///< 66 0F 6E /r, [rdi+disp8]
  MovdStore, ///< 66 0F 7E /r, [rdi+disp8]
  MovqLoad,  ///< F3 0F 7E /r, [rdi+disp8]
  MovqStore, ///< 66 0F D6 /r, [rdi+disp8]
  Ret,       ///< C3, last instruction of every stream
};

/// \returns the mnemonic of \p Op ("xor", "cmovl", "pcmpgtq", ...).
const char *x86OpName(X86Op Op);

/// \returns true for the general-purpose-register forms (XorRR..GprStore).
bool isGprOp(X86Op Op);

/// \returns the name of general-purpose register \p R (encoding number
/// 0..15) at 64-bit (\p W) or 32-bit width: "rbx", "r9d", ...
const char *x86GprName(uint8_t R, bool W);

/// One decoded instruction.
struct X86Insn {
  X86Op Op = X86Op::Ret;
  /// ModRM reg field, REX.R applied. The destination for loads and for
  /// every reg-reg form; the stored source for store forms. GPR encoding
  /// number or xmm number depending on Op.
  uint8_t Reg = 0;
  /// ModRM rm field, REX.B applied (reg-reg forms only; the memory base
  /// is always rdi).
  uint8_t Rm = 0;
  /// disp8 of [rdi + disp8] memory forms.
  uint8_t Disp = 0;
  /// REX.W: the 64-bit GPR operand form (pair kernels).
  bool W = false;
  /// True for the [rdi + disp8] forms.
  bool Mem = false;
  /// Byte offset of the instruction start and its encoded length.
  uint32_t Offset = 0;
  uint8_t Length = 0;
};

/// Result of decoding one complete stream.
struct DecodeResult {
  bool Ok = false;
  /// The decoded instructions, ending in Ret, valid only when Ok.
  std::vector<X86Insn> Insns;
  /// Where and why decoding failed (valid only when !Ok).
  uint32_t ErrorOffset = 0;
  std::string Error;
};

/// Decodes \p Len bytes at \p Bytes as one kernel body. Total on hostile
/// input: never reads out of bounds, never crashes.
DecodeResult decodeX86(const uint8_t *Bytes, size_t Len);

/// \returns \p I in Intel syntax with the mnemonic padded to a column:
/// "cmovl   eax, ecx", "movq    xmm1, qword ptr [rdi + 8]", "ret".
std::string formatX86(const X86Insn &I);

} // namespace sks

#endif // SKS_VALIDATE_DECODER_H
