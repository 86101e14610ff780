//===- codegen/AsmEmitter.cpp - x86-64 assembly text emission -------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/AsmEmitter.h"

#include "codegen/Jit.h"
#include "validate/Decoder.h"

#include <cassert>

using namespace sks;

std::string sks::emitAsmText(MachineKind Kind, unsigned NumData,
                             const Program &P, bool WithMemory) {
  EmittedCode Code = emitKernelBytes(Kind, NumData, P);
  if (Code.Status != EmitStatus::Ok)
    return std::string("    ; no x86 code: ") + emitStatusName(Code.Status) +
           "\n";
  DecodeResult D = decodeX86(Code.Bytes.data(), Code.Bytes.size());
  assert(D.Ok && "the decoder accepts every emitted form");
  std::string Out;
  for (const X86Insn &I : D.Insns) {
    // The bare listing is the kernel body, one instruction per IR
    // instruction: no scratch zeroing, no memory access, no ret.
    const bool Body = !I.Mem && I.Op != X86Op::XorRR &&
                      I.Op != X86Op::PXor && I.Op != X86Op::Ret;
    if (WithMemory || Body)
      Out += "    " + formatX86(I) + "\n";
  }
  return Out;
}

InstrMix sks::countMixWithMemory(const Program &P, unsigned NumData) {
  InstrMix Mix = countMix(P);
  Mix.Mov += 2 * NumData; // n loads + n stores.
  return Mix;
}
