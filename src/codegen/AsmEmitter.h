//===- codegen/AsmEmitter.h - x86-64 assembly text emission ----*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a synthesized kernel as x86-64 assembly text (Intel syntax):
/// the instruction stream the JIT runs (codegen/Jit.h emitKernelBytes on
/// int32 lanes), decoded back by validate/Decoder.h. The listing therefore
/// includes what the encoder adds around the program: the xor/pxor that
/// zeroes each scratch register and clears the flags, and the memory loads
/// and stores that the paper deliberately excludes from synthesis ("these
/// instructions are always necessary and only their placement is up to
/// preference", section 5.3).
///
//===----------------------------------------------------------------------===//

#ifndef SKS_CODEGEN_ASMEMITTER_H
#define SKS_CODEGEN_ASMEMITTER_H

#include "isa/Instr.h"
#include "machine/Machine.h"

#include <string>

namespace sks {

/// Renders \p P as the Intel-syntax listing of the void(int32_t *rdi)
/// kernel the JIT emits: one line per instruction, starting with the
/// scratch zeroing and ending with ret. Without \p WithMemory only the
/// kernel body is listed, one line per instruction of \p P. A program
/// the encoder refuses lists as one comment line naming the EmitStatus.
std::string emitAsmText(MachineKind Kind, unsigned NumData, const Program &P,
                        bool WithMemory = true);

/// Instruction mix including the n loads and n stores (counted as moves),
/// matching how the paper's section 5.3 tables count ("This count includes
/// the move instructions between the memory and registers").
InstrMix countMixWithMemory(const Program &P, unsigned NumData);

} // namespace sks

#endif // SKS_CODEGEN_ASMEMITTER_H
