//===- isa/Interpret.h - The value interpreter ------------------*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one interpreter of kernel programs over concrete values. It is a
/// template over the lane type: int32 and packed int64 key-payload lanes
/// for the JIT's reference (codegen/Jit.h interpretKernel), and long long
/// for the correctness checks of verify/Verify.h. Both comparisons and
/// min/max are signed on the lane type, as the emitted code compares.
///
/// The packed-row executors (machine/Machine.h apply and BatchApply.h)
/// stay separate: they run the same six opcodes on 3-bit register fields
/// of a search state, not on values.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_ISA_INTERPRET_H
#define SKS_ISA_INTERPRET_H

#include "isa/Instr.h"

#include <algorithm>

namespace sks {

/// Runs \p P on the register file \p Regs (data registers first, then
/// scratch; kMaxRegs lanes) with the comparison flags starting at \p LT
/// and \p GT. The model starts a kernel with scratch 0 and flags clear.
template <typename Lane>
void interpretOnRegisters(const Program &P, Lane *Regs, bool LT = false,
                          bool GT = false) {
  for (const Instr &I : P) {
    switch (I.Op) {
    case Opcode::Mov:
      Regs[I.Dst] = Regs[I.Src];
      break;
    case Opcode::Cmp:
      LT = Regs[I.Dst] < Regs[I.Src];
      GT = Regs[I.Dst] > Regs[I.Src];
      break;
    case Opcode::CMovL:
      if (LT)
        Regs[I.Dst] = Regs[I.Src];
      break;
    case Opcode::CMovG:
      if (GT)
        Regs[I.Dst] = Regs[I.Src];
      break;
    case Opcode::Min:
      Regs[I.Dst] = std::min(Regs[I.Dst], Regs[I.Src]);
      break;
    case Opcode::Max:
      Regs[I.Dst] = std::max(Regs[I.Dst], Regs[I.Src]);
      break;
    }
  }
}

/// Runs \p P on \p Data (\p NumData lanes) in place, with scratch
/// starting 0 and flags clear.
template <typename Lane>
void interpretOnArray(const Program &P, unsigned NumData, Lane *Data) {
  Lane Regs[kMaxRegs] = {};
  std::copy(Data, Data + NumData, Regs);
  interpretOnRegisters(P, Regs);
  std::copy(Regs, Regs + NumData, Data);
}

} // namespace sks

#endif // SKS_ISA_INTERPRET_H
