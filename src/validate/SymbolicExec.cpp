//===- validate/SymbolicExec.cpp - JIT translation validation -------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "validate/SymbolicExec.h"

#include "codegen/Jit.h"
#include "validate/Decoder.h"

#include <algorithm>
#include <array>

using namespace sks;

const char *sks::validationRuleName(ValidationRule R) {
  switch (R) {
  case ValidationRule::Decode:
    return "decode";
  case ValidationRule::Emit:
    return "emit";
  case ValidationRule::Structure:
    return "structure";
  case ValidationRule::RegisterDiscipline:
    return "register-discipline";
  case ValidationRule::MemoryDiscipline:
    return "memory-discipline";
  case ValidationRule::FlagDiscipline:
    return "flag-discipline";
  case ValidationRule::UninitRead:
    return "uninit-read";
  case ValidationRule::Semantics:
    return "semantics";
  }
  return "unknown";
}

std::string ValidationReport::summary() const {
  if (!Applicable)
    return "not applicable (no JIT emission path)";
  if (Findings.empty())
    return "ok";
  const ValidationFinding &F = Findings.front();
  return std::string(validationRuleName(F.Rule)) + ": " + F.Message +
         " (offset " + std::to_string(F.Offset) + ")";
}

namespace {

/// x86 encoding numbers of the model GPRs (codegen/Jit.cpp): eax, ecx,
/// edx, esi, r8d-r11d.
constexpr uint8_t GprNumber[8] = {0, 1, 2, 6, 8, 9, 10, 11};

/// Shared context of the validation layers.
struct Validation {
  MachineKind Kind;
  unsigned NumData;
  unsigned NumRegs; ///< Model registers incl. scratch.
  bool PairLanes;
  const Program &P;
  ValidationReport &R;
  /// GPR encoding number -> model register index, -1 outside the file.
  std::array<int, 16> GprToModel;

  Validation(MachineKind Kind, unsigned NumData, unsigned NumRegs,
             bool PairLanes, const Program &P, ValidationReport &R)
      : Kind(Kind), NumData(NumData), NumRegs(NumRegs), PairLanes(PairLanes),
        P(P), R(R) {
    GprToModel.fill(-1);
    for (unsigned I = 0; I != 8; ++I)
      GprToModel[GprNumber[I]] = static_cast<int>(I);
  }

  void finding(ValidationRule Rule, uint32_t Offset, std::string Message) {
    R.Findings.push_back({Rule, Offset, std::move(Message)});
  }

  unsigned laneWidth() const { return PairLanes ? 8 : 4; }

  /// Model index of a GPR operand, or -1 when it is outside the file.
  int modelGpr(uint8_t Reg) const {
    int M = Reg < 16 ? GprToModel[Reg] : -1;
    return (M >= 0 && static_cast<unsigned>(M) < NumRegs) ? M : -1;
  }

  /// True when xmm \p Reg belongs to the kernel's vector file (pair
  /// kernels additionally own xmm0, the blendvpd mask temporary).
  bool xmmInFile(uint8_t Reg) const {
    return PairLanes ? Reg <= NumRegs : Reg < NumRegs;
  }
};

//===----------------------------------------------------------------------===//
// Layers 1-2: register/ABI + memory discipline
//===----------------------------------------------------------------------===//

/// The GPR operands an instruction writes and reads. A cmov reads its
/// destination (the retained value) and source regardless of the flags.
struct OperandUse {
  int Writes = -1; ///< Register number written, -1 for none.
  int Reads[2] = {-1, -1};
};

OperandUse gprUse(const X86Insn &I) {
  OperandUse U;
  switch (I.Op) {
  case X86Op::XorRR:
    U.Writes = I.Reg; // Pure definition: no read of the stale value.
    break;
  case X86Op::MovRR:
    U.Writes = I.Reg;
    U.Reads[0] = I.Rm;
    break;
  case X86Op::CmpRR:
    U.Reads[0] = I.Reg;
    U.Reads[1] = I.Rm;
    break;
  case X86Op::CMovL:
  case X86Op::CMovG:
    U.Writes = I.Reg;
    U.Reads[0] = I.Reg;
    U.Reads[1] = I.Rm;
    break;
  case X86Op::GprLoad:
    U.Writes = I.Reg;
    break;
  case X86Op::GprStore:
    U.Reads[0] = I.Reg;
    break;
  default:
    break;
  }
  return U;
}

/// The xmm operands, same shape (blendvpd's implicit xmm0 handled by the
/// caller).
OperandUse xmmUse(const X86Insn &I) {
  OperandUse U;
  switch (I.Op) {
  case X86Op::PXor:
    U.Writes = I.Reg;
    break;
  case X86Op::MovDqa:
    U.Writes = I.Reg;
    U.Reads[0] = I.Rm;
    break;
  case X86Op::PMinSD:
  case X86Op::PMaxSD:
  case X86Op::PCmpGtQ:
  case X86Op::BlendVPD:
    U.Writes = I.Reg;
    U.Reads[0] = I.Reg;
    U.Reads[1] = I.Rm;
    break;
  case X86Op::MovdLoad:
  case X86Op::MovqLoad:
    U.Writes = I.Reg;
    break;
  case X86Op::MovdStore:
  case X86Op::MovqStore:
    U.Reads[0] = I.Reg;
    break;
  default:
    break;
  }
  return U;
}

/// True when \p Op belongs to the (Kind, PairLanes) emission path.
bool opInPath(const Validation &V, X86Op Op) {
  if (V.Kind == MachineKind::Cmov)
    return isGprOp(Op);
  if (!V.PairLanes)
    switch (Op) {
    case X86Op::PXor:
    case X86Op::MovDqa:
    case X86Op::PMinSD:
    case X86Op::PMaxSD:
    case X86Op::MovdLoad:
    case X86Op::MovdStore:
      return true;
    default:
      return false;
    }
  switch (Op) {
  case X86Op::PXor:
  case X86Op::MovDqa:
  case X86Op::PCmpGtQ:
  case X86Op::BlendVPD:
  case X86Op::MovqLoad:
  case X86Op::MovqStore:
    return true;
  default:
    return false;
  }
}

/// Layers 1-2. \returns true when no finding was added.
bool checkDiscipline(Validation &V, const std::vector<X86Insn> &Insns) {
  const size_t Before = V.R.Findings.size();
  std::array<unsigned, 6> StoresPerSlot = {};
  for (const X86Insn &I : Insns) {
    if (I.Op == X86Op::Ret)
      break; // The decoder guarantees Ret is last.
    if (!opInPath(V, I.Op)) {
      V.finding(ValidationRule::RegisterDiscipline, I.Offset,
                std::string(x86OpName(I.Op)) +
                    " does not belong to this kernel's emission path");
      continue;
    }
    if (isGprOp(I.Op)) {
      // Operand width: pair kernels use REX.W everywhere except the
      // 32-bit zero idiom; scalar kernels never.
      if (I.Op != X86Op::XorRR && I.W != V.PairLanes) {
        V.finding(ValidationRule::RegisterDiscipline, I.Offset,
                  std::string(x86OpName(I.Op)) + " has the wrong operand "
                                                 "width for this lane size");
        continue;
      }
      OperandUse U = gprUse(I);
      if (U.Writes >= 0 && V.modelGpr(static_cast<uint8_t>(U.Writes)) < 0)
        V.finding(ValidationRule::RegisterDiscipline, I.Offset,
                  std::string("clobbers host register ") +
                      x86GprName(static_cast<uint8_t>(U.Writes), true) +
                      " outside the model file");
      for (int Read : U.Reads)
        if (Read >= 0 && V.modelGpr(static_cast<uint8_t>(Read)) < 0)
          V.finding(ValidationRule::RegisterDiscipline, I.Offset,
                    std::string("reads host register ") +
                        x86GprName(static_cast<uint8_t>(Read), true) +
                        " outside the model file");
    } else {
      OperandUse U = xmmUse(I);
      if (U.Writes >= 0 && !V.xmmInFile(static_cast<uint8_t>(U.Writes)))
        V.finding(ValidationRule::RegisterDiscipline, I.Offset,
                  "writes xmm" + std::to_string(U.Writes) +
                      " outside the model file");
      for (int Read : U.Reads)
        if (Read >= 0 && !V.xmmInFile(static_cast<uint8_t>(Read)))
          V.finding(ValidationRule::RegisterDiscipline, I.Offset,
                    "reads xmm" + std::to_string(Read) +
                        " outside the model file");
    }
    if (I.Mem) {
      const unsigned Width = V.laneWidth();
      if (I.Disp % Width != 0) {
        V.finding(ValidationRule::MemoryDiscipline, I.Offset,
                  "misaligned displacement " + std::to_string(I.Disp));
        continue;
      }
      const unsigned Slot = I.Disp / Width;
      if (Slot >= V.NumData) {
        V.finding(ValidationRule::MemoryDiscipline, I.Offset,
                  "accesses slot " + std::to_string(Slot) +
                      " outside the " + std::to_string(V.NumData) +
                      "-element array");
        continue;
      }
      if (I.Op == X86Op::GprStore || I.Op == X86Op::MovdStore ||
          I.Op == X86Op::MovqStore)
        ++StoresPerSlot[Slot];
    }
  }
  for (unsigned Slot = 0; Slot != V.NumData; ++Slot)
    if (StoresPerSlot[Slot] != 1)
      V.finding(ValidationRule::MemoryDiscipline, 0,
                "slot " + std::to_string(Slot) + " is stored " +
                    std::to_string(StoresPerSlot[Slot]) +
                    " times (expected exactly once)");
  return V.R.Findings.size() == Before;
}

//===----------------------------------------------------------------------===//
// Layer 3: flag/init discipline (data-independent, one static pass)
//===----------------------------------------------------------------------===//

bool checkInitAndFlags(Validation &V, const std::vector<X86Insn> &Insns) {
  const size_t Before = V.R.Findings.size();
  std::array<bool, 16> Defined = {}; // GPR or xmm number space (disjoint
                                     // per kernel kind after layer 1).
  bool FlagsDefined = false;
  auto RequireDefined = [&](const X86Insn &I, int Reg) {
    if (Reg >= 0 && Reg < 16 && !Defined[Reg])
      V.finding(ValidationRule::UninitRead, I.Offset,
                std::string(x86OpName(I.Op)) + " reads register " +
                    std::to_string(Reg) + " before any definition");
  };
  for (const X86Insn &I : Insns) {
    switch (I.Op) {
    case X86Op::XorRR:
      Defined[I.Reg] = true;
      FlagsDefined = true; // xor leaves ZF=1, SF=OF=0: cleared flags.
      break;
    case X86Op::CmpRR:
      RequireDefined(I, I.Reg);
      RequireDefined(I, I.Rm);
      FlagsDefined = true;
      break;
    case X86Op::CMovL:
    case X86Op::CMovG:
      if (!FlagsDefined)
        V.finding(ValidationRule::FlagDiscipline, I.Offset,
                  std::string(x86OpName(I.Op)) +
                      " executes under undefined host flags (no prologue "
                      "xor or prior cmp)");
      RequireDefined(I, I.Reg);
      RequireDefined(I, I.Rm);
      break;
    case X86Op::BlendVPD:
      RequireDefined(I, I.Reg);
      RequireDefined(I, I.Rm);
      RequireDefined(I, 0); // The implicit xmm0 mask.
      Defined[I.Reg] = true;
      break;
    default: {
      OperandUse U = isGprOp(I.Op) ? gprUse(I) : xmmUse(I);
      for (int Read : U.Reads)
        RequireDefined(I, Read);
      if (U.Writes >= 0)
        Defined[U.Writes] = true;
      break;
    }
    }
  }
  return V.R.Findings.size() == Before;
}

//===----------------------------------------------------------------------===//
// Layer 3b: xmm0 mask staging (pair min/max only)
//===----------------------------------------------------------------------===//

/// In the pair min/max path xmm0 is the blendvpd mask temporary: the
/// emitter only ever stages a data copy into it (movdqa/load), turns it
/// into a mask with pcmpgtq, and consumes it as blendvpd's implicit mask.
/// Pinning that shape statically is what keeps mask values (0 / all-ones)
/// out of the data flow — a precondition of the order-type argument of
/// layer 4.
bool checkMaskStaging(Validation &V, const std::vector<X86Insn> &Insns) {
  const size_t Before = V.R.Findings.size();
  enum class Xmm0 : uint8_t { Unwritten, Data, Mask } State = Xmm0::Unwritten;
  for (const X86Insn &I : Insns) {
    switch (I.Op) {
    case X86Op::PXor:
      if (I.Reg == 0)
        State = Xmm0::Data; // A zeroed temporary is (constant) data.
      break;
    case X86Op::MovDqa:
      if (I.Rm == 0)
        V.finding(ValidationRule::FlagDiscipline, I.Offset,
                  "reads the xmm0 mask temporary as data");
      if (I.Reg == 0)
        State = Xmm0::Data;
      break;
    case X86Op::MovqLoad:
      if (I.Reg == 0)
        State = Xmm0::Data;
      break;
    case X86Op::MovqStore:
      if (I.Reg == 0)
        V.finding(ValidationRule::FlagDiscipline, I.Offset,
                  "stores the xmm0 mask temporary");
      break;
    case X86Op::PCmpGtQ:
      if (I.Reg != 0)
        V.finding(ValidationRule::FlagDiscipline, I.Offset,
                  "pcmpgtq mask destination must be xmm0");
      else if (State != Xmm0::Data)
        V.finding(ValidationRule::FlagDiscipline, I.Offset,
                  "pcmpgtq left operand is not freshly staged data");
      if (I.Rm == 0)
        V.finding(ValidationRule::FlagDiscipline, I.Offset,
                  "pcmpgtq compares against the xmm0 mask temporary");
      if (I.Reg == 0)
        State = Xmm0::Mask;
      break;
    case X86Op::BlendVPD:
      if (I.Reg == 0 || I.Rm == 0)
        V.finding(ValidationRule::FlagDiscipline, I.Offset,
                  "blendvpd data operand is the xmm0 mask temporary");
      if (State != Xmm0::Mask)
        V.finding(ValidationRule::FlagDiscipline, I.Offset,
                  "blendvpd mask is not a pcmpgtq result");
      break;
    default:
      break;
    }
  }
  return V.R.Findings.size() == Before;
}

//===----------------------------------------------------------------------===//
// Zero sensitivity: does either side compare a zero-initialized value?
//===----------------------------------------------------------------------===//
//
// Registers that still hold their initial zero (scratch, or an explicit
// xor/pxor) are constants the basic {1..n} order family cannot place: 0
// sorts below every test value but not below a negative int32. Copies and
// conditional selects of such values are harmless — they are decided by
// comparisons of other values — but the moment a maybe-zero value feeds an
// ORDER operation (cmp / min / max / pcmpgtq), layer 4 must switch to the
// extended family that enumerates 0's position too. 1366 of the 5602
// optimal n=3 kernels read scratch zeros (lint's uninit-read note), so
// this is a real path, not an edge case.

bool streamOrdersZero(const std::vector<X86Insn> &Insns) {
  std::array<bool, 16> MaybeZero = {};
  for (const X86Insn &I : Insns) {
    switch (I.Op) {
    case X86Op::XorRR:
    case X86Op::PXor:
      MaybeZero[I.Reg] = true;
      break;
    case X86Op::MovRR:
    case X86Op::MovDqa:
      MaybeZero[I.Reg] = MaybeZero[I.Rm];
      break;
    case X86Op::CmpRR:
    case X86Op::PMinSD:
    case X86Op::PMaxSD:
    case X86Op::PCmpGtQ:
      if (MaybeZero[I.Reg] || MaybeZero[I.Rm])
        return true;
      break;
    case X86Op::CMovL:
    case X86Op::CMovG:
    case X86Op::BlendVPD:
      MaybeZero[I.Reg] = MaybeZero[I.Reg] || MaybeZero[I.Rm];
      break;
    case X86Op::GprLoad:
    case X86Op::MovdLoad:
    case X86Op::MovqLoad:
      MaybeZero[I.Reg] = false;
      break;
    case X86Op::GprStore:
    case X86Op::MovdStore:
    case X86Op::MovqStore:
    case X86Op::Ret:
      break;
    }
  }
  return false;
}

bool irOrdersZero(unsigned NumData, const Program &P) {
  std::array<bool, kMaxRegs> MaybeZero = {};
  for (unsigned R = NumData; R < kMaxRegs; ++R)
    MaybeZero[R] = true; // Scratch starts 0 in the model.
  for (const Instr &I : P) {
    switch (I.Op) {
    case Opcode::Mov:
      MaybeZero[I.Dst] = MaybeZero[I.Src];
      break;
    case Opcode::Cmp:
    case Opcode::Min:
    case Opcode::Max:
      if (MaybeZero[I.Dst] || MaybeZero[I.Src])
        return true;
      break;
    case Opcode::CMovL:
    case Opcode::CMovG:
      MaybeZero[I.Dst] = MaybeZero[I.Dst] || MaybeZero[I.Src];
      break;
    }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Layer 4: order-type-complete concrete family (n^n vectors over {1..n})
//===----------------------------------------------------------------------===//

/// Runs the decoded stream on one concrete memory image. Values are
/// int64; the width discipline of layer 1 guarantees scalar kernels only
/// ever hold int32-ranged values, so one lane type serves both paths.
void runDecoded(const Validation &V, const std::vector<X86Insn> &Insns,
                int64_t *Mem) {
  std::array<int64_t, 16> G = {};
  std::array<int64_t, 8> X = {};
  bool LT = false, GT = false;
  for (const X86Insn &I : Insns) {
    const unsigned Slot = I.Mem ? I.Disp / V.laneWidth() : 0;
    switch (I.Op) {
    case X86Op::XorRR:
      G[I.Reg] = 0;
      LT = GT = false;
      break;
    case X86Op::MovRR:
      G[I.Reg] = G[I.Rm];
      break;
    case X86Op::CmpRR:
      LT = G[I.Reg] < G[I.Rm];
      GT = G[I.Reg] > G[I.Rm];
      break;
    case X86Op::CMovL:
      if (LT)
        G[I.Reg] = G[I.Rm];
      break;
    case X86Op::CMovG:
      if (GT)
        G[I.Reg] = G[I.Rm];
      break;
    case X86Op::GprLoad:
      G[I.Reg] = Mem[Slot];
      break;
    case X86Op::GprStore:
      Mem[Slot] = G[I.Reg];
      break;
    case X86Op::PXor:
      X[I.Reg] = 0;
      break;
    case X86Op::MovDqa:
      X[I.Reg] = X[I.Rm];
      break;
    case X86Op::PMinSD:
      X[I.Reg] = std::min(X[I.Reg], X[I.Rm]);
      break;
    case X86Op::PMaxSD:
      X[I.Reg] = std::max(X[I.Reg], X[I.Rm]);
      break;
    case X86Op::PCmpGtQ:
      X[I.Reg] = X[I.Reg] > X[I.Rm] ? -1 : 0;
      break;
    case X86Op::BlendVPD:
      // Per-lane select on bit 63 of the implicit xmm0 mask — the sign
      // bit, exactly as the hardware blends.
      if (static_cast<uint64_t>(X[0]) >> 63)
        X[I.Reg] = X[I.Rm];
      break;
    case X86Op::MovdLoad:
    case X86Op::MovqLoad:
      X[I.Reg] = Mem[Slot];
      break;
    case X86Op::MovdStore:
    case X86Op::MovqStore:
      Mem[Slot] = X[I.Reg];
      break;
    case X86Op::Ret:
      break;
    }
  }
}

std::string vectorText(const int32_t *Vals, unsigned N) {
  std::string S = "[";
  for (unsigned I = 0; I != N; ++I) {
    if (I)
      S += ',';
    S += std::to_string(Vals[I]);
  }
  S += ']';
  return S;
}

/// One concrete vector: run the decoded stream and the IR side by side
/// on \p Lane lanes and compare the full memory image. Pair lanes carry
/// one constant payload, so lanes tie exactly when their keys do and the
/// family reaches every weak order of (lanes, 0). Distinct payloads would
/// make every pair of lanes differ, and a kernel whose result on tied
/// lanes differs from the IR's would pass. \returns true on agreement.
template <KernelLane Lane>
bool checkOneVector(Validation &V, const std::vector<X86Insn> &Insns,
                    const int32_t *Keys) {
  const unsigned N = V.NumData;
  int64_t Mem[6] = {};
  Lane Ref[6] = {};
  for (unsigned I = 0; I != N; ++I)
    Mem[I] = Ref[I] = static_cast<Lane>(
        sizeof(Lane) == 8 ? packPair(Keys[I], 0) : Keys[I]);
  runDecoded(V, Insns, Mem);
  interpretKernel(V.Kind, N, V.P, Ref);
  for (unsigned I = 0; I != N; ++I)
    if (Mem[I] != Ref[I]) {
      V.finding(ValidationRule::Semantics, 0,
                "order family: lane " + std::to_string(I) +
                    " differs from the IR on keys " + vectorText(Keys, N));
      return false;
    }
  return true;
}

bool checkOrderFamily(Validation &V, const std::vector<X86Insn> &Insns) {
  const unsigned N = V.NumData;
  // When a zero-initialized value feeds an order operation on either
  // side, 0's position among the inputs becomes observable: enumerate
  // values from {1..n+1} under every downward shift 0..n+1, which
  // realizes every order type of (inputs, 0) an int32 vector can attain.
  // Otherwise all values are data-derived and {1..n}^n (every order type
  // of the inputs alone) is already complete.
  const bool ZeroSensitive =
      irOrdersZero(N, V.P) || streamOrdersZero(Insns);
  const unsigned Base = ZeroSensitive ? N + 1 : N;
  const unsigned MaxShift = ZeroSensitive ? N + 1 : 0;
  unsigned Count = 0;
  for (unsigned Shift = 0; Shift <= MaxShift; ++Shift) {
    unsigned Vals[6];
    for (unsigned I = 0; I != N; ++I)
      Vals[I] = 1;
    for (;;) {
      ++Count;
      int32_t Keys[6] = {};
      for (unsigned I = 0; I != N; ++I)
        Keys[I] = static_cast<int32_t>(Vals[I]) - static_cast<int32_t>(Shift);
      if (!(V.PairLanes ? checkOneVector<int64_t>(V, Insns, Keys)
                        : checkOneVector<int32_t>(V, Insns, Keys))) {
        V.R.OrderVectors = Count;
        return false;
      }
      // Odometer over {1..Base}^n.
      unsigned Pos = 0;
      while (Pos != N && ++Vals[Pos] > Base)
        Vals[Pos++] = 1;
      if (Pos == N)
        break;
    }
  }
  V.R.OrderVectors = Count;
  return true;
}

/// Model register count, mirroring the emitter's derivation.
unsigned modelNumRegs(MachineKind Kind, unsigned NumData, const Program &P) {
  unsigned NumRegs = NumData;
  for (const Instr &I : P)
    NumRegs = std::max({NumRegs, unsigned(I.Dst) + 1, unsigned(I.Src) + 1});
  if (Kind == MachineKind::Cmov)
    NumRegs = std::max(NumRegs, NumData + 1); // The prologue xor register.
  return NumRegs;
}

/// Shape checks on the source side — a program the emitter would refuse
/// cannot anchor a proof.
bool checkStructure(Validation &V) {
  const size_t Before = V.R.Findings.size();
  if (V.NumData < 1 || V.NumData > 6)
    V.finding(ValidationRule::Structure, 0,
              "array length outside 1..6: " + std::to_string(V.NumData));
  else if (V.PairLanes && V.Kind == MachineKind::MinMax
               ? V.NumRegs + 1 > 8
               : V.NumRegs > 8)
    V.finding(ValidationRule::Structure, 0, "model register file exceeded");
  for (const Instr &I : V.P) {
    const bool GprIr = I.Op == Opcode::Mov || I.Op == Opcode::Cmp ||
                       I.Op == Opcode::CMovL || I.Op == Opcode::CMovG;
    const bool VecIr =
        I.Op == Opcode::Mov || I.Op == Opcode::Min || I.Op == Opcode::Max;
    if (V.Kind == MachineKind::Cmov ? !GprIr : !VecIr) {
      V.finding(ValidationRule::Structure, 0,
                "program opcode outside this kind's alphabet");
      break;
    }
  }
  return V.R.Findings.size() == Before;
}

} // namespace

ValidationReport sks::validateKernelBytes(const uint8_t *Bytes, size_t Len,
                                          MachineKind Kind, unsigned NumData,
                                          const Program &P, bool PairLanes) {
  ValidationReport R;
  if (Kind == MachineKind::Hybrid)
    return R; // No JIT emission path: nothing to validate.
  R.Applicable = true;

  Validation V(Kind, NumData, modelNumRegs(Kind, NumData, P), PairLanes, P,
               R);
  if (!checkStructure(V))
    return R;

  DecodeResult D = decodeX86(Bytes, Len);
  if (!D.Ok) {
    V.finding(ValidationRule::Decode, D.ErrorOffset, D.Error);
    return R;
  }
  R.DecodedCount = D.Insns.size();

  bool Disciplined = checkDiscipline(V, D.Insns);
  Disciplined &= checkInitAndFlags(V, D.Insns);
  if (PairLanes && Kind == MachineKind::MinMax)
    Disciplined &= checkMaskStaging(V, D.Insns);
  if (!Disciplined)
    return R; // The semantic layer assumes a disciplined stream.

  checkOrderFamily(V, D.Insns);
  R.Ok = R.Findings.empty();
  return R;
}

template <KernelLane Lane>
ValidationReport sks::validateJitKernel(MachineKind Kind, unsigned NumData,
                                        const Program &P, GoalSpec) {
  if (Kind == MachineKind::Hybrid)
    return ValidationReport{};
  EmittedCode Code = emitKernelBytes<Lane>(Kind, NumData, P);
  if (Code.Status != EmitStatus::Ok) {
    ValidationReport R;
    R.Applicable = true;
    R.Findings.push_back({ValidationRule::Emit, 0,
                          std::string("emission failed: ") +
                              emitStatusName(Code.Status)});
    return R;
  }
  return validateKernelBytes(Code.Bytes.data(), Code.Bytes.size(), Kind,
                             NumData, P, /*PairLanes=*/sizeof(Lane) == 8);
}

template ValidationReport sks::validateJitKernel<int32_t>(MachineKind,
                                                          unsigned,
                                                          const Program &,
                                                          GoalSpec);
template ValidationReport sks::validateJitKernel<int64_t>(MachineKind,
                                                          unsigned,
                                                          const Program &,
                                                          GoalSpec);
