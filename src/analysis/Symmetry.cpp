//===- analysis/Symmetry.cpp - Scratch-register renaming -----------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Symmetry.h"

#include <algorithm>
#include <array>

using namespace sks;

namespace {

std::array<uint8_t, kMaxRegs> identityPerm() {
  std::array<uint8_t, kMaxRegs> P;
  for (unsigned R = 0; R != kMaxRegs; ++R)
    P[R] = static_cast<uint8_t>(R);
  return P;
}

/// Renames \p P by a register permutation alone. The flag parity is
/// forced by cmp normalization: a cmp whose renamed operands come out in
/// descending index order must be written swapped to stay in the
/// alphabet, its flags then compute swapped, and every conditional move
/// reading them flips direction to preserve behavior.
Program renameByPerm(const Program &P,
                     const std::array<uint8_t, kMaxRegs> &Perm) {
  Program Out;
  Out.reserve(P.size());
  bool Phi = false;
  for (const Instr &I : P) {
    Instr R{I.Op, Perm[I.Dst], Perm[I.Src]};
    switch (I.Op) {
    case Opcode::Cmp:
      if (R.Dst > R.Src) {
        std::swap(R.Dst, R.Src);
        Phi = true;
      } else {
        Phi = false;
      }
      break;
    case Opcode::CMovL:
      if (Phi)
        R.Op = Opcode::CMovG;
      break;
    case Opcode::CMovG:
      if (Phi)
        R.Op = Opcode::CMovL;
      break;
    default:
      break;
    }
    Out.push_back(R);
  }
  return Out;
}

/// Lexicographic order on the dense instruction encoding; the order the
/// canonical form minimizes.
bool encodedLess(const Program &A, const Program &B) {
  return std::lexicographical_compare(
      A.begin(), A.end(), B.begin(), B.end(),
      [](const Instr &X, const Instr &Y) { return X.encode() < Y.encode(); });
}

} // namespace

Program sks::canonicalProgram(const Program &P, unsigned NumData) {
  bool HasCmovFile = false, HasVecFile = false;
  unsigned NumRegs = NumData;
  for (const Instr &I : P) {
    HasCmovFile |= I.Op == Opcode::Cmp || I.Op == Opcode::CMovL ||
                   I.Op == Opcode::CMovG;
    HasVecFile |= I.Op == Opcode::Min || I.Op == Opcode::Max;
    NumRegs = std::max({NumRegs, I.Dst + 1u, I.Src + 1u});
  }
  // Mixed-file programs: the GP/vector split is not recoverable from the
  // text, so no renaming is attempted. One scratch register (or none)
  // permutes only trivially.
  if ((HasCmovFile && HasVecFile) || NumRegs <= NumData + 1)
    return P;

  std::array<uint8_t, kMaxRegs> Perm = identityPerm();
  Program Canon = P;
  while (std::next_permutation(Perm.begin() + NumData, Perm.begin() + NumRegs)) {
    Program Renamed = renameByPerm(P, Perm);
    if (encodedLess(Renamed, Canon))
      Canon = std::move(Renamed);
  }
  return Canon;
}

bool sks::isCanonicalProgram(const Program &P, unsigned NumData) {
  return canonicalProgram(P, NumData) == P;
}
