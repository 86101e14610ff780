//===- machine/Machine.cpp - Packed register machine ----------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "machine/Machine.h"

#include "support/Permutations.h"

using namespace sks;

Machine::Machine(MachineKind Kind, unsigned N, unsigned Scratch, GoalSpec Goal)
    : Kind(Kind), N(N), Scratch(Scratch),
      R(Kind == MachineKind::Hybrid ? 2 * (N + Scratch) : N + Scratch),
      Goal(Goal) {
  assert(N >= 2 && N <= 6 && "packed encoding supports n in 2..6");
  assert(R <= kMaxRegs && "at most kMaxRegs registers fit the packed encoding");
  assert(Goal.validFor(N) && "goal parameter out of range for this n");

  DataMask = 0;
  for (unsigned I = 0; I != N; ++I)
    DataMask |= 7u << (3 * I);
  AllRegMask = 0;
  for (unsigned I = 0; I != R; ++I)
    AllRegMask |= 7u << (3 * I);
  SortedRow = 0;
  for (unsigned I = 0; I != N; ++I)
    SortedRow |= (I + 1) << (3 * I);

  // Goal acceptance: every pinned data register j must hold j+1. For the
  // sort goal this makes GoalMask == DataMask and GoalPattern == SortedRow,
  // so accepts() coincides with isSorted() bit for bit.
  GoalMask = GoalPattern = RequiredValues = 0;
  uint32_t Pinned = Goal.pinnedPositions(N);
  for (unsigned J = 0; J != N; ++J) {
    if (!(Pinned & (1u << J)))
      continue;
    GoalMask |= 7u << (3 * J);
    GoalPattern |= (J + 1) << (3 * J);
    RequiredValues |= 1u << (J + 1);
  }

  // Enumerate the instruction alphabet with the section 3.2 restrictions:
  // no instruction addresses the same register twice, and cmp operands are
  // in strictly increasing index order (swapping them only swaps the roles
  // of the lt/gt flags).
  auto Add = [&](Opcode Op, unsigned Dst, unsigned Src) {
    Instrs.push_back(Instr{Op, static_cast<uint8_t>(Dst),
                           static_cast<uint8_t>(Src)});
  };
  if (Kind == MachineKind::Cmov) {
    for (unsigned A = 0; A != R; ++A)
      for (unsigned B = A + 1; B != R; ++B)
        Add(Opcode::Cmp, A, B);
    for (unsigned D = 0; D != R; ++D)
      for (unsigned S = 0; S != R; ++S) {
        if (D == S)
          continue;
        Add(Opcode::Mov, D, S);
        Add(Opcode::CMovL, D, S);
        Add(Opcode::CMovG, D, S);
      }
  } else if (Kind == MachineKind::MinMax) {
    for (unsigned D = 0; D != R; ++D)
      for (unsigned S = 0; S != R; ++S) {
        if (D == S)
          continue;
        Add(Opcode::Mov, D, S);
        Add(Opcode::Min, D, S);
        Add(Opcode::Max, D, S);
      }
  } else {
    // Hybrid: cmp/cmov on the general-purpose half, min/max on the vector
    // half, and Mov doubles as the intra-file move AND the movd transfer
    // (any register pair is copyable).
    unsigned Gprs = N + Scratch;
    for (unsigned A = 0; A != Gprs; ++A)
      for (unsigned B = A + 1; B != Gprs; ++B)
        Add(Opcode::Cmp, A, B);
    for (unsigned D = 0; D != R; ++D)
      for (unsigned S = 0; S != R; ++S) {
        if (D == S)
          continue;
        Add(Opcode::Mov, D, S);
        if (D < Gprs && S < Gprs) {
          Add(Opcode::CMovL, D, S);
          Add(Opcode::CMovG, D, S);
        }
        if (D >= Gprs && S >= Gprs) {
          Add(Opcode::Min, D, S);
          Add(Opcode::Max, D, S);
        }
      }
  }
}

uint32_t Machine::packInitial(std::span<const int> Values) const {
  assert(Values.size() == N && "initial row needs one value per data reg");
  uint32_t Row = 0;
  for (unsigned I = 0; I != N; ++I) {
    assert(Values[I] >= 0 && Values[I] <= static_cast<int>(N) &&
           "values must be in 0..n");
    Row |= static_cast<uint32_t>(Values[I]) << (3 * I);
  }
  return Row;
}

std::vector<uint32_t> Machine::initialRows() const {
  std::vector<uint32_t> Rows;
  for (const std::vector<int> &Perm : allPermutations(N))
    Rows.push_back(packInitial(Perm));
  return Rows;
}

unsigned Machine::unrestrictedAlphabetSize() const {
  if (Kind == MachineKind::Hybrid)
    return static_cast<unsigned>(Instrs.size());
  unsigned Opcodes = Kind == MachineKind::Cmov ? 4 : 3;
  return Opcodes * R * R;
}
