//===- machine/Machine.h - Packed register machine --------------*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete execution semantics of the paper's machine model (section 2.2).
/// A *row* is one complete register assignment — all R = n + m registers
/// plus the lt/gt flags — packed into a uint32_t: register i occupies bits
/// [3i, 3i+3) (values 0..n, 0 = uninitialized), the lt flag is bit 28 and
/// the gt flag is bit 29. n <= 6 and m = 1 keep everything within 21 bits
/// of register payload.
///
/// Machine bundles: the instruction alphabet (with the cmp operand-order
/// symmetry restriction of section 3.2), single-instruction execution on a
/// packed row, the goal-acceptance test (machine/Goal.h; the sortedness
/// test is the sort goal's instance), and the packed initial rows for all
/// n! test permutations.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_MACHINE_MACHINE_H
#define SKS_MACHINE_MACHINE_H

#include "isa/Instr.h"
#include "machine/Goal.h"

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace sks {

/// Bit positions of the comparison flags within a packed row.
inline constexpr uint32_t FlagLT = 1u << 28;
inline constexpr uint32_t FlagGT = 1u << 29;
inline constexpr uint32_t FlagMask = FlagLT | FlagGT;

/// \returns the value of register \p Reg in packed row \p Row.
inline uint32_t getReg(uint32_t Row, unsigned Reg) {
  return (Row >> (3 * Reg)) & 7u;
}

/// \returns \p Row with register \p Reg set to \p Value (0..7).
inline uint32_t setReg(uint32_t Row, unsigned Reg, uint32_t Value) {
  unsigned Shift = 3 * Reg;
  return (Row & ~(7u << Shift)) | (Value << Shift);
}

/// Which instruction alphabet the machine executes.
enum class MachineKind {
  Cmov,   ///< mov/cmp/cmovl/cmovg on the general-purpose file (section 2.2)
  MinMax, ///< movdqa/pmin/pmax on the vector file (section 5.4)
  Hybrid, ///< both files plus movd transfers (section 5.4's hybrid remark:
          ///< "such kernels require additional instructions that transfer
          ///< the values between both register files which makes them not
          ///< competitive") — n = 3 only (2n+2 registers must fit the
          ///< packed encoding)
};

/// The register machine for a fixed array length.
class Machine {
public:
  /// Creates a machine over \p N values with \p Scratch scratch registers
  /// (the paper uses 1 throughout) and objective \p Goal (default: the
  /// paper's full-sort goal). Requires N <= 6 and N + Scratch <= 8. For
  /// Hybrid machines the register file doubles (general-purpose registers
  /// 0..n+Scratch-1, vector registers n+Scratch..2(n+Scratch)-1) and
  /// 2(N + Scratch) must fit 8 registers.
  Machine(MachineKind Kind, unsigned N, unsigned Scratch = 1,
          GoalSpec Goal = GoalSpec::sort());

  /// Hybrid machines only: \returns true if register \p Reg belongs to
  /// the vector file.
  bool isVectorReg(unsigned Reg) const {
    return Kind == MachineKind::Hybrid && Reg >= N + Scratch;
  }

  MachineKind kind() const { return Kind; }
  /// Number of values to sort (array length n).
  unsigned numData() const { return N; }
  /// Number of scratch registers m.
  unsigned numScratch() const { return Scratch; }
  /// Total registers R = n + m.
  unsigned numRegs() const { return R; }
  /// Number of representable register values (0..n).
  unsigned numValues() const { return N + 1; }

  /// The instruction alphabet after the paper's section 3.2 restriction:
  /// cmp only with first operand index < second operand index; no
  /// register compared/moved to itself.
  const std::vector<Instr> &instructions() const { return Instrs; }

  /// Executes one instruction on a packed row.
  uint32_t apply(uint32_t Row, Instr I) const {
    switch (I.Op) {
    case Opcode::Mov:
      return setReg(Row, I.Dst, getReg(Row, I.Src));
    case Opcode::Cmp: {
      uint32_t A = getReg(Row, I.Dst), B = getReg(Row, I.Src);
      Row &= ~FlagMask;
      if (A < B)
        Row |= FlagLT;
      else if (A > B)
        Row |= FlagGT;
      return Row;
    }
    case Opcode::CMovL:
      return (Row & FlagLT) ? setReg(Row, I.Dst, getReg(Row, I.Src)) : Row;
    case Opcode::CMovG:
      return (Row & FlagGT) ? setReg(Row, I.Dst, getReg(Row, I.Src)) : Row;
    case Opcode::Min: {
      uint32_t D = getReg(Row, I.Dst), S = getReg(Row, I.Src);
      return setReg(Row, I.Dst, D < S ? D : S);
    }
    case Opcode::Max: {
      uint32_t D = getReg(Row, I.Dst), S = getReg(Row, I.Src);
      return setReg(Row, I.Dst, D > S ? D : S);
    }
    }
    assert(false && "unknown opcode");
    return Row;
  }

  /// Executes a whole program on a packed row.
  uint32_t run(uint32_t Row, const Program &P) const {
    for (const Instr &I : P)
      Row = apply(Row, I);
    return Row;
  }

  /// \returns true if the data registers hold 1..n in order (flags and
  /// scratch are ignored). This is the sort goal's acceptance test,
  /// independent of the machine's configured goal.
  bool isSorted(uint32_t Row) const {
    return (Row & DataMask) == SortedRow;
  }

  /// \returns true if \p Row satisfies the machine's goal predicate:
  /// every goal-pinned data register j holds value j+1. For the sort goal
  /// this is exactly isSorted.
  bool accepts(uint32_t Row) const {
    return (Row & GoalMask) == GoalPattern;
  }

  /// The machine's objective.
  const GoalSpec &goal() const { return Goal; }
  /// Mask selecting the goal-pinned data registers of a packed row
  /// (DataMask for the sort goal).
  uint32_t goalMask() const { return GoalMask; }
  /// The required packed values of the pinned registers (SortedRow for the
  /// sort goal). accepts() is (Row & GoalMask) == GoalPattern.
  uint32_t goalPattern() const { return GoalPattern; }
  /// Bitmask over values: bit v set when some pinned register must end
  /// holding v, i.e. erasing v from every register of a row makes the row
  /// a dead end (the section 3.3 viability check's value set). For the
  /// sort goal, every value 1..n.
  uint32_t requiredValueMask() const { return RequiredValues; }

  /// Mask selecting the data registers r1..rn of a packed row.
  uint32_t dataMask() const { return DataMask; }
  /// Mask selecting all registers (data + scratch), without flags.
  uint32_t regMask() const { return AllRegMask; }

  /// Packs an initial row: data registers from \p Values (size n, values
  /// 1..n), scratch registers 0, flags clear.
  uint32_t packInitial(std::span<const int> Values) const;
  /// Same, for a braced list of values.
  uint32_t packInitial(std::initializer_list<int> Values) const {
    return packInitial(std::span<const int>(Values.begin(), Values.size()));
  }

  /// Packed initial rows for all n! permutations of 1..n, lexicographic.
  std::vector<uint32_t> initialRows() const;

  /// \returns the number of instructions in the UNRESTRICTED alphabet,
  /// 4 * R^2 for cmov and 3 * R^2 for min/max; used for the section 5.1
  /// program-space table.
  unsigned unrestrictedAlphabetSize() const;

private:
  MachineKind Kind;
  unsigned N;
  unsigned Scratch;
  unsigned R;
  uint32_t DataMask;
  uint32_t AllRegMask;
  uint32_t SortedRow;
  GoalSpec Goal;
  uint32_t GoalMask;
  uint32_t GoalPattern;
  uint32_t RequiredValues;
  std::vector<Instr> Instrs;
};

} // namespace sks

#endif // SKS_MACHINE_MACHINE_H
