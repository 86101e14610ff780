//===- analysis/OrderDomain.h - Order-relation abstract domain -*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An abstract domain for the section 2.2 machine model that tracks, over
/// EVERY execution of a program prefix (all n! input permutations at once),
///
///  - per register, the may-set of symbolic values it can hold: the input
///    symbols x1..xn (x_i = the initial content of data register i) and Z
///    (the zero every scratch register starts with), and
///  - a transitively closed <=-relation over 16 "slots" — the 8 registers
///    plus one pseudo-slot per symbol — recording which value orderings are
///    PROVEN by the comparisons and min/max folds the prefix has executed
///    (Codish et al.'s known-partial-order pruning, generalized to the
///    register machine).
///
/// Flags are abstracted as the set of still-possible outcomes {LT, GT, EQ}
/// of the latest cmp, plus the compared register pair while neither
/// operand has been overwritten; a conditional move refines the relation
/// along its taken branch (cmovl fires => a < b) and untaken branch
/// (cmovl idle => b <= a) and joins the two, so order facts survive the
/// classic "cmp; cmovl; cmovg" min/max idiom.
///
/// Every fact the state claims is a true statement about the CONCRETE rows
/// the prefix reaches (randomized abstract-vs-concrete agreement of the
/// facts and of provablyRedundant() is asserted in tests/AnalysisTest.cpp).
/// That makes provablyRedundant() a sound oracle for sks-lint's semantic
/// rules (analysis/AbstractInterp.h), which run it on finished kernels:
///
///  - a provable no-op (mov/cmov of an equal value, a cmov whose flag
///    outcome is impossible, a pmin/pmax whose result is already in the
///    destination) maps every row to itself;
///  - a cmp whose outcome is order-determined contributes no information:
///    the cmp and every conditional move reading it can be rewritten into
///    plain movs and no-ops, strictly shortening the program, so no
///    minimal kernel contains one.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_ANALYSIS_ORDERDOMAIN_H
#define SKS_ANALYSIS_ORDERDOMAIN_H

#include "isa/Instr.h"

#include <array>
#include <cstdint>

namespace sks {

/// The abstract state: 48 bytes, trivially copyable, no heap. Slots 0..7
/// are the registers; slot kSymBase + s is symbol s, where symbol 0 is Z
/// (the scratch zero) and symbol i >= 1 is x_i.
class OrderState {
public:
  static constexpr unsigned kNumSlots = 16;
  static constexpr unsigned kSymBase = kMaxRegs;
  /// Possible cmp/flag outcomes (bitmask values).
  static constexpr uint8_t kLt = 1, kGt = 2, kEq = 4;

  /// The state before any instruction: data register i holds exactly x_i+1,
  /// every other register holds exactly Z, Z <= every input symbol, and the
  /// flags are clear (only the EQ outcome is possible, so a conditional
  /// move in a cmp-free prefix is provably dead).
  static OrderState entry(unsigned NumData);

  /// Abstract transfer: the state after executing \p I.
  OrderState extended(Instr I) const;

  /// Conservative merge over the two branches of a conditional move:
  /// may-sets union, proven orderings intersect, possible flag outcomes
  /// union, and the tracked cmp pair survives only when both sides agree
  /// on it. Bitwise AND/OR throughout, so meets commute and associate.
  void meet(const OrderState &Other);

  /// \returns true when val(\p A) <= val(\p B) is proven for every
  /// execution; \p A and \p B are slot indices (registers 0..7, symbols
  /// kSymBase..).
  bool leq(unsigned A, unsigned B) const { return (Leq[A] >> B) & 1u; }

  /// \returns true when the two slots provably hold equal values.
  bool provablyEqual(unsigned A, unsigned B) const {
    return leq(A, B) && leq(B, A);
  }

  /// \returns the bitmask of outcomes `cmp A, B` could produce (kLt set
  /// unless B <= A is proven, kGt unless A <= B, kEq unless the may-sets
  /// are disjoint — symbols denote pairwise-distinct values, so disjoint
  /// may-sets prove inequality).
  uint8_t cmpOutcomes(unsigned A, unsigned B) const;

  /// \returns the bitmask of flag states possible right now (kEq = both
  /// flags clear).
  uint8_t flagOutcomes() const { return FlagOut; }

  /// \returns the may-set of symbols register \p Reg can hold (bit s =
  /// symbol s).
  uint8_t valueSet(unsigned Reg) const { return Vals[Reg]; }

  /// The semantic lint oracle: true when appending \p I is a provable
  /// no-op on every row (mov/cmov of an equal value, cmov whose flag
  /// outcome is impossible, pmin/pmax with src ⊒/⊑ dst) or a cmp whose
  /// outcome is fully order-determined. See the file comment for why
  /// either makes the instruction removable. O(1).
  bool provablyRedundant(Instr I) const {
    switch (I.Op) {
    case Opcode::Mov:
      return provablyEqual(I.Dst, I.Src);
    case Opcode::Cmp: {
      uint8_t Out = cmpOutcomes(I.Dst, I.Src);
      return (Out & (Out - 1)) == 0; // At most one possible outcome.
    }
    case Opcode::CMovL:
      return (FlagOut & kLt) == 0 || provablyEqual(I.Dst, I.Src);
    case Opcode::CMovG:
      return (FlagOut & kGt) == 0 || provablyEqual(I.Dst, I.Src);
    case Opcode::Min:
      // min(d, s) == d whenever d <= s. (d's value provably survives; the
      // symmetric "acts like mov" case s <= d is NOT a no-op and NOT
      // pruned — it writes s's value, a distinct program same length.)
      return leq(I.Dst, I.Src);
    case Opcode::Max:
      return leq(I.Src, I.Dst);
    }
    return false;
  }

private:
  /// val(D) := val(S): D becomes order-equal to S and inherits its
  /// may-set. Rows/columns copy exactly, so closure is preserved.
  void assign(unsigned D, unsigned S);
  /// General pmin/pmax fold when neither order is proven: may-sets union;
  /// for min, t <= d' iff t <= d and t <= s, and d' <= t whenever d <= t
  /// or s <= t (min is one of the two); dually for max.
  void fold(unsigned D, unsigned S, bool IsMin);
  /// Adds the proven fact val(A) <= val(B) and re-closes.
  void addLeqEdge(unsigned A, unsigned B);
  /// Floyd-Warshall boolean transitive closure over the 16x16 bitmatrix.
  void close();
  /// Drops the tracked cmp operand pair when \p Reg is one of its
  /// operands: the flags then no longer describe the CURRENT register
  /// values, so later conditional moves must not refine through them.
  void invalidatePairOn(unsigned Reg) {
    if (PairValid && (Reg == FlagA || Reg == FlagB)) {
      PairValid = false;
      FlagA = FlagB = 0;
    }
  }

  /// Row r, bit c: val(slot r) <= val(slot c) proven. Reflexive and
  /// transitively closed.
  std::array<uint16_t, kNumSlots> Leq{};
  /// Per register, the may-set of symbols (bit 0 = Z, bit i = x_i).
  std::array<uint8_t, kMaxRegs> Vals{};
  uint8_t FlagOut = kEq;
  uint8_t FlagA = 0, FlagB = 0;
  bool PairValid = false;
};

} // namespace sks

#endif // SKS_ANALYSIS_ORDERDOMAIN_H
