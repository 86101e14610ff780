//===- lint/PrefixLint.h - Incremental prefix dataflow summary -*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The O(1)-amortized incremental half of the linter: a tiny dataflow
/// summary of a program PREFIX that both enumerative engines carry on
/// every node. killsPrefix(I) decides, from the summary alone, that
/// appending I provably plants a dead instruction in EVERY completion of
/// the prefix — and a minimal kernel can never contain a dead instruction
/// (removing it would yield an equally correct, strictly shorter kernel).
/// The engines' one expansion gate (search/Expansion.h) therefore refuses
/// such expansions before applying them; the optimal-solution counts it
/// must keep are pinned in LintTest.cpp. The engines ask for the refusals
/// of a whole node at once: refused() gives them as a union of the
/// machine's instruction classes (isa/InstrSet.h), a few word operations
/// per node. killsPrefix stays the one-instruction definition, and
/// LintTest.cpp checks refused() against it bit for bit.
///
/// The facts tracked are suffix-independent:
///
///  - PendingWrites: registers whose latest (possibly conditional) write
///    has not been read. "mov d, s" is the only instruction that
///    overwrites its destination without reading it, so appending it while
///    d is pending makes the pending writer unobservable forever.
///  - PendingCmp: a cmp whose flags no conditional move has read.
///    Appending another cmp clobbers them for good.
///  - AnyCmp: whether any cmp has executed. The machine clears the flags
///    at entry and only cmp sets them, so a conditional move in a
///    cmp-free prefix can never fire.
///  - The previous instruction: every non-cmp opcode of both machine
///    models is idempotent (mov/movdqa, cmovl/cmovg under unchanged flags,
///    pmin/pmax), so an immediate repeat is a no-op.
///
/// In the search, one canonical state stands for MANY prefix programs and
/// the summary is program-dependent, so nodes meet() the summaries of all
/// merged prefixes: prune-enabling facts combine conservatively (a prune
/// fires only when the fact holds for every program in the node, hence
/// every pruned program really does carry a dead instruction).
///
//===----------------------------------------------------------------------===//

#ifndef SKS_LINT_PREFIXLINT_H
#define SKS_LINT_PREFIXLINT_H

#include "isa/InstrSet.h"
#include "lint/Dataflow.h"

namespace sks {

/// Mergeable dataflow summary of a program prefix (8 bytes, POD).
class PrefixLint {
public:
  /// The summary of the empty program.
  static PrefixLint entry() { return PrefixLint(); }

  /// \returns the summary of the prefix extended by \p I.
  PrefixLint extended(Instr I) const {
    PrefixLint Next = *this;
    InstrEffects E = instrEffects(I);
    Next.PendingWrites &= static_cast<uint16_t>(~E.Reads);
    if (E.Reads & LintFlagBits)
      Next.PendingCmp = false;
    Next.PendingWrites |= static_cast<uint16_t>(E.Writes & ~LintFlagBits);
    if (I.Op == Opcode::Cmp) {
      Next.PendingCmp = true;
      Next.AnyCmp = true;
    }
    Next.LastInstr = I.encode();
    return Next;
  }

  /// Conservative meet over all programs reaching one canonical search
  /// state: keep a prune-enabling fact only when every program has it.
  void meet(const PrefixLint &Other) {
    PendingWrites &= Other.PendingWrites;
    PendingCmp &= Other.PendingCmp;
    AnyCmp |= Other.AnyCmp;
    if (LastInstr != Other.LastInstr)
      LastInstr = kNoInstr;
  }

  /// \returns true when appending \p I provably makes some instruction of
  /// every completion dead (see file comment for the case analysis).
  bool killsPrefix(Instr I) const {
    // A self-addressed instruction is a no-op (mov/pmin/pmax/cmov) or
    // pins the flags to "equal" so no later cmov can fire (cmp).
    if (I.Dst == I.Src)
      return true;
    switch (I.Op) {
    case Opcode::Cmp:
      // The previous cmp's flags die unread.
      return PendingCmp;
    case Opcode::Mov:
      // The destination's pending write dies unread.
      return (PendingWrites & lintRegBit(I.Dst)) != 0;
    case Opcode::CMovL:
    case Opcode::CMovG:
      // No cmp has run: the flags are still clear and the move is dead.
      if (!AnyCmp)
        return true;
      break;
    case Opcode::Min:
    case Opcode::Max:
      break;
    }
    // Idempotent immediate repeat (non-cmp opcodes only; a repeated cmp is
    // already caught by PendingCmp above).
    return LastInstr == I.encode();
  }

  /// \returns the alphabet indices of \p C whose instructions killsPrefix
  /// refuses, as one set.
  InstrSet refused(const InstrClasses &C) const {
    InstrSet Out;
    if (PendingCmp)
      Out |= C.Cmps;
    if (!AnyCmp)
      Out |= C.CMovs;
    for (uint16_t W = PendingWrites; W != 0; W &= W - 1)
      Out |= C.MovsInto[std::countr_zero(W)];
    // The immediate repeat of a cmov, pmin or pmax; killsPrefix decides a
    // repeated mov or cmp by its own rule above.
    if (LastInstr != kNoInstr) {
      const Opcode LastOp = static_cast<Opcode>(LastInstr >> 6);
      const size_t K = C.indexOf(LastInstr);
      if (LastOp != Opcode::Mov && LastOp != Opcode::Cmp &&
          K != InstrClasses::kNotInAlphabet)
        Out.insert(K);
    }
    return Out;
  }

private:
  static constexpr uint16_t kNoInstr = 0xFFFF;

  uint16_t PendingWrites = 0;
  uint16_t LastInstr = kNoInstr;
  bool PendingCmp = false;
  bool AnyCmp = false;
};

} // namespace sks

#endif // SKS_LINT_PREFIXLINT_H
