//===- analysis/Symmetry.h - Scratch-register renaming ----------*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Program-level register renaming, behind the sks-lint rule
/// non-canonical-registers. Two kernels that differ only by a permutation
/// of the scratch registers compute the same function: every completion of
/// one renames instruction by instruction into the other, with identical
/// length. Data registers are never renamed, because the goal constrains
/// them by position. Scratch registers never cross register files, because
/// the alphabet is file-restricted.
///
/// A renamed cmp whose operands come out in descending index order is
/// written swapped to stay in the alphabet (section 3.2's cmp-operand
/// symmetry); its flags then read swapped, so every conditional move that
/// reads them flips direction. The flag parity is therefore forced by the
/// program text, and the group is the m! scratch permutations alone.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_ANALYSIS_SYMMETRY_H
#define SKS_ANALYSIS_SYMMETRY_H

#include "isa/Instr.h"

namespace sks {

/// Program-level canonical renaming (the sks-lint rule
/// non-canonical-registers). Considers permutations of the scratch
/// registers [NumData, NumRegs) — NumRegs inferred from the highest
/// register the program touches — renames the whole program by each
/// (cmp operands re-normalized, conditional moves flipped through the
/// forced parity), and picks the encoded-lexicographically-least result.
/// Every m = 1 kernel is trivially canonical. Mixed-file (hybrid) programs
/// are skipped (returned unchanged): the file split is not recoverable
/// from the text alone.
/// \returns the canonical program (== \p P when already canonical).
Program canonicalProgram(const Program &P, unsigned NumData);

/// \returns true when \p P equals its canonicalProgram().
bool isCanonicalProgram(const Program &P, unsigned NumData);

} // namespace sks

#endif // SKS_ANALYSIS_SYMMETRY_H
