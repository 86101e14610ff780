//===- state/SearchState.h - Canonical synthesis search states -*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A search state is the set of register assignments reached by executing
/// the partial program on every input permutation simultaneously (paper
/// section 3). The canonical form sorts the packed rows lexicographically
/// and removes duplicates (section 3.6): two partial programs that map to
/// the same canonical state behave identically on all remaining inputs, so
/// only one representative is expanded.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_STATE_SEARCHSTATE_H
#define SKS_STATE_SEARCHSTATE_H

#include "machine/Machine.h"
#include "state/Canonicalize.h"
#include "support/Hashing.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace sks {

/// Canonical set-of-rows search state.
struct SearchState {
  /// Sorted, deduplicated packed rows.
  std::vector<uint32_t> Rows;

  friend bool operator==(const SearchState &A, const SearchState &B) {
    return A.Rows == B.Rows;
  }

  uint64_t hash() const { return hashWords(Rows.data(), Rows.size()); }
};

/// Sorts \p Rows and removes duplicates in place, through the vectorized
/// primitive (state/Canonicalize.h).
inline void canonicalizeRows(std::vector<uint32_t> &Rows) {
  Rows.resize(canonicalizeRows(Rows.data(),
                               static_cast<uint32_t>(Rows.size())));
}

/// Builds the canonical initial state: one row per permutation of 1..n.
SearchState initialState(const Machine &M);

/// Applies \p I to every row and re-canonicalizes into \p Out (Out may not
/// alias \p In.Rows).
void applyToState(const Machine &M, const SearchState &In, Instr I,
                  std::vector<uint32_t> &Out);

/// Counts the distinct projections of \p Rows[0..Len): each row maps to
/// P = Row & Mask, and then to CollapsePattern when (P & CollapseMask) ==
/// CollapsePattern. \p Mask may select any register fields, holes
/// included (permCountWithout drops one register); every projection is a
/// submask of it, so P <= Mask. \p CollapsePattern must lie inside \p
/// Mask. \p Bitmap is the caller's scratch of one bit per value 0..Mask,
/// (Mask >> 6) + 1 words: the call grows it to at least that size, sets
/// each row's bit, counts the newly set ones, and clears only the words it
/// touched, so it holds all zeros between calls and any mask may share it.
inline unsigned countDistinctProjections(const uint32_t *Rows, size_t Len,
                                         uint32_t Mask, uint32_t CollapseMask,
                                         uint32_t CollapsePattern,
                                         std::vector<uint64_t> &Bitmap) {
  assert((CollapsePattern & ~Mask) == 0 && "the pattern is a projection");
  const size_t Words = (Mask >> 6) + 1;
  if (Bitmap.size() < Words)
    Bitmap.resize(Words);
  uint64_t *Bits = Bitmap.data();
  unsigned Count = 0;
  for (size_t I = 0; I != Len; ++I) {
    uint32_t P = Rows[I] & Mask;
    if ((P & CollapseMask) == CollapsePattern)
      P = CollapsePattern;
    const uint64_t Bit = uint64_t(1) << (P & 63u);
    Count += (Bits[P >> 6] & Bit) == 0;
    Bits[P >> 6] |= Bit;
  }
  // A touched word holds either an uncollapsed projection or the pattern.
  for (size_t I = 0; I != Len; ++I)
    Bits[(Rows[I] & Mask) >> 6] = 0;
  Bits[CollapsePattern >> 6] = 0;
  return Count;
}

/// The paper's "number of distinct permutations" (section 3.1/3.5), read
/// by the PermCount heuristic and the cut: distinct data-register
/// projections, ignoring scratch and flags, with every projection the goal
/// accepts counted once — rows that already satisfy the goal need no
/// further discrimination. The collapse target is the goal pattern itself
/// (an accepting projection), and for the sort goal the only accepting
/// projection is the sorted row, so the collapse is the identity there.
inline unsigned permCount(const Machine &M, const uint32_t *Rows, size_t Len,
                          std::vector<uint64_t> &Bitmap) {
  return countDistinctProjections(Rows, Len, M.dataMask(), M.goalMask(),
                                  M.goalPattern(), Bitmap);
}

/// permCount over the data registers without \p Reg, under the goal's
/// collapse with Reg's pin dropped: a lower bound on the permCount of every
/// child an instruction writing data register \p Reg (and no other) makes
/// from \p Rows. A child row agrees with its parent row off Reg, so
/// dropping Reg from a child's projection gives the parent's; and a child
/// projection the goal accepts is accepted with Reg's pin dropped too, so
/// each of the child's collapsed projections maps to one of these, and
/// every one of these is hit. The pin must go: where the goal pins Reg, a
/// kept pin never matches a projection without Reg, so no row would
/// collapse, and a goal that accepts several projections (select-k, top-k,
/// partial sort) would get a count above the child's (DESIGN.md section
/// 14.1).
inline unsigned permCountWithout(const Machine &M, const uint32_t *Rows,
                                 size_t Len, unsigned Reg,
                                 std::vector<uint64_t> &Bitmap) {
  assert(Reg < M.numData() && "a data register");
  const uint32_t Keep = ~(7u << (3 * Reg));
  return countDistinctProjections(Rows, Len, M.dataMask() & Keep,
                                  M.goalMask() & Keep, M.goalPattern() & Keep,
                                  Bitmap);
}

/// The "number of distinct register assignments": distinct full-register
/// projections, ignoring only flags (section 3.1, second heuristic). A
/// collapse mask equal to the mask makes the collapse the identity.
inline unsigned assignCount(const Machine &M, const uint32_t *Rows,
                            size_t Len, std::vector<uint64_t> &Bitmap) {
  return countDistinctProjections(Rows, Len, M.regMask(), M.regMask(), 0,
                                  Bitmap);
}

/// permCount and assignCount of a whole state, on a bitmap of their own.
unsigned permCount(const Machine &M, const SearchState &S);
unsigned assignCount(const Machine &M, const SearchState &S);

/// \returns true if every row of \p S satisfies the machine's goal
/// (sortedness for the sort goal — hence the historical name).
bool allSorted(const Machine &M, const SearchState &S);

} // namespace sks

#endif // SKS_STATE_SEARCHSTATE_H
