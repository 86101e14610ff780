//===- tables/DistanceTable.h - Exact per-assignment distances -*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper precomputes, for every single register assignment, the length
/// of the shortest program that sorts it (section 3.1, third heuristic).
/// Generalized over the machine's goal: the table stores the distance to
/// the nearest *accepting* assignment (machine/Goal.h), which for the sort
/// goal is exactly distance-to-sorted. This table powers three of the
/// search optimizations:
///
///  - an admissible A* heuristic: the maximum of the per-row distances in a
///    state lower-bounds the remaining program length;
///  - the viability check (section 3.3): a state in which some row cannot
///    be sorted within the remaining budget — including rows where a value
///    was erased, whose distance is infinite — can be pruned;
///  - the "optimal instructions" action filter (section 3.2): only expand
///    instructions that start an optimal completion for at least one row.
///
/// The table is computed by one backward breadth-first search from all
/// accepting assignments over the inverse transition relation, covering the
/// complete single-assignment space (values 0..n in each of the R
/// registers, times the three flag states for the cmov machine). It is
/// directly indexed by the packed-row bits, so lookups are a single load.
///
/// The successor block answers the last two questions for a whole state
/// before any child is built. For every reachable register assignment and
/// every instruction of Machine::instructions() it stores the distance
/// after the instruction *fires*: a cmov entry holds its mov child's
/// distance, a cmp entry the row's own distance. A single row is sorted
/// fastest by plain moves, so distances do not depend on the flags and the
/// block needs no flag dimension; foldSuccessors() reduces a state's rows
/// into one max per flag class (none / lt / gt) and folds the classes per
/// instruction, giving every child's maxDist from one pass over the parent.
/// The block is indexed through a mixed-radix rank over the values 0..n
/// (a uint16 row number per assignment, row 0 shared by the unreachable
/// ones). Block plus index, against the distance array:
///
///   machine       block + index   distance array
///   cmov n=3           3.4 KB          12 KB
///   cmov n=4            35 KB          98 KB
///   cmov n=5           376 KB         786 KB
///   cmov n=6           4.9 MB         6.3 MB
///   min/max n=4         29 KB          33 KB
///   hybrid n=3         4.7 MB          50 MB
///
/// A machine whose block would outgrow its distance array builds none,
/// and hasSuccessors() is false: min/max sort from n = 5 on, and most
/// goals that leave a data register unpinned (all of them on min/max, on
/// cmov from n = 4 on), whose free registers multiply the reachable
/// assignments. Its search applies each admitted instruction first and
/// reads the child's maxDist off the applied rows (search/Expansion.h);
/// foldSuccessors() there applies every instruction to the rows, which
/// only the action filter asks for.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_TABLES_DISTANCETABLE_H
#define SKS_TABLES_DISTANCETABLE_H

#include "machine/Machine.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sks {

/// Per-worker output and scratch of DistanceTable::foldSuccessors, reused
/// from node to node so the expansion loop does not allocate.
struct SuccessorFold {
  /// Needed[K]: max over the rows of dist(apply(Row, instructions()[K])),
  /// Unreachable when some child row is.
  std::vector<uint8_t> Needed;
  /// Optimal[K]: nonzero when instruction K is optimal on some row; only
  /// filled on request.
  std::vector<uint8_t> Optimal;
  /// Per-flag-class accumulators: maxima, then optimal-progress marks.
  std::vector<uint8_t> Acc;
  /// Rows transformed by foldByApply on machines without a block (the
  /// action filter's marks).
  std::vector<uint32_t> Applied;
};

/// Exact distance-to-accepting for every single register assignment.
class DistanceTable {
public:
  /// Distance value for assignments from which no accepting state is
  /// reachable (e.g. a goal-required value was erased from all registers).
  static constexpr uint8_t Unreachable = 0xff;

  /// Builds the table with a backward BFS; cost is proportional to the
  /// single-assignment space, at most (n+1)^R * 3 states.
  /// For Hybrid machines the table is a sound (possibly slightly loose)
  /// lower bound: predecessor generation allows compares between any
  /// register pair, which only shrinks distances and therefore preserves
  /// admissibility of the heuristic and soundness of the viability check.
  explicit DistanceTable(const Machine &M);

  /// \returns the exact length of the shortest program taking \p Row to an
  /// accepting assignment, or Unreachable.
  uint8_t dist(uint32_t Row) const { return Dist[indexOf(Row)]; }

  /// \returns the maximum dist() over \p Rows[0..Len) — an admissible lower
  /// bound on the instructions still needed (Unreachable if any row is).
  uint8_t maxDist(const uint32_t *Rows, size_t Len) const {
    uint8_t Max = 0;
    for (size_t I = 0; I != Len; ++I) {
      uint8_t D = dist(Rows[I]);
      if (D == Unreachable)
        return Unreachable;
      if (D > Max)
        Max = D;
    }
    return Max;
  }
  uint8_t maxDist(const std::vector<uint32_t> &Rows) const {
    return maxDist(Rows.data(), Rows.size());
  }

  /// Folds the successor rows of the state \p Rows[0..Len) (values 0..n
  /// in every register, at most one flag) into \p F, indexed like
  /// Machine::instructions(). F.Needed[K] is the maxDist of the child that
  /// instruction K produces, read without applying it. With
  /// \p WantOptimal, F.Optimal[K] is nonzero exactly when K makes optimal
  /// progress on some row (section 3.2): the row's distance is neither 0
  /// nor Unreachable and K's child row is one closer. Thread-safe; \p F is
  /// per-worker scratch.
  void foldSuccessors(const uint32_t *Rows, size_t Len, bool WantOptimal,
                      SuccessorFold &F) const;

  /// True when the machine has a successor block (see the file comment),
  /// so foldSuccessors() costs one pass over the rows.
  bool hasSuccessors() const { return !Succ.empty(); }

  /// Number of reachable (finite-distance) assignments; exposed for tests.
  size_t numReachable() const { return Reachable; }

  /// Bytes of the distance array.
  size_t tableBytes() const { return Dist.size(); }
  /// Bytes of the successor block and its index; 0 when the machine has
  /// no block (see the file comment).
  size_t successorBytes() const {
    return Succ.size() + SuccIndex.size() * sizeof(uint16_t);
  }

private:
  size_t indexOf(uint32_t Row) const {
    // Register payload bits are contiguous at the bottom; flags (bits
    // 28/29) fold into a factor-of-3 stride for the cmov machine.
    uint32_t Regs = Row & M.regMask();
    if (!HasFlags)
      return Regs;
    return static_cast<size_t>(Regs) * 3 + ((Row >> 28) & 3u);
  }
  /// Mixed-radix rank of \p Row's registers over the values 0..n.
  size_t rankOf(uint32_t Row) const {
    size_t Rank = 0;
    for (unsigned Reg = M.numRegs(); Reg-- != 0;)
      Rank = Rank * M.numValues() + getReg(Row, Reg);
    return Rank;
  }
  void buildSuccessors();
  void foldByApply(const uint32_t *Rows, size_t Len, bool WantOptimal,
                   SuccessorFold &F) const;

  const Machine &M;
  bool HasFlags;
  size_t Reachable = 0;
  std::vector<uint8_t> Dist;
  /// Bytes per successor row: one per instruction, then the own distance
  /// at OwnSlot, zero-padded to a multiple of 16 for the SSE2 fold.
  size_t OwnSlot = 0;
  size_t Stride = 0;
  /// Per flag class (none, lt, gt), 0xff at the instructions that fire
  /// on rows of that class (a cmovl only on lt rows, a cmovg only on gt).
  std::vector<uint8_t> Fires;
  std::vector<uint8_t> Succ;
  std::vector<uint16_t> SuccIndex;
};

} // namespace sks

#endif // SKS_TABLES_DISTANCETABLE_H
