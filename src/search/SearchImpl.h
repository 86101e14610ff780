//===- search/SearchImpl.h - Shared search internals -----------*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal helpers shared by the best-first and layered engines: heuristic
/// evaluation, the section 3.5 cut tracker, the action filter and the
/// budget check. Not part of the public API.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_SEARCH_SEARCHIMPL_H
#define SKS_SEARCH_SEARCHIMPL_H

#include "search/Search.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sks {
namespace detail {

/// Evaluates the configured section 3.1 heuristic.
class HeuristicEval {
public:
  HeuristicEval(const Machine &M, const SearchOptions &Opts,
                const DistanceTable *DT)
      : M(M), DT(DT), Kind(Opts.Heuristic) {}

  /// \p Bitmap is the distinct counter's scratch (countDistinctProjections).
  double operator()(const uint32_t *Rows, size_t Len,
                    std::vector<uint64_t> &Bitmap) const {
    switch (Kind) {
    case HeuristicKind::None:
      return 0;
    case HeuristicKind::PermCount:
      return permCount(M, Rows, Len, Bitmap) - 1;
    case HeuristicKind::AssignCount:
      return assignCount(M, Rows, Len, Bitmap) - 1;
    case HeuristicKind::NeededInstrs:
      return DT->maxDist(Rows, Len);
    }
    return 0;
  }
  double operator()(const std::vector<uint32_t> &Rows,
                    std::vector<uint64_t> &Bitmap) const {
    return (*this)(Rows.data(), Rows.size(), Bitmap);
  }

private:
  const Machine &M;
  const DistanceTable *DT;
  HeuristicKind Kind;
};

/// Tracks the per-length minimum distinct-permutation count and implements
/// the section 3.5 discard test: a state of length L is discarded when its
/// permutation count exceeds the cut bound derived from the best state of
/// length L-1. The test is monotone in the count, so it is one integer
/// threshold per length (maxKept). The expansion pipeline reads it once
/// per node and compares counts, or lower bounds on them, against it; the
/// engines observe only after a node's expansion (best-first) or a whole
/// level's (layered), so the threshold is fixed while a node expands.
class CutTracker {
public:
  /// maxKept's value when nothing is cut.
  static constexpr unsigned KeepAll = std::numeric_limits<unsigned>::max();

  explicit CutTracker(const CutConfig &Cut) : Cut(Cut) {}

  /// Records a surviving state of length \p Length.
  void observe(unsigned Length, unsigned PermCount) {
    if (Length >= MinPerm.size())
      MinPerm.resize(size_t(Length) + 1, 0);
    unsigned &Slot = MinPerm[Length];
    if (Slot == 0 || PermCount < Slot)
      Slot = PermCount;
  }

  /// \returns the largest permutation count a state of length \p Length
  /// keeps: one with a count above it is discarded. Saturates at KeepAll,
  /// which keeps every count, when the cut is off, at the root, before
  /// any state of the previous length is recorded, and when the bound
  /// k * min or min + c passes the range of unsigned. State counts are at
  /// least 1, so 0 (a negative k) discards every state.
  unsigned maxKept(unsigned Length) const {
    if (Cut.Mode == CutConfig::Kind::None || Length == 0 ||
        Length > MinPerm.size())
      return KeepAll;
    const unsigned PrevMin = MinPerm[Length - 1];
    if (PrevMin == 0)
      return KeepAll; // No state of the previous length recorded yet.
    if (Cut.Mode == CutConfig::Kind::Additive)
      return static_cast<unsigned>(std::min<uint64_t>(
          uint64_t(PrevMin) + Cut.Offset, KeepAll));
    // An integer P passes !(P > Bound) exactly when P <= floor(Bound); a
    // NaN bound cuts nothing.
    const double Bound = Cut.Factor * PrevMin;
    if (!(Bound < KeepAll))
      return KeepAll;
    return Bound < 0 ? 0 : static_cast<unsigned>(Bound);
  }

private:
  CutConfig Cut;
  /// Per length, the least count observed; 0 = none yet. Grows on
  /// observe, so no length bound sizes it.
  std::vector<unsigned> MinPerm;
};

/// The section 3.2 "optimal instructions" filter, on the marks of
/// DistanceTable::foldSuccessors: \p Optimal[K] is nonzero when
/// instruction K of M.instructions() makes optimal per-assignment progress
/// on at least one row it fires on. Moves and conditional moves keep their
/// mark. Comparisons never lie on a shortest single-assignment program (an
/// individual assignment is always sorted fastest by unconditional moves),
/// so the literal per-assignment rule would discard every cmp and dead-end
/// the search; we keep a cmp exactly when the compared register pair is
/// still unresolved — both orders occur among the rows — which is the only
/// situation in which its flags can discriminate inputs. \returns the
/// instructions to expand.
inline InstrSet selectActions(const Machine &M, const uint32_t *Rows,
                              size_t Len, const uint8_t *Optimal) {
  const std::vector<Instr> &All = M.instructions();
  InstrSet Kept;
  for (size_t K = 0; K != All.size(); ++K) {
    const Instr &I = All[K];
    bool Keep = Optimal[K] != 0;
    if (I.Op == Opcode::Cmp) {
      bool SeenLess = false, SeenGreater = false;
      for (size_t R = 0; R != Len; ++R) {
        uint32_t A = getReg(Rows[R], I.Dst), B = getReg(Rows[R], I.Src);
        SeenLess |= A < B;
        SeenGreater |= A > B;
        if (SeenLess && SeenGreater)
          break;
      }
      Keep = SeenLess && SeenGreater;
    }
    if (Keep)
      Kept.insert(K);
  }
  return Kept;
}

/// The one budget check of both engines: the stop token (deadline first,
/// then cancellation), then Opts.MaxStateBytes over \p Bytes resident
/// bytes. \returns why the run must stop, or StopReason::None.
inline StopReason overBudget(const SearchOptions &Opts, size_t Bytes) {
  if (Opts.Stop.stopRequested())
    return Opts.Stop.deadlineExpired() ? StopReason::Deadline
                                       : StopReason::Cancelled;
  if (Opts.MaxStateBytes > 0 && Bytes > Opts.MaxStateBytes)
    return StopReason::ByteBudget;
  return StopReason::None;
}

/// Raises \p Stats.PeakStateBytes to \p Resident's total. With the profile
/// on, a new high-water mark also records where its bytes were
/// (SearchStats::PeakSplit).
inline void notePeak(const SearchOptions &Opts, const ResidentSplit &Resident,
                     SearchStats &Stats) {
  const size_t Bytes = Resident.total();
  if (Bytes <= Stats.PeakStateBytes)
    return;
  Stats.PeakStateBytes = Bytes;
  if (Opts.ProfilePipeline)
    Stats.PeakSplit = Resident;
}

SearchResult bestFirstSearch(const Machine &M, const SearchOptions &Opts,
                             const DistanceTable *DT);
SearchResult layeredSearch(const Machine &M, const SearchOptions &Opts,
                           const DistanceTable *DT);

} // namespace detail
} // namespace sks

#endif // SKS_SEARCH_SEARCHIMPL_H
