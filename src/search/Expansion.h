//===- search/Expansion.h - The one candidate filter pipeline --*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single candidate pipeline shared by every expansion site. Per node:
/// one distance-table pass over the parent's rows (the successor fold,
/// tables/DistanceTable.h) -> action filter (section 3.2) -> per
/// instruction: the dead-instruction gate (lint/PrefixLint.h) -> the
/// viability verdict (section 3.3), read off the fold -> apply ->
/// distinct-permutation count (section 3.1) -> cut (section 3.5) ->
/// canonicalize -> hash. Both engines expand node by node through
/// expandNode:
///
///  - the best-first engine's expansion loop (BestFirst.cpp), and
///  - the layered engine's level expansion (Layered.cpp), one loop over
///    static worker ranges for any thread count,
///
/// so a new filter is added in exactly one place. Surviving candidates
/// carry their rows in the batch's flat buffer (no per-candidate
/// allocation), and arrive pre-hashed so the dedup/merge stage can shard
/// by hash without touching the rows again.
///
/// The pipeline is prune-first. The fold gives every instruction's child
/// maxDist from one SSE2 pass over the parent, so a non-viable candidate
/// exits before apply: of the candidates past the gate, 71% exit there in
/// a perfbench `synth` round and 90% in the layered n = 3 enumeration, and
/// they never touch a row. Only viable ones are applied (SSE2 applyBatch);
/// the perm count and the cut read the RAW transformed rows — their
/// results are provably order- and duplicate-independent — so the
/// canonical sort (the sorting-network sortRows primitive,
/// state/Canonicalize.h) and duplicate compaction run only for the
/// candidates that survive to be stored.
///
/// A machine without a successor block (DistanceTable::hasSuccessors)
/// keeps the verdict after apply: each admitted instruction is applied
/// and finish() reads the child's maxDist off the raw rows, stopping at
/// the first unreachable one. The fold would apply every instruction to
/// every row there, gate-refused ones included, so it runs only when the
/// action filter needs its marks.
///
/// Opt-in stage timers (SearchOptions::ProfilePipeline) attribute the work
/// to SearchStats::{Apply,Canon,Viability}Nanos: Viability the fold, the
/// action filter and finish()'s row pass (the post-apply verdict or the
/// table-less erase check), Apply the batched transform of the
/// candidates that reach it, Canon the sort + perm count + hash.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_SEARCH_EXPANSION_H
#define SKS_SEARCH_EXPANSION_H

#include "lint/PrefixLint.h"
#include "machine/BatchApply.h"
#include "search/SearchImpl.h"
#include "state/Canonicalize.h"
#include "state/StateStore.h"
#include "support/Hashing.h"
#include "support/Timing.h"

namespace sks {
namespace detail {

/// A child candidate that survived the filter pipeline, before dedup. Rows
/// live in the producing CandidateBatch's flat buffer.
struct Candidate {
  uint32_t RowOffset;
  uint32_t RowLen;
  uint32_t Parent; ///< Node index in the parent level / arena.
  Instr Via;
  uint32_t Perm; ///< Distinct-permutation count (for CutTracker::observe).
  uint64_t Hash; ///< hashWords of the canonical rows (shard selector).
  PrefixLint Lint;
  /// Max per-row distance-table value (the section 3.1 admissible bound),
  /// gathered by the viability verdict; 0 when the check is off. Lets
  /// the best-first engine price surviving candidates without a second
  /// row traversal.
  uint8_t Needed = 0;
};

/// One expansion worker's output: candidates plus their flat row storage.
struct CandidateBatch {
  std::vector<uint32_t> Rows;
  std::vector<Candidate> List;
  std::vector<uint32_t> Scratch; ///< For the masked distinct-count sort.
  /// Per-node scratch of the distance-table pass; a few hundred bytes per
  /// worker, outside bytesUsed().
  SuccessorFold Fold;

  const uint32_t *rowsOf(const Candidate &C) const {
    return Rows.data() + C.RowOffset;
  }

  void clear() {
    Rows.clear();
    List.clear();
  }

  /// Pre-sizes the buffers from the previous level's branching factor so
  /// the hot loop never reallocates.
  void reserveFor(size_t ExpectedCandidates, size_t RowsPerState) {
    List.reserve(ExpectedCandidates);
    Rows.reserve(ExpectedCandidates * RowsPerState);
  }

  size_t bytesUsed() const {
    return Rows.capacity() * sizeof(uint32_t) +
           List.capacity() * sizeof(Candidate);
  }
};

/// The shared filter pipeline. Stateless apart from configuration
/// references, so one instance serves any number of worker threads (the
/// CutTracker is only read here; observe() happens at merge/insert time).
class CandidatePipeline {
public:
  CandidatePipeline(const Machine &M, const SearchOptions &Opts,
                    const DistanceTable *DT, const CutTracker &Cuts)
      : M(M), Opts(Opts), DT(DT), Cuts(Cuts),
        Profile(Opts.ProfilePipeline), UseDT(Opts.UseViability && DT),
        Filter(Opts.UseActionFilter && DT),
        PreApply(UseDT && (Filter || DT->hasSuccessors())),
        PostApply(UseDT && !PreApply), DataMask(M.dataMask()),
        NumRegs(M.numRegs()), FullValueMask(M.requiredValueMask()),
        GoalCollapse(!M.goal().isSort()) {}

  /// The one pre-apply gate: refuses \p I when the parent's prefix summary
  /// proves that appending it plants a dead instruction. Sound in both
  /// engines: deleting the dead instruction leaves a strictly shorter
  /// program reaching the same child state, so no minimal kernel is ever
  /// refused and an exhausted search is still a proof.
  bool admits(const PrefixLint &ParentLint, Instr I,
              SearchStats &Stats) const {
    if (ParentLint.killsPrefix(I)) {
      ++Stats.SyntacticPruned;
      return false;
    }
    return true;
  }

  /// The section 3.3 viability verdict on a child whose maxDist is
  /// \p Needed: false when some row cannot reach the goal within the
  /// remaining budget.
  bool viable(unsigned ChildG, uint8_t Needed) const {
    return Needed != DistanceTable::Unreachable &&
           ChildG + Needed <= Opts.MaxLength;
  }

  /// Canonicalizes the raw transformed rows the caller appended at
  /// B.Rows[RawBegin..], and runs the rest of the section 3.3 check, perm
  /// count and cut. A candidate whose verdict the fold gave arrives viable
  /// with its maxDist in \p Needed; otherwise finish() judges it here, by
  /// the distance table or the table-less erase check. Records a Candidate
  /// on survival; truncates the tail otherwise. \returns true when the
  /// candidate survived.
  bool finish(CandidateBatch &B, size_t RawBegin, unsigned ChildG,
              uint32_t Parent, Instr Via, const PrefixLint &ParentLint,
              uint8_t Needed, SearchStats &Stats) const {
    uint32_t *Rows = B.Rows.data() + RawBegin;
    const uint32_t RawLen = static_cast<uint32_t>(B.Rows.size() - RawBegin);

    // The section 3.3 check the fold did not give, over the raw unsorted
    // rows: it only reads per-row facts (distance-table loads, value
    // erasure), so it is blind to row order and duplicates. The OR of all
    // row bits rides along to decide whether the perm count needs a
    // masked projection.
    uint32_t OrAll = 0;
    bool Viable = true;
    {
      ScopedNanoTimer T(Profile, Stats.ViabilityNanos);
      for (uint32_t I = 0; I != RawLen; ++I) {
        const uint32_t Row = Rows[I];
        OrAll |= Row;
        if (PostApply) {
          const uint8_t D = DT->dist(Row);
          if (D == DistanceTable::Unreachable) {
            Viable = false;
            break;
          }
          Needed = std::max(Needed, D);
        } else if (!UseDT && !rowKeepsAllValues(Row)) {
          Viable = false;
          break;
        }
      }
      if (Viable && PostApply)
        Viable = viable(ChildG, Needed);
    }
    if (!Viable) {
      ++Stats.ViabilityPruned;
      B.Rows.resize(RawBegin);
      return false;
    }

    // Perm count and the section 3.5 cut, still before the sort when some
    // row carries flag or scratch bits: the masked projection sorts its
    // own scratch copy and duplicates cannot change a DISTINCT count, so
    // raw rows give the same Perm the old sorted-first pipeline computed —
    // and a cut candidate skips the canonical sort too. When every row is
    // pure data the projection is the identity, Perm is the number of
    // distinct rows, and the compaction below yields it for free. Non-sort
    // goals always take the projection path: countDistinctGoal collapses
    // accepting projections into one bucket, which the compaction shortcut
    // cannot reproduce.
    const bool NeedsProjection = GoalCollapse || (OrAll & ~DataMask) != 0;
    uint32_t Perm = 0;
    if (NeedsProjection) {
      {
        ScopedNanoTimer T(Profile, Stats.CanonNanos);
        Perm = countDistinctGoal(Rows, RawLen, M, B.Scratch);
      }
      if (Cuts.shouldCut(ChildG, Perm)) {
        ++Stats.CutStates;
        B.Rows.resize(RawBegin);
        return false;
      }
    }

    // Canonical order + duplicate compaction — now run only for the
    // survivors. A single row (common near the goal) is trivially
    // canonical.
    uint32_t Len = RawLen;
    {
      ScopedNanoTimer T(Profile, Stats.CanonNanos);
      if (RawLen > 1) {
        sortRows(Rows, RawLen);
        Len = 0;
        for (uint32_t I = 0; I != RawLen; ++I)
          if (I == 0 || Rows[I] != Rows[Len - 1])
            Rows[Len++] = Rows[I];
      }
    }
    B.Rows.resize(RawBegin + Len); // Drop the compacted duplicates' tail.
    if (!NeedsProjection) {
      Perm = Len;
      if (Cuts.shouldCut(ChildG, Perm)) {
        ++Stats.CutStates;
        B.Rows.resize(RawBegin);
        return false;
      }
    }

    Candidate C;
    C.RowOffset = static_cast<uint32_t>(RawBegin);
    C.RowLen = Len;
    C.Parent = Parent;
    C.Via = Via;
    C.Perm = Perm;
    C.Needed = Needed;
    {
      ScopedNanoTimer T(Profile, Stats.CanonNanos);
      uint64_t H = kHashWordsSeed;
      for (uint32_t I = 0; I != Len; ++I)
        H = hashCombine(H, Rows[I]);
      C.Hash = hashWordsFinish(H, Len);
    }
    C.Lint = ParentLint.extended(Via);
    B.List.push_back(C);
    return true;
  }

  /// Node-major expansion: folds the parent's successor rows, selects
  /// actions (section 3.2), refuses non-viable instructions before apply
  /// where the fold gave the verdict, and runs the rest through applyBatch
  /// and finish() — the expansion path of both engines. A refused
  /// candidate still counts as generated and viability-pruned. \p Rows
  /// must not alias B.Rows (all callers pass arena storage).
  void expandNode(const uint32_t *Rows, uint32_t Len, const PrefixLint &Lint,
                  uint32_t Parent, unsigned ChildG, CandidateBatch &B,
                  SearchStats &Stats) const {
    {
      ScopedNanoTimer T(Profile, Stats.ViabilityNanos);
      if (PreApply || Filter)
        DT->foldSuccessors(Rows, Len, Filter, B.Fold);
      if (Filter)
        Stats.ActionsFiltered +=
            selectActions(M, Rows, Len, B.Fold.Optimal.data());
    }
    const std::vector<Instr> &All = M.instructions();
    for (size_t K = 0; K != All.size(); ++K) {
      const Instr I = All[K];
      if (Filter && !B.Fold.Optimal[K])
        continue;
      if (!admits(Lint, I, Stats))
        continue;
      ++Stats.StatesGenerated;
      const uint8_t Needed = PreApply ? B.Fold.Needed[K] : 0;
      if (PreApply && !viable(ChildG, Needed)) {
        ++Stats.ViabilityPruned;
        continue;
      }
      size_t RawBegin = B.Rows.size();
      {
        ScopedNanoTimer T(Profile, Stats.ApplyNanos);
        B.Rows.resize(RawBegin + Len);
        applyBatch(M, I, Rows, B.Rows.data() + RawBegin, Len);
      }
      finish(B, RawBegin, ChildG, Parent, I, Lint, Needed, Stats);
    }
  }

private:
  /// The section 3.3 erase check on one row: true when every
  /// goal-required value (all of 1..n for the sort goal) still occurs in
  /// some register of \p Row.
  bool rowKeepsAllValues(uint32_t Row) const {
    uint32_t Present = 0;
    for (unsigned Reg = 0; Reg != NumRegs; ++Reg) {
      Present |= 1u << (Row & 7u);
      Row >>= 3;
    }
    return (Present & FullValueMask) == FullValueMask;
  }

  const Machine &M;
  const SearchOptions &Opts;
  const DistanceTable *DT;
  const CutTracker &Cuts;
  const bool Profile;
  /// The viability verdict reads the distance table (else finish() runs
  /// the erase check); the action filter is on; the verdict reads the
  /// successor fold before apply, or finish() reads the applied rows.
  const bool UseDT;
  const bool Filter;
  const bool PreApply;
  const bool PostApply;
  const uint32_t DataMask;
  const unsigned NumRegs;
  const uint32_t FullValueMask;
  /// True for non-sort goals: the perm count must collapse accepting
  /// projections, so the pure-data compaction shortcut is disabled.
  const bool GoalCollapse;
};

} // namespace detail
} // namespace sks

#endif // SKS_SEARCH_EXPANSION_H
