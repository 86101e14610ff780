//===- search/Expansion.h - The one candidate filter pipeline --*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single candidate pipeline shared by every expansion site: syntactic
/// prune (lint) -> apply -> viability / erase check (section 3.3) ->
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
/// The pipeline is fused, vectorized, and prune-first: apply runs through
/// the SSE2 applyBatch, and ALL verdict stages (viability, perm count,
/// cut) read the RAW transformed rows — their results are provably order-
/// and duplicate-independent — so the canonical sort (the sorting-network
/// sortRows primitive, state/Canonicalize.h) and duplicate compaction run
/// only for the candidates that survive to be stored. At n = 4 roughly
/// 94% of the 5M generated candidates are pruned and exit without ever
/// being sorted.
///
/// Opt-in stage timers (SearchOptions::ProfilePipeline) attribute the work
/// to SearchStats::{Apply,Canon,Viability}Nanos: Apply is the batched
/// transform, Canon the sort + perm count + hash, Viability the fused
/// compact-and-distance pass (its distance-table loads dominate).
///
//===----------------------------------------------------------------------===//

#ifndef SKS_SEARCH_EXPANSION_H
#define SKS_SEARCH_EXPANSION_H

#include "analysis/OrderDomain.h"
#include "analysis/Symmetry.h"
#include "lint/PrefixLint.h"
#include "machine/BatchApply.h"
#include "search/SearchImpl.h"
#include "state/Canonicalize.h"
#include "state/StateStore.h"
#include "support/Hashing.h"
#include "support/Timing.h"

#include <memory>

namespace sks {
namespace detail {

/// Builds the renaming table both engines hand to their pipelines: non-null
/// exactly when SearchOptions::SymmetryReduce is on AND the machine's
/// admissible group is non-trivial (min/max at one scratch register has no
/// flags and nothing to permute, so the option is a documented no-op there).
inline std::unique_ptr<SymmetryTable>
makeSymmetryTable(const Machine &M, const SearchOptions &Opts) {
  if (!Opts.SymmetryReduce)
    return nullptr;
  auto Sym = std::make_unique<SymmetryTable>(M);
  if (Sym->trivial())
    return nullptr;
  return Sym;
}

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
  /// gathered for free by the viability pass; 0 when no distance table is
  /// active. Lets the best-first engine price surviving candidates without
  /// a second row traversal.
  uint8_t Needed = 0;
  /// SymmetryTable element mapping the raw child rows onto the stored
  /// canonical rows (0 = identity; always 0 without SymmetryReduce).
  /// Stored on the DAG edge so solution extraction can lift programs back
  /// to original register names (analysis/Symmetry.h liftProgram).
  uint8_t Witness = 0;
};

/// One expansion worker's output: candidates plus their flat row storage.
struct CandidateBatch {
  std::vector<uint32_t> Rows;
  std::vector<Candidate> List;
  std::vector<uint32_t> Scratch; ///< For the masked distinct-count sort.

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
  /// \p Sym is non-null exactly when SearchOptions::SymmetryReduce is on;
  /// the pipeline then canonicalizes every surviving candidate onto its
  /// orbit representative before hashing.
  CandidatePipeline(const Machine &M, const SearchOptions &Opts,
                    const DistanceTable *DT, const CutTracker &Cuts,
                    const SymmetryTable *Sym = nullptr)
      : M(M), Opts(Opts), DT(DT), Cuts(Cuts), Sym(Sym),
        Profile(Opts.ProfilePipeline), DataMask(M.dataMask()),
        NumRegs(M.numRegs()), FullValueMask(M.requiredValueMask()),
        GoalCollapse(!M.goal().isSort()) {}

  /// The pre-apply gate: refuses instructions the lint summary proves
  /// would plant a dead instruction (SearchOptions::SyntacticPrune) or the
  /// order-domain state proves redundant (SearchOptions::SemanticPrune;
  /// \p Order is non-null exactly when that option is on — soundness in
  /// DESIGN.md section 10). The semantic layer subsumes the syntactic
  /// dead-instruction facts: the lint summary is maintained
  /// unconditionally, so the semantic gate consults it too and a
  /// semantic-only run refuses a superset of what a syntactic-only run
  /// refuses. With both options on, the syntactic check runs first and
  /// SemanticPruned counts only the order-domain surplus.
  bool admits(const PrefixLint &ParentLint, const OrderState *Order, Instr I,
              SearchStats &Stats) const {
    if (Opts.SyntacticPrune && ParentLint.killsPrefix(I)) {
      ++Stats.SyntacticPruned;
      return false;
    }
    if (Order &&
        (Order->provablyRedundant(I) || ParentLint.killsPrefix(I))) {
      ++Stats.SemanticPruned;
      return false;
    }
    return true;
  }

  /// Canonicalizes the raw transformed rows the caller appended at
  /// B.Rows[RawBegin..] and runs viability/erase, perm-count, and cut.
  /// Records a Candidate on survival; truncates the tail otherwise.
  /// \returns true when the candidate survived.
  bool finish(CandidateBatch &B, size_t RawBegin, unsigned ChildG,
              uint32_t Parent, Instr Via, const PrefixLint &ParentLint,
              SearchStats &Stats) const {
    uint32_t *Rows = B.Rows.data() + RawBegin;
    const uint32_t RawLen = static_cast<uint32_t>(B.Rows.size() - RawBegin);
    ++Stats.StatesGenerated;

    // Viability / erase check FIRST, over the raw unsorted rows (section
    // 3.3). The verdict only reads per-row facts (distance-table loads,
    // value erasure), so it is blind to row order and duplicates — and at
    // n = 4 it prunes ~70% of all generated candidates, which therefore
    // never pay the canonical sort below. The OR of all row bits rides
    // along to decide whether the perm count needs a masked projection.
    uint32_t OrAll = 0;
    uint8_t Needed = 0;
    bool Viable = true;
    const bool UseDT = Opts.UseViability && DT;
    const bool UseErase = !UseDT && Opts.UseEraseCheck;
    {
      ScopedNanoTimer T(Profile, Stats.ViabilityNanos);
      for (uint32_t I = 0; I != RawLen; ++I) {
        const uint32_t Row = Rows[I];
        OrAll |= Row;
        if (UseDT) {
          uint8_t D = DT->dist(Row);
          if (D == DistanceTable::Unreachable) {
            Viable = false;
            break;
          }
          if (D > Needed)
            Needed = D;
        } else if (UseErase && !rowKeepsAllValues(Row)) {
          Viable = false;
          break;
        }
      }
      if (Viable && UseDT && ChildG + Needed > Opts.MaxLength)
        Viable = false;
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

    // Symmetry quotient (SearchOptions::SymmetryReduce): replace the rows
    // by the least member of their renaming orbit, remembering the witness
    // for lift-back. Runs AFTER viability/perm-count/cut — all three are
    // orbit-invariant (renamings preserve per-row distance, the value
    // multiset, and the data projection's distinct count) — and BEFORE the
    // hash, so symmetric states collide in dedup and merge into one node.
    C.Witness = 0;
    if (Sym) {
      ScopedNanoTimer T(Profile, Stats.CanonNanos);
      C.Witness = Sym->canonicalize(Rows, Len, B.Scratch);
      if (C.Witness != 0)
        ++Stats.SymmetryMerged;
    }
    {
      ScopedNanoTimer T(Profile, Stats.CanonNanos);
      uint64_t H = kHashWordsSeed;
      for (uint32_t I = 0; I != Len; ++I)
        H = hashCombine(H, Rows[I]);
      C.Hash = hashWordsFinish(H, Len);
    }
    C.Lint = ParentLint.extended(Via);
    if (C.Witness != 0) {
      // The node's prefix facts must describe the CANONICAL namespace the
      // suffix will be enumerated in; rename them along with the rows.
      const SymmetryElem &El = Sym->elem(C.Witness);
      C.Lint = C.Lint.renamed(El.Perm, El.FlagSwap);
    }
    B.List.push_back(C);
    return true;
  }

  /// Node-major expansion: selects actions (section 3.2), applies each to
  /// \p Rows with the data-parallel applyBatch, and runs the pipeline —
  /// the expansion path of both engines. \p Rows must not alias B.Rows
  /// (all callers pass arena storage).
  void expandNode(const uint32_t *Rows, uint32_t Len,
                  const PrefixLint &Lint, const OrderState *Order,
                  uint32_t Parent, unsigned ChildG, CandidateBatch &B,
                  std::vector<Instr> &Actions, SearchStats &Stats) const {
    {
      ScopedNanoTimer T(Profile, Stats.ApplyNanos);
      Stats.ActionsFiltered += selectActions(M, DT, Opts.UseActionFilter,
                                             Rows, Len, Actions, B.Scratch);
    }
    for (const Instr &I : Actions) {
      if (!admits(Lint, Order, I, Stats))
        continue;
      size_t RawBegin = B.Rows.size();
      {
        ScopedNanoTimer T(Profile, Stats.ApplyNanos);
        B.Rows.resize(RawBegin + Len);
        applyBatch(M, I, Rows, B.Rows.data() + RawBegin, Len);
      }
      finish(B, RawBegin, ChildG, Parent, I, Lint, Stats);
    }
  }

private:
  /// Per-row half of the section 3.3 erase check (allValuesPresent): true
  /// when every goal-required value (all of 1..n for the sort goal) still
  /// occurs in some register of \p Row.
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
  const SymmetryTable *Sym;
  const bool Profile;
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
