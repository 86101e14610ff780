//===- search/Expansion.h - The one candidate filter pipeline --*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single candidate pipeline shared by every expansion site. Per node,
/// expandNode picks the children as one set of instruction indices
/// (isa/InstrSet.h), built from what the parent already gives before any
/// child exists:
///
///  0. the base set: the whole alphabet, or the section 3.2 action
///     filter's marks, read off the successor fold (one distance-table
///     pass over the parent's rows, tables/DistanceTable.h);
///  1. minus the dead-instruction gate's refusals, which the parent's
///     prefix summary gives as a union of class sets (lint/PrefixLint.h);
///  2. where the fold gives the section 3.3 verdict, only the viable
///     instructions: one SSE2 compare per sixteen instructions of the
///     fold's child maxDist against the remaining budget;
///  3. where the parent's distinct-permutation count (section 3.1) is
///     above the section 3.5 cut's threshold, minus the cut's set.
///
/// Each counter is the size of one set difference. Only the survivors are
/// visited, in ascending index (Machine::instructions()) order, which is
/// the order the engines' merges and heaps see them in: apply -> count ->
/// cut -> canonicalize -> hash. Both engines expand node by node through
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
/// they never touch a row. There the section 3.5 cut runs before apply
/// too: the cut is monotone in the count, and the parent's rows bound
/// every child's count from below. An instruction that writes no data
/// register (a cmp, a scratch or hybrid vector write) leaves every row's
/// data projection as it was, so its child's count is the parent's; one
/// that writes data register d leaves the others, so its child's count is
/// at least the parent's count without d (permCountWithout,
/// state/SearchState.h). A bound above the threshold cuts the child
/// exactly where its own count would, before it is applied: 96% of the
/// cut children of a configuration (III) n = 4 search exit there. Where
/// the threshold cuts at all, the parent is counted once per node that has
/// a viable child. A register's bound is counted only when the parent's
/// count is above the threshold (no bound exceeds the parent's count, so
/// otherwise none could cut) and the register has a viable writer.
///
/// Only the rest are applied (SSE2 applyBatch). One pass over the RAW
/// transformed rows then counts their distinct projections in a
/// per-worker bitmap (countDistinctProjections) — a distinct count is
/// blind to row order and duplicates — unless the child's count is the
/// parent's, and the cut reads that count, so the canonical sort (the
/// sorting-network sortRows primitive, state/Canonicalize.h), duplicate
/// compaction and hash run only for the candidates that survive the cut
/// to be stored.
///
/// A machine without a successor block (DistanceTable::hasSuccessors), and
/// a run without the table, takes the same gate set, but keeps the verdict
/// after apply: each admitted instruction is applied and finish() reads
/// the child's maxDist off the raw rows (or runs the table-less erase
/// check), stopping at the first unreachable row. The fold would apply
/// every instruction to every row there, gate-refused ones included, so it
/// runs only when the action filter needs its marks. The cut stays after
/// the verdict there, so a child both would refuse counts as
/// viability-pruned.
///
/// Opt-in stage timers (SearchOptions::ProfilePipeline) attribute the work
/// to SearchStats::{Apply,Canon,Viability}Nanos: Viability the fold, the
/// action filter and finish()'s verdict pass (the post-apply verdict or
/// the table-less erase check), Apply the batched transform of the
/// candidates that reach it, Canon the counts (the parent's, its bounds
/// and each applied child's) + sort + hash. The selection itself, the set
/// operations of steps 1-3 and the visit loop, runs outside every stage
/// timer; sks-synth --profile reports that remainder as `untimed`.
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
/// Cache-line aligned: the layered engine keeps one batch per worker side
/// by side for the whole run, and each worker writes its own batch's
/// headers on every child, so two batches must never share a line.
struct alignas(64) CandidateBatch {
  std::vector<uint32_t> Rows;
  std::vector<Candidate> List;
  /// The distinct counter's projection bitmap (countDistinctProjections):
  /// one per worker, all zeros between calls; 512 B at n = 4, 32 KB at
  /// n = 6, outside bytesUsed().
  std::vector<uint64_t> Scratch;
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

  size_t bytesUsed() const {
    return Rows.capacity() * sizeof(uint32_t) +
           List.capacity() * sizeof(Candidate);
  }
};

/// The shared filter pipeline. Stateless apart from configuration
/// references and the alphabet's class sets, which the constructor builds
/// and expansion only reads, so one instance serves any number of worker
/// threads (the CutTracker is only read here; observe() happens at
/// merge/insert time). The per-node sets live on the expanding thread's
/// stack.
class CandidatePipeline {
public:
  CandidatePipeline(const Machine &M, const SearchOptions &Opts,
                    const DistanceTable *DT, const CutTracker &Cuts)
      : M(M), Opts(Opts), DT(DT), Cuts(Cuts),
        Classes(M.instructions(), M.numData()),
        Profile(Opts.ProfilePipeline), UseDT(Opts.UseViability && DT),
        Filter(Opts.UseActionFilter && DT && M.goal().isSort()),
        PreApply(UseDT && (Filter || DT->hasSuccessors())),
        PostApply(UseDT && !PreApply), NumRegs(M.numRegs()),
        NumData(M.numData()), FullValueMask(M.requiredValueMask()) {}

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
  /// the distance table or the table-less erase check. \p MaxKept is the
  /// cut's threshold for length \p ChildG (CutTracker::maxKept). \p Perm
  /// is the child's perm count when expandNode knows it without counting
  /// (the parent's, for an instruction that writes no data register; at
  /// most \p MaxKept), 0 to count and cut it here. Records a Candidate on
  /// survival; truncates the tail otherwise. \returns true when the
  /// candidate survived.
  bool finish(CandidateBatch &B, size_t RawBegin, unsigned ChildG,
              uint32_t Parent, Instr Via, const PrefixLint &ParentLint,
              uint8_t Needed, unsigned MaxKept, uint32_t Perm,
              SearchStats &Stats) const {
    uint32_t *Rows = B.Rows.data() + RawBegin;
    const uint32_t RawLen = static_cast<uint32_t>(B.Rows.size() - RawBegin);

    // The section 3.3 check the fold did not give, over the raw unsorted
    // rows: it only reads per-row facts (distance-table loads, value
    // erasure), so it is blind to row order and duplicates.
    if (!PreApply) {
      bool Viable = true;
      {
        ScopedNanoTimer T(Profile, Stats.ViabilityNanos);
        for (uint32_t I = 0; I != RawLen; ++I) {
          if (PostApply) {
            const uint8_t D = DT->dist(Rows[I]);
            if (D == DistanceTable::Unreachable) {
              Viable = false;
              break;
            }
            Needed = std::max(Needed, D);
          } else if (!rowKeepsAllValues(Rows[I])) {
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
    }

    // The perm count and the section 3.5 cut, on the raw rows too: a
    // DISTINCT count is blind to order and duplicates, so a cut candidate
    // is never sorted. A count that expandNode passed is not cut here: it
    // is the parent's, and above the threshold the cut before apply took
    // every such child, so a miss there shows in the counters.
    if (Perm == 0) {
      {
        ScopedNanoTimer T(Profile, Stats.CanonNanos);
        Perm = permCount(M, Rows, RawLen, B.Scratch);
      }
      if (Perm > MaxKept) {
        ++Stats.CutStates;
        B.Rows.resize(RawBegin);
        return false;
      }
    }
    assert(Perm <= MaxKept && "the cut before apply missed this child");

    // Canonical order + duplicate compaction + hash, for the survivors
    // only. A single row (common near the goal) is trivially canonical.
    Candidate C;
    C.RowOffset = static_cast<uint32_t>(RawBegin);
    C.Parent = Parent;
    C.Via = Via;
    C.Perm = Perm;
    C.Needed = Needed;
    {
      ScopedNanoTimer T(Profile, Stats.CanonNanos);
      uint32_t Len = RawLen;
      if (RawLen > 1) {
        sortRows(Rows, RawLen);
        Len = 0;
        for (uint32_t I = 0; I != RawLen; ++I)
          if (I == 0 || Rows[I] != Rows[Len - 1])
            Rows[Len++] = Rows[I];
      }
      uint64_t H = kHashWordsSeed;
      for (uint32_t I = 0; I != Len; ++I)
        H = hashCombine(H, Rows[I]);
      C.Hash = hashWordsFinish(H, Len);
      C.RowLen = Len;
    }
    B.Rows.resize(RawBegin + C.RowLen); // Drop the compacted duplicates.
    C.Lint = ParentLint.extended(Via);
    B.List.push_back(C);
    return true;
  }

  /// Node-major expansion: picks the node's children as one set (steps 0-3
  /// of the file comment) and runs the survivors through applyBatch and
  /// finish() — the expansion path of both engines. The gate refuses an
  /// instruction when the parent's prefix summary \p Lint proves that
  /// appending it plants a dead instruction. That is sound in both engines:
  /// deleting the dead instruction leaves a strictly shorter program
  /// reaching the same child state, so no minimal kernel is ever refused
  /// and an exhausted search is still a proof. A gate-refused candidate
  /// counts only as such; one refused by the verdict before apply counts as
  /// generated and viability-pruned, a cut one as generated and cut. \p Rows
  /// must not alias B.Rows (all callers pass arena storage).
  void expandNode(const uint32_t *Rows, uint32_t Len, const PrefixLint &Lint,
                  uint32_t Parent, unsigned ChildG, CandidateBatch &B,
                  SearchStats &Stats) const {
    // Step 0: the base set.
    InstrSet Base = Classes.All;
    {
      ScopedNanoTimer T(Profile, Stats.ViabilityNanos);
      if (PreApply || Filter)
        DT->foldSuccessors(Rows, Len, Filter, B.Fold);
      if (Filter) {
        Base = selectActions(M, Rows, Len, B.Fold.Optimal.data());
        Stats.ActionsFiltered += Classes.All.minus(Base).count();
      }
    }

    // Step 1: the gate.
    const InstrSet Admitted = Base.minus(Lint.refused(Classes));
    Stats.SyntacticPruned += Base.minus(Admitted).count();
    Stats.StatesGenerated += Admitted.count();

    // Steps 2 and 3, where the fold gave the verdict: the viable set, then
    // the cut on the parent's count (the child's, for an instruction that
    // writes no data register) and on each data register's bound (a lower
    // bound on the child's, for one that writes that register).
    InstrSet Children = Admitted;
    const unsigned MaxKept = Cuts.maxKept(ChildG);
    uint32_t ParentPerm = 0;
    if (PreApply) {
      const InstrSet Viable =
          ChildG > Opts.MaxLength
              ? InstrSet()
              : Admitted & DT->withinBudget(B.Fold, Opts.MaxLength - ChildG);
      Stats.ViabilityPruned += Admitted.minus(Viable).count();
      Children = Viable;
      if (MaxKept != CutTracker::KeepAll && !Viable.empty()) {
        {
          ScopedNanoTimer T(Profile, Stats.CanonNanos);
          ParentPerm = permCount(M, Rows, Len, B.Scratch);
        }
        if (ParentPerm > MaxKept) {
          InstrSet Cut = Viable & Classes.KeepsData;
          for (unsigned D = 0; D != NumData; ++D) {
            const InstrSet Writers = Viable & Classes.DataWriters[D];
            if (Writers.empty())
              continue;
            ScopedNanoTimer T(Profile, Stats.CanonNanos);
            if (permCountWithout(M, Rows, Len, D, B.Scratch) > MaxKept)
              Cut |= Writers;
          }
          Stats.CutStates += Cut.count();
          Children = Viable.minus(Cut);
        }
      }
    }

    const std::vector<Instr> &All = M.instructions();
    Children.forEach([&](size_t K) {
      const Instr I = All[K];
      const uint8_t Needed = PreApply ? B.Fold.Needed[K] : 0;
      // A child that writes no data register has the parent's count; 0
      // (count it) where the cut is off or runs after apply. Above the
      // threshold the cut took every such child.
      const uint32_t Perm = Classes.KeepsData.contains(K) ? ParentPerm : 0;
      const size_t RawBegin = B.Rows.size();
      {
        ScopedNanoTimer T(Profile, Stats.ApplyNanos);
        B.Rows.resize(RawBegin + Len);
        applyBatch(M, I, Rows, B.Rows.data() + RawBegin, Len);
      }
      finish(B, RawBegin, ChildG, Parent, I, Lint, Needed, MaxKept, Perm,
             Stats);
    });
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
  /// The alphabet's class sets, read by the gate and the cut.
  const InstrClasses Classes;
  const bool Profile;
  /// The viability verdict reads the distance table (else finish() runs
  /// the erase check); the action filter is on (sort goal only: see
  /// SearchOptions::UseActionFilter); the verdict reads the successor fold
  /// before apply, or finish() reads the applied rows.
  const bool UseDT;
  const bool Filter;
  const bool PreApply;
  const bool PostApply;
  const unsigned NumRegs;
  const unsigned NumData;
  const uint32_t FullValueMask;
};

} // namespace detail
} // namespace sks

#endif // SKS_SEARCH_EXPANSION_H
