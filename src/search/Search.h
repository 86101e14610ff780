//===- search/Search.h - Enumerative sorting-kernel synthesis --*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution (section 3): enumerative synthesis of
/// sorting kernels by Dijkstra / A* search over canonical multi-assignment
/// states, with
///
///  - three search heuristics (section 3.1): distinct-permutation count,
///    distinct-register-assignment count, and the admissible
///    per-assignment-distance lower bound;
///  - the "optimal instructions" action filter (section 3.2);
///  - the viability check (section 3.3);
///  - the non-optimality-preserving cut on the distinct-permutation count
///    (section 3.5), multiplicative (factor k) or additive (+c);
///  - deduplication of equivalent programs via canonical state hashing
///    (section 3.6);
///  - beyond the paper, one always-on expansion gate: an instruction that
///    would make part of the program provably dead is refused before it is
///    applied (lint/PrefixLint.h; no minimal kernel contains a dead
///    instruction).
///
/// Two engines share these components:
///
///  - a best-first engine (priority queue on f = g + h) that finds one
///    kernel quickly — the configuration rows of the section 5.2 ablation;
///  - a layered engine (all programs of length L before length L+1, the
///    "Dijkstra" rows) that additionally records the deduplicated solution
///    DAG, from which ALL optimal kernels can be counted (by dynamic
///    programming over path counts) and enumerated — this powers the 5602-
///    solutions experiment, Figure 2, and the length-19 lower-bound proof
///    for n = 4. The layered engine expands each level node-major on a
///    thread pool of NumThreads workers (one worker is the "single core"
///    row, several the "parallel" row); the result is identical for any
///    thread count.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_SEARCH_SEARCH_H
#define SKS_SEARCH_SEARCH_H

#include "machine/Machine.h"
#include "state/SearchState.h"
#include "support/StopToken.h"
#include "tables/DistanceTable.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace sks {

/// Which section 3.1 heuristic guides the search.
enum class HeuristicKind {
  None,         ///< plain Dijkstra (f = g)
  PermCount,    ///< distinct permutations remaining (best in the paper)
  AssignCount,  ///< distinct register assignments remaining
  NeededInstrs, ///< max per-assignment distance (admissible lower bound)
};

/// The section 3.5 cut on the distinct-permutation count.
struct CutConfig {
  enum class Kind {
    None,
    Multiplicative, ///< discard s if perm(s) > k * min_perm(level - 1)
    Additive,       ///< discard s if perm(s) > min_perm(level - 1) + c
  };
  Kind Mode = Kind::None;
  double Factor = 1.0;
  unsigned Offset = 0;

  static CutConfig none() { return CutConfig{}; }
  static CutConfig mult(double K) {
    return CutConfig{Kind::Multiplicative, K, 0};
  }
  static CutConfig add(unsigned C) { return CutConfig{Kind::Additive, 1.0, C}; }
};

/// Configuration of one synthesis run.
struct SearchOptions {
  HeuristicKind Heuristic = HeuristicKind::PermCount;
  CutConfig Cut = CutConfig::none();
  /// Prune states where some assignment cannot be sorted in the remaining
  /// budget (section 3.3; requires the distance table). Otherwise section
  /// 3.3's erase check prunes states that lost a value from every register.
  bool UseViability = true;
  /// Only expand instructions on some assignment's optimal completion
  /// (section 3.2; requires the distance table, whose successor fold
  /// marks them). Sort goal only; other goals ignore it. On a goal that
  /// leaves a register free, no single assignment's optimal completion
  /// moves a value into the scratch register, so the filter would refuse
  /// every move a compare-exchange needs and exhaust the bound.
  bool UseActionFilter = false;
  /// Hard upper bound on program length (inclusive).
  unsigned MaxLength = 64;
  /// Use the layered engine and enumerate ALL optimal kernels.
  bool FindAll = false;
  /// In FindAll mode, cap on the number of explicitly reconstructed
  /// programs (the path COUNT is always exact); 0 keeps none.
  size_t MaxSolutionsKept = 1 << 20;
  /// The run's only deadline and cancel: StopToken().withDeadline(S), whose
  /// clock starts when the token is made, or a StopSource's token. Both
  /// engines poll it at their budget checks and report which half fired
  /// as SearchStats::Stopped. A default token never stops.
  StopToken Stop;
  /// Stop (StopReason::ByteBudget) when resident bytes exceed this; 0 =
  /// unlimited. Best-first counts its store and nodes; layered counts its
  /// committed levels, nodes, the level in flight (one slice's candidate
  /// batches and partitions, the merge shards) and each level's commit.
  size_t MaxStateBytes = 0;
  /// Worker threads for the layered engine (1 = sequential). More than one
  /// selects the layered engine: only it runs in parallel.
  unsigned NumThreads = 1;
  /// Force the layered engine even when FindAll is off and NumThreads is
  /// 1 ("dijkstra" rows).
  bool Layered = false;
  /// Collect the per-stage nanosecond counters of the expansion pipeline
  /// (SearchStats::ApplyNanos and friends, reported by perfbench's profile
  /// round) and the split of the peak's bytes (SearchStats::PeakSplit);
  /// sks-synth --profile prints both. Off by default: the stage
  /// timers are branch-guarded, so a disabled profile costs one predicted
  /// branch per stage and no clock reads.
  bool ProfilePipeline = false;
};

/// Why a search stopped early; a fired token names its deadline first.
enum class StopReason {
  None,       ///< Ran to completion: a kernel found or the bound exhausted.
  Deadline,   ///< The stop token's deadline expired.
  Cancelled,  ///< The stop token's source requested a stop.
  ByteBudget, ///< Resident bytes exceeded SearchOptions::MaxStateBytes.
};

/// \returns the display name of \p R: "none", "timeout", "cancelled" or
/// "state-store budget exhausted".
const char *stopReasonName(StopReason R);

/// Which of the layered engine's budget checks stopped a run. A level is
/// expanded and merged slice by slice, then committed (search/Layered.cpp).
enum class StopPhase {
  None,       ///< Did not stop, or the best-first engine stopped.
  LevelCheck, ///< The level loop's check before a level's first slice.
  Expand,     ///< A checkpoint inside a slice's expansion.
  MergeCheck, ///< The merge's check before a slice's phase 1.
  Merge,      ///< A checkpoint inside a slice's merge phase 1.
  /// The commit's check, on the level in flight plus the edge arrays
  /// phase 2 allocates, before it allocates them.
  Commit,
};

/// \returns the display name of \p P: "none", "level-check", "expand",
/// "merge-check", "merge" or "commit".
const char *stopPhaseName(StopPhase P);

/// Where the resident bytes were at a budget check: the parts of the one
/// count SearchOptions::MaxStateBytes budgets.
struct ResidentSplit {
  /// Row data: the layered engine's committed levels, every node's for
  /// best-first.
  size_t Rows = 0;
  /// Node metadata: the layered engine's committed nodes and their edges
  /// (at a commit's check, with the FindAll edge arrays the commit
  /// allocates); best-first's nodes.
  size_t Nodes = 0;
  size_t Index = 0; ///< The sharded dedup index.
  /// Layered only: the level in flight's shard buffers (its nodes, rows
  /// and edges: first edges in node order, or FindAll's every edge in
  /// candidate order), the candidate batches and the batches' shard
  /// partitions.
  size_t Shards = 0, Batches = 0, Partitions = 0;

  size_t total() const {
    return Rows + Nodes + Index + Shards + Batches + Partitions;
  }
};

/// Search statistics for the evaluation tables.
struct SearchStats {
  /// Nodes whose children were generated; when a layered run aborts
  /// mid-level, only the nodes of that level expanded before the stop.
  size_t StatesExpanded = 0;
  size_t StatesGenerated = 0;
  size_t DedupHits = 0;
  /// Viable children discarded by the section 3.5 cut: before apply when
  /// the verdict ran there and the parent's rows bound the child's count
  /// above the threshold, else on the applied child's own count. Each one
  /// counts in StatesGenerated too.
  size_t CutStates = 0;
  /// Children refused by the section 3.3 check: before apply when the
  /// distance table's successor fold gives the verdict, else by finish()
  /// on the applied rows. Each one counts in StatesGenerated too.
  size_t ViabilityPruned = 0;
  size_t ActionsFiltered = 0;
  /// Expansions the dead-instruction gate refused before apply: per node,
  /// the size of the base set (the alphabet, or the action filter's
  /// marks) minus the admitted set, which removes the parent summary's
  /// refusals (PrefixLint::refused; search/Expansion.h). Refused
  /// candidates are not counted in StatesGenerated.
  size_t SyntacticPruned = 0;
  /// Layered engine only: number of canonical states committed at each
  /// level (index = program length). Identical across thread counts for a
  /// fixed configuration, so the equivalence tests compare it level by
  /// level. Empty for the best-first engine.
  std::vector<size_t> LevelStates;
  /// Layered engine only: the run's clock when each level of LevelStates
  /// committed, one read per commit, so it never decreases and ends at or
  /// below Seconds. Figure 1 plots the two side by side. Empty for the
  /// best-first engine.
  std::vector<double> LevelSeconds;
  /// High-water mark of the resident bytes SearchOptions::MaxStateBytes
  /// budgets. Every value it records is one the budget check compared (the
  /// layered engine checks each level's commit, the level's shard buffers
  /// plus the exact size of the edge arrays the commit allocates, before
  /// allocating them), so a run capped at this peak fits, and the same run
  /// capped one byte lower stops on StopReason::ByteBudget. A run that a
  /// commit's check stopped reports the size the commit would have had.
  size_t PeakStateBytes = 0;
  /// Where PeakStateBytes' bytes were when it was recorded; its parts sum
  /// to it. Recorded only when SearchOptions::ProfilePipeline is on, all 0
  /// otherwise.
  ResidentSplit PeakSplit;
  /// Per-stage wall-clock of the expansion pipeline, in nanoseconds; only
  /// collected when SearchOptions::ProfilePipeline is on (0 otherwise).
  /// Viability covers the once-per-node successor fold and action filter
  /// (which decide every child's verdict before apply where the distance
  /// table has a successor block) plus finish()'s verdict pass where the
  /// fold gave none; Apply the batched row transforms of the candidates
  /// that reach apply; Canon the section 3.5 cut's counts — where the cut
  /// runs before apply, the parent's count once per node and its
  /// per-register bounds, then the count of every applied viable child
  /// that does not take the parent's — and the sort + compaction + hash of
  /// the cut's survivors; Merge the dedup/DAG commit sections. With worker
  /// threads the first three sum CPU time across workers, so they can
  /// exceed wall-clock.
  uint64_t ApplyNanos = 0;
  uint64_t CanonNanos = 0;
  uint64_t ViabilityNanos = 0;
  uint64_t MergeNanos = 0;
  double Seconds = 0;
  /// Why the run stopped early; None when it ran to completion.
  StopReason Stopped = StopReason::None;
  /// Layered engine only: which budget check stopped the run, in the level
  /// after the last one LevelStates lists; None when it did not stop.
  StopPhase StoppedIn = StopPhase::None;
};

/// Result of a synthesis run.
struct SearchResult {
  bool Found = false;
  unsigned OptimalLength = 0;
  /// The kernels found: one program in best-first mode; up to
  /// MaxSolutionsKept reconstructed programs in FindAll mode.
  std::vector<Program> Solutions;
  /// Exact number of distinct optimal programs surviving the configured
  /// cuts (path count over the solution DAG); 1 in best-first mode.
  uint64_t SolutionCount = 0;
  SearchStats Stats;
};

/// Synthesizes a sorting kernel for \p M. Dispatches to the layered engine
/// when Opts.FindAll or Opts.Layered is set or Opts.NumThreads > 1, to the
/// best-first engine otherwise. The distance table is used exactly when
/// Opts.UseViability, Opts.UseActionFilter or the NeededInstrs heuristic
/// needs it. \p SharedTable optionally reuses a prebuilt one (they are
/// deterministic per machine); pass nullptr to build it on demand.
SearchResult synthesize(const Machine &M, const SearchOptions &Opts,
                        const DistanceTable *SharedTable = nullptr);

/// \returns a valid initial length bound for the search (section 3.3 "an
/// initially given length bound"): the size of the minimal sorting
/// network's implementation — 4 comparators' instructions for the cmov
/// machine, 3 for min/max — which is always a correct kernel.
unsigned networkUpperBound(MachineKind Kind, unsigned N);

/// \returns the paper's fastest enumerative configuration, (III) of the
/// section 5.2 ablation: permutation-count heuristic + viability check +
/// cut k=1, bounded by networkUpperBound(Kind, N). The cut does not
/// preserve optimality, so an exhausted bound with CutStates > 0 proves
/// nothing; rerun with CutConfig::none() to decide.
SearchOptions bestEnumConfig(MachineKind Kind, unsigned N);

/// Result of synthesizeOptimal: the kernel plus its certificate.
struct OptimalSynthesis {
  SearchResult Synthesis;      ///< The synthesis run (Found, kernel, stats).
  bool MinimalityProven = false; ///< Length-(L-1) space shown empty.
  double ProofSeconds = 0;
};

/// End-to-end driver: synthesize with \p Opts, then certify minimality by
/// exhausting the space one instruction shorter (with only
/// optimality-preserving pruning). \p ProofStop bounds the certificate
/// search only; a deadline in it runs from when the caller made it.
OptimalSynthesis synthesizeOptimal(const Machine &M, const SearchOptions &Opts,
                                   const StopToken &ProofStop = {},
                                   const DistanceTable *SharedTable = nullptr);

/// Proves that no correct kernel of length <= \p Length exists by
/// exhaustive layered search with only optimality-preserving pruning
/// (dedup + admissible viability bound). \returns true when the proof
/// succeeded (search space exhausted without finding a kernel), false when
/// a kernel was found or \p Stop fired (Result.Stats.Stopped says which).
bool proveNoKernelOfLength(const Machine &M, unsigned Length,
                           SearchResult &Result,
                           const DistanceTable *SharedTable = nullptr,
                           const StopToken &Stop = {});

} // namespace sks

#endif // SKS_SEARCH_SEARCH_H
