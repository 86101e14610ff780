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
///    (section 3.6).
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
  /// (section 3.2; requires the distance table).
  bool UseActionFilter = false;
  /// Refuse expansions that provably plant a dead instruction in the
  /// prefix (lint/PrefixLint.h): a clobbered-unread cmp, an overwritten
  /// unread move, a conditional move before any cmp, an idempotent repeat.
  /// Sound and optimal-count-preserving: a minimal kernel never contains a
  /// dead instruction. Composes with the section 3.2/3.3 semantic filters.
  bool SyntacticPrune = false;
  /// Refuse expansions the order-domain abstract interpreter
  /// (analysis/OrderDomain.h) proves redundant: a cmp whose outcome the
  /// established partial order already determines, a conditional move that
  /// provably never fires or moves an equal value, a mov/pmin/pmax whose
  /// result the destination already holds. Sound and solution-preserving
  /// (DESIGN.md section 10): a proven no-op reproduces the parent's
  /// canonical state, which dedup would discard at a shallower level, and
  /// a determined cmp rewrites with its dependent cmovs to strictly fewer
  /// plain moves, so no minimal kernel contains either. Composes with
  /// SyntacticPrune.
  bool SemanticPrune = false;
  /// Quotient the search space by the machine's admissible register
  /// renamings (analysis/Symmetry.h; DESIGN.md section 11): every
  /// candidate state is replaced by the lexicographically-least member of
  /// its orbit under scratch-register permutations and the lt/gt flag
  /// involution, with the witness element stored on the DAG edge so
  /// solution extraction lifts kernels back to original register names.
  /// Sound and solution-preserving: renamings are machine automorphisms
  /// fixing the initial state and the goal, so orbits share completion
  /// lengths, and the lift-back restores the exact solution set. A no-op
  /// on machines whose renaming group is trivial (min/max at m = 1: no
  /// flags, one scratch register).
  bool SymmetryReduce = false;
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
  /// committed levels, nodes, decode caches and the level in flight
  /// (candidate batches, merge shards). Spilled bytes are not resident.
  size_t MaxStateBytes = 0;
  /// Worker threads for the layered engine (1 = sequential). More than one
  /// selects the layered engine: only it runs in parallel.
  unsigned NumThreads = 1;
  /// Force the layered engine even when FindAll is off, NumThreads is 1
  /// and CompressFrontier is off ("dijkstra" rows).
  bool Layered = false;
  /// Delta/varint-compress the row arena of each level as it leaves the
  /// expansion window (its only remaining readers are dedup probes from
  /// deeper levels, served through per-worker decode caches). Selects the
  /// layered engine: the best-first engine keeps one flat arena and has
  /// no levels to seal. Count-preserving for any configuration:
  /// compression changes the representation of committed rows, never
  /// their values.
  bool CompressFrontier = false;
  /// Directory for spilling compressed cold levels to disk (empty = never
  /// spill). Requires CompressFrontier; spill files are unlinked on
  /// creation, so they vanish on exit or crash.
  std::string SpillDir;
  /// With SpillDir set, spill oldest sealed levels while their resident
  /// compressed bytes exceed this; 0 spills every sealed level
  /// immediately.
  size_t SpillThresholdBytes = 0;
  /// Emit a trace point every so many seconds (0 = off); for Figure 1.
  double TraceIntervalSeconds = 0;
  /// Collect the per-stage nanosecond counters of the expansion pipeline
  /// (SearchStats::ApplyNanos and friends); printed by sks-synth --profile
  /// and reported by perfbench's profile round. Off by default: the stage
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

/// One Figure 1 sample.
struct TracePoint {
  double Seconds;
  size_t OpenStates;
  uint64_t SolutionsFound;
};

/// Search statistics for the evaluation tables.
struct SearchStats {
  /// Nodes whose children were generated; when a layered run aborts
  /// mid-level, only the nodes of that level expanded before the stop.
  size_t StatesExpanded = 0;
  size_t StatesGenerated = 0;
  size_t DedupHits = 0;
  size_t CutStates = 0;
  size_t ViabilityPruned = 0;
  size_t ActionsFiltered = 0;
  /// Expansions refused by SearchOptions::SyntacticPrune.
  size_t SyntacticPruned = 0;
  /// Expansions refused by SearchOptions::SemanticPrune (the order-domain
  /// abstract interpreter's provably-redundant gate).
  size_t SemanticPruned = 0;
  /// Candidates SearchOptions::SymmetryReduce rewrote onto a strictly
  /// smaller orbit representative (witness != identity). A per-candidate
  /// property of the canonical rows, counted before dedup, so the total is
  /// identical for any thread count — unlike "dedup hits caused by
  /// symmetry", which would depend on arrival order.
  size_t SymmetryMerged = 0;
  /// Layered engine only: number of canonical states committed at each
  /// level (index = program length). Identical across thread counts for a
  /// fixed configuration, so the equivalence tests compare it level by
  /// level. Empty for the best-first engine.
  std::vector<size_t> LevelStates;
  /// High-water mark of total state bytes, resident plus spilled. Equals
  /// PeakResidentBytes unless a spill directory was configured.
  size_t PeakStateBytes = 0;
  /// High-water mark of the resident bytes SearchOptions::MaxStateBytes
  /// budgets, never below a value its check compared: a run capped at
  /// this peak fits. Spilling relieves the budget; PeakStateBytes keeps
  /// the honest total.
  size_t PeakResidentBytes = 0;
  /// High-water mark of spill-file bytes (CompressFrontier + SpillDir).
  size_t SpilledBytes = 0;
  /// Compressed vs. flat bytes summed over every level the frontier
  /// sealed; CompressedRawBytes / CompressedBytes is the compression
  /// ratio. Zero when CompressFrontier is off.
  size_t CompressedBytes = 0;
  size_t CompressedRawBytes = 0;
  /// Block-decode work done by sealed-level dedup probes, summed across
  /// workers. Collected whenever CompressFrontier is on (decodes are
  /// microsecond-scale, so the timing is not branch-guarded like the
  /// ProfilePipeline counters).
  uint64_t DecodeNanos = 0;
  size_t BlocksDecoded = 0;
  /// Per-stage wall-clock of the expansion pipeline, in nanoseconds; only
  /// collected when SearchOptions::ProfilePipeline is on (0 otherwise).
  /// Apply covers the batched row transforms; Canon the sort + perm-count
  /// + hash over canonical rows; Viability the fused dedup-compact +
  /// distance pass (its distance loads dominate); Merge the dedup/DAG
  /// commit sections. With worker threads the first three sum CPU time
  /// across workers, so they can exceed wall-clock.
  uint64_t ApplyNanos = 0;
  uint64_t CanonNanos = 0;
  uint64_t ViabilityNanos = 0;
  uint64_t MergeNanos = 0;
  double Seconds = 0;
  /// Why the run stopped early; None when it ran to completion.
  StopReason Stopped = StopReason::None;
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
  std::vector<TracePoint> Trace;
};

/// Synthesizes a sorting kernel for \p M. Dispatches to the layered engine
/// when Opts.FindAll, Opts.Layered or Opts.CompressFrontier is set or
/// Opts.NumThreads > 1, to the best-first engine otherwise. The distance
/// table is used exactly when Opts.UseViability, Opts.UseActionFilter or
/// the NeededInstrs heuristic needs it. \p SharedTable optionally reuses a
/// prebuilt one (they are deterministic per machine); pass nullptr to
/// build it on demand.
SearchResult synthesize(const Machine &M, const SearchOptions &Opts,
                        const DistanceTable *SharedTable = nullptr);

/// \returns a valid initial length bound for the search (section 3.3 "an
/// initially given length bound"): the size of the minimal sorting
/// network's implementation — 4 comparators' instructions for the cmov
/// machine, 3 for min/max — which is always a correct kernel.
unsigned networkUpperBound(MachineKind Kind, unsigned N);

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
