//===- search/BestFirst.cpp - Best-first (A*/Dijkstra) engine -------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The best-first engine orders open states by f = g + h and returns the
// first sorted state popped. With the None heuristic this is Dijkstra on
// unit costs and the first solution is provably minimal; with the
// NeededInstrs heuristic (admissible) optimality is likewise preserved;
// with the permutation/assignment-count heuristics the engine is greedier
// and optimality is confirmed separately (see verify/Optimality).
//
//===----------------------------------------------------------------------===//

#include "search/Expansion.h"

#include "support/Timing.h"

#include <memory>
#include <queue>

using namespace sks;
using namespace sks::detail;

namespace {

/// One open/closed state of the best-first engine. Rows live in the
/// StateStore's level-0 arena (this engine keeps everything in one level).
struct Node {
  RowSpan Rows;
  uint32_t Parent; ///< Index into the node arena; UINT32_MAX at the root.
  Instr Via;
  uint16_t G;
  /// Dead-instruction summary of the represented program (the Parent/Via
  /// chain); refreshed together with it on a cheaper rediscovery.
  PrefixLint Lint = PrefixLint::entry();
};

/// Priority-queue entry: min-f, then max-g (depth-first tie break toward
/// goals).
struct OpenEntry {
  double F;
  uint16_t G;
  uint32_t Index;
  friend bool operator<(const OpenEntry &A, const OpenEntry &B) {
    // std::priority_queue is a max-heap; invert for min-f.
    if (A.F != B.F)
      return A.F > B.F;
    return A.G < B.G;
  }
};

} // namespace

static Program reconstruct(const std::vector<Node> &Arena, uint32_t Index) {
  Program P;
  while (Arena[Index].Parent != UINT32_MAX) {
    P.push_back(Arena[Index].Via);
    Index = Arena[Index].Parent;
  }
  std::reverse(P.begin(), P.end());
  return P;
}

SearchResult detail::bestFirstSearch(const Machine &M,
                                     const SearchOptions &Opts,
                                     const DistanceTable *DT) {
  SearchResult Result;
  Stopwatch Timer;
  HeuristicEval Heuristic(M, Opts, DT);
  CutTracker Cuts(Opts.Cut, Opts.MaxLength);
  CandidatePipeline Pipeline(M, Opts, DT, Cuts);

  std::vector<Node> Arena;
  // Rows in the level-0 arena; dedup through the sharded index (payload:
  // node index, collisions resolved by row comparison).
  StateStore Store;
  RowArena &RowStore = Store.arena(0);
  std::priority_queue<OpenEntry> Open;
  std::vector<uint32_t> Scratch;
  std::vector<Instr> Actions;
  CandidateBatch Batch;

  SearchState Init = initialState(M);
  Arena.push_back(Node{
      RowStore.append(Init.Rows.data(),
                      static_cast<uint32_t>(Init.Rows.size())),
      UINT32_MAX, Instr{Opcode::Mov, 0, 0}, 0});
  uint64_t RootHash = hashWords(Init.Rows.data(), Init.Rows.size());
  Store.shard(StateStore::shardOf(RootHash)).insert(RootHash, 0);
  Open.push(OpenEntry{Heuristic(Init.Rows, Scratch), 0, 0});
  Cuts.observe(0, countDistinctGoal(Init.Rows, M, Scratch));

  auto StateBytes = [&] {
    return Store.bytesUsed() + Arena.capacity() * sizeof(Node);
  };
  auto NotePeak = [&] {
    // One flat level, nothing sealed or spilled: resident == total.
    Result.Stats.PeakStateBytes =
        std::max(Result.Stats.PeakStateBytes, StateBytes());
    Result.Stats.PeakResidentBytes = Result.Stats.PeakStateBytes;
  };
  NotePeak();

  // Price a surviving candidate without re-traversing its rows: the
  // pipeline already computed C.Perm (exactly the PermCount projection
  // count) and C.Needed (the max per-row distance, gathered when the
  // viability pass had the distance table). The remaining kinds re-read
  // the rows as before — AssignCount projects by a different mask.
  auto CandidateF = [&](const Candidate &C, const uint32_t *CRows,
                        uint16_t CG) -> double {
    switch (Opts.Heuristic) {
    case HeuristicKind::PermCount:
      return CG + static_cast<double>(C.Perm - 1);
    case HeuristicKind::NeededInstrs:
      if (DT && Opts.UseViability)
        return CG + static_cast<double>(C.Needed);
      break;
    default:
      break;
    }
    return CG + Heuristic(CRows, C.RowLen, Scratch);
  };

  double NextTrace = Opts.TraceIntervalSeconds;
  size_t PopsSinceCheck = 0;

  while (!Open.empty()) {
    if (++PopsSinceCheck >= 512) {
      PopsSinceCheck = 0;
      NotePeak();
      Result.Stats.Stopped = overBudget(Opts, StateBytes());
      if (Result.Stats.Stopped != StopReason::None)
        break;
      if (Opts.TraceIntervalSeconds > 0 && Timer.seconds() >= NextTrace) {
        NextTrace += Opts.TraceIntervalSeconds;
        Result.Trace.push_back(
            TracePoint{Timer.seconds(), Open.size(), Result.SolutionCount});
      }
    }

    OpenEntry Top = Open.top();
    Open.pop();
    const uint32_t Index = Top.Index;
    const uint16_t G = Arena[Index].G;
    if (Top.G != G)
      continue; // Stale entry for a state later reached more cheaply.
    const RowSpan Span = Arena[Index].Rows;
    const PrefixLint Lint = Arena[Index].Lint;
    // The arena only grows at the commit loop below; this pointer is
    // stable through the sorted check and the expansion.
    const uint32_t *Rows = RowStore.rows(Span);

    bool Sorted = true;
    for (uint32_t R = 0; R != Span.Len; ++R)
      if (!M.accepts(Rows[R])) {
        Sorted = false;
        break;
      }
    if (Sorted) {
      Result.Found = true;
      Result.OptimalLength = G;
      Result.SolutionCount = 1;
      Result.Solutions.push_back(reconstruct(Arena, Index));
      break;
    }
    if (G >= Opts.MaxLength)
      continue;

    ++Result.Stats.StatesExpanded;
    const uint16_t ChildG = G + 1;
    Batch.clear();
    Pipeline.expandNode(Rows, Span.Len, Lint, Index, ChildG, Batch, Actions,
                        Result.Stats);

    ScopedNanoTimer MergeTimer(Opts.ProfilePipeline, Result.Stats.MergeNanos);
    for (const Candidate &C : Batch.List) {
      const uint32_t *CRows = Batch.rowsOf(C);
      IndexShard &Shard = Store.shard(StateStore::shardOf(C.Hash));
      uint64_t Hit = Shard.find(C.Hash, [&](uint64_t P) {
        return RowStore.equals(Arena[P].Rows, CRows, C.RowLen);
      });
      if (Hit != IndexShard::kNotFound) {
        Node &Existing = Arena[Hit];
        if (Existing.G > ChildG) {
          // Reached more cheaply (possible with inconsistent heuristics):
          // refresh the node in place and requeue. The lint summary
          // follows the represented program; the requeued entry causes a
          // re-expansion, so earlier prune decisions are reconsidered.
          Existing.G = ChildG;
          Existing.Parent = Index;
          Existing.Via = C.Via;
          Existing.Lint = C.Lint;
          Open.push(OpenEntry{CandidateF(C, CRows, ChildG), ChildG,
                              static_cast<uint32_t>(Hit)});
        }
        ++Result.Stats.DedupHits;
        continue;
      }

      Cuts.observe(ChildG, C.Perm);
      uint32_t NewIndex = static_cast<uint32_t>(Arena.size());
      Arena.push_back(Node{RowStore.append(CRows, C.RowLen), Index, C.Via,
                           ChildG, C.Lint});
      Shard.insert(C.Hash, NewIndex);
      Open.push(OpenEntry{CandidateF(C, CRows, ChildG), ChildG, NewIndex});
    }
  }

  NotePeak();
  Result.Stats.Seconds = Timer.seconds();
  return Result;
}

const char *sks::stopReasonName(StopReason R) {
  static const char *const Names[] = {"none", "timeout", "cancelled",
                                      "state-store budget exhausted"};
  return Names[static_cast<unsigned>(R)];
}

unsigned sks::networkUpperBound(MachineKind Kind, unsigned N) {
  // Minimal comparator counts for n = 2..6 (known optimal networks). A
  // pure cmov kernel is also a valid hybrid kernel, so the cmov network
  // bounds the hybrid machine too.
  static const unsigned Comparators[7] = {0, 0, 1, 3, 5, 9, 12};
  assert(N >= 2 && N <= 6 && "networks known for n in 2..6");
  return (Kind == MachineKind::MinMax ? 3 : 4) * Comparators[N];
}

SearchOptions sks::bestEnumConfig(MachineKind Kind, unsigned N) {
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::PermCount;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::mult(1.0);
  Opts.MaxLength = networkUpperBound(Kind, N);
  return Opts;
}

SearchResult sks::synthesize(const Machine &M, const SearchOptions &Opts,
                             const DistanceTable *SharedTable) {
  bool NeedsTable = Opts.UseViability || Opts.UseActionFilter ||
                    Opts.Heuristic == HeuristicKind::NeededInstrs;
  std::unique_ptr<DistanceTable> Owned;
  const DistanceTable *DT = SharedTable;
  if (NeedsTable && !DT) {
    Owned = std::make_unique<DistanceTable>(M);
    DT = Owned.get();
  }
  if (!NeedsTable)
    DT = nullptr;
  if (Opts.FindAll || Opts.Layered || Opts.NumThreads > 1 ||
      Opts.CompressFrontier)
    return detail::layeredSearch(M, Opts, DT);
  return detail::bestFirstSearch(M, Opts, DT);
}

OptimalSynthesis sks::synthesizeOptimal(const Machine &M,
                                        const SearchOptions &Opts,
                                        const StopToken &ProofStop,
                                        const DistanceTable *SharedTable) {
  OptimalSynthesis Result;
  Result.Synthesis = synthesize(M, Opts, SharedTable);
  if (!Result.Synthesis.Found || Result.Synthesis.OptimalLength == 0)
    return Result;
  Stopwatch ProofTimer;
  SearchResult Proof;
  Result.MinimalityProven =
      proveNoKernelOfLength(M, Result.Synthesis.OptimalLength - 1, Proof,
                            SharedTable, ProofStop);
  Result.ProofSeconds = ProofTimer.seconds();
  return Result;
}

bool sks::proveNoKernelOfLength(const Machine &M, unsigned Length,
                                SearchResult &Result,
                                const DistanceTable *SharedTable,
                                const StopToken &Stop) {
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.Cut = CutConfig::none();
  Opts.UseViability = true; // Admissible: cannot prune a real solution.
  Opts.UseActionFilter = false;
  Opts.MaxLength = Length;
  Opts.Layered = true;
  Opts.Stop = Stop;
  Result = synthesize(M, Opts, SharedTable);
  return !Result.Found && Result.Stats.Stopped == StopReason::None;
}
