//===- search/Layered.cpp - Layered (Dijkstra-by-length) engine -----------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The layered engine expands all states of program length L before any
// state of length L+1 (the paper's Dijkstra mode: "we can process all
// programs of a certain length in parallel to obtain the next length").
// States are deduplicated globally; because every prefix of a minimal
// kernel is a shortest path to its intermediate state, a state rediscovered
// at a deeper level can never lie on a minimal kernel and is skipped, while
// rediscoveries at the same level merge into one node of the solution DAG.
//
// The DAG makes the all-solutions experiments tractable: the number of
// distinct optimal kernels is a path count computed by dynamic programming
// (Ways), and individual kernels are reconstructed by walking parent edges
// — no kernel is ever enumerated twice the way a plain program-by-program
// walk would.
//
// Expansion is one node-major loop over static worker ranges: worker W
// expands one contiguous slice of the level into its own candidate batch,
// so the concatenated batches list candidates in the same order for any
// thread count. A one-thread pool runs the whole range inline as worker 0;
// that is the sequential engine, not a separate copy of it.
//
// Budgets: one check (overBudget) polls the stop token, the MaxStates cap
// and the byte budget. The level loop runs it before each level; the
// workers of the expansion and of merge phase 1 run it at periodic
// checkpoints (checkpoint), which also publish their progress and let
// worker 0 emit the Figure 1 trace point.
//
// Storage and parallelism (state/StateStore.h): all row data lives in one
// flat arena per level addressed by (offset, len) handles, and the dedup
// index is sharded by the high bits of the state hash. Equal canonical rows
// imply equal hash, hence the same shard, so the per-level merge runs one
// worker per shard with no synchronization on the node data:
//
//   phase 0  partition surviving candidates by shard, one partition per
//            batch in parallel; each shard reads them batch-major — the
//            exact order the sequential engine would process them;
//   phase 1  per-shard dedup/DAG-merge into shard-local nodes + rows + a
//            local index, scheduled by work stealing with shards seeded in
//            descending candidate-count order (deadline/limit-checked via
//            atomics);
//   phase 2  prefix-sum shard sizes into per-level shard bases and bulk-
//            commit nodes, rows, and index entries — work-stolen per
//            shard, seeded by descending row bytes.
//
// Work stealing preserves bit-identity for free: a shard is always
// processed WHOLLY by one worker in the fixed batch-major candidate
// order, per-shard sums (Ways, SolutionCount) and mins (the cut
// observation) are order-independent across shards, and phase 2 commits
// through prefix-summed bases — so which worker ran which shard, and
// when, cannot show up in the result. The merged DAG and the exact
// solution count are bit-identical to the sequential engine's for any
// thread count.
//
// Frontier lifecycle (SearchOptions::CompressFrontier): once level G has
// been expanded and level G+1 committed, G's rows are only ever read
// again by the committed-level dedup probe below (reconstruct() walks
// parent edges, never rows) — so the run loop retires it:
// StateStore::retireLevel seals the arena into delta/varint blocks and
// optionally spills the oldest sealed blobs to disk. Probes then go
// through StateStore::rowsEqual with one DecodeCache per worker, keeping
// phase 1 synchronization-free.
//
//===----------------------------------------------------------------------===//

#include "search/Expansion.h"

#include "support/ThreadPool.h"
#include "support/Timing.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <numeric>

using namespace sks;
using namespace sks::detail;

namespace {

/// One incoming DAG edge: parent index in the previous level, the
/// instruction (expressed against the parent's canonical rows), and the
/// symmetry witness that canonicalized the resulting child rows (0 without
/// SymmetryReduce; see analysis/Symmetry.h liftProgram).
struct ParentEdge {
  uint32_t Parent;
  Instr Via;
  uint8_t Witness;
};

/// One node of the solution DAG. Rows live in the owning level's arena.
struct LNode {
  RowSpan Rows;
  /// All incoming edges; populated only in FindAll mode.
  /// FirstParent/FirstVia/FirstWitness always hold one edge.
  std::vector<ParentEdge> Parents;
  uint32_t FirstParent = UINT32_MAX;
  Instr FirstVia{Opcode::Mov, 0, 0};
  uint8_t FirstWitness = 0;
  /// Number of distinct programs of length <level> reaching this state.
  uint64_t Ways = 0;
  bool Sorted = false;
  /// Meet of the syntactic-prune summaries of every program merged into
  /// this node (only maintained with SearchOptions::SyntacticPrune).
  PrefixLint Lint = PrefixLint::entry();
};

/// Index payload: (level << 32) | shard-local node index. The shard is
/// implicit in which IndexShard holds the entry; ShardBases rebases the
/// local index to a level-global one, so committing a merged level never
/// rewrites payloads.
uint64_t packRef(unsigned Level, uint32_t Local) {
  return (static_cast<uint64_t>(Level) << 32) | Local;
}
unsigned refLevel(uint64_t Payload) {
  return static_cast<unsigned>(Payload >> 32);
}
uint32_t refLocal(uint64_t Payload) { return static_cast<uint32_t>(Payload); }

/// Abort reasons raced into a single atomic flag inside parallel regions.
enum AbortReason : uint32_t { AbortNone = 0, AbortTime = 1, AbortMemory = 2 };

/// Shared state of one parallel phase (a level expansion or merge phase
/// 1), polled by LayeredEngine::checkpoint. Workers publish running totals
/// through relaxed atomics: the budget needs totals, not a consistent
/// snapshot. The first failed check publishes its reason, and every other
/// worker stops at its next checkpoint.
struct Phase {
  const StopToken &Budget;
  const std::function<void(size_t)> &Trace;
  const size_t Work;      ///< Work items: level nodes or candidates.
  const size_t BaseBytes; ///< Committed state bytes when the phase began.
  std::atomic<uint32_t> Abort{AbortNone};
  /// Published totals: uncommitted states (candidates or new nodes), their
  /// bytes, and work items done.
  std::atomic<size_t> States{0}, Bytes{0}, Done{0};
};

/// What one unit of work (a worker's node range, a merge shard) has
/// published to its Phase so far; each checkpoint adds the difference.
struct Published {
  size_t States = 0, Bytes = 0, Done = 0;
};

/// One shard's output of a level merge (phase 1), committed in phase 2.
struct ShardMerge {
  std::vector<LNode> Nodes;
  /// Parallel to Nodes: meet of the order-domain states of every program
  /// merged into the node (only with SearchOptions::SemanticPrune). Kept
  /// out of LNode so the option costs nothing when off.
  std::vector<OrderState> Orders;
  std::vector<uint32_t> Rows; ///< New row data, shard-local offsets.
  IndexShard Local;           ///< Hash -> packRef(ChildG, local index).
  size_t DedupHits = 0;
  uint64_t SolutionDelta = 0;
  unsigned MinPerm = 0; ///< 0 = no new node observed.
  bool FoundSorted = false;

  size_t bytesUsed() const {
    return Rows.capacity() * sizeof(uint32_t) +
           Nodes.capacity() * sizeof(LNode) +
           Orders.capacity() * sizeof(OrderState) + Local.bytesUsed();
  }
};

class LayeredEngine {
public:
  LayeredEngine(const Machine &M, const SearchOptions &Opts,
                const DistanceTable *DT)
      : M(M), Opts(Opts), DT(DT), Cuts(Opts.Cut, Opts.MaxLength),
        Sym(makeSymmetryTable(M, Opts)), Pipeline(M, Opts, DT, Cuts, Sym.get()),
        Pool(Opts.NumThreads > 1 ? Opts.NumThreads : 1),
        Caches(Pool.size()) {
    Store.configureFrontier(
        {Opts.CompressFrontier, Opts.SpillDir, Opts.SpillThresholdBytes});
  }

  SearchResult run();

private:
  static constexpr unsigned kNumShards = StateStore::kNumShards;

  bool expandLevel(unsigned G, std::vector<CandidateBatch> &Batches,
                   SearchResult &Result, const StopToken &Budget,
                   const std::function<void(size_t)> &Trace);
  bool mergeLevel(std::vector<CandidateBatch> &Batches, unsigned ChildG,
                  SearchResult &Result, const StopToken &Budget,
                  const std::function<void(size_t)> &Trace,
                  bool &FoundSorted);
  void reconstruct(uint32_t Level, uint32_t Index, Program &Suffix,
                   std::vector<uint8_t> &WSuffix, SearchResult &Result) const;

  const uint32_t *rowsOf(unsigned Level, const LNode &N) const {
    return Store.arena(Level).rows(N.Rows);
  }
  /// Resident bytes of everything the run keeps: arenas (flat or
  /// compressed) + index + nodes. Spill-file bytes are NOT here — this is
  /// what MaxStateBytes budgets, so spilling relieves the budget.
  size_t stateBytes() const { return Store.bytesUsed() + NodeBytes; }
  size_t cacheBytes() const {
    size_t Bytes = 0;
    for (const DecodeCache &C : Caches)
      Bytes += C.bytesUsed();
    return Bytes;
  }
  /// Updates the resident / total high-water marks after a commit point.
  void notePeaks(SearchResult &Result) const {
    const size_t Resident = stateBytes() + cacheBytes();
    const FrontierCounters &FC = Store.frontierCounters();
    Result.Stats.PeakResidentBytes =
        std::max(Result.Stats.PeakResidentBytes, Resident);
    Result.Stats.SpilledBytes =
        std::max(Result.Stats.SpilledBytes, FC.SpilledBytes);
    Result.Stats.PeakStateBytes =
        std::max(Result.Stats.PeakStateBytes, Resident + FC.SpilledBytes);
  }
  void recordAbort(SearchResult &Result, uint32_t Reason) const {
    Result.Stats.TimedOut = true;
    if (Reason == AbortMemory)
      Result.Stats.MemoryLimited = true;
  }
  /// The one budget check: the stop token (deadline and cancellation), the
  /// state cap \p StateCap (0 = none) and the byte budget, over \p States
  /// states holding \p Bytes bytes. \returns the abort reason, or
  /// AbortNone.
  AbortReason overBudget(const StopToken &Budget, size_t States,
                         size_t Bytes, size_t StateCap) const {
    if (Budget.stopRequested())
      return AbortTime;
    if ((StateCap > 0 && States >= StateCap) ||
        (Opts.MaxStateBytes > 0 && Bytes > Opts.MaxStateBytes))
      return AbortMemory;
    return AbortNone;
  }
  bool checkpoint(Phase &Ph, Published &Mine, unsigned W, size_t States,
                  size_t Bytes, size_t Done) const;

  const Machine &M;
  const SearchOptions &Opts;
  const DistanceTable *DT;
  CutTracker Cuts;
  /// Non-null exactly when SymmetryReduce is on and the group is
  /// non-trivial; declared before Pipeline, which captures Sym.get().
  std::unique_ptr<SymmetryTable> Sym;
  CandidatePipeline Pipeline;
  ThreadPool Pool;
  /// One decode cache per pool worker (indexed by worker id): sealed-level
  /// dedup probes decode compressed blocks through these, so phase 1 stays
  /// synchronization-free and the decode stats sum across workers.
  std::vector<DecodeCache> Caches;
  Stopwatch Timer;
  StateStore Store;
  std::vector<std::vector<LNode>> Levels;
  /// Parallel to Levels: per-node order-domain states, maintained (and
  /// allocated) only with SearchOptions::SemanticPrune; every vector stays
  /// empty otherwise. The meet over merged programs is bitwise, hence
  /// candidate-order-independent, so the states — and the prune decisions
  /// they drive — are identical for any thread count or expansion mode.
  std::vector<std::vector<OrderState>> LevelOrders;
  /// Per level: the level-global index of each shard's first node.
  std::vector<std::array<uint32_t, kNumShards>> ShardBases;
  size_t NodeBytes = 0;     ///< LNode + Parents storage across levels.
  size_t StoredStates = 1;  ///< Total nodes (the MaxStates budget).
  double BranchEstimate = 0; ///< Candidates-per-node of the last level.
};

} // namespace

/// A worker's checkpoint inside a parallel phase. Publishes the running
/// totals of one unit of work (\p States uncommitted states holding
/// \p Bytes bytes after \p Done work items), then stops the worker when
/// another one has aborted or the budget is spent. Uncommitted states
/// (pre-dedup candidates, or nodes the merge has not committed yet) get
/// 2x MaxStates slack, so runs the count-only budget lets finish still
/// finish, but runaway levels abort. Worker 0 also emits the trace point,
/// counting unconsumed work items plus uncommitted states as open.
/// \returns false when the worker must stop.
bool LayeredEngine::checkpoint(Phase &Ph, Published &Mine, unsigned W,
                               size_t States, size_t Bytes,
                               size_t Done) const {
  constexpr std::memory_order Relaxed = std::memory_order_relaxed;
  Ph.States.fetch_add(States - Mine.States, Relaxed);
  Ph.Bytes.fetch_add(Bytes - Mine.Bytes, Relaxed);
  Ph.Done.fetch_add(Done - Mine.Done, Relaxed);
  Mine = {States, Bytes, Done};
  if (Ph.Abort.load(Relaxed) != AbortNone)
    return false;
  const size_t Open = Ph.States.load(Relaxed);
  if (AbortReason Reason =
          overBudget(Ph.Budget, StoredStates + Open,
                     Ph.BaseBytes + Ph.Bytes.load(Relaxed),
                     2 * Opts.MaxStates)) {
    Ph.Abort.store(Reason, Relaxed);
    return false;
  }
  if (W == 0)
    Ph.Trace(Ph.Work - std::min(Ph.Work, Ph.Done.load(Relaxed)) + Open);
  return true;
}

/// Expands every node of level \p G through the shared pipeline into one
/// candidate batch per pool worker: node-major over static worker ranges,
/// with a checkpoint every 64 nodes and at the end of each range. Each
/// worker counts the nodes it actually expanded, so StatesExpanded stays
/// exact when the level aborts part-way.
/// \returns false when the expansion aborted (abort flags recorded).
bool LayeredEngine::expandLevel(unsigned G,
                                std::vector<CandidateBatch> &Batches,
                                SearchResult &Result, const StopToken &Budget,
                                const std::function<void(size_t)> &Trace) {
  const std::vector<LNode> &Level = Levels[G];
  const std::vector<OrderState> *Orders =
      Opts.SemanticPrune ? &LevelOrders[G] : nullptr;
  const unsigned ChildG = G + 1;
  const unsigned Workers = Pool.size();
  const size_t RowsPerState =
      std::max<size_t>(1, Store.arena(G).size() / Level.size());
  const double Branch = BranchEstimate > 0
                            ? BranchEstimate
                            : static_cast<double>(M.instructions().size());
  const size_t Expected = static_cast<size_t>(Level.size() * Branch) + 16;
  Batches.resize(Workers);
  for (CandidateBatch &B : Batches) {
    B.clear();
    B.reserveFor(Expected / Workers + 16, RowsPerState);
  }
  std::vector<SearchStats> WorkerStats(Workers);
  Phase Ph{Budget, Trace, Level.size(), stateBytes()};
  Pool.parallelFor(Level.size(), [&](size_t Begin, size_t End, unsigned W) {
    CandidateBatch &B = Batches[W];
    SearchStats &S = WorkerStats[W];
    std::vector<Instr> Actions;
    Published Mine;
    for (size_t I = Begin; I != End; ++I) {
      const LNode &Node = Level[I];
      Pipeline.expandNode(rowsOf(G, Node), Node.Rows.Len, Node.Lint,
                          Orders ? &(*Orders)[I] : nullptr,
                          static_cast<uint32_t>(I), ChildG, B, Actions, S);
      ++S.StatesExpanded;
      if ((((I - Begin) & 63u) == 63u || I + 1 == End) &&
          !checkpoint(Ph, Mine, W, B.List.size(), B.bytesUsed(),
                      I + 1 - Begin))
        return;
    }
  });
  for (const SearchStats &S : WorkerStats) {
    Result.Stats.StatesExpanded += S.StatesExpanded;
    Result.Stats.StatesGenerated += S.StatesGenerated;
    Result.Stats.ViabilityPruned += S.ViabilityPruned;
    Result.Stats.CutStates += S.CutStates;
    Result.Stats.ActionsFiltered += S.ActionsFiltered;
    Result.Stats.SyntacticPruned += S.SyntacticPruned;
    Result.Stats.SemanticPruned += S.SemanticPruned;
    Result.Stats.SymmetryMerged += S.SymmetryMerged;
    // Stage profile: CPU time summed over workers (see Search.h).
    Result.Stats.ApplyNanos += S.ApplyNanos;
    Result.Stats.CanonNanos += S.CanonNanos;
    Result.Stats.ViabilityNanos += S.ViabilityNanos;
  }
  if (uint32_t Reason = Ph.Abort.load(std::memory_order_relaxed)) {
    recordAbort(Result, Reason);
    return false;
  }
  return true;
}

/// Folds expansion candidates into the next level with global dedup: the
/// three-phase sharded merge described in the file header. \returns false
/// when the merge aborted before commit (abort flags recorded; the partial
/// level is discarded).
bool LayeredEngine::mergeLevel(std::vector<CandidateBatch> &Batches,
                               unsigned ChildG, SearchResult &Result,
                               const StopToken &Budget,
                               const std::function<void(size_t)> &Trace,
                               bool &FoundSorted) {
  // The whole three-phase merge counts as the Merge stage (wall-clock;
  // the per-shard phase-1 workers are inside this scope).
  ScopedNanoTimer MergeTimer(Opts.ProfilePipeline, Result.Stats.MergeNanos);
  // Phase 0: partition candidate indices by shard, one partition per
  // batch so the batches split across workers (the old single-threaded
  // pass serialized ~1/6 of the merge). Phase 1 walks Parts batch-major,
  // so each shard still sees candidates in the exact order the sequential
  // engine would process them and FirstParent / FirstVia and the DAG are
  // identical for any thread count.
  const uint32_t NumBatches = static_cast<uint32_t>(Batches.size());
  size_t Total = 0;
  for (const CandidateBatch &B : Batches)
    Total += B.List.size();
  std::vector<std::array<std::vector<uint32_t>, kNumShards>> Parts(NumBatches);
  Pool.parallelFor(NumBatches, [&](size_t Begin, size_t End, unsigned) {
    for (size_t BI = Begin; BI != End; ++BI) {
      std::array<std::vector<uint32_t>, kNumShards> &P = Parts[BI];
      const std::vector<Candidate> &List = Batches[BI].List;
      for (std::vector<uint32_t> &V : P)
        V.reserve(List.size() / kNumShards + 4);
      for (uint32_t CI = 0; CI != List.size(); ++CI)
        P[StateStore::shardOf(List[CI].Hash)].push_back(CI);
    }
  });
  BranchEstimate = static_cast<double>(Total) /
                   static_cast<double>(Levels[ChildG - 1].size());

  // Phase 1: per-shard dedup/DAG-merge. Only shard-local state is written;
  // committed levels and the previous level's Ways are read-only (sealed
  // arenas decode through the worker's own cache). Shards are seeded to
  // the work-stealing deques in descending candidate-count order — LPT
  // scheduling with stealing as the correction, replacing the shared
  // dynamic cursor that hash-skewed shard sizes used to contend on.
  const std::vector<LNode> &Prev = Levels[ChildG - 1];
  const std::vector<OrderState> *PrevOrders =
      Opts.SemanticPrune ? &LevelOrders[ChildG - 1] : nullptr;
  std::vector<ShardMerge> Shards(kNumShards);
  Phase Ph{Budget, Trace, Total, stateBytes()};

  std::array<size_t, kNumShards> ShardCount{};
  for (uint32_t BI = 0; BI != NumBatches; ++BI)
    for (unsigned S = 0; S != kNumShards; ++S)
      ShardCount[S] += Parts[BI][S].size();
  std::vector<uint32_t> MergeOrder(kNumShards);
  std::iota(MergeOrder.begin(), MergeOrder.end(), 0u);
  std::stable_sort(MergeOrder.begin(), MergeOrder.end(),
                   [&](uint32_t A, uint32_t B) {
                     return ShardCount[A] > ShardCount[B];
                   });

  Pool.parallelForTasks(
      MergeOrder, [&](uint32_t Shard, unsigned W) {
        const unsigned S = Shard;
        DecodeCache &Cache = Caches[W];
        ShardMerge &Sh = Shards[S];
        Sh.Nodes.reserve(ShardCount[S] / 2 + 8);
        size_t Seen = 0;
        Published Mine;
        for (uint32_t BI = 0; BI != NumBatches; ++BI) {
          const CandidateBatch &B = Batches[BI];
          for (uint32_t CI : Parts[BI][S]) {
            if ((Seen++ & 511u) == 511u &&
                !checkpoint(Ph, Mine, W, Sh.Nodes.size(), Sh.bytesUsed(),
                            Seen))
              return;
            const Candidate &C = B.List[CI];
            const uint32_t *CRows = B.rowsOf(C);

            // Committed-level probe: any hit is a strictly shallower
            // rediscovery (this level is not committed yet) — never on a
            // minimal kernel, so only count it. Retired levels decode
            // through this worker's cache (StateStore::rowsEqual).
            uint64_t Hit =
                Store.shard(S).find(C.Hash, [&](uint64_t P) {
                  unsigned L = refLevel(P);
                  const LNode &N = Levels[L][ShardBases[L][S] + refLocal(P)];
                  return Store.rowsEqual(L, N.Rows, CRows, C.RowLen, Cache);
                });
            if (Hit != IndexShard::kNotFound) {
              ++Sh.DedupHits;
              continue;
            }

            // The child's order-domain state: facts about the canonical
            // rows, so merging it (by meet, below) over every program
            // reaching the node keeps only program-independent facts.
            // Under SymmetryReduce the stored rows are the WITNESS-renamed
            // rows, so the order facts rename along with them.
            OrderState ChildOrder;
            if (PrevOrders) {
              ChildOrder = (*PrevOrders)[C.Parent].extended(C.Via);
              if (C.Witness != 0) {
                const SymmetryElem &El = Sym->elem(C.Witness);
                ChildOrder = ChildOrder.renamed(El.Perm, El.FlagSwap);
              }
            }

            // Same-level probe: merge into the DAG node.
            uint64_t LocalHit = Sh.Local.find(C.Hash, [&](uint64_t P) {
              const LNode &N = Sh.Nodes[refLocal(P)];
              return N.Rows.Len == C.RowLen &&
                     std::equal(CRows, CRows + C.RowLen,
                                Sh.Rows.data() + N.Rows.Offset);
            });
            if (LocalHit != IndexShard::kNotFound) {
              LNode &Node = Sh.Nodes[refLocal(LocalHit)];
              Node.Ways += Prev[C.Parent].Ways;
              Node.Lint.meet(C.Lint);
              if (PrevOrders)
                Sh.Orders[refLocal(LocalHit)].meet(ChildOrder);
              if (Node.Sorted)
                Sh.SolutionDelta += Prev[C.Parent].Ways;
              if (Opts.FindAll)
                Node.Parents.push_back({C.Parent, C.Via, C.Witness});
              ++Sh.DedupHits;
              continue;
            }

            // New canonical state.
            LNode Node;
            Node.Rows =
                RowSpan{static_cast<uint32_t>(Sh.Rows.size()), C.RowLen};
            Sh.Rows.insert(Sh.Rows.end(), CRows, CRows + C.RowLen);
            Node.FirstParent = C.Parent;
            Node.FirstVia = C.Via;
            Node.FirstWitness = C.Witness;
            Node.Lint = C.Lint;
            Node.Ways = Prev[C.Parent].Ways;
            if (Opts.FindAll)
              Node.Parents.push_back({C.Parent, C.Via, C.Witness});
            Node.Sorted = true;
            for (uint32_t R = 0; R != C.RowLen; ++R)
              if (!M.accepts(CRows[R])) {
                Node.Sorted = false;
                break;
              }
            if (Node.Sorted) {
              Sh.FoundSorted = true;
              Sh.SolutionDelta += Node.Ways;
            }
            // The cut observes only new unique states, exactly like the
            // sequential engine; the per-shard minimum commits below.
            if (Sh.MinPerm == 0 || C.Perm < Sh.MinPerm)
              Sh.MinPerm = C.Perm;
            Sh.Local.insert(C.Hash, packRef(ChildG, static_cast<uint32_t>(
                                                        Sh.Nodes.size())));
            Sh.Nodes.push_back(std::move(Node));
            if (PrevOrders)
              Sh.Orders.push_back(ChildOrder);
          }
        }
      });

  if (uint32_t Reason = Ph.Abort.load(std::memory_order_relaxed)) {
    recordAbort(Result, Reason);
    return false;
  }

  // Phase 2: commit. Prefix-sum the shard sizes into this level's bases,
  // then bulk-move nodes, rows, and index entries — work-stolen per
  // shard, seeded by descending row bytes (shards commit into disjoint
  // [Bases[S], Bases[S+1]) slices, so scheduling cannot affect layout).
  std::array<uint32_t, kNumShards> Bases{}, RowBases{};
  uint32_t NodeTotal = 0, RowTotal = 0;
  for (unsigned S = 0; S != kNumShards; ++S) {
    Bases[S] = NodeTotal;
    RowBases[S] = RowTotal;
    NodeTotal += static_cast<uint32_t>(Shards[S].Nodes.size());
    RowTotal += static_cast<uint32_t>(Shards[S].Rows.size());
  }
  ShardBases.push_back(Bases);
  std::vector<LNode> &Next = Levels.emplace_back();
  Next.resize(NodeTotal);
  std::vector<OrderState> &NextOrders = LevelOrders.emplace_back();
  if (Opts.SemanticPrune)
    NextOrders.resize(NodeTotal);
  RowArena &Arena = Store.arena(ChildG);
  Arena.resize(RowTotal);
  std::vector<uint32_t> CommitOrder(kNumShards);
  std::iota(CommitOrder.begin(), CommitOrder.end(), 0u);
  std::stable_sort(CommitOrder.begin(), CommitOrder.end(),
                   [&](uint32_t A, uint32_t B) {
                     return Shards[A].Rows.size() > Shards[B].Rows.size();
                   });
  Pool.parallelForTasks(CommitOrder, [&](uint32_t Shard, unsigned) {
    const unsigned S = Shard;
    ShardMerge &Sh = Shards[S];
    if (!Sh.Rows.empty())
      std::memcpy(Arena.data() + RowBases[S], Sh.Rows.data(),
                  Sh.Rows.size() * sizeof(uint32_t));
    for (size_t I = 0; I != Sh.Nodes.size(); ++I) {
      LNode &N = Sh.Nodes[I];
      N.Rows.Offset += RowBases[S];
      Next[Bases[S] + I] = std::move(N);
    }
    for (size_t I = 0; I != Sh.Orders.size(); ++I)
      NextOrders[Bases[S] + I] = Sh.Orders[I];
    IndexShard &Global = Store.shard(S);
    Sh.Local.forEach(
        [&](uint64_t H, uint64_t P) { Global.insert(H, P); });
  });

  // Fold per-shard results; sums and mins are order-independent.
  for (const ShardMerge &Sh : Shards) {
    Result.Stats.DedupHits += Sh.DedupHits;
    Result.SolutionCount += Sh.SolutionDelta;
    if (Sh.MinPerm != 0)
      Cuts.observe(ChildG, Sh.MinPerm);
    FoundSorted |= Sh.FoundSorted;
  }
  NodeBytes += Next.capacity() * sizeof(LNode) +
               NextOrders.capacity() * sizeof(OrderState);
  if (Opts.FindAll)
    for (const LNode &N : Next)
      NodeBytes += N.Parents.capacity() * sizeof(ParentEdge);
  return true;
}

void LayeredEngine::reconstruct(uint32_t Level, uint32_t Index,
                                Program &Suffix, std::vector<uint8_t> &WSuffix,
                                SearchResult &Result) const {
  if (Result.Solutions.size() >= Opts.MaxSolutionsKept)
    return;
  if (Level == 0) {
    Program P(Suffix.rbegin(), Suffix.rend());
    if (Sym) {
      // Lift the canonical-namespace path back to original register names
      // (analysis/Symmetry.h). The root state is fixed by the whole group,
      // so the walk starts at the identity witness.
      std::vector<uint8_t> W(WSuffix.rbegin(), WSuffix.rend());
      P = liftProgram(*Sym, P, W);
    }
    Result.Solutions.push_back(std::move(P));
    return;
  }
  const LNode &Node = Levels[Level][Index];
  if (Opts.FindAll && !Node.Parents.empty()) {
    for (const ParentEdge &E : Node.Parents) {
      Suffix.push_back(E.Via);
      WSuffix.push_back(E.Witness);
      reconstruct(Level - 1, E.Parent, Suffix, WSuffix, Result);
      Suffix.pop_back();
      WSuffix.pop_back();
      if (Result.Solutions.size() >= Opts.MaxSolutionsKept)
        return;
    }
    return;
  }
  Suffix.push_back(Node.FirstVia);
  WSuffix.push_back(Node.FirstWitness);
  reconstruct(Level - 1, Node.FirstParent, Suffix, WSuffix, Result);
  Suffix.pop_back();
  WSuffix.pop_back();
}

SearchResult LayeredEngine::run() {
  SearchResult Result;
  StopToken Budget = Opts.Stop.withDeadline(Opts.TimeoutSeconds);

  // No references into Levels/ShardBases survive a level commit, but
  // reserving up front removes the whole outer-reallocation hazard class.
  Levels.reserve(Opts.MaxLength + 2);
  LevelOrders.reserve(Opts.MaxLength + 2);
  ShardBases.reserve(Opts.MaxLength + 2);

  SearchState Init = initialState(M);
  {
    std::vector<uint32_t> Scratch;
    Cuts.observe(0, countDistinctGoal(Init.Rows, M, Scratch));
  }
  LNode Root;
  Root.Rows = Store.arena(0).append(Init.Rows.data(),
                                    static_cast<uint32_t>(Init.Rows.size()));
  Root.Ways = 1;
  Root.Sorted = allSorted(M, SearchState{Init.Rows});
  uint64_t RootHash = hashWords(Init.Rows.data(), Init.Rows.size());
  Store.shard(StateStore::shardOf(RootHash)).insert(RootHash, packRef(0, 0));
  Levels.emplace_back().push_back(std::move(Root));
  LevelOrders.emplace_back();
  if (Opts.SemanticPrune)
    LevelOrders[0].push_back(OrderState::entry(M.numData()));
  ShardBases.push_back({});
  NodeBytes += Levels[0].capacity() * sizeof(LNode) +
               LevelOrders[0].capacity() * sizeof(OrderState);
  notePeaks(Result);
  Result.Stats.LevelStates.push_back(Levels[0].size());

  double NextTrace = Opts.TraceIntervalSeconds;
  std::function<void(size_t)> MaybeTrace = [&](size_t OpenStates) {
    if (Opts.TraceIntervalSeconds <= 0 || Timer.seconds() < NextTrace)
      return;
    NextTrace += Opts.TraceIntervalSeconds;
    Result.Trace.push_back(
        TracePoint{Timer.seconds(), OpenStates, Result.SolutionCount});
  };

  unsigned FinalLevel = 0;
  bool Found = Levels[0][0].Sorted;
  for (unsigned G = 0; !Found && G < Opts.MaxLength; ++G) {
    if (Levels[G].empty())
      break;
    if (AbortReason Reason =
            overBudget(Budget, StoredStates, stateBytes(), Opts.MaxStates)) {
      recordAbort(Result, Reason);
      break;
    }
    unsigned ChildG = G + 1;
    std::vector<CandidateBatch> Batches;
    if (!expandLevel(G, Batches, Result, Budget, MaybeTrace))
      break;
    if (Budget.stopRequested()) {
      Result.Stats.TimedOut = true;
      break;
    }
    bool FoundSorted = false;
    if (!mergeLevel(Batches, ChildG, Result, Budget, MaybeTrace, FoundSorted))
      break;
    Found = FoundSorted;
    StoredStates += Levels[ChildG].size();
    Result.Stats.LevelStates.push_back(Levels[ChildG].size());
    FinalLevel = ChildG;
    notePeaks(Result);
    // Level G has left the expansion window: the only reads it will ever
    // see again are dedup probes, which go through the decode layer — so
    // compress (and maybe spill) it. After a solution is found nothing
    // reads retired rows at all (reconstruct walks parent edges), so
    // skip the final seal. notePeaks above already charged the peak.
    if (!Found)
      Store.retireLevel(G);
    MaybeTrace(Levels[ChildG].size());
  }

  if (Found) {
    Result.Found = true;
    Result.OptimalLength = FinalLevel;
    Result.SolutionCount = 0;
    for (uint32_t I = 0; I != Levels[FinalLevel].size(); ++I) {
      const LNode &Node = Levels[FinalLevel][I];
      if (!Node.Sorted)
        continue;
      Result.SolutionCount += Node.Ways;
      if (Opts.MaxSolutionsKept > 0 &&
          (Opts.FindAll || Result.Solutions.empty())) {
        Program Suffix;
        std::vector<uint8_t> WSuffix;
        reconstruct(FinalLevel, I, Suffix, WSuffix, Result);
      }
    }
    if (Opts.TraceIntervalSeconds > 0)
      Result.Trace.push_back(TracePoint{Timer.seconds(),
                                        Levels[FinalLevel].size(),
                                        Result.SolutionCount});
  }
  // Frontier lifecycle counters: compression totals from the store, decode
  // work summed over the per-worker caches.
  const FrontierCounters &FC = Store.frontierCounters();
  Result.Stats.CompressedBytes = FC.CompressedBytes;
  Result.Stats.CompressedRawBytes = FC.CompressedRawBytes;
  for (const DecodeCache &C : Caches) {
    Result.Stats.DecodeNanos += C.DecodeNanos;
    Result.Stats.BlocksDecoded += C.BlocksDecoded;
  }
  notePeaks(Result);
  Result.Stats.Seconds = Timer.seconds();
  return Result;
}

SearchResult detail::layeredSearch(const Machine &M,
                                   const SearchOptions &Opts,
                                   const DistanceTable *DT) {
  return LayeredEngine(M, Opts, DT).run();
}
