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
// walk would. A node keeps its first parent edge; in FindAll mode each
// level also keeps all its edges in one compressed-row (CSR) array
// (DagLevel), so no node owns a heap block.
//
// Expansion is one node-major loop over static worker ranges: worker W
// expands one contiguous slice of the level into its own candidate batch,
// so the concatenated batches list candidates in the same order for any
// thread count. A one-thread pool runs the whole range inline as worker 0;
// that is the sequential engine, not a separate copy of it.
//
// Budgets: one check (overBudget, shared with the best-first engine) polls
// the stop token and compares residentBytes() — committed levels, node
// metadata and the level in flight — with the byte budget. The level loop
// runs it before each expansion and each merge; the workers of the
// expansion and of merge phase 1 run it at periodic checkpoints
// (checkpoint), which also publish their progress and let worker 0 emit
// the Figure 1 trace point. The peak never falls below a value the check
// compared.
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
//   phase 1  per-shard dedup/DAG-merge straight into the one index: each
//            candidate probes its store shard once. A hit at a committed
//            level is a rediscovery, a hit at the level in flight merges
//            into that shard-local node, and a miss appends a node and its
//            rows to the shard's buffers and inserts its entry under
//            (level, shard-local index) at once. FindAll mode appends each
//            edge as (shard-local node, parent, instruction). Scheduled by
//            work stealing with shards seeded in descending
//            candidate-count order (deadline/limit-checked via atomics);
//   phase 2  prefix-sum shard sizes into the level's shard bases, copy
//            nodes and rows into place and group each shard's edges by
//            node with a stable counting sort into the level's CSR slices
//            — work-stolen per shard, seeded by descending row bytes. The
//            index entries need no rewrite: the shard bases rebase them.
//
// Work stealing preserves bit-identity for free: a shard is always
// processed WHOLLY by one worker in the fixed batch-major candidate
// order, per-shard sums (Ways, SolutionCount) and mins (the cut
// observation) are order-independent across shards, and phase 2 commits
// through prefix-summed bases — so which worker ran which shard, and
// when, cannot show up in the result. The merged DAG, each node's edge
// order and the exact solution count are bit-identical to the sequential
// engine's for any thread count.
//
//===----------------------------------------------------------------------===//

#include "search/Expansion.h"

#include "support/ThreadPool.h"
#include "support/Timing.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <numeric>
#include <type_traits>

using namespace sks;
using namespace sks::detail;

namespace {

/// One incoming DAG edge: parent index in the previous level and the
/// instruction applied to the parent's rows.
struct ParentEdge {
  uint32_t Parent;
  Instr Via;
};

/// One node of the solution DAG. Rows live in the owning level's arena;
/// in FindAll mode the node's incoming edges live in its level's edge
/// slices (DagLevel).
struct LNode {
  RowSpan Rows;
  /// The first incoming edge the merge met.
  uint32_t FirstParent = UINT32_MAX;
  Instr FirstVia{Opcode::Mov, 0, 0};
  /// Number of distinct programs of length <level> reaching this state.
  uint64_t Ways = 0;
  bool Sorted = false;
  /// Meet of the dead-instruction summaries of every program merged into
  /// this node: the expansion gate refuses only what all of them refuse.
  PrefixLint Lint = PrefixLint::entry();
};
// A level commits by copying its nodes, and no run frees per-node blocks.
static_assert(std::is_trivially_copyable_v<LNode>);

/// One committed level of the solution DAG.
struct DagLevel {
  std::vector<LNode> Nodes;
  /// The level-global index of each shard's first node.
  std::array<uint32_t, StateStore::kNumShards> ShardBases{};
  /// FindAll mode's incoming edges, grouped by node: node I's edges are
  /// Edges[EdgeBegin[I], EdgeBegin[I + 1]), in the order the merge met
  /// them. Empty at level 0 and outside FindAll mode.
  std::vector<uint32_t> EdgeBegin;
  std::vector<ParentEdge> Edges;

  /// Bytes of the node metadata: nodes and edge slices.
  size_t bytesUsed() const {
    return Nodes.capacity() * sizeof(LNode) +
           EdgeBegin.capacity() * sizeof(uint32_t) +
           Edges.capacity() * sizeof(ParentEdge);
  }
};

/// Index payload: (level << 32) | shard-local node index. The shard is
/// implicit in which IndexShard holds the entry; a level's ShardBases
/// rebase the local index to a level-global one, so committing a merged
/// level never rewrites payloads.
uint64_t packRef(unsigned Level, uint32_t Local) {
  return (static_cast<uint64_t>(Level) << 32) | Local;
}
unsigned refLevel(uint64_t Payload) {
  return static_cast<unsigned>(Payload >> 32);
}
uint32_t refLocal(uint64_t Payload) { return static_cast<uint32_t>(Payload); }

/// Shared state of one parallel phase (a level expansion or merge phase
/// 1), polled by LayeredEngine::checkpoint. Workers publish running totals
/// through relaxed atomics: the budget needs totals, not a consistent
/// snapshot. The first failed check publishes its reason, and every other
/// worker stops at its next checkpoint.
struct Phase {
  const std::function<void(size_t)> &Trace;
  const size_t Work;      ///< Work items: level nodes or candidates.
  const size_t BaseBytes; ///< Resident bytes when the phase began.
  std::atomic<StopReason> Abort{StopReason::None};
  /// Published totals: uncommitted states (candidates or new nodes), the
  /// bytes the work units grew by, and work items done.
  std::atomic<size_t> States{0}, Bytes{0}, Done{0};
};

/// What one unit of work (a worker's node range, a merge shard) has
/// published to its Phase so far; each checkpoint adds the difference.
struct Published {
  size_t States = 0, Bytes = 0, Done = 0;
};

/// An incoming edge as merge phase 1 meets it, with the shard-local node
/// it enters.
struct ShardEdge {
  uint32_t Node;
  ParentEdge Edge;
};

/// One shard's output of a level merge (phase 1), committed in phase 2.
/// Its index entries go straight into the store's shard.
struct ShardMerge {
  std::vector<LNode> Nodes;
  std::vector<uint32_t> Rows;   ///< New row data, shard-local offsets.
  std::vector<ShardEdge> Edges; ///< FindAll only; in candidate order.
  size_t DedupHits = 0;
  uint64_t SolutionDelta = 0;
  unsigned MinPerm = 0; ///< 0 = no new node observed.
  bool FoundSorted = false;

  /// The shard's own buffers; its index growth counts in the store.
  size_t bytesUsed() const {
    return Rows.capacity() * sizeof(uint32_t) +
           Nodes.capacity() * sizeof(LNode) +
           Edges.capacity() * sizeof(ShardEdge);
  }
};

/// Groups one shard's edges by node into \p Level's slices of the shard's
/// nodes, which start at level-global node \p NodeBase and edge
/// \p EdgeBase. A stable counting sort: it counts each node's edges into
/// EdgeBegin (zero on entry), sums them into slice ends, then walks the
/// edges backwards and fills each slice from its end, which leaves
/// EdgeBegin at the slice starts and each node's edges in candidate order.
void groupEdges(const ShardMerge &Sh, uint32_t NodeBase, uint32_t EdgeBase,
                DagLevel &Level) {
  uint32_t *Begin = Level.EdgeBegin.data() + NodeBase;
  for (const ShardEdge &E : Sh.Edges)
    ++Begin[E.Node];
  uint32_t End = EdgeBase;
  for (size_t I = 0; I != Sh.Nodes.size(); ++I)
    Begin[I] = End += Begin[I];
  for (auto E = Sh.Edges.rbegin(); E != Sh.Edges.rend(); ++E)
    Level.Edges[--Begin[E->Node]] = E->Edge;
}

class LayeredEngine {
public:
  LayeredEngine(const Machine &M, const SearchOptions &Opts,
                const DistanceTable *DT)
      : M(M), Opts(Opts), DT(DT), Cuts(Opts.Cut, Opts.MaxLength),
        Pipeline(M, Opts, DT, Cuts),
        Pool(Opts.NumThreads > 1 ? Opts.NumThreads : 1) {}

  SearchResult run();

private:
  static constexpr unsigned kNumShards = StateStore::kNumShards;

  bool expandLevel(unsigned G, std::vector<CandidateBatch> &Batches,
                   SearchResult &Result,
                   const std::function<void(size_t)> &Trace);
  bool mergeLevel(std::vector<CandidateBatch> &Batches, unsigned ChildG,
                  SearchResult &Result,
                  const std::function<void(size_t)> &Trace,
                  bool &FoundSorted);
  void reconstruct(uint32_t Level, uint32_t Index, Program &Suffix,
                   SearchResult &Result) const;

  const uint32_t *rowsOf(unsigned Level, const LNode &N) const {
    return Store.arena(Level).rows(N.Rows);
  }
  /// The one count of resident bytes, read by the budget check and the
  /// peak: committed levels (arenas and the dedup index) and node
  /// metadata, plus \p Live bytes of the level in flight (candidate
  /// batches, shard partitions, merge shards).
  size_t residentBytes(size_t Live = 0) const {
    return Store.bytesUsed() + NodeBytes + Live;
  }
  /// Raises the high-water mark to \p Resident bytes.
  static void notePeak(SearchResult &Result, size_t Resident) {
    Result.Stats.PeakStateBytes =
        std::max(Result.Stats.PeakStateBytes, Resident);
  }
  /// The level loop's budget check over \p Resident bytes, which become a
  /// peak candidate. \returns false when the run must stop.
  bool withinBudget(SearchResult &Result, size_t Resident) const {
    notePeak(Result, Resident);
    Result.Stats.Stopped = overBudget(Opts, Resident);
    return Result.Stats.Stopped == StopReason::None;
  }
  /// Records a phase's peak and stop reason. Work units only grow, so the
  /// published total bounds every value a checkpoint compared.
  /// \returns false when a checkpoint stopped the phase.
  bool endPhase(const Phase &Ph, SearchResult &Result) const {
    notePeak(Result, Ph.BaseBytes + Ph.Bytes.load(std::memory_order_relaxed));
    Result.Stats.Stopped = Ph.Abort.load(std::memory_order_relaxed);
    return Result.Stats.Stopped == StopReason::None;
  }
  bool checkpoint(Phase &Ph, Published &Mine, unsigned W, size_t States,
                  size_t Bytes, size_t Done) const;

  const Machine &M;
  const SearchOptions &Opts;
  const DistanceTable *DT;
  CutTracker Cuts;
  CandidatePipeline Pipeline;
  ThreadPool Pool;
  Stopwatch Timer;
  StateStore Store;
  std::vector<DagLevel> Levels;
  size_t NodeBytes = 0;      ///< DagLevel::bytesUsed across levels.
  double BranchEstimate = 0; ///< Candidates-per-node of the last level.
};

} // namespace

/// A worker's checkpoint inside a parallel phase. Publishes the running
/// totals of one unit of work (\p States uncommitted states, \p Bytes
/// live bytes, \p Done work items), then stops the worker when another
/// one has aborted or the budget, checked over the phase's base plus all
/// published growth, is spent. Worker 0 also emits the trace point,
/// counting unconsumed work items plus uncommitted states as open.
/// \returns false when the worker must stop.
bool LayeredEngine::checkpoint(Phase &Ph, Published &Mine, unsigned W,
                               size_t States, size_t Bytes,
                               size_t Done) const {
  constexpr std::memory_order Relaxed = std::memory_order_relaxed;
  Ph.States.fetch_add(States - Mine.States, Relaxed);
  const size_t Grown =
      Ph.Bytes.fetch_add(Bytes - Mine.Bytes, Relaxed) + (Bytes - Mine.Bytes);
  Ph.Done.fetch_add(Done - Mine.Done, Relaxed);
  Mine = {States, Bytes, Done};
  if (Ph.Abort.load(Relaxed) != StopReason::None)
    return false;
  if (StopReason Reason = overBudget(Opts, Ph.BaseBytes + Grown);
      Reason != StopReason::None) {
    Ph.Abort.store(Reason, Relaxed);
    return false;
  }
  const size_t Open = Ph.States.load(Relaxed);
  if (W == 0)
    Ph.Trace(Ph.Work - std::min(Ph.Work, Ph.Done.load(Relaxed)) + Open);
  return true;
}

/// Expands every node of level \p G through the shared pipeline into one
/// candidate batch per pool worker: node-major over static worker ranges,
/// with a checkpoint every 64 nodes and at the end of each range. Each
/// worker counts the nodes it actually expanded, so StatesExpanded stays
/// exact when the level aborts part-way.
/// \returns false when the expansion aborted (stop reason recorded).
bool LayeredEngine::expandLevel(unsigned G,
                                std::vector<CandidateBatch> &Batches,
                                SearchResult &Result,
                                const std::function<void(size_t)> &Trace) {
  const std::vector<LNode> &Level = Levels[G].Nodes;
  const unsigned ChildG = G + 1;
  const unsigned Workers = Pool.size();
  const size_t RowsPerState =
      std::max<size_t>(1, Store.arena(G).size() / Level.size());
  const double Branch = BranchEstimate > 0
                            ? BranchEstimate
                            : static_cast<double>(M.instructions().size());
  const size_t Expected = static_cast<size_t>(Level.size() * Branch) + 16;
  Batches.resize(Workers);
  size_t Reserved = 0;
  for (CandidateBatch &B : Batches) {
    B.clear();
    B.reserveFor(Expected / Workers + 16, RowsPerState);
    Reserved += B.bytesUsed();
  }
  std::vector<SearchStats> WorkerStats(Workers);
  Phase Ph{Trace, Level.size(), residentBytes(Reserved)};
  Pool.parallelFor(Level.size(), [&](size_t Begin, size_t End, unsigned W) {
    CandidateBatch &B = Batches[W];
    SearchStats &S = WorkerStats[W];
    // The reservation is in the phase's base; publish only growth.
    Published Mine{0, B.bytesUsed(), 0};
    for (size_t I = Begin; I != End; ++I) {
      const LNode &Node = Level[I];
      Pipeline.expandNode(rowsOf(G, Node), Node.Rows.Len, Node.Lint,
                          static_cast<uint32_t>(I), ChildG, B, S);
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
    // Stage profile: CPU time summed over workers (see Search.h).
    Result.Stats.ApplyNanos += S.ApplyNanos;
    Result.Stats.CanonNanos += S.CanonNanos;
    Result.Stats.ViabilityNanos += S.ViabilityNanos;
  }
  return endPhase(Ph, Result);
}

/// Folds expansion candidates into the next level with global dedup: the
/// three-phase sharded merge described in the file header. \returns false
/// when the merge aborted before commit (stop reason recorded; the partial
/// level is discarded, and the run ends before anything probes the index
/// entries phase 1 inserted for it).
bool LayeredEngine::mergeLevel(std::vector<CandidateBatch> &Batches,
                               unsigned ChildG, SearchResult &Result,
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
                   static_cast<double>(Levels[ChildG - 1].Nodes.size());
  // Live until the level commits: the batches and their partitions.
  size_t Live = 0;
  for (uint32_t BI = 0; BI != NumBatches; ++BI) {
    Live += Batches[BI].bytesUsed();
    for (const std::vector<uint32_t> &V : Parts[BI])
      Live += V.capacity() * sizeof(uint32_t);
  }
  if (!withinBudget(Result, residentBytes(Live)))
    return false;

  // Phase 1: per-shard dedup/DAG-merge. A worker writes only its shard:
  // the shard's nodes, rows and edges, and the store's index shard, which
  // takes each new node's entry at once. Committed levels and the previous
  // level's Ways are read-only. Shards are seeded to the work-stealing
  // deques in descending candidate-count order — LPT scheduling with
  // stealing as the correction, replacing the shared dynamic cursor that
  // hash-skewed shard sizes used to contend on.
  const std::vector<LNode> &Prev = Levels[ChildG - 1].Nodes;
  std::vector<ShardMerge> Shards(kNumShards);
  Phase Ph{Trace, Total, residentBytes(Live)};

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
        ShardMerge &Sh = Shards[S];
        IndexShard &Index = Store.shard(S);
        // Phase Ph's base holds the index as it was; publish its growth.
        const size_t IndexBase = Index.bytesUsed();
        Sh.Nodes.reserve(ShardCount[S] / 2 + 8);
        size_t Seen = 0;
        Published Mine;
        for (uint32_t BI = 0; BI != NumBatches; ++BI) {
          const CandidateBatch &B = Batches[BI];
          for (uint32_t CI : Parts[BI][S]) {
            if ((Seen++ & 511u) == 511u &&
                !checkpoint(Ph, Mine, W, Sh.Nodes.size(),
                            Sh.bytesUsed() + Index.bytesUsed() - IndexBase,
                            Seen))
              return;
            const Candidate &C = B.List[CI];
            const uint32_t *CRows = B.rowsOf(C);

            // One probe. A hit at a committed level is a strictly
            // shallower rediscovery — never on a minimal kernel, so only
            // count it; a hit at ChildG merges into that DAG node.
            const uint64_t Hit = Index.find(C.Hash, [&](uint64_t P) {
              const unsigned L = refLevel(P);
              if (L == ChildG) {
                const LNode &N = Sh.Nodes[refLocal(P)];
                return N.Rows.Len == C.RowLen &&
                       std::equal(CRows, CRows + C.RowLen,
                                  Sh.Rows.data() + N.Rows.Offset);
              }
              const DagLevel &Level = Levels[L];
              const LNode &N = Level.Nodes[Level.ShardBases[S] + refLocal(P)];
              return Store.arena(L).equals(N.Rows, CRows, C.RowLen);
            });
            if (Hit != IndexShard::kNotFound) {
              ++Sh.DedupHits;
              if (refLevel(Hit) != ChildG)
                continue;
              LNode &Node = Sh.Nodes[refLocal(Hit)];
              Node.Ways += Prev[C.Parent].Ways;
              Node.Lint.meet(C.Lint);
              if (Node.Sorted)
                Sh.SolutionDelta += Prev[C.Parent].Ways;
              if (Opts.FindAll)
                Sh.Edges.push_back({refLocal(Hit), {C.Parent, C.Via}});
              continue;
            }

            // New canonical state.
            const uint32_t Local = static_cast<uint32_t>(Sh.Nodes.size());
            LNode Node;
            Node.Rows =
                RowSpan{static_cast<uint32_t>(Sh.Rows.size()), C.RowLen};
            Sh.Rows.insert(Sh.Rows.end(), CRows, CRows + C.RowLen);
            Node.FirstParent = C.Parent;
            Node.FirstVia = C.Via;
            Node.Lint = C.Lint;
            Node.Ways = Prev[C.Parent].Ways;
            if (Opts.FindAll)
              Sh.Edges.push_back({Local, {C.Parent, C.Via}});
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
            Index.insert(C.Hash, packRef(ChildG, Local));
            Sh.Nodes.push_back(Node);
          }
        }
      });

  if (!endPhase(Ph, Result))
    return false;

  // Phase 2: commit. Prefix-sum the shard sizes into this level's bases,
  // then copy nodes and rows and group the edges by node — work-stolen
  // per shard, seeded by descending row bytes (shards commit into
  // disjoint slices, so scheduling cannot affect layout). The index
  // entries are already in place.
  std::array<uint32_t, kNumShards> RowBases{}, EdgeBases{};
  uint32_t NodeTotal = 0, RowTotal = 0, EdgeTotal = 0;
  DagLevel &Next = Levels.emplace_back();
  for (unsigned S = 0; S != kNumShards; ++S) {
    Next.ShardBases[S] = NodeTotal;
    RowBases[S] = RowTotal;
    EdgeBases[S] = EdgeTotal;
    NodeTotal += static_cast<uint32_t>(Shards[S].Nodes.size());
    RowTotal += static_cast<uint32_t>(Shards[S].Rows.size());
    EdgeTotal += static_cast<uint32_t>(Shards[S].Edges.size());
  }
  Next.Nodes.resize(NodeTotal);
  if (Opts.FindAll) {
    Next.EdgeBegin.resize(NodeTotal + 1);
    Next.EdgeBegin[NodeTotal] = EdgeTotal;
    Next.Edges.resize(EdgeTotal);
  }
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
    const ShardMerge &Sh = Shards[S];
    if (!Sh.Rows.empty())
      std::memcpy(Arena.data() + RowBases[S], Sh.Rows.data(),
                  Sh.Rows.size() * sizeof(uint32_t));
    for (size_t I = 0; I != Sh.Nodes.size(); ++I) {
      LNode &N = Next.Nodes[Next.ShardBases[S] + I];
      N = Sh.Nodes[I];
      N.Rows.Offset += RowBases[S];
    }
    if (Opts.FindAll)
      groupEdges(Sh, Next.ShardBases[S], EdgeBases[S], Next);
  });

  // Fold per-shard results; sums and mins are order-independent.
  for (const ShardMerge &Sh : Shards) {
    Result.Stats.DedupHits += Sh.DedupHits;
    Result.SolutionCount += Sh.SolutionDelta;
    if (Sh.MinPerm != 0)
      Cuts.observe(ChildG, Sh.MinPerm);
    FoundSorted |= Sh.FoundSorted;
  }
  NodeBytes += Next.bytesUsed();
  // The level's high-water mark: the committed level next to the batches,
  // partitions and shard buffers it was merged from. The store already
  // counts the index entries phase 1 added.
  for (const ShardMerge &Sh : Shards)
    Live += Sh.bytesUsed();
  notePeak(Result, residentBytes(Live));
  return true;
}

void LayeredEngine::reconstruct(uint32_t Level, uint32_t Index,
                                Program &Suffix, SearchResult &Result) const {
  if (Result.Solutions.size() >= Opts.MaxSolutionsKept)
    return;
  if (Level == 0) {
    Result.Solutions.emplace_back(Suffix.rbegin(), Suffix.rend());
    return;
  }
  const DagLevel &L = Levels[Level];
  if (Opts.FindAll) {
    for (uint32_t E = L.EdgeBegin[Index]; E != L.EdgeBegin[Index + 1]; ++E) {
      Suffix.push_back(L.Edges[E].Via);
      reconstruct(Level - 1, L.Edges[E].Parent, Suffix, Result);
      Suffix.pop_back();
      if (Result.Solutions.size() >= Opts.MaxSolutionsKept)
        return;
    }
    return;
  }
  const LNode &Node = L.Nodes[Index];
  Suffix.push_back(Node.FirstVia);
  reconstruct(Level - 1, Node.FirstParent, Suffix, Result);
  Suffix.pop_back();
}

SearchResult LayeredEngine::run() {
  SearchResult Result;

  // No references into Levels survive a level commit, but reserving up
  // front removes the whole outer-reallocation hazard class.
  Levels.reserve(Opts.MaxLength + 2);

  SearchState Init = initialState(M);
  Cuts.observe(0, permCount(M, Init));
  LNode Root;
  Root.Rows = Store.arena(0).append(Init.Rows.data(),
                                    static_cast<uint32_t>(Init.Rows.size()));
  Root.Ways = 1;
  Root.Sorted = allSorted(M, SearchState{Init.Rows});
  uint64_t RootHash = hashWords(Init.Rows.data(), Init.Rows.size());
  Store.shard(StateStore::shardOf(RootHash)).insert(RootHash, packRef(0, 0));
  Levels.emplace_back().Nodes.push_back(Root);
  NodeBytes += Levels[0].bytesUsed();
  notePeak(Result, residentBytes());
  Result.Stats.LevelStates.push_back(Levels[0].Nodes.size());

  double NextTrace = Opts.TraceIntervalSeconds;
  std::function<void(size_t)> MaybeTrace = [&](size_t OpenStates) {
    if (Opts.TraceIntervalSeconds <= 0 || Timer.seconds() < NextTrace)
      return;
    NextTrace += Opts.TraceIntervalSeconds;
    Result.Trace.push_back(
        TracePoint{Timer.seconds(), OpenStates, Result.SolutionCount});
  };

  unsigned FinalLevel = 0;
  bool Found = Levels[0].Nodes[0].Sorted;
  for (unsigned G = 0; !Found && G < Opts.MaxLength; ++G) {
    if (Levels[G].Nodes.empty())
      break;
    if (!withinBudget(Result, residentBytes()))
      break;
    unsigned ChildG = G + 1;
    std::vector<CandidateBatch> Batches;
    if (!expandLevel(G, Batches, Result, MaybeTrace))
      break;
    bool FoundSorted = false;
    if (!mergeLevel(Batches, ChildG, Result, MaybeTrace, FoundSorted))
      break;
    Found = FoundSorted;
    Result.Stats.LevelStates.push_back(Levels[ChildG].Nodes.size());
    FinalLevel = ChildG;
    MaybeTrace(Levels[ChildG].Nodes.size());
  }

  if (Found) {
    Result.Found = true;
    Result.OptimalLength = FinalLevel;
    Result.SolutionCount = 0;
    const std::vector<LNode> &Last = Levels[FinalLevel].Nodes;
    for (uint32_t I = 0; I != Last.size(); ++I) {
      const LNode &Node = Last[I];
      if (!Node.Sorted)
        continue;
      Result.SolutionCount += Node.Ways;
      if (Opts.MaxSolutionsKept > 0 &&
          (Opts.FindAll || Result.Solutions.empty())) {
        Program Suffix;
        reconstruct(FinalLevel, I, Suffix, Result);
      }
    }
    if (Opts.TraceIntervalSeconds > 0)
      Result.Trace.push_back(
          TracePoint{Timer.seconds(), Last.size(), Result.SolutionCount});
  }
  notePeak(Result, residentBytes());
  Result.Stats.Seconds = Timer.seconds();
  return Result;
}

SearchResult detail::layeredSearch(const Machine &M,
                                   const SearchOptions &Opts,
                                   const DistanceTable *DT) {
  return LayeredEngine(M, Opts, DT).run();
}
