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
// walk would. Each shard of a level keeps its nodes' incoming edges
// (DagShard): in FindAll mode every edge, grouped by node in one
// compressed-row (CSR) array, otherwise only each node's first edge, one
// per node in node order. No node owns a heap block.
//
// Expansion is one node-major loop over static worker ranges: worker W
// expands one contiguous part of a slice into its own candidate batch,
// so the concatenated batches list candidates in the same order for any
// thread count. A one-thread pool runs the whole range inline as worker 0;
// that is the sequential engine, not a separate copy of it.
//
// Slices: a level is expanded and merged kSliceNodes parent nodes at a
// time, into the level's per-shard buffers, which collect the whole level
// and become its storage when it commits. The batches and partitions are
// engine members, recycled across slices and levels, so the level in
// flight holds one slice's candidates instead of a whole level's. Slices
// are contiguous and merge in order, so each shard meets its candidates
// in the same node-major order a whole-level merge would: the slice size
// cannot move the DAG, an edge order, Ways, the kernel order or any
// counter.
//
// Budgets: one check (overBudget, shared with the best-first engine) polls
// the stop token and compares residentBytes() — committed levels, node
// metadata, the index and the level in flight's buffers — with the byte
// budget. The level loop runs it before each level, each slice's merge
// before phase 1, and the commit on the level in flight plus the exact
// size of the edge arrays phase 2 allocates, before it allocates them;
// the workers of a slice's expansion and merge phase 1 run it at periodic
// checkpoints and when they finish (checkpoint), which also publish their
// byte growth. Every value the peak records is one a check compared, so a
// run capped at its peak fits and one capped a byte lower stops;
// SearchStats::StoppedIn names the check that stopped a run, and with the
// profile on SearchStats::PeakSplit says where the peak's bytes were.
//
// Progress: each commit appends the level's state count and one clock
// read to SearchStats::LevelStates and LevelSeconds, the per-level record
// Figure 1 plots (bench_fig1_progress).
//
// Storage and parallelism (state/StateStore.h): a level is kNumShards
// shards, each holding its nodes, their rows in one arena addressed by
// (position, len) handles, and their edges. A shard's nodes, rows and
// first edges, and merge phase 1's FindAll edge buffer, grow in
// fixed-size chunks (ChunkedArray) rather than by doubling, so a
// committed level holds at most one chunk per array that has room left,
// and a shard with few nodes holds few bytes. The level's kNumShards + 1
// prefix-summed shard bases map a level-global node index (the expansion
// order, Candidate::Parent, an edge's parent) to its shard and
// shard-local index. The dedup index is sharded by the same high bits of
// the state hash, and its 8-byte slots hold a 32-bit tag and a 32-bit
// payload: the node's id in its shard, which numbers the shard's nodes
// across levels (LevelIds), so an id decodes to (level, shard-local
// index) through the shard's per-level first ids, and a hit is at the
// level in flight exactly when its id is at or above that level's first
// id. Equal canonical rows imply equal hash, hence the same shard, so the
// per-level merge runs one worker per shard with no synchronization on
// the node data:
//
//   phase 0  per slice: partition the slice's candidates by shard, one
//            partition per batch in parallel; each shard reads them
//            batch-major — the exact order the sequential engine would
//            process them;
//   phase 1  per slice: per-shard dedup/DAG-merge straight into the one
//            index: each candidate probes its store shard once. A hit at a
//            committed level is a rediscovery, a hit at the level in
//            flight merges into that shard-local node, and a miss appends
//            a node, its rows and its first edge to the level's shard and
//            inserts its entry under its id at once; both levels' rows
//            are read the same way. FindAll mode appends every edge, the
//            first included, to the shard's phase-1 buffer as (shard-local
//            node, parent, instruction) instead.
//            Scheduled by work stealing with shards seeded in descending
//            candidate-count order (deadline/limit-checked via atomics);
//   phase 2  per level: prefix-sum shard sizes into the level's shard
//            bases, close the level in each shard's ids and, in FindAll
//            mode, group each shard's edges by node with a stable
//            counting sort into that shard's exact-size CSR,
//            freeing the edge buffer — work-stolen per shard, seeded by
//            descending edge count. No node, row or first edge moves: the
//            level keeps the chunks phase 1 filled, and the index entries
//            need no rewrite.
//
// Work stealing preserves bit-identity for free: a shard is always
// processed WHOLLY by one worker in the fixed batch-major candidate
// order, per-shard sums (DedupHits) and mins (the cut observation) are
// order-independent across shards, and the shard bases are prefix sums —
// so which worker ran which shard, and when, cannot show up in the
// result. The merged DAG, each node's edge order and the exact solution
// count are bit-identical to the sequential engine's for any thread
// count.
//
//===----------------------------------------------------------------------===//

#include "search/Expansion.h"

#include "support/ThreadPool.h"
#include "support/Timing.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <numeric>
#include <type_traits>

using namespace sks;
using namespace sks::detail;

namespace {

/// Parent nodes per slice: a level is expanded and merged this many nodes
/// at a time, so the level in flight holds one slice's candidates. No
/// result depends on it (file comment). Smaller slices hold fewer
/// candidates, but each slice's merge meets its shards' index and buffers
/// cold in cache, so the merge slows as slices shrink: on perfbench's
/// n = 3 enumeration (two threads), 8192-node slices merged about 7 ms
/// faster, but at n = 5 their batches held 68 MB more, which kept level
/// 8's commit from fitting a 2 GiB budget.
constexpr size_t kSliceNodes = 4096;

constexpr unsigned kNumShards = StateStore::kNumShards;

/// One incoming DAG edge: parent index in the previous level and the
/// instruction applied to the parent's rows.
struct ParentEdge {
  uint32_t Parent;
  Instr Via;
};

/// One node of the solution DAG. Rows live in its level shard's arena and
/// incoming edges in its shard's edge store (DagShard).
struct LNode {
  RowSpan Rows;
  /// Number of distinct programs of length <level> reaching this state.
  uint64_t Ways = 0;
  bool Sorted = false;
  /// Meet of the dead-instruction summaries of every program merged into
  /// this node: the expansion gate refuses only what all of them refuse.
  PrefixLint Lint = PrefixLint::entry();
};
static_assert(sizeof(LNode) == 24, "a node is its rows, Ways, Sorted, Lint");

/// One shard of a level of the solution DAG: the nodes merge phase 1
/// created in it, in creation order, their rows and their incoming edges.
/// In FindAll mode the commit groups every edge by node: local node I's
/// edges are Edges[EdgeBegin[I], EdgeBegin[I + 1]), in the order the merge
/// met them. Otherwise merge phase 1 appends each new node's first edge,
/// so local node I's one edge is Edges[I] and EdgeBegin stays empty. Level
/// 0 has no edges.
struct DagShard {
  ChunkedArray<LNode> Nodes;
  RowArena Rows;
  std::vector<uint32_t> EdgeBegin;
  ChunkedArray<ParentEdge> Edges;

  /// Local node \p I's edges, as [first, last) positions in Edges.
  std::pair<uint32_t, uint32_t> edgeRange(uint32_t I) const {
    if (EdgeBegin.empty())
      return {I, I + 1};
    return {EdgeBegin[I], EdgeBegin[I + 1]};
  }

  /// Bytes of the node metadata: nodes and edges.
  size_t nodeBytes() const {
    return Nodes.bytesUsed() + EdgeBegin.capacity() * sizeof(uint32_t) +
           Edges.bytesUsed();
  }
  size_t bytesUsed() const { return Rows.bytesUsed() + nodeBytes(); }
};

/// One level of the solution DAG: the level in flight while its slices
/// merge, a committed level after.
struct DagLevel {
  std::array<DagShard, kNumShards> Shards;
  /// Shard S holds the level-global nodes [Bases[S], Bases[S + 1]); set
  /// when the level commits (sumBases).
  std::array<uint32_t, kNumShards + 1> Bases{};

  /// Number of nodes, once committed.
  uint32_t size() const { return Bases[kNumShards]; }

  void sumBases() {
    for (unsigned S = 0; S != kNumShards; ++S)
      Bases[S + 1] =
          Bases[S] + static_cast<uint32_t>(Shards[S].Nodes.size());
  }

  /// \returns the shard holding level-global node \p I < size(): the last
  /// S with Bases[S] <= I, by a branch-free binary search. An empty
  /// shard's base equals the next shard's, so the search passes over it.
  unsigned shardOf(uint32_t I) const {
    unsigned S = 0;
    for (unsigned Step = kNumShards / 2; Step != 0; Step /= 2)
      S += Bases[S + Step] <= I ? Step : 0;
    return S;
  }
  const LNode &node(uint32_t I) const {
    const unsigned S = shardOf(I);
    return Shards[S].Nodes[I - Bases[S]];
  }
};
// The engine's level vector grows by moving its levels, not copying them.
static_assert(std::is_nothrow_move_constructible_v<DagLevel>);

/// Shared state of one parallel phase (a slice's expansion or merge phase
/// 1), polled by LayeredEngine::checkpoint. Workers publish their byte
/// growth through a relaxed atomic: the budget needs a total, not a
/// consistent snapshot. The first failed check publishes its reason, and
/// every other worker stops at its next checkpoint.
struct Phase {
  const size_t BaseBytes; ///< Resident bytes when the phase began.
  std::atomic<StopReason> Abort{StopReason::None};
  /// The bytes the work units have published that they grew by.
  std::atomic<size_t> Bytes{0};
};

/// An incoming edge as merge phase 1 meets it, with the shard-local node
/// it enters.
struct ShardEdge {
  uint32_t Node;
  ParentEdge Edge;
};

/// Merge phase 1's scratch for one shard of the level in flight: the
/// shard's incoming edges in candidate order (FindAll only), which the
/// commit groups into the level's shard, and the shard's share of the
/// level's results, which the commit folds.
struct ShardMerge {
  ChunkedArray<ShardEdge> Edges;
  size_t DedupHits = 0;
  unsigned MinPerm = 0; ///< 0 = no new node observed.
  bool FoundSorted = false;

  size_t bytesUsed() const { return Edges.bytesUsed(); }
};

/// Groups one shard's edges \p In by node into \p Shard's exact-size
/// slices. A stable counting sort: it counts each node's edges into
/// EdgeBegin, sums them into slice ends, then walks the edges backwards
/// and fills each slice from its end, which leaves EdgeBegin at the slice
/// starts and each node's edges in candidate order.
void groupEdges(const ChunkedArray<ShardEdge> &In, DagShard &Shard) {
  const size_t NumNodes = Shard.Nodes.size();
  Shard.EdgeBegin.assign(NumNodes + 1, 0);
  Shard.Edges.allocate(In.size());
  uint32_t *Begin = Shard.EdgeBegin.data();
  for (size_t E = 0; E != In.size(); ++E)
    ++Begin[In[E].Node];
  uint32_t End = 0;
  for (size_t I = 0; I <= NumNodes; ++I)
    Begin[I] = End += Begin[I];
  for (size_t E = In.size(); E-- != 0;)
    Shard.Edges[--Begin[In[E].Node]] = In[E].Edge;
}

class LayeredEngine {
public:
  LayeredEngine(const Machine &M, const SearchOptions &Opts,
                const DistanceTable *DT)
      : M(M), Opts(Opts), DT(DT), Cuts(Opts.Cut),
        Pipeline(M, Opts, DT, Cuts),
        Pool(Opts.NumThreads > 1 ? Opts.NumThreads : 1),
        Batches(Pool.size()), Parts(Pool.size()), Merges(kNumShards) {}

  SearchResult run();

private:
  bool expandSlice(unsigned G, size_t Begin, size_t End, SearchResult &Result);
  bool mergeSlice(unsigned ChildG, SearchResult &Result);
  bool commitLevel(unsigned ChildG, SearchResult &Result, bool &FoundSorted);
  void reconstruct(uint32_t Level, uint32_t Index, Program &Suffix,
                   SearchResult &Result) const;

  /// The one count of resident bytes, read by the budget check and the
  /// peak, by part: committed levels (rows and node metadata), the dedup
  /// index, and the level in flight (its shard buffers and phase-1 edges,
  /// and the recycled candidate batches and shard partitions).
  ResidentSplit residentSplit() const {
    ResidentSplit Split;
    for (const DagLevel &L : Levels)
      for (const DagShard &D : L.Shards)
        if (&L == Flight) {
          Split.Shards += D.bytesUsed();
        } else {
          Split.Rows += D.Rows.bytesUsed();
          Split.Nodes += D.nodeBytes();
        }
    Split.Index = Store.bytesUsed();
    for (const ShardMerge &Sh : Merges)
      Split.Shards += Sh.bytesUsed();
    for (const CandidateBatch &B : Batches)
      Split.Batches += B.bytesUsed();
    for (const std::array<std::vector<uint32_t>, kNumShards> &P : Parts)
      for (const std::vector<uint32_t> &V : P)
        Split.Partitions += V.capacity() * sizeof(uint32_t);
    return Split;
  }
  size_t residentBytes() const { return residentSplit().total(); }
  /// Records why the run stopped, if it did, and at which check \p Where.
  /// \returns false when the run must stop.
  static bool noteStop(SearchResult &Result, StopReason Reason,
                       StopPhase Where) {
    Result.Stats.Stopped = Reason;
    if (Reason == StopReason::None)
      return true;
    Result.Stats.StoppedIn = Where;
    return false;
  }
  /// The budget check \p Where over \p Resident bytes, which become a
  /// peak candidate. \returns false when the run must stop.
  bool withinBudget(SearchResult &Result, const ResidentSplit &Resident,
                    StopPhase Where) const {
    notePeak(Opts, Resident, Result.Stats);
    return noteStop(Result, overBudget(Opts, Resident.total()), Where);
  }
  /// Records a phase's peak and stop reason. Every work unit publishes its
  /// growth when it finishes, so the phase's base plus the published
  /// total is what is resident now. Units only grow, so that total bounds
  /// every value a checkpoint compared, and when no unit stopped, the
  /// last checkpoint to publish compared it. \returns false when a
  /// checkpoint stopped the phase.
  bool endPhase(const Phase &Ph, SearchResult &Result,
                StopPhase Where) const {
    const ResidentSplit Resident = residentSplit();
    assert(Resident.total() ==
               Ph.BaseBytes + Ph.Bytes.load(std::memory_order_relaxed) &&
           "a work unit left growth unpublished");
    notePeak(Opts, Resident, Result.Stats);
    return noteStop(Result, Ph.Abort.load(std::memory_order_relaxed), Where);
  }
  bool checkpoint(Phase &Ph, size_t &Published, size_t Bytes) const;

  const Machine &M;
  const SearchOptions &Opts;
  const DistanceTable *DT;
  CutTracker Cuts;
  CandidatePipeline Pipeline;
  ThreadPool Pool;
  Stopwatch Timer;
  StateStore Store;
  /// Each index shard's node ids by level: the payload convention.
  std::array<LevelIds, kNumShards> Ids;
  std::vector<DagLevel> Levels;
  /// The level in flight, Levels.back() from its first slice until it
  /// commits; every other level is committed.
  DagLevel *Flight = nullptr;
  /// Recycled across slices and levels: one candidate batch per pool
  /// worker and each batch's candidate indices by shard. Each shard's
  /// phase-1 edges and results wait in Merges until the level commits.
  std::vector<CandidateBatch> Batches;
  std::vector<std::array<std::vector<uint32_t>, kNumShards>> Parts;
  std::vector<ShardMerge> Merges;
};

} // namespace

/// A worker's checkpoint inside a parallel phase. Publishes the growth of
/// one unit of work, \p Bytes live bytes against the \p Published bytes
/// it reported last, then stops the worker when another one has aborted or
/// the budget, checked over the phase's base plus all published growth, is
/// spent. \returns false when the worker must stop.
bool LayeredEngine::checkpoint(Phase &Ph, size_t &Published,
                               size_t Bytes) const {
  constexpr std::memory_order Relaxed = std::memory_order_relaxed;
  const size_t Grown =
      Ph.Bytes.fetch_add(Bytes - Published, Relaxed) + (Bytes - Published);
  Published = Bytes;
  if (Ph.Abort.load(Relaxed) != StopReason::None)
    return false;
  if (StopReason Reason = overBudget(Opts, Ph.BaseBytes + Grown);
      Reason != StopReason::None) {
    Ph.Abort.store(Reason, Relaxed);
    return false;
  }
  return true;
}

/// Expands nodes [\p Begin, \p End) of level \p G through the shared
/// pipeline into the pool workers' candidate batches: node-major over
/// static worker ranges, with a checkpoint every 64 nodes and at the end
/// of each range. Each worker counts the nodes it actually expanded, so
/// StatesExpanded stays exact when a slice aborts part-way. \returns false
/// when the expansion aborted (stop reason recorded).
bool LayeredEngine::expandSlice(unsigned G, size_t Begin, size_t End,
                                SearchResult &Result) {
  const DagLevel &Level = Levels[G];
  const unsigned ChildG = G + 1;
  for (CandidateBatch &B : Batches)
    B.clear();
  std::vector<SearchStats> WorkerStats(Batches.size());
  Phase Ph{residentBytes()};
  Pool.parallelFor(End - Begin, [&](size_t From, size_t To, unsigned W) {
    CandidateBatch &B = Batches[W];
    SearchStats &S = WorkerStats[W];
    // The batch's recycled buffers are in the phase's base; publish only
    // growth.
    size_t Published = B.bytesUsed();
    for (size_t I = From; I != To; ++I) {
      const uint32_t Index = static_cast<uint32_t>(Begin + I);
      const unsigned Shard = Level.shardOf(Index);
      const DagShard &D = Level.Shards[Shard];
      const LNode &Node = D.Nodes[Index - Level.Bases[Shard]];
      Pipeline.expandNode(D.Rows.rows(Node.Rows), Node.Rows.Len, Node.Lint,
                          Index, ChildG, B, S);
      ++S.StatesExpanded;
      if ((((I - From) & 63u) == 63u || I + 1 == To) &&
          !checkpoint(Ph, Published, B.bytesUsed()))
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
  return endPhase(Ph, Result, StopPhase::Expand);
}

/// Merges one slice's candidates, the pool workers' batches, into the
/// level in flight with global dedup: phases 0 and 1 of the file comment.
/// \returns false when the merge aborted (stop reason recorded; the
/// partial level is discarded, and the run ends before anything probes the
/// index entries phase 1 inserted for it).
bool LayeredEngine::mergeSlice(unsigned ChildG, SearchResult &Result) {
  // The merge counts as the Merge stage (wall-clock; the per-shard phase-1
  // workers are inside this scope).
  ScopedNanoTimer MergeTimer(Opts.ProfilePipeline, Result.Stats.MergeNanos);
  // Phase 0: partition candidate indices by shard, one partition per
  // batch so the batches split across workers. Phase 1 walks Parts
  // batch-major, so each shard still sees candidates in the exact order
  // the sequential engine would process them and each node's first edge
  // and the DAG are identical for any thread count.
  const uint32_t NumBatches = static_cast<uint32_t>(Batches.size());
  Pool.parallelFor(NumBatches, [&](size_t Begin, size_t End, unsigned) {
    for (size_t BI = Begin; BI != End; ++BI) {
      std::array<std::vector<uint32_t>, kNumShards> &P = Parts[BI];
      for (std::vector<uint32_t> &V : P)
        V.clear();
      const std::vector<Candidate> &List = Batches[BI].List;
      for (uint32_t CI = 0; CI != List.size(); ++CI)
        P[StateStore::shardOf(List[CI].Hash)].push_back(CI);
    }
  });
  const ResidentSplit Base = residentSplit();
  if (!withinBudget(Result, Base, StopPhase::MergeCheck))
    return false;

  // Phase 1: per-shard dedup/DAG-merge. A worker writes only its shard:
  // the level in flight's shard, its phase-1 edges, and the store's index
  // shard, which takes each new node's entry at once. Committed levels
  // and the shard's level ids are read-only. Shards are seeded to the
  // work-stealing deques in descending candidate-count order — LPT
  // scheduling with stealing as the correction.
  const DagLevel &Prev = Levels[ChildG - 1];
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
  Phase Ph{Base.total()};

  Pool.parallelForTasks(
      MergeOrder, [&](uint32_t Shard, unsigned) {
        const unsigned S = Shard;
        DagShard &Own = Flight->Shards[S];
        ShardMerge &Sh = Merges[S];
        IndexShard &Index = Store.shard(S);
        const LevelIds &ShardIds = Ids[S];
        const uint32_t FlightId = ShardIds.first(ChildG);
        // Phase Ph's base holds the shard's buffers and index as they
        // were; publish their growth.
        auto Bytes = [&] {
          return Own.bytesUsed() + Sh.bytesUsed() + Index.bytesUsed();
        };
        const size_t BytesBase = Bytes();
        size_t Seen = 0, Published = 0;
        auto Checkpoint = [&] {
          return checkpoint(Ph, Published, Bytes() - BytesBase);
        };
        for (uint32_t BI = 0; BI != NumBatches; ++BI) {
          const CandidateBatch &B = Batches[BI];
          for (uint32_t CI : Parts[BI][S]) {
            if ((Seen++ & 511u) == 511u && !Checkpoint())
              return;
            const Candidate &C = B.List[CI];
            const uint32_t *CRows = B.rowsOf(C);

            // One probe, which reads the rows of a committed level and of
            // the level in flight alike. A hit at a committed level, an id
            // below the level in flight's first, is a strictly shallower
            // rediscovery — never on a minimal kernel, so only count it; a
            // hit at ChildG merges into that DAG node.
            const uint32_t Hit = Index.find(C.Hash, [&](uint32_t Id) {
              const unsigned L = ShardIds.levelOf(Id);
              const DagShard &D = Levels[L].Shards[S];
              return D.Rows.equals(D.Nodes[Id - ShardIds.first(L)].Rows,
                                   CRows, C.RowLen);
            });
            const ParentEdge Edge{C.Parent, C.Via};
            if (Hit != IndexShard::kNotFound) {
              ++Sh.DedupHits;
              if (Hit < FlightId)
                continue;
              const uint64_t Ways = Prev.node(C.Parent).Ways;
              LNode &Node = Own.Nodes[Hit - FlightId];
              Node.Ways += Ways;
              Node.Lint.meet(C.Lint);
              if (Opts.FindAll)
                Sh.Edges.push_back({Hit - FlightId, Edge});
              continue;
            }

            // New canonical state, with its first edge.
            const uint32_t Local = static_cast<uint32_t>(Own.Nodes.size());
            LNode Node;
            Node.Rows = Own.Rows.append(CRows, C.RowLen);
            Node.Lint = C.Lint;
            Node.Ways = Prev.node(C.Parent).Ways;
            if (Opts.FindAll)
              Sh.Edges.push_back({Local, Edge});
            else
              Own.Edges.push_back(Edge);
            Node.Sorted = true;
            for (uint32_t R = 0; R != C.RowLen; ++R)
              if (!M.accepts(CRows[R])) {
                Node.Sorted = false;
                break;
              }
            Sh.FoundSorted |= Node.Sorted;
            // The cut observes only new unique states, exactly like the
            // sequential engine; the per-shard minimum commits with the
            // level.
            if (Sh.MinPerm == 0 || C.Perm < Sh.MinPerm)
              Sh.MinPerm = C.Perm;
            Index.insert(C.Hash, FlightId + Local);
            Own.Nodes.push_back(Node);
          }
        }
        // Publish the shard's last growth too: endPhase reads what is
        // resident.
        Checkpoint();
      });

  return endPhase(Ph, Result, StopPhase::Merge);
}

/// Commits the level in flight as level \p ChildG (phase 2): prefix-sums
/// the shard sizes into the level's bases, closes the level in each
/// shard's ids and, in FindAll mode, groups each shard's edges by node
/// into its slices — work-stolen per shard, seeded by descending edge
/// count (each shard fills only its own arrays, so scheduling cannot
/// affect layout). The level keeps the nodes, rows and first edges phase
/// 1 put in its shards, and the index entries are already in place.
/// The budget check runs first, on the level in flight plus the exact size
/// of the edge arrays, so the peak the commit records is a value the check
/// compared. \returns false when the check stopped the run.
bool LayeredEngine::commitLevel(unsigned ChildG, SearchResult &Result,
                                bool &FoundSorted) {
  ScopedNanoTimer MergeTimer(Opts.ProfilePipeline, Result.Stats.MergeNanos);
  DagLevel &Level = Levels[ChildG];
  Level.sumBases();
  // The edge arrays, each allocated below at exactly this size, count as
  // the level's node metadata; the phase-1 edge buffers they replace are
  // freed.
  ResidentSplit Resident = residentSplit();
  size_t Released = 0;
  for (unsigned S = 0; S != kNumShards; ++S) {
    Released += Merges[S].bytesUsed();
    if (Opts.FindAll && !Level.Shards[S].Nodes.empty())
      Resident.Nodes +=
          (Level.Shards[S].Nodes.size() + 1) * sizeof(uint32_t) +
          Merges[S].Edges.size() * sizeof(ParentEdge);
  }
  if (!withinBudget(Result, Resident, StopPhase::Commit))
    return false;

  if (Opts.FindAll) {
    std::vector<uint32_t> CommitOrder(kNumShards);
    std::iota(CommitOrder.begin(), CommitOrder.end(), 0u);
    std::stable_sort(CommitOrder.begin(), CommitOrder.end(),
                     [&](uint32_t A, uint32_t B) {
                       return Merges[A].Edges.size() > Merges[B].Edges.size();
                     });
    Pool.parallelForTasks(CommitOrder, [&](uint32_t S, unsigned) {
      if (!Level.Shards[S].Nodes.empty())
        groupEdges(Merges[S].Edges, Level.Shards[S]);
    });
  }

  // Fold per-shard results; sums and mins are order-independent. The
  // next level's merge starts from empty buffers and ids.
  for (unsigned S = 0; S != kNumShards; ++S) {
    ShardMerge &Sh = Merges[S];
    Result.Stats.DedupHits += Sh.DedupHits;
    if (Sh.MinPerm != 0)
      Cuts.observe(ChildG, Sh.MinPerm);
    FoundSorted |= Sh.FoundSorted;
    Sh = ShardMerge();
    Ids[S].closeLevel(static_cast<uint32_t>(Level.Shards[S].Nodes.size()));
  }
  Flight = nullptr;
  assert(residentBytes() == Resident.total() - Released &&
         "the commit's check compared its exact size");
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
  const unsigned S = L.shardOf(Index);
  const DagShard &D = L.Shards[S];
  const auto [First, Last] = D.edgeRange(Index - L.Bases[S]);
  for (uint32_t E = First; E != Last; ++E) {
    Suffix.push_back(D.Edges[E].Via);
    reconstruct(Level - 1, D.Edges[E].Parent, Suffix, Result);
    Suffix.pop_back();
    if (Result.Solutions.size() >= Opts.MaxSolutionsKept)
      return;
  }
}

SearchResult LayeredEngine::run() {
  SearchResult Result;
  SearchState Init = initialState(M);
  Cuts.observe(0, permCount(M, Init));
  const uint64_t RootHash = hashWords(Init.Rows.data(), Init.Rows.size());
  const unsigned RootShard = StateStore::shardOf(RootHash);
  DagLevel &Root = Levels.emplace_back();
  LNode RootNode;
  RootNode.Rows = Root.Shards[RootShard].Rows.append(
      Init.Rows.data(), static_cast<uint32_t>(Init.Rows.size()));
  RootNode.Ways = 1;
  RootNode.Sorted = allSorted(M, SearchState{Init.Rows});
  Root.Shards[RootShard].Nodes.push_back(RootNode);
  Root.sumBases();
  Store.shard(RootShard).insert(RootHash, Ids[RootShard].first(0));
  for (unsigned S = 0; S != kNumShards; ++S)
    Ids[S].closeLevel(static_cast<uint32_t>(Root.Shards[S].Nodes.size()));
  notePeak(Opts, residentSplit(), Result.Stats);
  Result.Stats.LevelStates.push_back(Root.size());
  Result.Stats.LevelSeconds.push_back(Timer.seconds());

  unsigned FinalLevel = 0;
  bool Found = RootNode.Sorted;
  for (unsigned G = 0; !Found && G < Opts.MaxLength; ++G) {
    const size_t Size = Levels[G].size();
    if (Size == 0)
      break;
    if (!withinBudget(Result, residentSplit(), StopPhase::LevelCheck))
      break;
    const unsigned ChildG = G + 1;
    // A new level may move the others: no reference into Levels is held
    // across this, and Flight is taken again.
    Flight = &Levels.emplace_back();
    bool Merged = true;
    for (size_t Begin = 0; Merged && Begin < Size; Begin += kSliceNodes) {
      const size_t End = std::min(Size, Begin + kSliceNodes);
      Merged = expandSlice(G, Begin, End, Result) && mergeSlice(ChildG, Result);
    }
    if (!Merged || !commitLevel(ChildG, Result, Found))
      break;
    Result.Stats.LevelStates.push_back(Levels[ChildG].size());
    Result.Stats.LevelSeconds.push_back(Timer.seconds());
    FinalLevel = ChildG;
  }

  // The run ends at the first level that holds a sorted node, so only the
  // last level's sorted nodes count solutions.
  if (Found) {
    Result.Found = true;
    Result.OptimalLength = FinalLevel;
    const DagLevel &Last = Levels[FinalLevel];
    for (unsigned S = 0; S != kNumShards; ++S) {
      const ChunkedArray<LNode> &Nodes = Last.Shards[S].Nodes;
      for (uint32_t I = 0; I != Nodes.size(); ++I) {
        if (!Nodes[I].Sorted)
          continue;
        Result.SolutionCount += Nodes[I].Ways;
        if (Opts.MaxSolutionsKept > 0 &&
            (Opts.FindAll || Result.Solutions.empty())) {
          Program Suffix;
          reconstruct(FinalLevel, Last.Bases[S] + I, Suffix, Result);
        }
      }
    }
  }
  Result.Stats.Seconds = Timer.seconds();
  return Result;
}

SearchResult detail::layeredSearch(const Machine &M,
                                   const SearchOptions &Opts,
                                   const DistanceTable *DT) {
  return LayeredEngine(M, Opts, DT).run();
}
