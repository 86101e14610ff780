//===- state/StateStore.h - Chunked, sharded state storage -----*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Centralized storage for canonical search states (paper section 3.6).
/// Both engines used to give every node its own heap-allocated
/// std::vector<uint32_t> of rows and to deduplicate through a
/// std::unordered_map of heap-allocated buckets — exactly the allocator
/// pressure that forced the paper onto a 32 GB machine. This header
/// replaces both, and keeps only the bytes a state uses:
///
///  - ChunkedArray: a growable array in fixed-size chunks of about
///    kChunkBytes. Growth allocates a new chunk instead of doubling and
///    copying the whole array, so an array holds at most one chunk that
///    has room left, and a committed layered level keeps no doubling
///    slack. An array's first chunk starts small and doubles up to a
///    whole chunk, so a shard with few nodes holds few bytes.
///  - RowArena: the row data of many states in one ChunkedArray; nodes
///    address their rows by a RowSpan (position, length) handle, 8 bytes
///    instead of a 24-byte vector header plus a malloc block. A state's
///    rows never straddle a chunk. The best-first engine keeps all its
///    rows in one arena; the layered engine keeps one per shard of each
///    level (search/Layered.cpp).
///  - IndexShard: an open-addressing (linear probing) hash table of 8-byte
///    slots: the state hash's low 32 bits as a tag, which also pick the
///    home slot, and a 32-bit caller-defined payload. The caller's full
///    row compare decides every match, as the old bucket walk did.
///  - StateStore: kNumShards index shards selected by the HIGH bits of the
///    state hash. Sharding makes the layered engine's dedup/merge
///    parallel: every candidate with the same canonical rows has the same
///    hash, hence the same shard, so distinct shards can be merged by
///    distinct workers with no synchronization.
///  - LevelIds: the layered engine's payload convention for one shard (a
///    node id that runs across levels) and its decode to (level, local).
///
/// bytesUsed() reports each structure's exact resident footprint (a
/// ChunkedArray's chunks, an IndexShard's slots); each engine adds its
/// arenas and nodes to the store's index to form what
/// SearchOptions::MaxStateBytes budgets and SearchStats::PeakStateBytes
/// reports.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_STATE_STATESTORE_H
#define SKS_STATE_STATESTORE_H

#include "support/Hashing.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace sks {

/// A growable array of trivially copyable T in chunks of kChunk elements,
/// the largest power of two that fits kChunkBytes. Chunk K holds the
/// positions [K * kChunk, K * kChunk + its capacity). Every chunk but the
/// last holds kChunk elements; the last holds fewer only while it is the
/// first, which doubles up to kChunk as the array grows, or when
/// allocate() sized it exactly. Elements never move once the first chunk
/// is whole, and nothing shrinks: the array frees its chunks when it dies.
template <typename T> class ChunkedArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

public:
  static constexpr size_t kChunkBytes = size_t{16} << 10;
  static constexpr unsigned kChunkShift =
      std::bit_width(kChunkBytes / sizeof(T)) - 1;
  static constexpr size_t kChunk = size_t{1} << kChunkShift;

  /// The position after the last element (with extend()'s skipped chunk
  /// tails, for a RowArena).
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }

  T &operator[](size_t I) { return Chunks[I >> kChunkShift][I & kMask]; }
  const T &operator[](size_t I) const {
    return Chunks[I >> kChunkShift][I & kMask];
  }

  void push_back(const T &V) { (*this)[extend(1)] = V; }

  /// Appends \p N >= 1 contiguous elements inside one chunk and \returns
  /// the position of the first.
  size_t extend(size_t N) {
    if (Size + N > End) [[unlikely]]
      grow(N);
    const size_t Pos = Size;
    Size += N;
    return Pos;
  }

  /// Sizes an empty array to exactly \p N uninitialized elements: whole
  /// chunks and a last chunk of the remainder, so bytesUsed() is exactly
  /// N * sizeof(T).
  void allocate(size_t N) {
    assert(Chunks.empty() && "allocate() sizes an empty array");
    for (size_t Done = 0; Done < N; Done += kChunk)
      Chunks.push_back(allocChunk(std::min(kChunk, N - Done)));
    Size = End = N;
  }

  /// Exact bytes of the chunks allocated.
  size_t bytesUsed() const { return End * sizeof(T); }

private:
  static constexpr size_t kMask = kChunk - 1;
  /// The first chunk's smallest capacity, about 64 bytes.
  static constexpr size_t kMinFirst = std::max<size_t>(1, 64 / sizeof(T));

  /// Frees a chunk of Cap elements.
  struct FreeChunk {
    size_t Cap = 0;
    void operator()(T *P) const { std::allocator<T>().deallocate(P, Cap); }
  };
  using Chunk = std::unique_ptr<T[], FreeChunk>;

  static Chunk allocChunk(size_t Cap) {
    return Chunk(std::allocator<T>().allocate(Cap), FreeChunk{Cap});
  }

  /// Makes room for \p N more contiguous elements. A last chunk smaller
  /// than kChunk doubles; if it still cannot take them, it closes with its
  /// tail unused and a new chunk starts.
  void grow(size_t N) {
    assert(N >= 1 && N <= kChunk && "a block must fit one chunk");
    if (Chunks.empty()) {
      End = std::min(kChunk, std::bit_ceil(std::max(N, kMinFirst)));
      Chunks.push_back(allocChunk(End));
      return;
    }
    const size_t Start = (Chunks.size() - 1) * kChunk;
    if (const size_t Cap = End - Start; Cap < kChunk) {
      const size_t Used = Size - Start;
      Chunk Grown = allocChunk(
          std::min(kChunk, std::max(2 * Cap, std::bit_ceil(Used + N))));
      std::memcpy(Grown.get(), Chunks.back().get(), Used * sizeof(T));
      End = Start + Grown.get_deleter().Cap;
      Chunks.back() = std::move(Grown);
      if (Size + N <= End)
        return;
    }
    Size = End = Chunks.size() * kChunk;
    Chunks.push_back(allocChunk(kChunk));
    End += kChunk;
  }

  std::vector<Chunk> Chunks;
  size_t Size = 0;
  size_t End = 0; ///< The position after the last chunk's capacity.
};

/// Handle to a block of rows inside a RowArena.
struct RowSpan {
  uint32_t Offset = 0;
  uint32_t Len = 0;
};

/// The row data of many states, in chunks; one state's rows are
/// contiguous inside one chunk.
class RowArena {
public:
  /// Appends \p Len rows and \returns their handle.
  RowSpan append(const uint32_t *Rows, uint32_t Len) {
    const size_t Pos = Words.extend(Len);
    assert(Pos + Len <= UINT32_MAX && "row positions are 32-bit");
    std::copy_n(Rows, Len, &Words[Pos]);
    return RowSpan{static_cast<uint32_t>(Pos), Len};
  }

  const uint32_t *rows(RowSpan S) const { return &Words[S.Offset]; }

  /// \returns true when \p S holds exactly \p Rows[0..Len).
  bool equals(RowSpan S, const uint32_t *Rows, uint32_t Len) const {
    if (S.Len != Len)
      return false;
    const uint32_t *Mine = rows(S);
    for (uint32_t I = 0; I != Len; ++I)
      if (Mine[I] != Rows[I])
        return false;
    return true;
  }

  size_t bytesUsed() const { return Words.bytesUsed(); }

private:
  ChunkedArray<uint32_t> Words;
};

/// One shard of the dedup index: an open-addressing, linear-probing
/// multimap from state hash to a 32-bit payload. A slot keeps the hash's
/// low 32 bits as its tag, and the tag picks the home slot, so a rehash
/// needs no full hash; a shard holds at most 2^32 slots. Never shrinks;
/// no deletion (search stores are append-only within a run).
class IndexShard {
public:
  static constexpr uint32_t kNotFound = ~0u;

  /// Probes for an entry whose tag is \p Hash's low 32 bits and whose
  /// payload satisfies \p Match (the caller compares full rows there).
  /// \returns the payload or kNotFound.
  template <typename MatchFn>
  uint32_t find(uint64_t Hash, MatchFn Match) const {
    if (Slots.empty())
      return kNotFound;
    const uint32_t Tag = static_cast<uint32_t>(Hash);
    const size_t Mask = Slots.size() - 1;
    for (size_t I = Tag & Mask;; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (S.Payload == kEmpty)
        return kNotFound;
      if (S.Tag == Tag && Match(S.Payload))
        return S.Payload;
    }
  }

  /// Inserts without a duplicate check (the caller probed first).
  void insert(uint64_t Hash, uint32_t Payload) {
    assert(Payload != kEmpty && "the all-ones payload marks an empty slot");
    maybeGrow();
    const uint32_t Tag = static_cast<uint32_t>(Hash);
    const size_t Mask = Slots.size() - 1;
    size_t I = Tag & Mask;
    while (Slots[I].Payload != kEmpty)
      I = (I + 1) & Mask;
    Slots[I] = Slot{Tag, Payload};
    ++Count;
  }

  size_t bytesUsed() const { return Slots.capacity() * sizeof(Slot); }

private:
  struct Slot {
    uint32_t Tag;
    uint32_t Payload;
  };
  static constexpr uint32_t kEmpty = kNotFound;

  void maybeGrow() {
    // Grow at 70% load; linear probing stays short well below that.
    if (Slots.empty() || (Count + 1) * 10 >= Slots.size() * 7)
      rehash(Slots.empty() ? 16 : Slots.size() * 2);
  }
  void rehash(size_t NewSize);

  std::vector<Slot> Slots;
  size_t Count = 0;
};

/// The sharded dedup index of canonical search states.
///
/// Payload conventions are the caller's: the best-first engine stores a
/// plain node index, the layered engine a per-shard node id that runs
/// across levels (LevelIds).
class StateStore {
public:
  /// Shards selected by the top kShardBits of the state hash.
  static constexpr unsigned kShardBits = 6;
  static constexpr unsigned kNumShards = 1u << kShardBits;

  static unsigned shardOf(uint64_t Hash) {
    return hashShardOf(Hash, kShardBits);
  }

  IndexShard &shard(unsigned S) { return Shards[S]; }
  const IndexShard &shard(unsigned S) const { return Shards[S]; }

  /// Exact resident bytes of the index.
  size_t bytesUsed() const {
    size_t Bytes = 0;
    for (const IndexShard &S : Shards)
      Bytes += S.bytesUsed();
    return Bytes;
  }

private:
  std::vector<IndexShard> Shards{kNumShards};
};

/// The layered engine's index payload for one shard: the shard numbers its
/// nodes in creation order across levels, so level L's nodes in the shard
/// hold the ids [first(L), first(L + 1)), and its local node I has the id
/// first(L) + I. Level 0 starts at id 0; each closed level moves the next
/// level's first id past its nodes. The open level, the last, holds every
/// id from its first on, so a hit there is exactly an id at or above it.
class LevelIds {
public:
  /// Closes the open level with \p Size nodes and opens the next.
  void closeLevel(uint32_t Size) { Firsts.push_back(Firsts.back() + Size); }

  /// The first id of level \p Level (at most the open level).
  uint32_t first(unsigned Level) const { return Firsts[Level]; }

  /// \returns the level that holds \p Id: the last level whose first id is
  /// at most \p Id. An empty level shares its first id with the next one,
  /// so the search passes over it. Scans down from the open level: most
  /// hits are at the last few levels.
  unsigned levelOf(uint32_t Id) const {
    unsigned L = static_cast<unsigned>(Firsts.size() - 1);
    while (Firsts[L] > Id)
      --L;
    return L;
  }

private:
  std::vector<uint32_t> Firsts{0};
};

} // namespace sks

#endif // SKS_STATE_STATESTORE_H
