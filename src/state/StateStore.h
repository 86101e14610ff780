//===- state/StateStore.h - Arena-backed sharded state storage -*- C++ -*-===//
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
/// replaces both:
///
///  - RowArena: one flat uint32_t buffer that owns the row data of many
///    states; nodes address their rows by a RowSpan (offset, length)
///    handle, 8 bytes instead of a 24-byte vector header plus a malloc
///    block. The best-first engine keeps all its rows in one; the layered
///    engine keeps one per shard of each level (search/Layered.cpp).
///  - IndexShard: an open-addressing (linear probing) hash table mapping a
///    64-bit state hash to a 64-bit caller-defined payload. Collisions are
///    resolved by the caller comparing full rows, exactly like the old
///    bucket walk.
///  - StateStore: kNumShards index shards selected by the HIGH bits of the
///    state hash. Sharding makes the layered engine's dedup/merge
///    parallel: every candidate with the same canonical rows has the same
///    hash, hence the same shard, so distinct shards can be merged by
///    distinct workers with no synchronization.
///
/// bytesUsed() reports each structure's exact resident footprint; each
/// engine adds its arenas and nodes to the store's index to form what
/// SearchOptions::MaxStateBytes budgets and SearchStats::PeakStateBytes
/// reports.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_STATE_STATESTORE_H
#define SKS_STATE_STATESTORE_H

#include "support/Hashing.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sks {

/// Handle to a block of rows inside a RowArena.
struct RowSpan {
  uint32_t Offset = 0;
  uint32_t Len = 0;
};

/// A flat uint32_t buffer owning the row data of many states.
class RowArena {
public:
  /// Appends \p Len rows and \returns their handle.
  RowSpan append(const uint32_t *Rows, uint32_t Len) {
    RowSpan S{static_cast<uint32_t>(Data.size()), Len};
    Data.insert(Data.end(), Rows, Rows + Len);
    return S;
  }

  const uint32_t *rows(RowSpan S) const { return Data.data() + S.Offset; }

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

  size_t bytesUsed() const { return Data.capacity() * sizeof(uint32_t); }

private:
  std::vector<uint32_t> Data;
};

/// One shard of the dedup index: an open-addressing, linear-probing
/// multimap from state hash to a 64-bit payload. Never shrinks; no
/// deletion (search stores are append-only within a run).
class IndexShard {
public:
  static constexpr uint64_t kNotFound = ~0ull;

  /// Probes for an entry with \p Hash whose payload satisfies \p Match
  /// (the caller compares full rows there). \returns the payload or
  /// kNotFound.
  template <typename MatchFn>
  uint64_t find(uint64_t Hash, MatchFn Match) const {
    if (Slots.empty())
      return kNotFound;
    size_t Mask = Slots.size() - 1;
    for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (S.Payload == kEmpty)
        return kNotFound;
      if (S.Hash == Hash && Match(S.Payload))
        return S.Payload;
    }
  }

  /// Inserts without a duplicate check (the caller probed first).
  void insert(uint64_t Hash, uint64_t Payload) {
    maybeGrow();
    size_t Mask = Slots.size() - 1;
    size_t I = Hash & Mask;
    while (Slots[I].Payload != kEmpty)
      I = (I + 1) & Mask;
    Slots[I] = Slot{Hash, Payload};
    ++Count;
  }

  size_t bytesUsed() const { return Slots.capacity() * sizeof(Slot); }

private:
  struct Slot {
    uint64_t Hash;
    uint64_t Payload;
  };
  static constexpr uint64_t kEmpty = kNotFound;

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
/// plain node index, the layered engine packs (level, shard-local index),
/// which addresses the node in that level's shard (see Layered.cpp).
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

} // namespace sks

#endif // SKS_STATE_STATESTORE_H
