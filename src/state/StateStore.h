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
/// pressure that forced the paper onto a 32 GB machine. This store replaces
/// both:
///
///  - RowArena: one flat uint32_t buffer per search level that owns ALL row
///    data of that level; nodes address their rows by a RowSpan
///    (offset, length) handle, 8 bytes instead of a 24-byte vector header
///    plus a malloc block.
///  - IndexShard: an open-addressing (linear probing) hash table mapping a
///    64-bit state hash to a 64-bit caller-defined payload. Collisions are
///    resolved by the caller comparing full rows, exactly like the old
///    bucket walk.
///  - StateStore: per-level arenas plus kNumShards index shards selected by
///    the HIGH bits of the state hash. Sharding makes the layered engine's
///    dedup/merge parallel: every candidate with the same canonical rows
///    has the same hash, hence the same shard, so distinct shards can be
///    merged by distinct workers with no synchronization.
///
/// On top of the flat mode, a RowArena has two colder tiers that the
/// layered engine drives through StateStore::retireLevel once a level
/// leaves the expansion window (its only remaining readers are dedup
/// probes from deeper levels):
///
///  - sealed: the flat words are re-encoded as independent delta/varint
///    blocks of kBlockWords words (state/RowCodec.h) — canonical levels
///    compress several-fold. Reads go through StateStore::rows /
///    rowsEqual, which decode whole blocks into a small per-worker
///    DecodeCache; the fixed block size makes span -> block a shift.
///  - spilled: the compressed blob is written to an anonymous (unlinked)
///    temp file and dropped from memory; block reads pread the byte range
///    back on demand. Spilled bytes leave the resident footprint, which
///    is what lets MaxStateBytes stop binding the frontier.
///
/// bytesUsed() reports the exact resident footprint (arenas + index), the
/// store's share of what SearchOptions::MaxStateBytes budgets and
/// SearchStats::PeakResidentBytes reports. Spill-file bytes are counted
/// separately in FrontierCounters::SpilledBytes.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_STATE_STATESTORE_H
#define SKS_STATE_STATESTORE_H

#include "support/Hashing.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sks {

/// Handle to a block of rows inside a RowArena.
struct RowSpan {
  uint32_t Offset = 0;
  uint32_t Len = 0;
};

/// A flat uint32_t buffer owning the row data of many states. Starts flat
/// (writable, zero-cost reads); seal() re-encodes it into independently
/// decodable compressed blocks, and spillTo() moves the sealed blob to an
/// unlinked temp file. Direct rows()/equals() access is only legal while
/// flat — sealed reads go through StateStore's decode layer.
class RowArena {
public:
  /// Words per compressed block. A power of two so span offset -> block
  /// index is a shift; 4096 words (16 KB flat) keeps whole-block decode
  /// cheap while amortizing the per-block predecessor reset.
  static constexpr uint32_t kBlockWords = 4096;

  RowArena() = default;
  RowArena(RowArena &&O) noexcept;
  RowArena &operator=(RowArena &&O) noexcept;
  RowArena(const RowArena &) = delete;
  RowArena &operator=(const RowArena &) = delete;
  ~RowArena();

  /// Appends \p Len rows and \returns their handle.
  RowSpan append(const uint32_t *Rows, uint32_t Len) {
    assert(!sealed() && "append into a sealed arena");
    RowSpan S{static_cast<uint32_t>(Data.size()), Len};
    Data.insert(Data.end(), Rows, Rows + Len);
    return S;
  }

  const uint32_t *rows(RowSpan S) const {
    assert(!sealed() && "flat read from a sealed arena");
    return Data.data() + S.Offset;
  }
  uint32_t *rows(RowSpan S) {
    assert(!sealed() && "flat read from a sealed arena");
    return Data.data() + S.Offset;
  }

  /// \returns true when \p S holds exactly \p Rows[0..Len). Flat mode only.
  bool equals(RowSpan S, const uint32_t *Rows, uint32_t Len) const {
    if (S.Len != Len)
      return false;
    const uint32_t *Mine = rows(S);
    for (uint32_t I = 0; I != Len; ++I)
      if (Mine[I] != Rows[I])
        return false;
    return true;
  }

  /// Word count: live size while flat, the size at seal time afterwards.
  size_t size() const { return sealed() ? WordCount : Data.size(); }
  const uint32_t *data() const { return Data.data(); }
  uint32_t *data() { return Data.data(); }
  void reserve(size_t Words) { Data.reserve(Words); }
  /// Grows the buffer to \p Words entries (bulk commit of a merged level).
  void resize(size_t Words) {
    assert(!sealed() && "resize of a sealed arena");
    Data.resize(Words);
  }

  /// Resident bytes only: the flat buffer, or the compressed blob plus
  /// block directory once sealed, or just the directory once spilled.
  size_t bytesUsed() const {
    return Data.capacity() * sizeof(uint32_t) + Blob.capacity() +
           BlockOffsets.capacity() * sizeof(uint64_t);
  }

  bool sealed() const { return Sealed; }
  bool spilled() const { return SpillFd >= 0; }
  /// Size of the compressed blob (resident or spilled); 0 while flat.
  size_t compressedBytes() const { return BlobBytes; }
  uint32_t blockCount() const {
    return static_cast<uint32_t>(BlockOffsets.empty() ? 0
                                                      : BlockOffsets.size() - 1);
  }

  /// Re-encodes the flat words as compressed blocks and frees the flat
  /// buffer. Idempotent. Reads must go through StateStore afterwards.
  void seal();

  /// Writes the sealed blob to a fresh unlinked file under \p Dir and
  /// frees it from memory; subsequent block reads pread the file.
  /// \returns false (leaving the arena resident and readable) if the file
  /// cannot be created or written.
  bool spillTo(const std::string &Dir);

  /// Decodes block \p Block into \p Out (resized to the block's word
  /// count), fetching the compressed bytes through \p FileBuf when
  /// spilled. Aborts on a corrupt blob or unreadable spill file — both
  /// mean the process lost state it cannot recover.
  void decodeBlock(uint32_t Block, std::vector<uint32_t> &Out,
                   std::vector<uint8_t> &FileBuf) const;

private:
  std::vector<uint32_t> Data;
  // Sealed state: concatenated compressed blocks and their byte offsets
  // (size blockCount() + 1). BlobBytes survives the spill so compression
  // stats stay reportable.
  std::vector<uint8_t> Blob;
  std::vector<uint64_t> BlockOffsets;
  size_t WordCount = 0;
  size_t BlobBytes = 0;
  bool Sealed = false;
  int SpillFd = -1;
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

  /// Visits every live entry as Fn(Hash, Payload) (bulk commit into the
  /// global index).
  template <typename Fn> void forEach(Fn Visit) const {
    for (const Slot &S : Slots)
      if (S.Payload != kEmpty)
        Visit(S.Hash, S.Payload);
  }

  void clear() {
    Slots.clear();
    Count = 0;
  }

  size_t size() const { return Count; }
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

/// Frontier compression policy, set once per search from SearchOptions.
struct FrontierConfig {
  /// Seal (compress) levels as retireLevel retires them.
  bool Compress = false;
  /// Directory for spill files; empty disables the spill tier.
  std::string SpillDir;
  /// Spill oldest sealed levels while their resident compressed bytes
  /// exceed this; 0 spills every sealed level as soon as SpillDir is set.
  size_t SpillThresholdBytes = 0;
};

/// Monotonic counters of the seal/spill lifecycle, folded into
/// SearchStats at the end of a run.
struct FrontierCounters {
  /// Compressed vs. flat bytes of every sealed level (the compression
  /// ratio is CompressedRawBytes / CompressedBytes).
  size_t CompressedBytes = 0;
  size_t CompressedRawBytes = 0;
  /// Bytes currently held in spill files.
  size_t SpilledBytes = 0;
  /// Spill attempts that failed (level stayed resident).
  size_t SpillFailures = 0;
  unsigned SealedLevels = 0;
  unsigned SpilledLevels = 0;
};

/// A small per-worker cache of decoded blocks (kWays-entry LRU keyed by
/// (level, block)). Each merge worker owns one, so sealed-level dedup
/// probes never synchronize: the arenas are immutable once sealed and all
/// mutable decode state lives here. Also accumulates the decode-side
/// stats that SearchStats reports.
class DecodeCache {
public:
  uint64_t DecodeNanos = 0;
  size_t BlocksDecoded = 0;

  size_t bytesUsed() const {
    size_t Bytes = Stitch.capacity() * sizeof(uint32_t) + FileBuf.capacity();
    for (const Entry &E : Ways)
      Bytes += E.Words.capacity() * sizeof(uint32_t);
    return Bytes;
  }

private:
  friend class StateStore;
  static constexpr unsigned kWays = 4;
  struct Entry {
    uint32_t Level = ~0u;
    uint32_t Block = 0;
    uint64_t Stamp = 0;
    std::vector<uint32_t> Words;
  };
  Entry Ways[kWays];
  uint64_t Clock = 0;
  // Scratch for spans that straddle a block boundary / for pread.
  std::vector<uint32_t> Stitch;
  std::vector<uint8_t> FileBuf;
};

/// Arena-backed, shard-indexed storage for canonical search states.
///
/// Payload conventions are the caller's: the best-first engine stores a
/// plain node-arena index, the layered engine packs (level, shard-local
/// index) and rebases through its per-level shard bases (see Layered.cpp).
class StateStore {
public:
  /// Shards selected by the top kShardBits of the state hash.
  static constexpr unsigned kShardBits = 6;
  static constexpr unsigned kNumShards = 1u << kShardBits;

  static unsigned shardOf(uint64_t Hash) {
    return hashShardOf(Hash, kShardBits);
  }

  /// The arena of level \p L, created on demand. The best-first engine
  /// keeps everything in level 0.
  RowArena &arena(unsigned Level) {
    if (Level >= Arenas.size())
      Arenas.resize(Level + 1);
    return Arenas[Level];
  }
  const RowArena &arena(unsigned Level) const { return Arenas[Level]; }
  unsigned numLevels() const { return static_cast<unsigned>(Arenas.size()); }

  IndexShard &shard(unsigned S) { return Shards[S]; }
  const IndexShard &shard(unsigned S) const { return Shards[S]; }

  void configureFrontier(const FrontierConfig &C) { Frontier = C; }
  const FrontierCounters &frontierCounters() const { return Counters; }

  /// Retires level \p L from the expansion window: with compression
  /// enabled, seals its arena, then spills oldest sealed levels while the
  /// sealed-but-resident bytes exceed the configured threshold. A no-op
  /// when compression is off or the level is already sealed.
  void retireLevel(unsigned Level);

  /// Mode-blind span read: flat arenas return their buffer directly,
  /// sealed ones decode through \p Cache. The pointer is valid until the
  /// next rows()/rowsEqual() call on the same cache.
  const uint32_t *rows(unsigned Level, RowSpan S, DecodeCache &Cache) const;

  /// Mode-blind RowArena::equals: the dedup probe of the layered merge.
  bool rowsEqual(unsigned Level, RowSpan S, const uint32_t *Rows,
                 uint32_t Len, DecodeCache &Cache) const;

  /// Total states in the index.
  size_t stateCount() const {
    size_t N = 0;
    for (const IndexShard &S : Shards)
      N += S.size();
    return N;
  }

  /// Exact resident bytes of all arenas plus the index (spill-file bytes
  /// excluded; see FrontierCounters::SpilledBytes).
  size_t bytesUsed() const {
    size_t Bytes = 0;
    for (const RowArena &A : Arenas)
      Bytes += A.bytesUsed();
    for (const IndexShard &S : Shards)
      Bytes += S.bytesUsed();
    return Bytes;
  }

private:
  const std::vector<uint32_t> &cachedBlock(unsigned Level, uint32_t Block,
                                           DecodeCache &Cache) const;

  std::vector<RowArena> Arenas;
  std::vector<IndexShard> Shards{kNumShards};
  FrontierConfig Frontier;
  FrontierCounters Counters;
  // Compressed bytes of sealed-but-not-spilled levels (the spill
  // threshold's working set).
  size_t SealedResident = 0;
};

} // namespace sks

#endif // SKS_STATE_STATESTORE_H
