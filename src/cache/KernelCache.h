//===- cache/KernelCache.h - Content-addressed kernel store ----*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent, content-addressed store of verified synthesis results
/// (DESIGN.md section 12). The paper's synthesizer produces a kernel once
/// per (machine model, n, goal) configuration; a production service mostly
/// re-answers those configurations, so every completed synthesis is stored
/// on disk keyed by the full request identity and replayed on the next
/// identical request.
///
/// Key derivation: canonicalRequest() renders the identity-bearing fields
/// of a SynthRequest — ISA, n, m, goal, effective length bound, backend
/// policy — as one deterministic line; its FNV-1a hash names the entry
/// file. Execution hints (timeout, thread count, stop token) are excluded:
/// they change how long an answer takes, not what the answer is. The
/// canonical line is stored inside the entry and compared on load, so a
/// hash collision degrades to a miss, never to a wrong kernel.
///
/// Trust model: a cache entry is evidence, not truth. Every entry carries
/// the store-format version and the verifier identity string
/// (verify/Verify.h verifierIdentity()) of the writer; on load, a stamp
/// mismatch makes the entry stale (transparently resynthesized, never
/// trusted), and even a fresh entry's kernel is re-verified through the
/// same n!-permutation check Backend::run gates on before it is served. A
/// torn or corrupt file fails the strict outcome parse (driver/OutcomeIO.h)
/// and is treated as a miss.
/// Writes are atomic (temp file + rename), so concurrent readers see
/// either the old complete entry or the new one.
///
/// Only verified kernels (Found/Optimal) are stored. Negative outcomes
/// (Infeasible, TimedOut, ...) are not: an Infeasible proof cannot be
/// re-checked cheaply on load, and the re-verification invariant above is
/// the property that makes serving from this store safe.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_CACHE_KERNELCACHE_H
#define SKS_CACHE_KERNELCACHE_H

#include "driver/Backend.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace sks {

/// On-disk entry format version; bump on any layout change so old trees
/// are transparently resynthesized instead of misparsed. History: v1 —
/// initial store; v2 — the canonical request line gained the goal
/// predicate (pred=<goal>), so v1 entries (which could only describe sort
/// requests, ambiguously) are retired wholesale.
inline constexpr unsigned kCacheFormatVersion = 2;

/// Construction parameters of a KernelCache.
struct CacheOptions {
  /// Directory holding the entries; created if absent.
  std::string Dir;
  /// Verifier identity stamped into (and required of) every entry.
  /// Defaults to the live verifier; tests inject synthetic identities to
  /// pin the version-bump invalidation path.
  std::string VerifierIdentity;
};

/// Counters of one cache instance (monotonic; readable concurrently).
struct CacheStats {
  uint64_t Hits = 0;          ///< Entry served (after re-verification).
  uint64_t Misses = 0;        ///< No entry on disk.
  uint64_t StaleVersion = 0;  ///< Store-format version stamp mismatch.
  uint64_t StaleVerifier = 0; ///< Verifier identity stamp mismatch.
  uint64_t Corrupt = 0;       ///< Unparseable entry (torn write, damage).
  uint64_t VerifyFailed = 0; ///< Entry parsed but its kernel failed
                             ///< re-verification; entry deleted.
  uint64_t Stores = 0;       ///< Entries written.
};

/// The content-addressed kernel store. All methods are thread-safe; the
/// only mutable state is the counters (atomics) and the filesystem
/// (atomic-rename writes).
class KernelCache {
public:
  explicit KernelCache(CacheOptions Opts);

  /// False when the cache directory could not be created; lookups miss
  /// and stores fail, so a bad --cache-dir degrades to uncached service.
  bool valid() const { return Valid; }

  const std::string &dir() const { return Opts.Dir; }

  /// The canonical request identity: one deterministic line over the
  /// fields that select a distinct artifact. This string IS the cache key
  /// (its hash only names the file), and the service's in-flight dedup
  /// map uses it directly.
  static std::string canonicalRequest(const SynthRequest &Req);

  /// Entry file path for \p Req inside this cache's directory.
  std::string entryPath(const SynthRequest &Req) const;

  /// Looks \p Req up. \returns true on a verified hit, filling \p Out
  /// with the stored outcome (kernel, status, backend stats). Any defect
  /// — stale stamps, torn file, failed re-verification — returns false so
  /// the caller resynthesizes.
  bool lookup(const SynthRequest &Req, SynthOutcome &Out) const;

  /// Stores \p O for \p Req. \returns false (and stores nothing) unless
  /// the outcome carries a verified kernel, or on I/O failure.
  bool store(const SynthRequest &Req, const SynthOutcome &O) const;

  /// Snapshot of the counters.
  CacheStats stats() const;

private:
  CacheOptions Opts;
  bool Valid = false;
  mutable std::atomic<uint64_t> Hits{0}, Misses{0}, StaleVersion{0},
      StaleVerifier{0}, Corrupt{0}, VerifyFailed{0}, Stores{0};
  mutable std::atomic<uint64_t> TempCounter{0};
};

} // namespace sks

#endif // SKS_CACHE_KERNELCACHE_H
