//===- cache/KernelCache.cpp - Content-addressed kernel store ---------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cache/KernelCache.h"

#include "driver/OutcomeIO.h"
#include "support/Hashing.h"
#include "verify/Verify.h"

#include <cstdio>
#include <filesystem>
#include <unistd.h>

using namespace sks;

static const char *kindName(MachineKind Kind) {
  switch (Kind) {
  case MachineKind::Cmov:
    return "cmov";
  case MachineKind::MinMax:
    return "minmax";
  case MachineKind::Hybrid:
    return "hybrid";
  }
  return "?";
}

KernelCache::KernelCache(CacheOptions O) : Opts(std::move(O)) {
  if (Opts.VerifierIdentity.empty())
    Opts.VerifierIdentity = verifierIdentity();
  std::error_code Ec;
  std::filesystem::create_directories(Opts.Dir, Ec);
  Valid = !Ec && std::filesystem::is_directory(Opts.Dir, Ec);
}

std::string KernelCache::canonicalRequest(const SynthRequest &Req) {
  // One line, fixed field order. lengthBound() rather than the raw
  // MaxLength so "0 = the network bound" and the spelled-out bound hash
  // identically — they request the same artifact.
  std::string Key = "sks-request v2";
  Key += std::string(" isa=") + kindName(Req.Kind);
  Key += " n=" + std::to_string(Req.N);
  Key += " m=" + std::to_string(Req.Scratch);
  Key += std::string(" goal=") +
         (Req.Goal == SynthGoal::MinLength ? "minlength" : "first");
  Key += " pred=" + Req.GoalPred.name();
  Key += " bound=" + std::to_string(Req.lengthBound());
  Key += " backend=" + Req.BackendPolicy;
  return Key;
}

std::string KernelCache::entryPath(const SynthRequest &Req) const {
  std::string Canonical = canonicalRequest(Req);
  uint64_t Hash = hashBytes(Canonical.data(), Canonical.size());
  char Name[32];
  std::snprintf(Name, sizeof(Name), "%016llx.sksc",
                static_cast<unsigned long long>(Hash));
  return Opts.Dir + "/" + Name;
}

/// Reads \p Path entirely, bounded at 4 MB (an entry is a few hundred
/// bytes; anything bigger is not ours). \returns false on absence, read
/// error, or overflow.
static bool readEntryFile(const std::string &Path, std::string &Text,
                          bool &Existed) {
  constexpr size_t MaxBytes = 4u << 20;
  std::FILE *File = std::fopen(Path.c_str(), "r");
  Existed = File != nullptr;
  if (!File)
    return false;
  char Buffer[4096];
  size_t Read;
  bool Ok = true;
  while ((Read = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0) {
    if (Text.size() + Read > MaxBytes) {
      Ok = false;
      break;
    }
    Text.append(Buffer, Read);
  }
  if (std::ferror(File))
    Ok = false;
  std::fclose(File);
  return Ok;
}

bool KernelCache::lookup(const SynthRequest &Req, SynthOutcome &Out) const {
  if (!Valid) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::string Path = entryPath(Req);
  std::string Text;
  bool Existed = false;
  if (!readEntryFile(Path, Text, Existed)) {
    (Existed ? Corrupt : Misses).fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // Header: three exact lines, then the embedded sks-outcome block.
  auto NextLine = [&Text](size_t &Pos) -> std::string {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End < Text.size() ? End + 1 : End;
    return Line;
  };
  size_t Pos = 0;
  std::string FormatLine = NextLine(Pos);
  std::string VerifierLine = NextLine(Pos);
  if (FormatLine != "# sks-cache v" + std::to_string(kCacheFormatVersion)) {
    // A different store format: the entry is stale, never trusted.
    // (Corruption in this line lands here too — the conservative
    // direction.)
    StaleVersion.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (VerifierLine != "# verifier: " + Opts.VerifierIdentity) {
    // Same format but a different notion of "verified": stale too, but
    // counted apart so operators can tell a format migration from a
    // verifier upgrade.
    StaleVerifier.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (NextLine(Pos) != "# request: " + canonicalRequest(Req)) {
    // Hash collision or damaged request line: this entry answers some
    // other request. Miss, and leave the file for its real owner.
    Misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  SynthOutcome Stored;
  if (!deserializeOutcome(Text.substr(Pos), Req.N, Stored) ||
      Stored.Kernel.empty() || !Stored.Verified ||
      (Stored.Status != SynthStatus::Found &&
       Stored.Status != SynthStatus::Optimal)) {
    Corrupt.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // Re-verification invariant: the stamp says the writer verified this
  // kernel, and we still re-check it with the live verifier before
  // serving — the cache must never widen the trust boundary.
  Machine M(Req.Kind, Req.N, Req.Scratch, Req.GoalPred);
  if (!isCorrectKernel(M, Stored.Kernel)) {
    VerifyFailed.fetch_add(1, std::memory_order_relaxed);
    std::remove(Path.c_str()); // Poisoned entry: evict.
    return false;
  }

  Hits.fetch_add(1, std::memory_order_relaxed);
  Out = std::move(Stored);
  return true;
}

bool KernelCache::store(const SynthRequest &Req, const SynthOutcome &O) const {
  if (!Valid || O.Kernel.empty() || !O.Verified ||
      (O.Status != SynthStatus::Found && O.Status != SynthStatus::Optimal))
    return false;

  std::string Text = "# sks-cache v" + std::to_string(kCacheFormatVersion) +
                     "\n# verifier: " + Opts.VerifierIdentity +
                     "\n# request: " + canonicalRequest(Req) + "\n" +
                     serializeOutcome(O, Req.N);

  // Atomic publish: write a uniquely named temp file in the same
  // directory, then rename over the entry. A reader never observes a
  // half-written entry; a crash leaves only a stray .tmp.
  std::string Path = entryPath(Req);
  std::string Temp =
      Path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(TempCounter.fetch_add(1, std::memory_order_relaxed));
  std::FILE *File = std::fopen(Temp.c_str(), "w");
  if (!File)
    return false;
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), File);
  bool Ok = std::fclose(File) == 0 && Written == Text.size();
  if (!Ok || std::rename(Temp.c_str(), Path.c_str()) != 0) {
    std::remove(Temp.c_str());
    return false;
  }
  Stores.fetch_add(1, std::memory_order_relaxed);
  return true;
}

CacheStats KernelCache::stats() const {
  CacheStats S;
  S.Hits = Hits.load(std::memory_order_relaxed);
  S.Misses = Misses.load(std::memory_order_relaxed);
  S.StaleVersion = StaleVersion.load(std::memory_order_relaxed);
  S.StaleVerifier = StaleVerifier.load(std::memory_order_relaxed);
  S.Corrupt = Corrupt.load(std::memory_order_relaxed);
  S.VerifyFailed = VerifyFailed.load(std::memory_order_relaxed);
  S.Stores = Stores.load(std::memory_order_relaxed);
  return S;
}
