//===- tests/ServiceTest.cpp - Cache + synthesis service tests --------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The service layer (DESIGN.md section 12): the sks-outcome text format,
// the content-addressed kernel cache and its trust model (version stamps,
// corrupt-entry rejection, re-verification on load), the SynthService
// request path (cache short-circuit, in-flight dedup, admission control,
// shutdown), and the sks-serve wire protocol.
//
//===----------------------------------------------------------------------===//

#include "cache/KernelCache.h"
#include "driver/OutcomeIO.h"
#include "service/Protocol.h"
#include "service/SynthService.h"

#include "kernels/KernelIO.h"
#include "kernels/ReferenceKernels.h"
#include "verify/Verify.h"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <gtest/gtest.h>

using namespace sks;

namespace {

/// A fresh scratch directory, removed on scope exit.
class TempDir {
public:
  explicit TempDir(const std::string &Tag) {
    Dir = std::filesystem::temp_directory_path() /
          ("sks_service_test_" + Tag + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this)));
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
  }
  ~TempDir() { std::filesystem::remove_all(Dir); }
  std::string path() const { return Dir.string(); }

private:
  std::filesystem::path Dir;
};

/// A verified outcome carrying a genuinely correct kernel (re-verification
/// on cache load must pass).
SynthOutcome makeVerifiedOutcome(unsigned N) {
  SynthOutcome O;
  O.BackendName = "test";
  O.Status = SynthStatus::Optimal;
  O.Verified = true;
  O.Seconds = 0.125;
  O.Kernel = sortingNetworkCmov(N);
  O.Stats.emplace_back("states_expanded", 42);
  O.Stats.emplace_back("dedup_hits", 7);
  return O;
}

SynthRequest makeRequest(unsigned N, const std::string &Policy = "enum") {
  SynthRequest Req;
  Req.N = N;
  Req.Goal = SynthGoal::MinLength;
  Req.BackendPolicy = Policy;
  return Req;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void spew(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
}

//===----------------------------------------------------------------------===//
// sks-outcome serialization
//===----------------------------------------------------------------------===//

TEST(OutcomeIO, RoundTripIsByteIdentical) {
  SynthOutcome O = makeVerifiedOutcome(3);
  std::string Text = serializeOutcome(O, 3);
  SynthOutcome Loaded;
  ASSERT_TRUE(deserializeOutcome(Text, 3, Loaded));
  EXPECT_EQ(Loaded.BackendName, O.BackendName);
  EXPECT_EQ(Loaded.Status, O.Status);
  EXPECT_EQ(Loaded.Verified, O.Verified);
  EXPECT_EQ(Loaded.Kernel, O.Kernel);
  EXPECT_EQ(Loaded.Stats, O.Stats);
  EXPECT_DOUBLE_EQ(Loaded.Seconds, O.Seconds);
  // The determinism contract cache entries rely on: stats keep their
  // order and seconds is pinned, so serialize ∘ deserialize is identity.
  EXPECT_EQ(serializeOutcome(Loaded, 3), Text);
}

TEST(OutcomeIO, FormatIsPinned) {
  SynthOutcome O = makeVerifiedOutcome(2);
  O.Stats.clear();
  O.Seconds = 1.5;
  EXPECT_EQ(serializeOutcome(O, 2),
            "# sks-outcome v1\n"
            "# backend: test\n"
            "# status: optimal\n"
            "# verified: yes\n"
            "# seconds: 1.500000\n"
            "# length: 4\n" +
                toString(O.Kernel, 2));
}

TEST(OutcomeIO, AllStatusNamesRoundTrip) {
  for (SynthStatus S :
       {SynthStatus::Found, SynthStatus::Optimal, SynthStatus::Exhausted,
        SynthStatus::TimedOut, SynthStatus::Cancelled, SynthStatus::Infeasible,
        SynthStatus::Rejected}) {
    SynthStatus Back = SynthStatus::Found;
    ASSERT_TRUE(statusFromName(statusName(S), Back));
    EXPECT_EQ(Back, S);
  }
  SynthStatus Out;
  EXPECT_FALSE(statusFromName("bogus", Out));
}

TEST(OutcomeIO, RejectsTruncatedAndMalformed) {
  SynthOutcome O = makeVerifiedOutcome(3);
  std::string Text = serializeOutcome(O, 3);
  SynthOutcome Sink;
  EXPECT_FALSE(deserializeOutcome("", 3, Sink));
  EXPECT_FALSE(deserializeOutcome("# sks-outcome v2\n", 3, Sink))
      << "future version must not parse as v1";
  // The torn-write signature: the declared length disagrees with the
  // body. Drop the last instruction line.
  std::string Torn = Text.substr(0, Text.rfind("cmov"));
  EXPECT_FALSE(deserializeOutcome(Torn, 3, Sink));
  // Mandatory headers.
  for (const char *Header :
       {"# backend:", "# status:", "# verified:", "# seconds:", "# length:"}) {
    std::string Cut = Text;
    size_t At = Cut.find(Header);
    ASSERT_NE(At, std::string::npos);
    size_t End = Cut.find('\n', At);
    Cut.erase(At, End - At + 1);
    EXPECT_FALSE(deserializeOutcome(Cut, 3, Sink)) << "without " << Header;
  }
  // A failed parse never partially mutates the destination.
  SynthOutcome Untouched = makeVerifiedOutcome(2);
  SynthOutcome Probe = Untouched;
  EXPECT_FALSE(deserializeOutcome(Torn, 3, Probe));
  EXPECT_EQ(Probe.Kernel, Untouched.Kernel);
  EXPECT_EQ(Probe.BackendName, Untouched.BackendName);
}

//===----------------------------------------------------------------------===//
// Kernel cache
//===----------------------------------------------------------------------===//

TEST(KernelCache, CanonicalRequestCoversIdentityNotHints) {
  SynthRequest Req = makeRequest(3);
  std::string Key = KernelCache::canonicalRequest(Req);
  EXPECT_EQ(Key, "sks-request v2 isa=cmov n=3 m=1 goal=minlength pred=sort "
                 "bound=12 backend=enum");

  // Execution hints do not change the artifact, so they are not part of
  // the key...
  SynthRequest Hints = Req;
  Hints.TimeoutSeconds = 99;
  Hints.NumThreads = 8;
  EXPECT_EQ(KernelCache::canonicalRequest(Hints), Key);

  // ...while every identity-bearing field does.
  SynthRequest Other = Req;
  Other.N = 4;
  EXPECT_NE(KernelCache::canonicalRequest(Other), Key);
  Other = Req;
  Other.Kind = MachineKind::MinMax;
  EXPECT_NE(KernelCache::canonicalRequest(Other), Key);
  Other = Req;
  Other.Goal = SynthGoal::FirstKernel;
  EXPECT_NE(KernelCache::canonicalRequest(Other), Key);
  Other = Req;
  Other.MaxLength = 9;
  EXPECT_NE(KernelCache::canonicalRequest(Other), Key);
  Other = Req;
  Other.BackendPolicy = "portfolio";
  EXPECT_NE(KernelCache::canonicalRequest(Other), Key);
  Other = Req;
  Other.GoalPred = GoalSpec::selectK(2);
  EXPECT_NE(KernelCache::canonicalRequest(Other), Key)
      << "the goal predicate selects a distinct artifact";

  // An explicit bound equal to the default network bound is the same
  // artifact (lengthBound() collapses them).
  SynthRequest Explicit = Req;
  Explicit.MaxLength = Req.lengthBound();
  EXPECT_EQ(KernelCache::canonicalRequest(Explicit), Key);
}

TEST(KernelCache, MissThenStoreThenHit) {
  TempDir Dir("roundtrip");
  KernelCache Cache(CacheOptions{Dir.path(), ""});
  ASSERT_TRUE(Cache.valid());

  SynthRequest Req = makeRequest(2);
  SynthOutcome Out;
  EXPECT_FALSE(Cache.lookup(Req, Out));
  EXPECT_EQ(Cache.stats().Misses, 1u);

  SynthOutcome Stored = makeVerifiedOutcome(2);
  ASSERT_TRUE(Cache.store(Req, Stored));
  EXPECT_EQ(Cache.stats().Stores, 1u);

  ASSERT_TRUE(Cache.lookup(Req, Out));
  EXPECT_EQ(Cache.stats().Hits, 1u);
  EXPECT_EQ(Out.Kernel, Stored.Kernel);
  EXPECT_EQ(Out.Status, SynthStatus::Optimal);
  EXPECT_TRUE(Out.Verified);
  EXPECT_EQ(Out.Stats, Stored.Stats);

  // A second cache instance over the same directory sees the entry:
  // persistence, not memoization.
  KernelCache Reopened(CacheOptions{Dir.path(), ""});
  ASSERT_TRUE(Reopened.lookup(Req, Out));
  EXPECT_EQ(Out.Kernel, Stored.Kernel);

  // A different request misses despite the populated directory.
  SynthOutcome Sink;
  EXPECT_FALSE(Reopened.lookup(makeRequest(3), Sink));
}

TEST(KernelCache, RefusesToStoreUnverifiedOutcomes) {
  TempDir Dir("unverified");
  KernelCache Cache(CacheOptions{Dir.path(), ""});
  SynthRequest Req = makeRequest(2);

  SynthOutcome NotVerified = makeVerifiedOutcome(2);
  NotVerified.Verified = false;
  EXPECT_FALSE(Cache.store(Req, NotVerified));

  SynthOutcome NoKernel;
  NoKernel.Status = SynthStatus::TimedOut;
  EXPECT_FALSE(Cache.store(Req, NoKernel));

  EXPECT_EQ(Cache.stats().Stores, 0u);
  SynthOutcome Sink;
  EXPECT_FALSE(Cache.lookup(Req, Sink));
}

TEST(KernelCache, VerifierVersionBumpInvalidates) {
  TempDir Dir("stale");
  SynthRequest Req = makeRequest(2);
  {
    KernelCache Old(CacheOptions{Dir.path(), "sks-verify test v1"});
    ASSERT_TRUE(Old.store(Req, makeVerifiedOutcome(2)));
    SynthOutcome Out;
    EXPECT_TRUE(Old.lookup(Req, Out));
  }
  // A new verifier identity distrusts the old stamp: the entry is stale,
  // the lookup misses, and the file is left for resynthesis to replace.
  // Counted as StaleVerifier, distinct from the format-version counter.
  KernelCache New(CacheOptions{Dir.path(), "sks-verify test v2"});
  SynthOutcome Out;
  EXPECT_FALSE(New.lookup(Req, Out));
  EXPECT_EQ(New.stats().StaleVerifier, 1u);
  EXPECT_EQ(New.stats().StaleVersion, 0u);
  EXPECT_TRUE(std::filesystem::exists(New.entryPath(Req)));

  // Resynthesis under the new identity heals the entry in place.
  ASSERT_TRUE(New.store(Req, makeVerifiedOutcome(2)));
  EXPECT_TRUE(New.lookup(Req, Out));
}

TEST(KernelCache, FormatVersionBumpInvalidatesAndHeals) {
  // A pre-bump entry file — the v1 on-disk layout — at the path the
  // CURRENT format computes for the request must be a transparent miss,
  // counted as StaleVersion (not corrupt, not verify-failed), and healed
  // by the next store.
  TempDir Dir("format_bump");
  KernelCache Cache(CacheOptions{Dir.path(), ""});
  SynthRequest Req = makeRequest(2);

  SynthOutcome Old = makeVerifiedOutcome(2);
  std::string V1Entry = "# sks-cache v1\n# verifier: " +
                        std::string(verifierIdentity()) +
                        "\n# request: sks-request v1 isa=cmov n=2 m=1 "
                        "goal=minlength bound=4 backend=enum\n" +
                        serializeOutcome(Old, 2);
  spew(Cache.entryPath(Req), V1Entry);

  SynthOutcome Out;
  EXPECT_FALSE(Cache.lookup(Req, Out));
  EXPECT_EQ(Cache.stats().StaleVersion, 1u);
  EXPECT_EQ(Cache.stats().StaleVerifier, 0u);
  EXPECT_EQ(Cache.stats().Corrupt, 0u);
  EXPECT_EQ(Cache.stats().VerifyFailed, 0u);

  // The resynthesized store overwrites the stale file and serves.
  ASSERT_TRUE(Cache.store(Req, makeVerifiedOutcome(2)));
  EXPECT_TRUE(Cache.lookup(Req, Out));
  EXPECT_EQ(Cache.stats().Hits, 1u);
}

TEST(KernelCache, NonSortGoalRoundTrip) {
  // Cold miss then warm hit for a non-sort goal: the goal predicate is a
  // first-class identity field, and re-verification on load runs against
  // the goal-carrying machine. A full sorting kernel satisfies select-2.
  TempDir Dir("goal_roundtrip");
  KernelCache Cache(CacheOptions{Dir.path(), ""});
  SynthRequest Req = makeRequest(3);
  Req.GoalPred = GoalSpec::selectK(2);

  SynthOutcome Out;
  EXPECT_FALSE(Cache.lookup(Req, Out));
  ASSERT_TRUE(Cache.store(Req, makeVerifiedOutcome(3)));
  EXPECT_TRUE(Cache.lookup(Req, Out));
  EXPECT_EQ(Cache.stats().Hits, 1u);

  // The sort-goal request with otherwise identical fields is a different
  // artifact: it must miss.
  SynthOutcome Sink;
  EXPECT_FALSE(Cache.lookup(makeRequest(3), Sink));
}

TEST(KernelCache, RejectsCorruptEntries) {
  TempDir Dir("corrupt");
  KernelCache Cache(CacheOptions{Dir.path(), ""});
  SynthRequest Req = makeRequest(2);
  ASSERT_TRUE(Cache.store(Req, makeVerifiedOutcome(2)));
  std::string Path = Cache.entryPath(Req);
  std::string Good = slurp(Path);
  ASSERT_FALSE(Good.empty());

  // A torn write: the file ends mid-entry. Must read as a miss, counted
  // as corrupt, never as a partial outcome.
  SynthOutcome Out;
  spew(Path, Good.substr(0, Good.size() / 2));
  EXPECT_FALSE(Cache.lookup(Req, Out));
  EXPECT_GE(Cache.stats().Corrupt, 1u);

  // Garbage bytes.
  spew(Path, "not a cache entry at all\n");
  EXPECT_FALSE(Cache.lookup(Req, Out));

  // Restored intact: served again.
  spew(Path, Good);
  EXPECT_TRUE(Cache.lookup(Req, Out));
}

TEST(KernelCache, ReVerifiesKernelsOnLoadAndDeletesLiars) {
  TempDir Dir("liar");
  KernelCache Cache(CacheOptions{Dir.path(), ""});
  SynthRequest Req = makeRequest(2);
  ASSERT_TRUE(Cache.store(Req, makeVerifiedOutcome(2)));
  std::string Path = Cache.entryPath(Req);

  // Forge a well-formed entry whose kernel claims "verified" but does not
  // sort. The parse succeeds; the re-verification gate must catch it and
  // delete the entry — the cache never widens the trust boundary.
  SynthOutcome Lie = makeVerifiedOutcome(2);
  Lie.Kernel.clear();
  ASSERT_TRUE(parseProgram("mov r1 r2\nmov r2 r1\nmov r1 r2\nmov r2 r1\n", 2,
                           Lie.Kernel));
  std::string Entry = slurp(Path);
  std::string Forged = Entry.substr(0, Entry.find("# sks-outcome")) +
                       serializeOutcome(Lie, 2);
  spew(Path, Forged);

  SynthOutcome Out;
  EXPECT_FALSE(Cache.lookup(Req, Out));
  EXPECT_EQ(Cache.stats().VerifyFailed, 1u);
  EXPECT_FALSE(std::filesystem::exists(Path))
      << "a lying entry must be evicted, not retried forever";
}

TEST(KernelCache, InvalidDirectoryDegradesToUncached) {
  KernelCache Cache(CacheOptions{"/proc/definitely/not/writable", ""});
  EXPECT_FALSE(Cache.valid());
  SynthOutcome Out;
  EXPECT_FALSE(Cache.lookup(makeRequest(2), Out));
  EXPECT_FALSE(Cache.store(makeRequest(2), makeVerifiedOutcome(2)));
}

//===----------------------------------------------------------------------===//
// SynthService
//===----------------------------------------------------------------------===//

TEST(SynthService, WarmHitRunsNoBackend) {
  TempDir Dir("service_warm");
  std::atomic<unsigned> BackendRuns{0};

  ServiceOptions Opts;
  Opts.CacheDir = Dir.path();
  Opts.Workers = 1;
  Opts.Runner = [&](const SynthRequest &Req) {
    BackendRuns.fetch_add(1);
    return makeVerifiedOutcome(Req.N);
  };
  SynthService Service(Opts);

  bool Cached = true;
  SynthOutcome Cold = Service.synthesize(makeRequest(2), &Cached);
  EXPECT_TRUE(Cold.Verified);
  EXPECT_FALSE(Cached);
  EXPECT_EQ(BackendRuns.load(), 1u);

  // The acceptance pin: the second identical request is answered from
  // the cache with ZERO backend invocations.
  SynthOutcome Warm = Service.synthesize(makeRequest(2), &Cached);
  EXPECT_TRUE(Cached);
  EXPECT_EQ(BackendRuns.load(), 1u) << "a warm hit must not run a backend";
  EXPECT_EQ(Warm.Kernel, Cold.Kernel);
  EXPECT_EQ(Service.stats().CacheHits, 1u);
  EXPECT_EQ(Service.stats().Synthesized, 1u);

  // Concurrent warm hits: several submitting threads probe the cache at
  // once, and every answer is the stored, re-verified kernel.
  const unsigned Clients = 4, PerClient = 8;
  std::atomic<unsigned> Good{0};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back([&] {
      for (unsigned I = 0; I != PerClient; ++I) {
        bool Hit = false;
        SynthOutcome O = Service.synthesize(makeRequest(2), &Hit);
        if (Hit && O.Verified && O.Kernel == Cold.Kernel)
          Good.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Good.load(), Clients * PerClient);
  EXPECT_EQ(BackendRuns.load(), 1u) << "a warm hit must not run a backend";
  EXPECT_EQ(Service.stats().CacheHits, 1u + Clients * PerClient);

  // A distinct request still synthesizes.
  Service.synthesize(makeRequest(3));
  EXPECT_EQ(BackendRuns.load(), 2u);
}

TEST(SynthService, PolicyAndTimeoutDefaultsApply) {
  std::mutex SeenMutex;
  std::string SeenPolicy;
  double SeenTimeout = -1;

  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.DefaultPolicy = "smt";
  Opts.DefaultTimeoutSeconds = 42;
  Opts.Runner = [&](const SynthRequest &Req) {
    std::lock_guard<std::mutex> Lock(SeenMutex);
    SeenPolicy = Req.BackendPolicy;
    SeenTimeout = Req.TimeoutSeconds;
    return makeVerifiedOutcome(Req.N);
  };
  SynthService Service(Opts);

  SynthRequest Req = makeRequest(2);
  Req.BackendPolicy.clear();
  Req.TimeoutSeconds = 0;
  Service.synthesize(Req);
  EXPECT_EQ(SeenPolicy, "smt");
  EXPECT_DOUBLE_EQ(SeenTimeout, 42);

  SynthRequest Explicit = makeRequest(2, "enum");
  Explicit.TimeoutSeconds = 7;
  Service.synthesize(Explicit);
  EXPECT_EQ(SeenPolicy, "enum");
  EXPECT_DOUBLE_EQ(SeenTimeout, 7);
}

/// A runner the test releases manually: every job blocks until release(),
/// so the test controls exactly when synthesis "finishes".
class GatedRunner {
public:
  SynthOutcome operator()(const SynthRequest &Req) {
    Started.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Cv.notify_all();
    }
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [&] { return Released; });
    Runs.fetch_add(1, std::memory_order_relaxed);
    return makeVerifiedOutcome(Req.N);
  }

  void release() {
    std::lock_guard<std::mutex> Lock(Mutex);
    Released = true;
    Cv.notify_all();
  }

  /// Blocks until \p K jobs have entered the runner.
  void awaitStarted(unsigned K) {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [&] { return Started.load() >= K; });
  }

  unsigned runs() const { return Runs.load(); }

private:
  std::mutex Mutex;
  std::condition_variable Cv;
  bool Released = false;
  std::atomic<unsigned> Started{0};
  std::atomic<unsigned> Runs{0};
};

TEST(SynthService, ConcurrentIdenticalRequestsCoalesce) {
  // N identical + M distinct requests submitted while synthesis is
  // blocked: exactly one run per distinct key, identical outcomes for
  // every coalesced waiter. (The tsan_service ctest entry replays this
  // under ThreadSanitizer.)
  constexpr unsigned Identical = 8, Distinct = 3;
  auto Gate = std::make_shared<GatedRunner>();

  ServiceOptions Opts;
  Opts.Workers = 4;
  Opts.MaxQueue = 0; // Unbounded: this test is about dedup, not admission.
  Opts.Runner = [Gate](const SynthRequest &Req) { return (*Gate)(Req); };
  SynthService Service(Opts);

  std::mutex DoneMutex;
  std::condition_variable DoneCv;
  unsigned Done = 0;
  std::vector<std::string> IdenticalKernels;
  auto Collect = [&](std::vector<std::string> *Into) {
    return [&, Into](const SynthOutcome &O, bool Cached) {
      std::lock_guard<std::mutex> Lock(DoneMutex);
      EXPECT_FALSE(Cached);
      EXPECT_TRUE(O.Verified);
      if (Into)
        Into->push_back(toString(O.Kernel, 2));
      ++Done;
      DoneCv.notify_all();
    };
  };

  // Submit from multiple client threads to exercise the dedup race.
  std::vector<std::thread> Clients;
  for (unsigned I = 0; I != Identical; ++I)
    Clients.emplace_back([&] {
      Service.submit(makeRequest(2), Collect(&IdenticalKernels));
    });
  for (unsigned I = 0; I != Distinct; ++I)
    Clients.emplace_back([&, I] {
      SynthRequest Req = makeRequest(2);
      Req.MaxLength = 5 + I; // Distinct bound ⇒ distinct cache key.
      Service.submit(Req, Collect(nullptr));
    });
  for (std::thread &T : Clients)
    T.join();

  // All keys are registered; release the gate and wait for every
  // completion to fire.
  Gate->release();
  {
    std::unique_lock<std::mutex> Lock(DoneMutex);
    DoneCv.wait(Lock, [&] { return Done == Identical + Distinct; });
  }

  // Exactly one synthesis per distinct key; the identical batch shares
  // one outcome.
  EXPECT_EQ(Gate->runs(), 1 + Distinct);
  EXPECT_EQ(Service.stats().Synthesized, 1u + Distinct);
  EXPECT_GE(Service.stats().Coalesced, Identical - 1);
  ASSERT_EQ(IdenticalKernels.size(), Identical);
  for (const std::string &K : IdenticalKernels)
    EXPECT_EQ(K, IdenticalKernels.front());
}

TEST(SynthService, AdmissionControlRejectsOverload) {
  auto Gate = std::make_shared<GatedRunner>();
  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.MaxQueue = 1;
  Opts.Runner = [Gate](const SynthRequest &Req) { return (*Gate)(Req); };
  SynthService Service(Opts);

  // First request occupies the single worker...
  std::atomic<unsigned> Finished{0};
  auto Count = [&](const SynthOutcome &, bool) { Finished.fetch_add(1); };
  Service.submit(makeRequest(2), Count);
  Gate->awaitStarted(1); // ...and has left the admission queue.

  // Second request fills the queue.
  SynthRequest Second = makeRequest(3);
  Service.submit(Second, Count);

  // Third request overflows: answered immediately with Rejected, in the
  // submitting thread, without waiting for a worker.
  SynthRequest Third = makeRequest(4);
  SynthStatus ThirdStatus = SynthStatus::Found;
  bool ThirdCached = true;
  Service.submit(Third, [&](const SynthOutcome &O, bool Cached) {
    ThirdStatus = O.Status;
    ThirdCached = Cached;
  });
  EXPECT_EQ(ThirdStatus, SynthStatus::Rejected);
  EXPECT_FALSE(ThirdCached);
  EXPECT_EQ(Service.stats().Rejected, 1u);

  // A duplicate of an in-flight request coalesces instead of being
  // rejected — dedup takes precedence over admission control.
  Service.submit(makeRequest(3), Count);
  EXPECT_EQ(Service.stats().Rejected, 1u);
  EXPECT_EQ(Service.stats().Coalesced, 1u);

  Gate->release();
  // Destructor drains; all non-rejected completions fire.
  while (Finished.load() < 3)
    std::this_thread::yield();
}

TEST(SynthService, ShutdownCancelsQueuedJobsButFiresEveryCompletion) {
  auto Gate = std::make_shared<GatedRunner>();
  std::mutex DoneMutex;
  std::vector<SynthStatus> Statuses;
  {
    ServiceOptions Opts;
    Opts.Workers = 1;
    Opts.Runner = [Gate](const SynthRequest &Req) {
      // Cooperative: give up as soon as the service cancels us.
      while (!Req.Stop.stopRequested())
        std::this_thread::yield();
      SynthOutcome O;
      O.BackendName = "test";
      O.Status = SynthStatus::Cancelled;
      return O;
    };
    SynthService Service(Opts);
    auto Record = [&](const SynthOutcome &O, bool) {
      std::lock_guard<std::mutex> Lock(DoneMutex);
      Statuses.push_back(O.Status);
    };
    Service.submit(makeRequest(2), Record); // Runs, spins on its token.
    Service.submit(makeRequest(3), Record); // Queued behind it.
    // Destroying the service requests stop on the running job and drains
    // the queued one; neither completion may be dropped.
  }
  ASSERT_EQ(Statuses.size(), 2u);
  for (SynthStatus S : Statuses)
    EXPECT_EQ(S, SynthStatus::Cancelled);
}

TEST(SynthService, EnumBackendColdThenWarmEndToEnd) {
  // The full stack with a real backend: a cold enumerative synthesis at
  // n = 2, then a warm hit that must return the identical verified
  // kernel from disk.
  TempDir Dir("service_e2e");
  SynthOutcome Cold, Warm;
  {
    ServiceOptions Opts;
    Opts.CacheDir = Dir.path();
    Opts.Workers = 1;
    SynthService Service(Opts);
    bool Cached = true;
    Cold = Service.synthesize(makeRequest(2, "enum"), &Cached);
    ASSERT_TRUE(Cold.Verified);
    EXPECT_FALSE(Cached);
    EXPECT_EQ(Cold.Status, SynthStatus::Optimal);
  }
  {
    // A fresh service over the same directory: persistence across
    // processes, not a warm in-memory structure.
    ServiceOptions Opts;
    Opts.CacheDir = Dir.path();
    Opts.Workers = 1;
    Opts.Runner = [](const SynthRequest &) -> SynthOutcome {
      ADD_FAILURE() << "warm path must not execute any synthesis";
      return {};
    };
    SynthService Service(Opts);
    bool Cached = false;
    Warm = Service.synthesize(makeRequest(2, "enum"), &Cached);
    EXPECT_TRUE(Cached);
  }
  EXPECT_EQ(Warm.Kernel, Cold.Kernel);
  EXPECT_EQ(Warm.Status, Cold.Status);
  Machine M(MachineKind::Cmov, 2);
  EXPECT_TRUE(isCorrectKernel(M, Warm.Kernel));
}

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

TEST(Protocol, ParsesFullRequest) {
  WireRequest Wire;
  std::string Error;
  ASSERT_TRUE(parseRequestLine(
      R"({"id": "job-1", "n": 4, "isa": "minmax", "goal": "first",)"
      R"( "goal_pred": "select-2",)"
      R"( "backend": "enum", "timeout": 2.5, "max_length": 9, "threads": 3})",
      Wire, Error))
      << Error;
  EXPECT_EQ(Wire.Id, "\"job-1\"");
  EXPECT_EQ(Wire.Req.N, 4u);
  EXPECT_EQ(Wire.Req.Kind, MachineKind::MinMax);
  EXPECT_EQ(Wire.Req.Goal, SynthGoal::FirstKernel);
  EXPECT_EQ(Wire.Req.GoalPred, GoalSpec::selectK(2));
  EXPECT_EQ(Wire.Req.BackendPolicy, "enum");
  EXPECT_DOUBLE_EQ(Wire.Req.TimeoutSeconds, 2.5);
  EXPECT_EQ(Wire.Req.MaxLength, 9u);
  EXPECT_EQ(Wire.Req.NumThreads, 3u);
}

TEST(Protocol, DefaultsMatchSynthRequest) {
  WireRequest Wire;
  std::string Error;
  ASSERT_TRUE(parseRequestLine(R"({"n": 3})", Wire, Error)) << Error;
  EXPECT_TRUE(Wire.Id.empty());
  SynthRequest Defaults;
  EXPECT_EQ(Wire.Req.Kind, Defaults.Kind);
  EXPECT_EQ(Wire.Req.Goal, Defaults.Goal);
  EXPECT_EQ(Wire.Req.GoalPred, GoalSpec::sort());
  EXPECT_EQ(Wire.Req.BackendPolicy, Defaults.BackendPolicy);
  EXPECT_EQ(Wire.Req.MaxLength, Defaults.MaxLength);
}

TEST(Protocol, RejectsMalformedRequests) {
  struct Case {
    const char *Line;
    const char *Why;
  };
  const Case Cases[] = {
      {"", "empty line"},
      {"[1, 2]", "not an object"},
      {R"({"n": 3)", "unterminated object"},
      {R"({"id": 1})", "missing n"},
      {R"({"n": 1})", "n below range"},
      {R"({"n": 7})", "n above range"},
      {R"({"n": "3"})", "n as string"},
      {R"({"n": 3, "isa": "sse"})", "unknown isa"},
      {R"({"n": 3, "goal": "fastest"})", "unknown goal"},
      {R"({"n": 3, "goal_pred": "fastest"})", "unknown goal predicate"},
      {R"({"n": 3, "goal_pred": "select-4"})", "goal parameter above n"},
      {R"({"n": 3, "goal_pred": "top-0"})", "goal parameter below 1"},
      {R"({"n": 3, "goal_pred": 2})", "goal predicate as number"},
      {R"({"n": 3, "backend": "gpt"})", "unknown backend"},
      {R"({"n": 3, "timeout": -1})", "negative timeout"},
      {R"({"n": 3, "threads": 0})", "zero threads"},
      {R"({"n": 3, "frobnicate": true})", "unknown key"},
      {R"({"n": 3, "isa": {"kind": "cmov"}})", "nested object"},
      {R"({"n": 4, "isa": "hybrid"})", "hybrid is n = 3 only"},
      {R"({"n": 3} trailing)", "trailing garbage"},
      {R"({"id": bogus, "n": 3})", "id is not valid JSON"},
  };
  for (const Case &C : Cases) {
    WireRequest Wire;
    std::string Error;
    EXPECT_FALSE(parseRequestLine(C.Line, Wire, Error)) << C.Why;
    EXPECT_FALSE(Error.empty()) << C.Why;
  }
}

TEST(Protocol, RecoversIdFromInvalidRequests) {
  WireRequest Wire;
  std::string Error;
  EXPECT_FALSE(parseRequestLine(R"({"id": 7, "n": 99})", Wire, Error));
  EXPECT_EQ(Wire.Id, "7");
  EXPECT_EQ(errorLine(Wire.Id, "out of range"),
            R"({"id": 7, "error": "out of range"})");
  EXPECT_EQ(errorLine("", "unparseable"),
            R"({"id": null, "error": "unparseable"})");
}

TEST(Protocol, ResponseLineCarriesOutcomeAndAttribution) {
  SynthOutcome O = makeVerifiedOutcome(2);
  O.Stats = {{"states_expanded", 42}};
  std::string Line = responseLine("\"job\"", O, 2, /*Cached=*/true, 0.25);
  EXPECT_EQ(Line,
            "{\"id\": \"job\", \"backend\": \"test\", \"status\": "
            "\"optimal\", \"seconds\": 0.125000, \"verified\": true, "
            "\"length\": 4, \"cached\": true, \"service_seconds\": "
            "0.250000, \"kernel\": \"" +
                jsonEscape(toString(O.Kernel, 2)) +
                "\", \"stats\": {\"states_expanded\": 42}}");
  // And the response must itself parse as one flat JSON object minus the
  // keys the request schema does not know — spot-check the escaping.
  EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

} // namespace
