//===- tests/SupportTest.cpp - Support-library tests -------------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Env.h"
#include "support/Hashing.h"
#include "support/Permutations.h"
#include "support/Rng.h"
#include "support/StopToken.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "support/Timing.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <gtest/gtest.h>
#include <set>
#include <thread>

using namespace sks;

namespace {

//===----------------------------------------------------------------------===//
// Timing.
//===----------------------------------------------------------------------===//

TEST(Timing, FormatDurationBands) {
  EXPECT_EQ(formatDuration(-1), "-");
  EXPECT_EQ(formatDuration(0.0000005), "0.5 us");
  EXPECT_EQ(formatDuration(0.097), "97 ms");
  EXPECT_EQ(formatDuration(2.443), "2443 ms");
  EXPECT_EQ(formatDuration(37.0), "37.0 s");
  EXPECT_EQ(formatDuration(660.0), "11.0 min");
}

TEST(Timing, StopwatchMonotone) {
  Stopwatch Timer;
  double First = Timer.seconds();
  double Second = Timer.seconds();
  EXPECT_GE(Second, First);
  EXPECT_GE(First, 0.0);
  Timer.reset();
  EXPECT_LT(Timer.seconds(), 1.0);
}

TEST(Timing, DeadlineSemantics) {
  Deadline Never;
  EXPECT_FALSE(Never.armed());
  EXPECT_FALSE(Never.expired());
  Deadline Disabled(0);
  EXPECT_FALSE(Disabled.armed());
  Deadline Past(1e-9);
  EXPECT_TRUE(Past.armed());
  // Give the clock a moment to pass the epsilon deadline.
  Stopwatch Timer;
  while (Timer.seconds() < 1e-3) {
  }
  EXPECT_TRUE(Past.expired());
  Deadline Future(3600);
  EXPECT_FALSE(Future.expired());
}

//===----------------------------------------------------------------------===//
// Rng.
//===----------------------------------------------------------------------===//

TEST(Rng, DeterministicPerSeed) {
  Rng A(42), B(42), C(43);
  EXPECT_EQ(A.next(), B.next());
  EXPECT_NE(A.next(), C.next());
}

TEST(Rng, BelowStaysInRange) {
  Rng R(7);
  for (int Trial = 0; Trial != 10000; ++Trial)
    EXPECT_LT(R.below(17), 17u);
}

TEST(Rng, RangeIsInclusive) {
  Rng R(9);
  bool SawLo = false, SawHi = false;
  for (int Trial = 0; Trial != 20000; ++Trial) {
    int64_t V = R.range(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng R(11);
  double Sum = 0;
  for (int Trial = 0; Trial != 10000; ++Trial) {
    double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
    Sum += U;
  }
  EXPECT_NEAR(Sum / 10000, 0.5, 0.02);
}

TEST(Rng, NormalHasRoughlyUnitVariance) {
  Rng R(13);
  double Sum = 0, SumSquares = 0;
  const int Samples = 20000;
  for (int Trial = 0; Trial != Samples; ++Trial) {
    double X = R.normal();
    Sum += X;
    SumSquares += X * X;
  }
  double Mean = Sum / Samples;
  EXPECT_NEAR(Mean, 0.0, 0.05);
  EXPECT_NEAR(SumSquares / Samples - Mean * Mean, 1.0, 0.1);
}

//===----------------------------------------------------------------------===//
// Hashing.
//===----------------------------------------------------------------------===//

TEST(Hashing, OrderAndLengthSensitive) {
  uint32_t A[] = {1, 2, 3};
  uint32_t B[] = {3, 2, 1};
  uint32_t C[] = {1, 2};
  EXPECT_NE(hashWords(A, 3), hashWords(B, 3));
  EXPECT_NE(hashWords(A, 3), hashWords(C, 2));
  EXPECT_EQ(hashWords(A, 3), hashWords(A, 3));
}

TEST(Hashing, FewCollisionsOnDenseInputs) {
  std::set<uint64_t> Seen;
  for (uint32_t I = 0; I != 100000; ++I) {
    uint32_t Words[2] = {I, I * 2654435761u};
    Seen.insert(hashWords(Words, 2));
  }
  EXPECT_EQ(Seen.size(), 100000u) << "collisions on a trivial family";
}

//===----------------------------------------------------------------------===//
// Permutations.
//===----------------------------------------------------------------------===//

TEST(Permutations, FactorialValues) {
  EXPECT_EQ(factorial(0), 1u);
  EXPECT_EQ(factorial(1), 1u);
  EXPECT_EQ(factorial(5), 120u);
  EXPECT_EQ(factorial(10), 3628800u);
}

TEST(Permutations, AllPermutationsAreDistinctAndComplete) {
  for (unsigned N = 1; N <= 6; ++N) {
    std::vector<std::vector<int>> Perms = allPermutations(N);
    EXPECT_EQ(Perms.size(), factorial(N));
    std::set<std::vector<int>> Unique(Perms.begin(), Perms.end());
    EXPECT_EQ(Unique.size(), Perms.size());
    for (const std::vector<int> &P : Perms) {
      std::vector<int> Sorted = P;
      std::sort(Sorted.begin(), Sorted.end());
      for (unsigned I = 0; I != N; ++I)
        EXPECT_EQ(Sorted[I], static_cast<int>(I + 1));
    }
  }
}

TEST(Permutations, LexicographicOrder) {
  std::vector<std::vector<int>> Perms = allPermutations(3);
  EXPECT_TRUE(std::is_sorted(Perms.begin(), Perms.end()));
  EXPECT_EQ(Perms.front(), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(Perms.back(), (std::vector<int>{3, 2, 1}));
}

//===----------------------------------------------------------------------===//
// Table.
//===----------------------------------------------------------------------===//

TEST(Table, AlignsColumns) {
  Table T({"a", "long-header"});
  T.row().cell("xxxxxx").cell(1);
  T.row().cell("y").cell(2.5, 1);
  std::string Text = T.str();
  EXPECT_NE(Text.find("long-header"), std::string::npos);
  EXPECT_NE(Text.find("2.5"), std::string::npos);
  // Two data rows + header + separator.
  EXPECT_EQ(std::count(Text.begin(), Text.end(), '\n'), 4);
}

TEST(Table, CsvEscaping) {
  Table T({"name", "value"});
  T.row().cell("has,comma").cell("has\"quote");
  std::string Path = "/tmp/sks_table_test.csv";
  ASSERT_TRUE(T.writeCsv(Path));
  std::FILE *File = std::fopen(Path.c_str(), "r");
  ASSERT_NE(File, nullptr);
  char Buffer[256] = {0};
  size_t Read = std::fread(Buffer, 1, sizeof(Buffer) - 1, File);
  std::fclose(File);
  std::string Content(Buffer, Read);
  EXPECT_NE(Content.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(Content.find("\"has\"\"quote\""), std::string::npos);
  std::remove(Path.c_str());
}

TEST(Table, MissingCellsRenderEmpty) {
  Table T({"a", "b", "c"});
  T.row().cell("only-one");
  std::string Text = T.str();
  EXPECT_NE(Text.find("only-one"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Env.
//===----------------------------------------------------------------------===//

TEST(Env, DoubleParsing) {
  ::setenv("SKS_TEST_DOUBLE", "2.5", 1);
  EXPECT_DOUBLE_EQ(envDouble("SKS_TEST_DOUBLE", 1.0), 2.5);
  ::unsetenv("SKS_TEST_DOUBLE");
  EXPECT_DOUBLE_EQ(envDouble("SKS_TEST_DOUBLE", 1.0), 1.0);
}

TEST(Env, FullRunFlag) {
  ::setenv("SKS_FULL", "1", 1);
  EXPECT_TRUE(isFullRun());
  ::setenv("SKS_FULL", "0", 1);
  EXPECT_FALSE(isFullRun());
  ::unsetenv("SKS_FULL");
  EXPECT_FALSE(isFullRun());
}

//===----------------------------------------------------------------------===//
// ThreadPool.
//===----------------------------------------------------------------------===//

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  const size_t N = 100000;
  std::vector<std::atomic<int>> Counts(N);
  Pool.parallelFor(N, [&](size_t Begin, size_t End, unsigned) {
    for (size_t I = Begin; I != End; ++I)
      ++Counts[I];
  });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Counts[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool Pool(3);
  std::atomic<uint64_t> Sum{0};
  for (int Round = 0; Round != 50; ++Round)
    Pool.parallelFor(1000, [&](size_t Begin, size_t End, unsigned) {
      for (size_t I = Begin; I != End; ++I)
        Sum += I;
    });
  EXPECT_EQ(Sum.load(), 50ull * (999ull * 1000ull / 2));
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  ThreadPool Pool(4);
  std::atomic<int> Calls{0};
  Pool.parallelFor(0, [&](size_t, size_t, unsigned) { ++Calls; });
  EXPECT_EQ(Calls.load(), 0);
  Pool.parallelFor(1, [&](size_t Begin, size_t End, unsigned) {
    EXPECT_EQ(Begin, 0u);
    EXPECT_EQ(End, 1u);
    ++Calls;
  });
  EXPECT_EQ(Calls.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.size(), 1u);
  bool Ran = false;
  Pool.parallelFor(10, [&](size_t Begin, size_t End, unsigned Worker) {
    EXPECT_EQ(Worker, 0u);
    Ran = Begin == 0 && End == 10;
  });
  EXPECT_TRUE(Ran);
}

TEST(ThreadPool, TasksRunExactlyOnceOnValidWorkers) {
  // A permutation of 0..N-1 (389 is invertible mod the prime 997) with
  // skewed costs, so owners drain their deques at different rates and
  // steal.
  const uint32_t N = 997;
  std::vector<uint32_t> Tasks(N);
  for (uint32_t I = 0; I != N; ++I)
    Tasks[I] = (I * 389 + 11) % N;
  for (unsigned Threads : {1u, 2u, 4u}) {
    ThreadPool Pool(Threads);
    std::vector<std::atomic<int>> Counts(N);
    std::atomic<unsigned> BadWorkers{0};
    Pool.parallelForTasks(Tasks, [&](uint32_t Task, unsigned Worker) {
      if (Task % 7 == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      ++Counts[Task];
      if (Worker >= Pool.size())
        ++BadWorkers;
    });
    for (uint32_t I = 0; I != N; ++I)
      EXPECT_EQ(Counts[I].load(), 1) << Threads << " threads, task " << I;
    EXPECT_EQ(BadWorkers.load(), 0u) << Threads << " threads";
  }
}

//===----------------------------------------------------------------------===//
// StopToken.
//===----------------------------------------------------------------------===//

TEST(StopToken, DefaultTokenNeverStops) {
  StopToken T;
  EXPECT_FALSE(T.canStop());
  EXPECT_FALSE(T.stopRequested());
  EXPECT_FALSE(T.cancelRequested());
  EXPECT_FALSE(T.deadlineExpired());
  // A non-positive budget arms nothing: the unset-token fast path stays.
  EXPECT_FALSE(T.withDeadline(0).canStop());
  EXPECT_FALSE(T.withDeadline(-1).canStop());
}

TEST(StopToken, ExternalCancelIsObservedAndAttributed) {
  StopSource Source;
  StopToken T = Source.token();
  EXPECT_TRUE(T.canStop());
  EXPECT_FALSE(T.stopRequested());
  Source.requestStop();
  EXPECT_TRUE(Source.stopRequested());
  EXPECT_TRUE(T.stopRequested());
  EXPECT_TRUE(T.cancelRequested());
  EXPECT_FALSE(T.deadlineExpired()); // The driver keys Cancelled off this.
}

TEST(StopToken, DeadlineExpiryIsObservedAndAttributed) {
  StopToken T = StopToken().withDeadline(1e-9);
  EXPECT_TRUE(T.canStop());
  Stopwatch Timer;
  while (!T.stopRequested() && Timer.seconds() < 5.0) {
  }
  EXPECT_TRUE(T.stopRequested());
  EXPECT_TRUE(T.deadlineExpired());
  EXPECT_FALSE(T.cancelRequested());
}

TEST(StopToken, WithDeadlineKeepsTheEarlierBudget) {
  // Tightening: a later deadline must not loosen an earlier one.
  StopToken Tight = StopToken().withDeadline(1e-9).withDeadline(3600);
  Stopwatch Timer;
  while (!Tight.stopRequested() && Timer.seconds() < 5.0) {
  }
  EXPECT_TRUE(Tight.deadlineExpired());
  // And the reverse order tightens too.
  StopToken Loose = StopToken().withDeadline(3600).withDeadline(1e-9);
  while (!Loose.stopRequested() && Timer.seconds() < 5.0) {
  }
  EXPECT_TRUE(Loose.deadlineExpired());
}

TEST(StopToken, ParentChainPropagatesBothHalves) {
  // A race source rooted under an outer token: cancel on the outer source
  // reaches tokens minted by the inner one, and is still attributed to the
  // cancel half, not the deadline half.
  StopSource Outer;
  StopSource Inner(Outer.token());
  StopToken T = Inner.token();
  EXPECT_FALSE(T.stopRequested());
  Outer.requestStop();
  EXPECT_TRUE(T.stopRequested());
  EXPECT_TRUE(T.cancelRequested());
  EXPECT_FALSE(T.deadlineExpired());

  // An expired deadline on the parent token reaches the child as the
  // deadline half.
  StopSource Timed(StopToken().withDeadline(1e-9));
  StopToken T2 = Timed.token();
  Stopwatch Timer;
  while (!T2.stopRequested() && Timer.seconds() < 5.0) {
  }
  EXPECT_TRUE(T2.deadlineExpired());
  EXPECT_FALSE(T2.cancelRequested());
}

TEST(StopToken, TrivialParentIsDropped) {
  // Rooting a source under a token that can never stop must not build a
  // chain: the minted tokens stay as cheap as from a plain source.
  StopSource Source{StopToken()};
  StopToken T = Source.token();
  EXPECT_FALSE(T.stopRequested());
  Source.requestStop();
  EXPECT_TRUE(T.stopRequested());
}

} // namespace
