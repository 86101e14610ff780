//===- tests/SortLibTest.cpp - Embedded-sort tests --------------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sortlib/SortLib.h"

#include "kernels/CxxKernels.h"
#include "kernels/ReferenceKernels.h"
#include "support/Rng.h"

#include <algorithm>
#include <climits>
#include <functional>
#include <gtest/gtest.h>

using namespace sks;

namespace {

void checkSorter(void (*Sorter)(int32_t *, size_t, const BaseCase &),
                 const BaseCase &Base) {
  Rng R(99);
  for (int Trial = 0; Trial != 60; ++Trial) {
    size_t Len = static_cast<size_t>(R.below(2000));
    std::vector<int32_t> Data(Len);
    for (int32_t &V : Data)
      V = static_cast<int32_t>(R.range(-10000, 10000));
    std::vector<int32_t> Expected = Data;
    std::sort(Expected.begin(), Expected.end());
    Sorter(Data.data(), Data.size(), Base);
    EXPECT_EQ(Data, Expected) << "len=" << Len;
  }
}

TEST(SortLib, QuicksortWithInsertionFallback) {
  BaseCase Base(3); // No kernels registered: insertion fallback.
  checkSorter(quicksortWithKernel, Base);
}

TEST(SortLib, MergesortWithInsertionFallback) {
  BaseCase Base(3);
  checkSorter(mergesortWithKernel, Base);
}

TEST(SortLib, QuicksortWithKernel3) {
  BaseCase Base(3);
  Base.setKernel(3, swapSort3);
  checkSorter(quicksortWithKernel, Base);
}

TEST(SortLib, MergesortWithKernel3) {
  BaseCase Base(3);
  Base.setKernel(3, swapSort3);
  checkSorter(mergesortWithKernel, Base);
}

TEST(SortLib, QuicksortWithKernels4) {
  BaseCase Base(4);
  Base.setKernel(3, swapSort3);
  Base.setKernel(4, swapSort4);
  checkSorter(quicksortWithKernel, Base);
}

TEST(SortLib, EdgeCases) {
  BaseCase Base(3);
  Base.setKernel(3, swapSort3);
  std::vector<int32_t> Empty;
  quicksortWithKernel(Empty.data(), 0, Base);
  mergesortWithKernel(Empty.data(), 0, Base);

  int32_t One[1] = {5};
  quicksortWithKernel(One, 1, Base);
  EXPECT_EQ(One[0], 5);

  int32_t Two[2] = {9, -3};
  quicksortWithKernel(Two, 2, Base);
  EXPECT_EQ(Two[0], -3);
  EXPECT_EQ(Two[1], 9);

  // All-equal input (pathological for Hoare partition).
  std::vector<int32_t> Equal(10007, 42);
  quicksortWithKernel(Equal.data(), Equal.size(), Base);
  EXPECT_TRUE(std::all_of(Equal.begin(), Equal.end(),
                          [](int32_t V) { return V == 42; }));

  // Already sorted and reverse sorted.
  std::vector<int32_t> Sorted(5000);
  for (size_t I = 0; I != Sorted.size(); ++I)
    Sorted[I] = static_cast<int32_t>(I);
  std::vector<int32_t> Reversed(Sorted.rbegin(), Sorted.rend());
  quicksortWithKernel(Reversed.data(), Reversed.size(), Base);
  EXPECT_EQ(Reversed, Sorted);
  quicksortWithKernel(Sorted.data(), Sorted.size(), Base);
  EXPECT_TRUE(std::is_sorted(Sorted.begin(), Sorted.end()));
}

TEST(SortLib, MergesortIsStableOnValues) {
  // Values only (ints), so stability just means correctness here; check a
  // duplicate-heavy input.
  BaseCase Base(4);
  Base.setKernel(3, swapSort3);
  Base.setKernel(4, swapSort4);
  Rng R(5);
  std::vector<int32_t> Data(4096);
  for (int32_t &V : Data)
    V = static_cast<int32_t>(R.below(8));
  std::vector<int32_t> Expected = Data;
  std::sort(Expected.begin(), Expected.end());
  mergesortWithKernel(Data.data(), Data.size(), Base);
  EXPECT_EQ(Data, Expected);
}

//===----------------------------------------------------------------------===//
// Analytics entry points: selectK, topK, sortKeyVal
//===----------------------------------------------------------------------===//

constexpr unsigned kThreshold = 4;

/// The value shapes the partition must survive: wide random values, few
/// distinct values, all equal, and the int32 extremes.
enum class Shape { Wide, FewDistinct, AllEqual, Extremes };
constexpr Shape kShapes[] = {Shape::Wide, Shape::FewDistinct, Shape::AllEqual,
                             Shape::Extremes};

int32_t drawKey(Rng &R, Shape S) {
  static const int32_t Extremes[] = {INT32_MIN, INT32_MIN + 1, -1, 0,
                                     1,         INT32_MAX - 1, INT32_MAX};
  switch (S) {
  case Shape::Wide:
    return static_cast<int32_t>(R.range(INT32_MIN, INT32_MAX));
  case Shape::FewDistinct:
    return static_cast<int32_t>(R.range(-2, 2));
  case Shape::AllEqual:
    return 7;
  case Shape::Extremes:
    return Extremes[R.below(std::size(Extremes))];
  }
  return 0;
}

uint32_t drawPayload(Rng &R, Shape S) {
  static const uint32_t Extremes[] = {0, 1, 0x80000000u, 0xFFFFFFFFu};
  if (S == Shape::Extremes)
    return Extremes[R.below(std::size(Extremes))];
  return static_cast<uint32_t>(R.below(1ull << 32));
}

/// Every length from 0 to one past the threshold, then 40 random lengths
/// up to 2000.
std::vector<size_t> testLengths(Rng &R) {
  std::vector<size_t> Lengths;
  for (size_t Len = 0; Len <= kThreshold + 1; ++Len)
    Lengths.push_back(Len);
  for (int I = 0; I != 40; ++I)
    Lengths.push_back(static_cast<size_t>(R.below(2001)));
  return Lengths;
}

/// The ranks to test at \p Len: all of them on short arrays, otherwise
/// 1, Len and one at random.
std::vector<size_t> testRanks(Rng &R, size_t Len) {
  std::vector<size_t> Ks;
  if (Len <= kThreshold + 1) {
    for (size_t K = 1; K <= Len; ++K)
      Ks.push_back(K);
  } else {
    Ks = {1, Len, 1 + static_cast<size_t>(R.below(Len))};
  }
  return Ks;
}

Program networkOf(MachineKind Kind, unsigned N) {
  return Kind == MachineKind::Cmov ? sortingNetworkCmov(N)
                                   : sortingNetworkMinMax(N);
}

/// Calls \p Check with the insertion fallback, then with the cmov and the
/// min/max networks attached as JIT kernels for lengths 2..kThreshold, on
/// each kind the host can run.
void forEachBase(
    const std::function<void(const BaseCase &, const char *)> &Check) {
  BaseCase Insertion(kThreshold);
  Check(Insertion, "insertion");
  for (MachineKind Kind : {MachineKind::Cmov, MachineKind::MinMax}) {
    if (!jitSupported(Kind))
      continue;
    BaseCase Base(kThreshold);
    std::vector<std::unique_ptr<JitKernel>> Jits;
    for (unsigned L = 2; L <= kThreshold; ++L) {
      Jits.push_back(attachJitKernel(Base, Kind, L, networkOf(Kind, L)));
      ASSERT_NE(Jits.back(), nullptr) << "length " << L;
    }
    Check(Base, Kind == MachineKind::Cmov ? "cmov jit" : "minmax jit");
  }
}

/// Same for the packed key-payload base case.
void forEachPairBase(
    const std::function<void(const PairBaseCase &, const char *)> &Check) {
  PairBaseCase Insertion(kThreshold);
  Check(Insertion, "insertion");
  for (MachineKind Kind : {MachineKind::Cmov, MachineKind::MinMax}) {
    if (!jitSupported<int64_t>(Kind))
      continue;
    PairBaseCase Base(kThreshold);
    std::vector<std::unique_ptr<JitPairKernel>> Jits;
    for (unsigned L = 2; L <= kThreshold; ++L) {
      Jits.push_back(attachJitKernel(Base, Kind, L, networkOf(Kind, L)));
      ASSERT_NE(Jits.back(), nullptr) << "length " << L;
    }
    Check(Base, Kind == MachineKind::Cmov ? "cmov jit" : "minmax jit");
  }
}

std::vector<int32_t> sortedCopy(std::vector<int32_t> V) {
  std::sort(V.begin(), V.end());
  return V;
}

TEST(SortLib, SelectKMatchesNthElement) {
  forEachBase([](const BaseCase &Base, const char *Name) {
    Rng R(31);
    for (Shape S : kShapes)
      for (size_t Len : testLengths(R)) {
        std::vector<int32_t> In(Len);
        for (int32_t &V : In)
          V = drawKey(R, S);
        for (size_t K : testRanks(R, Len)) {
          std::vector<int32_t> Ref = In, Out = In;
          std::nth_element(Ref.begin(), Ref.begin() + (K - 1), Ref.end());
          selectK(Out.data(), Len, K, Base);
          const int32_t Nth = Ref[K - 1];
          ASSERT_EQ(Out[K - 1], Nth) << Name << " len=" << Len << " k=" << K;
          for (size_t I = 0; I != Len; ++I)
            ASSERT_TRUE(I < K - 1 ? Out[I] <= Nth : Out[I] >= Nth)
                << Name << " len=" << Len << " k=" << K << " at " << I;
          ASSERT_EQ(sortedCopy(Out), sortedCopy(In)) << Name;
        }
      }
  });
}

TEST(SortLib, TopKMatchesPartialSortDescending) {
  forEachBase([](const BaseCase &Base, const char *Name) {
    Rng R(32);
    for (Shape S : kShapes)
      for (size_t Len : testLengths(R)) {
        std::vector<int32_t> In(Len);
        for (int32_t &V : In)
          V = drawKey(R, S);
        for (size_t K : testRanks(R, Len)) {
          std::vector<int32_t> Ref = In, Out = In;
          std::partial_sort(Ref.begin(), Ref.begin() + K, Ref.end(),
                            std::greater<int32_t>());
          topK(Out.data(), Len, K, Base);
          ASSERT_TRUE(std::equal(Ref.begin(), Ref.begin() + K, Out.begin()))
              << Name << " len=" << Len << " k=" << K;
          ASSERT_EQ(sortedCopy(Out), sortedCopy(In)) << Name;
        }
      }
  });
}

TEST(SortLib, SortKeyValMatchesStdSortOfPackedPairs) {
  forEachPairBase([](const PairBaseCase &Base, const char *Name) {
    Rng R(33);
    for (Shape S : kShapes)
      for (size_t Len : testLengths(R)) {
        std::vector<int32_t> Keys(Len);
        std::vector<uint32_t> Payloads(Len);
        std::vector<int64_t> Ref(Len);
        for (size_t I = 0; I != Len; ++I) {
          Keys[I] = drawKey(R, S);
          Payloads[I] = drawPayload(R, S);
          Ref[I] = packPair(Keys[I], Payloads[I]);
        }
        std::sort(Ref.begin(), Ref.end());
        sortKeyVal(Keys.data(), Payloads.data(), Len, Base);
        for (size_t I = 0; I != Len; ++I) {
          ASSERT_EQ(Keys[I], pairKey(Ref[I])) << Name << " len=" << Len;
          ASSERT_EQ(Payloads[I], pairPayload(Ref[I])) << Name << " len=" << Len;
        }
      }
  });
}

TEST(SortLib, AttachedKernelsSortLikeStdSort) {
  forEachBase([](const BaseCase &Base, const char *Name) {
    Rng R(34);
    for (Shape S : kShapes)
      for (size_t Len : testLengths(R)) {
        std::vector<int32_t> Quick(Len);
        for (int32_t &V : Quick)
          V = drawKey(R, S);
        std::vector<int32_t> Merge = Quick, Ref = sortedCopy(Quick);
        quicksortWithKernel(Quick.data(), Len, Base);
        mergesortWithKernel(Merge.data(), Len, Base);
        ASSERT_EQ(Quick, Ref) << Name << " len=" << Len;
        ASSERT_EQ(Merge, Ref) << Name << " len=" << Len;
      }
  });
}

} // namespace
