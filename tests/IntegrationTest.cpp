//===- tests/IntegrationTest.cpp - End-to-end pipeline tests ------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Whole-pipeline integration: synthesize -> verify -> robust-filter ->
// JIT -> embed in the divide-and-conquer sorts -> compare against
// std::sort on adversarial and random inputs. This is the path a
// downstream user of the library takes.
//
//===----------------------------------------------------------------------===//

#include "codegen/Jit.h"
#include "search/Search.h"
#include "sortlib/SortLib.h"
#include "support/Rng.h"
#include "verify/Verify.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace sks;

namespace {

/// Synthesizes, robustness-checks and JITs one kernel per length 2..4.
class SynthesizedPipeline : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    Kernels = new std::vector<std::unique_ptr<JitKernel>>();
    Base = new BaseCase(4);
    for (unsigned N = 2; N <= 4; ++N) {
      Machine M(MachineKind::Cmov, N);
      SearchResult R = synthesize(M, bestEnumConfig(MachineKind::Cmov, N));
      ASSERT_TRUE(R.Found);
      ASSERT_TRUE(isCorrectKernel(M, R.Solutions.front()));
      ASSERT_TRUE(isRobustKernel(M, R.Solutions.front()))
          << "best-first pick for n=" << N << " must be robust";
      if (jitSupported(MachineKind::Cmov)) {
        auto Jit =
            JitKernel::compile(MachineKind::Cmov, N, R.Solutions.front());
        ASSERT_NE(Jit, nullptr);
        Base->setKernel(N, Jit->entry());
        Kernels->push_back(std::move(Jit));
      }
    }
  }
  static void TearDownTestSuite() {
    delete Base;
    Base = nullptr;
    delete Kernels;
    Kernels = nullptr;
  }

  static std::vector<std::unique_ptr<JitKernel>> *Kernels;
  static BaseCase *Base;
};

std::vector<std::unique_ptr<JitKernel>> *SynthesizedPipeline::Kernels =
    nullptr;
BaseCase *SynthesizedPipeline::Base = nullptr;

TEST_F(SynthesizedPipeline, QuicksortMatchesStdSortOnRandomInputs) {
  Rng R(2026);
  for (int Trial = 0; Trial != 25; ++Trial) {
    std::vector<int32_t> Data(1 + R.below(30000));
    for (int32_t &V : Data)
      V = static_cast<int32_t>(R.next());
    std::vector<int32_t> Expected = Data;
    std::sort(Expected.begin(), Expected.end());
    quicksortWithKernel(Data.data(), Data.size(), *Base);
    ASSERT_EQ(Data, Expected) << "len=" << Data.size();
  }
}

TEST_F(SynthesizedPipeline, MergesortMatchesStdSortOnRandomInputs) {
  Rng R(2027);
  for (int Trial = 0; Trial != 25; ++Trial) {
    std::vector<int32_t> Data(1 + R.below(30000));
    for (int32_t &V : Data)
      V = static_cast<int32_t>(R.range(-100, 100)); // Duplicate-heavy.
    std::vector<int32_t> Expected = Data;
    std::sort(Expected.begin(), Expected.end());
    mergesortWithKernel(Data.data(), Data.size(), *Base);
    ASSERT_EQ(Data, Expected);
  }
}

TEST_F(SynthesizedPipeline, AdversarialPatterns) {
  for (size_t Len : {size_t(1), size_t(2), size_t(3), size_t(4), size_t(5),
                     size_t(4096)}) {
    // Already sorted, reverse sorted, sawtooth, constant.
    std::vector<std::vector<int32_t>> Patterns;
    std::vector<int32_t> Ascending(Len), Descending(Len), Sawtooth(Len),
        Constant(Len, 7);
    for (size_t I = 0; I != Len; ++I) {
      Ascending[I] = static_cast<int32_t>(I);
      Descending[I] = static_cast<int32_t>(Len - I);
      Sawtooth[I] = static_cast<int32_t>(I % 5);
    }
    Patterns = {Ascending, Descending, Sawtooth, Constant};
    for (std::vector<int32_t> Data : Patterns) {
      std::vector<int32_t> Expected = Data;
      std::sort(Expected.begin(), Expected.end());
      quicksortWithKernel(Data.data(), Data.size(), *Base);
      ASSERT_EQ(Data, Expected) << "len=" << Len;
    }
  }
}

TEST_F(SynthesizedPipeline, MinMaxKernelSortsThroughJit) {
  if (!jitSupported(MachineKind::MinMax))
    GTEST_SKIP() << "no SSE4.1";
  Machine M(MachineKind::MinMax, 4);
  SearchResult R = synthesize(M, bestEnumConfig(MachineKind::MinMax, 4));
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.OptimalLength, 15u);
  auto Jit = JitKernel::compile(MachineKind::MinMax, 4, R.Solutions.front());
  ASSERT_NE(Jit, nullptr);
  Rng Rand(5);
  for (int Trial = 0; Trial != 500; ++Trial) {
    int32_t Data[4];
    for (int32_t &V : Data)
      V = static_cast<int32_t>(Rand.next());
    int32_t Expected[4];
    std::copy(Data, Data + 4, Expected);
    std::sort(Expected, Expected + 4);
    (*Jit)(Data);
    ASSERT_TRUE(std::equal(Data, Data + 4, Expected));
  }
}

} // namespace
