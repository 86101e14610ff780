//===- tests/PrebuiltKernelsTest.cpp - Shipped-kernel validation --------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Every kernel shipped under kernels_prebuilt/ must load, prove correct on
// the n! suite, pass the distinct-integer robustness check, and (where the
// host supports it) behave identically under the JIT.
//
//===----------------------------------------------------------------------===//

#include "analysis/Symmetry.h"
#include "codegen/Jit.h"
#include "kernels/KernelIO.h"
#include "support/Rng.h"
#include "verify/Verify.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace sks;

#ifndef SKS_SOURCE_DIR
#define SKS_SOURCE_DIR "."
#endif

namespace {

class PrebuiltKernel : public ::testing::TestWithParam<const char *> {};

TEST_P(PrebuiltKernel, LoadsVerifiesAndRuns) {
  std::string Path =
      std::string(SKS_SOURCE_DIR) + "/kernels_prebuilt/" + GetParam();
  SavedKernel Kernel;
  ASSERT_TRUE(loadKernel(Path, Kernel)) << Path;
  Machine M(Kernel.Kind, Kernel.N);
  EXPECT_TRUE(isCorrectKernel(M, Kernel.P)) << Path;
  EXPECT_TRUE(isRobustKernel(M, Kernel.P)) << Path;
  // Shipped kernels are their orbit's representative (with one scratch
  // register this is trivially so; the assertion guards a future m > 1
  // kernel against tripping sks-lint's non-canonical-registers note).
  EXPECT_TRUE(isCanonicalProgram(Kernel.P, Kernel.N)) << Path;

  if (!jitSupported(Kernel.Kind))
    return;
  auto Jit = JitKernel::compile(Kernel.Kind, Kernel.N, Kernel.P);
  ASSERT_NE(Jit, nullptr);
  Rng R(2028);
  for (int Trial = 0; Trial != 200; ++Trial) {
    std::vector<int32_t> Data(Kernel.N);
    for (int32_t &V : Data)
      V = static_cast<int32_t>(R.next());
    std::vector<int32_t> Expected = Data;
    std::sort(Expected.begin(), Expected.end());
    (*Jit)(Data.data());
    ASSERT_EQ(Data, Expected) << Path;
  }
}

INSTANTIATE_TEST_SUITE_P(Shipped, PrebuiltKernel,
                         ::testing::Values("sort2_cmov.sks",
                                           "sort3_cmov.sks",
                                           "sort4_cmov.sks",
                                           "sort3_minmax.sks"),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           for (char &Ch : Name)
                             if (Ch == '.')
                               Ch = '_';
                           return Name;
                         });

TEST(PrebuiltKernel, ExpectedLengths) {
  struct Expectation {
    const char *File;
    size_t Length;
  };
  const Expectation Expected[] = {{"sort2_cmov.sks", 4},
                                  {"sort3_cmov.sks", 11},
                                  {"sort4_cmov.sks", 20},
                                  {"sort3_minmax.sks", 8}};
  for (const Expectation &E : Expected) {
    SavedKernel Kernel;
    ASSERT_TRUE(loadKernel(
        std::string(SKS_SOURCE_DIR) + "/kernels_prebuilt/" + E.File, Kernel));
    EXPECT_EQ(Kernel.P.size(), E.Length) << E.File;
  }
}

} // namespace
