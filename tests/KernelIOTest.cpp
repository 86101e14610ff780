//===- tests/KernelIOTest.cpp - Serialization + driver tests -----------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "kernels/KernelIO.h"

#include "kernels/ReferenceKernels.h"
#include "search/Search.h"
#include "verify/Verify.h"

#include <cstdio>
#include <gtest/gtest.h>

using namespace sks;

namespace {

TEST(KernelIO, RoundTripCmov) {
  SavedKernel Kernel{MachineKind::Cmov, 3, paperSynthCmov3()};
  std::string Text = serializeKernel(Kernel);
  EXPECT_NE(Text.find("# sks-kernel v1"), std::string::npos);
  EXPECT_NE(Text.find("# isa: cmov"), std::string::npos);
  EXPECT_NE(Text.find("# length: 11"), std::string::npos);
  SavedKernel Loaded;
  ASSERT_TRUE(deserializeKernel(Text, Loaded));
  EXPECT_EQ(Loaded.Kind, MachineKind::Cmov);
  EXPECT_EQ(Loaded.N, 3u);
  EXPECT_EQ(Loaded.P, Kernel.P);
}

TEST(KernelIO, RoundTripMinMaxAndHybrid) {
  for (auto Kind : {MachineKind::MinMax, MachineKind::Hybrid}) {
    SavedKernel Kernel{Kind, 3,
                       Kind == MachineKind::MinMax ? paperSynthMinMax3()
                                                   : sortingNetworkCmov(3)};
    SavedKernel Loaded;
    ASSERT_TRUE(deserializeKernel(serializeKernel(Kernel), Loaded));
    EXPECT_EQ(Loaded.Kind, Kind);
    EXPECT_EQ(Loaded.P, Kernel.P);
  }
}

TEST(KernelIO, FileRoundTrip) {
  SavedKernel Kernel{MachineKind::Cmov, 2, sortingNetworkCmov(2)};
  std::string Path = "/tmp/sks_kernel_test.sks";
  ASSERT_TRUE(saveKernel(Kernel, Path));
  SavedKernel Loaded;
  ASSERT_TRUE(loadKernel(Path, Loaded));
  EXPECT_EQ(Loaded.P, Kernel.P);
  Machine M(Loaded.Kind, Loaded.N);
  EXPECT_TRUE(isCorrectKernel(M, Loaded.P));
  std::remove(Path.c_str());
}

TEST(KernelIO, RejectsMalformedInput) {
  SavedKernel Out;
  EXPECT_FALSE(deserializeKernel("", Out)) << "missing magic";
  EXPECT_FALSE(deserializeKernel("# sks-kernel v1\n# isa: cmov\n", Out))
      << "missing n";
  EXPECT_FALSE(deserializeKernel(
      "# sks-kernel v1\n# isa: weird\n# n: 3\nmov r1 r2\n", Out));
  EXPECT_FALSE(deserializeKernel(
      "# sks-kernel v1\n# isa: cmov\n# n: 3\nbogus r1 r2\n", Out));
  EXPECT_FALSE(loadKernel("/nonexistent/path.sks", Out));
}

TEST(KernelIO, RejectsLengthBodyMismatch) {
  // The torn-write signature: a "# length:" header disagreeing with the
  // program body must fail the parse, in either direction.
  SavedKernel Kernel{MachineKind::Cmov, 3, paperSynthCmov3()};
  std::string Text = serializeKernel(Kernel);
  SavedKernel Out;
  std::string Shorter = Text.substr(0, Text.rfind("cmov"));
  EXPECT_FALSE(deserializeKernel(Shorter, Out)) << "body shorter than header";
  std::string Longer = Text + "mov r1 r2\n";
  EXPECT_FALSE(deserializeKernel(Longer, Out)) << "body longer than header";
  EXPECT_FALSE(deserializeKernel(
      "# sks-kernel v1\n# isa: cmov\n# n: 3\n# length: nope\nmov r1 r2\n",
      Out))
      << "non-numeric length";
}

TEST(KernelIO, FailedParseLeavesOutputUntouched) {
  SavedKernel Out{MachineKind::MinMax, 4, sortingNetworkCmov(2)};
  SavedKernel Before = Out;
  EXPECT_FALSE(deserializeKernel("# sks-kernel v1\n# isa: cmov\n", Out));
  EXPECT_FALSE(
      deserializeKernel("# sks-kernel v1\n# isa: cmov\n# n: 3\n# length: 2\n"
                        "mov r1 r2\n",
                        Out));
  EXPECT_EQ(Out.Kind, Before.Kind);
  EXPECT_EQ(Out.N, Before.N);
  EXPECT_EQ(Out.P, Before.P);
}

TEST(KernelIO, LoadKernelBoundsOversizedFiles) {
  // loadKernel must refuse files beyond kMaxKernelFileBytes instead of
  // slurping attacker-sized input into memory.
  std::string Path = "/tmp/sks_kernel_oversize.sks";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::string Valid = serializeKernel(
      SavedKernel{MachineKind::Cmov, 2, sortingNetworkCmov(2)});
  std::fwrite(Valid.data(), 1, Valid.size(), F);
  std::string Padding(kMaxKernelFileBytes, '#');
  std::fwrite(Padding.data(), 1, Padding.size(), F);
  std::fclose(F);
  SavedKernel Out;
  EXPECT_FALSE(loadKernel(Path, Out));
  std::remove(Path.c_str());
}

TEST(KernelIO, ParseProgramRejectsMalformedInstructions) {
  struct Case {
    const char *Text;
    const char *Why;
  };
  // parseProgram must reject every malformed line; none of these may crash
  // or silently truncate. All use NumData = 3 (registers r1..r3, s1..s5).
  const Case Cases[] = {
      {"xchg r1 r2", "unknown mnemonic"},
      {"mov q1 r2", "bad register prefix"},
      {"mov r0 r2", "registers are 1-based"},
      {"mov s0 r2", "scratch registers are 1-based"},
      {"mov r9 r2", "register index beyond kMaxRegs"},
      {"mov r1 s6", "scratch index beyond kMaxRegs with n = 3"},
      {"mov r99 r2", "two-digit out-of-range index"},
      {"mov r4294967297 r2", "index that would wrap unsigned arithmetic"},
      {"mov r1", "truncated: missing source operand"},
      {"cmp r1", "truncated: cmp with one operand"},
      {"mov", "mnemonic only"},
      {"mov r1 r2 r3", "extra operand"},
      {"r1 r2", "operands without a mnemonic"},
      {"mov r 1", "register without an index"},
      {"mov r1x r2", "trailing garbage in register token"},
      {"mov r1 r2\nbogus r3 r1", "valid line followed by a bad one"},
  };
  for (const Case &C : Cases) {
    Program Out;
    EXPECT_FALSE(parseProgram(C.Text, 3, Out)) << C.Why << ": " << C.Text;
  }
}

TEST(KernelIO, ParseProgramAcceptsNoiseTolerantInput) {
  // The accepted dialect: comments, blank lines, commas, and the x86
  // mnemonic aliases all parse to the same instruction.
  Program Plain, Noisy;
  ASSERT_TRUE(parseProgram("mov r1 r2\npmin r1 r2\n", 3, Plain));
  ASSERT_TRUE(parseProgram(
      "# header comment\n\nmovdqa r1, r2  # copy\npminud r1, r2\n", 3, Noisy));
  EXPECT_EQ(Plain, Noisy);
  // Largest register representable in 3 bits: s5 with n = 3 is register 7.
  Program Edge;
  EXPECT_TRUE(parseProgram("mov s5 r1", 3, Edge));
  EXPECT_EQ(Edge.at(0).Dst, 7);
}

TEST(Equivalence, DetectsEqualAndDifferentKernels) {
  Machine M(MachineKind::Cmov, 3);
  Program Network = sortingNetworkCmov(3);
  Program Synth = paperSynthCmov3();
  // Both sort: equivalent on the data registers...
  EXPECT_TRUE(areEquivalentKernels(M, Network, Synth));
  // ...but not in full state (scratch/flags differ).
  EXPECT_FALSE(areEquivalentKernels(M, Network, Synth, /*FullState=*/true));
  // A kernel is always fully equivalent to itself.
  EXPECT_TRUE(areEquivalentKernels(M, Network, Network, /*FullState=*/true));
  // A non-sorting program differs from a sorting one.
  Program Broken = Network;
  Broken.pop_back();
  EXPECT_FALSE(areEquivalentKernels(M, Network, Broken));
}

TEST(SynthesizeOptimal, ProducesCertificateForN2) {
  Machine M(MachineKind::Cmov, 2);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::PermCount;
  Opts.MaxLength = networkUpperBound(MachineKind::Cmov, 2);
  OptimalSynthesis R =
      synthesizeOptimal(M, Opts, StopToken().withDeadline(60));
  ASSERT_TRUE(R.Synthesis.Found);
  EXPECT_EQ(R.Synthesis.OptimalLength, 4u);
  EXPECT_TRUE(R.MinimalityProven);
}

TEST(SynthesizeOptimal, ProducesCertificateForMinMax3) {
  Machine M(MachineKind::MinMax, 3);
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::PermCount;
  Opts.UseViability = true;
  Opts.MaxLength = networkUpperBound(MachineKind::MinMax, 3);
  OptimalSynthesis R =
      synthesizeOptimal(M, Opts, StopToken().withDeadline(120));
  ASSERT_TRUE(R.Synthesis.Found);
  EXPECT_EQ(R.Synthesis.OptimalLength, 8u);
  EXPECT_TRUE(R.MinimalityProven);
}

} // namespace
