//===- tests/JitTest.cpp - JIT / asm emission tests -------------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/AsmEmitter.h"
#include "codegen/Jit.h"

#include "kernels/ReferenceKernels.h"
#include "support/Permutations.h"
#include "support/Rng.h"
#include "verify/Verify.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace sks;

namespace {

/// Property test: the JIT-compiled kernel agrees with the interpreter and
/// with std::sort on random signed inputs.
void checkJitAgainstInterpreter(MachineKind Kind, unsigned N,
                                const Program &P) {
  if (!jitSupported(Kind))
    GTEST_SKIP() << "JIT unsupported on this host";
  auto Kernel = JitKernel::compile(Kind, N, P);
  ASSERT_NE(Kernel, nullptr);
  EXPECT_GT(Kernel->codeSize(), 0u);

  Rng R(7);
  for (int Trial = 0; Trial != 2000; ++Trial) {
    std::vector<int32_t> Data(N);
    for (int32_t &V : Data)
      V = static_cast<int32_t>(R.range(-100000, 100000));
    std::vector<int32_t> ViaInterp = Data;
    std::vector<int32_t> Expected = Data;
    (*Kernel)(Data.data());
    interpretKernel(Kind, N, P, ViaInterp.data());
    std::sort(Expected.begin(), Expected.end());
    EXPECT_EQ(Data, ViaInterp);
    EXPECT_EQ(Data, Expected);
  }
}

TEST(Jit, CmovNetwork3) {
  checkJitAgainstInterpreter(MachineKind::Cmov, 3, sortingNetworkCmov(3));
}
TEST(Jit, CmovNetwork4) {
  checkJitAgainstInterpreter(MachineKind::Cmov, 4, sortingNetworkCmov(4));
}
TEST(Jit, CmovNetwork5) {
  checkJitAgainstInterpreter(MachineKind::Cmov, 5, sortingNetworkCmov(5));
}
TEST(Jit, CmovPaperSynth3) {
  checkJitAgainstInterpreter(MachineKind::Cmov, 3, paperSynthCmov3());
}
TEST(Jit, MinMaxNetwork3) {
  checkJitAgainstInterpreter(MachineKind::MinMax, 3, sortingNetworkMinMax(3));
}
TEST(Jit, MinMaxNetwork4) {
  checkJitAgainstInterpreter(MachineKind::MinMax, 4, sortingNetworkMinMax(4));
}
TEST(Jit, MinMaxPaperSynth3) {
  checkJitAgainstInterpreter(MachineKind::MinMax, 3, paperSynthMinMax3());
}

TEST(Jit, MinMaxNegativeValuesUseSignedSemantics) {
  if (!jitSupported(MachineKind::MinMax))
    GTEST_SKIP();
  auto Kernel =
      JitKernel::compile(MachineKind::MinMax, 3, sortingNetworkMinMax(3));
  ASSERT_NE(Kernel, nullptr);
  int32_t Data[3] = {5, -7, 0};
  (*Kernel)(Data);
  EXPECT_EQ(Data[0], -7);
  EXPECT_EQ(Data[1], 0);
  EXPECT_EQ(Data[2], 5);
}

TEST(Jit, InterpreterMatchesModelSemantics) {
  // On the verification domain 1..n the int32 interpreter and the packed
  // 3-bit machine must agree.
  Machine M(MachineKind::Cmov, 4);
  Program P = sortingNetworkCmov(4);
  for (const std::vector<int> &Perm : allPermutations(4)) {
    std::vector<int32_t> Data(Perm.begin(), Perm.end());
    interpretKernel(MachineKind::Cmov, 4, P, Data.data());
    uint32_t Row = M.run(M.packInitial(Perm), P);
    for (unsigned I = 0; I != 4; ++I)
      EXPECT_EQ(static_cast<uint32_t>(Data[I]), getReg(Row, I));
  }
}

TEST(AsmEmitter, ListingShapesMatchKernel) {
  Program P = paperSynthCmov3();
  std::string Text = emitAsmText(MachineKind::Cmov, 3, P, true);
  // xor esi, esi (the scratch zeroing) + 3 loads + 11 kernel
  // instructions + 3 stores + ret = 19 lines.
  EXPECT_EQ(std::count(Text.begin(), Text.end(), '\n'), 19);
  EXPECT_EQ(Text.rfind("    xor     esi, esi\n", 0), 0u);
  EXPECT_NE(Text.find("cmovl"), std::string::npos);
  EXPECT_NE(Text.find("[rdi + 8]"), std::string::npos);
  std::string Bare = emitAsmText(MachineKind::Cmov, 3, P, false);
  EXPECT_EQ(std::count(Bare.begin(), Bare.end(), '\n'), 11);
}

TEST(AsmEmitter, MinMaxListingUsesVectorRegisters) {
  std::string Text =
      emitAsmText(MachineKind::MinMax, 3, paperSynthMinMax3(), true);
  EXPECT_NE(Text.find("pminsd"), std::string::npos);
  EXPECT_NE(Text.find("xmm0"), std::string::npos);
  EXPECT_EQ(Text.find("eax"), std::string::npos);
}

TEST(AsmEmitter, MemoryMixCountsLoadsAndStores) {
  InstrMix Mix = countMixWithMemory(paperSynthCmov3(), 3);
  // The paper's table row for the n=3 enum kernel: 3 cmp, 8 mov, 6 cmov.
  EXPECT_EQ(Mix.Cmp, 3u);
  EXPECT_EQ(Mix.Mov, 8u);
  EXPECT_EQ(Mix.CMov, 6u);
}

TEST(EmitBytes, CapacityExceededIsTypedAndReturnsNoPartialStream) {
  // An 8-byte buffer cannot hold even the prologue: the emitter must
  // latch the typed status and hand back no bytes at all — a partial
  // stream without its ret would be a silent-truncation hazard.
  Program P = sortingNetworkCmov(4);
  EmittedCode Code = emitKernelBytes(MachineKind::Cmov, 4, P, /*MaxBytes=*/8);
  EXPECT_EQ(Code.Status, EmitStatus::CapacityExceeded);
  EXPECT_TRUE(Code.Bytes.empty());
  EmittedCode Pair =
      emitKernelBytes<int64_t>(MachineKind::Cmov, 4, P, /*MaxBytes=*/8);
  EXPECT_EQ(Pair.Status, EmitStatus::CapacityExceeded);
  EXPECT_TRUE(Pair.Bytes.empty());
}

TEST(EmitBytes, BadProgramAndUnsupportedKindAreTyped) {
  // A cmp in the min/max alphabet is a program error, not a crash.
  Program BadOp = {{Opcode::Cmp, 0, 1}};
  EXPECT_EQ(emitKernelBytes(MachineKind::MinMax, 2, BadOp).Status,
            EmitStatus::BadProgram);
  // Hybrid kernels have no emission path at all.
  EXPECT_EQ(emitKernelBytes(MachineKind::Hybrid, 3, Program()).Status,
            EmitStatus::UnsupportedKind);
  EXPECT_EQ(emitKernelBytes<int64_t>(MachineKind::Hybrid, 3, Program()).Status,
            EmitStatus::UnsupportedKind);
}

TEST(EmitBytes, CompiledKernelExposesTheEmittedBytes) {
  if (!jitSupported(MachineKind::Cmov))
    GTEST_SKIP();
  Program P = sortingNetworkCmov(3);
  EmittedCode Code = emitKernelBytes(MachineKind::Cmov, 3, P);
  ASSERT_EQ(Code.Status, EmitStatus::Ok);
  auto Kernel = JitKernel::compile(MachineKind::Cmov, 3, P);
  ASSERT_NE(Kernel, nullptr);
  ASSERT_EQ(Kernel->codeSize(), Code.Bytes.size());
  EXPECT_TRUE(std::equal(Code.Bytes.begin(), Code.Bytes.end(),
                         Kernel->codeBytes()));
  EXPECT_EQ(Kernel->kind(), MachineKind::Cmov);
  EXPECT_EQ(Kernel->numData(), 3u);
}

} // namespace
