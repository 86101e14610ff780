//===- tests/CodegenTest.cpp - Codegen internals tests -----------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/AsmEmitter.h"
#include "codegen/Jit.h"

#include "kernels/ReferenceKernels.h"

#include <cstring>
#include <gtest/gtest.h>

using namespace sks;

namespace {

TEST(AsmEmitter, RegisterNames) {
  // Model registers map to eax, ecx, edx, esi, r8d..r11d on the cmov file
  // and to xmm0.. on the min/max file; a one-instruction body shows them.
  auto Body = [](MachineKind Kind, uint8_t Dst, uint8_t Src) {
    return emitAsmText(Kind, 1, {{Opcode::Mov, Dst, Src}}, false);
  };
  EXPECT_EQ(Body(MachineKind::Cmov, 3, 0), "    mov     esi, eax\n");
  EXPECT_EQ(Body(MachineKind::Cmov, 7, 4), "    mov     r11d, r8d\n");
  EXPECT_EQ(Body(MachineKind::MinMax, 7, 0), "    movdqa  xmm7, xmm0\n");
}

TEST(AsmEmitter, ExtendedRegistersAppearForN6) {
  // n = 6 uses 7 model registers, reaching into r8d..r10d.
  std::string Text =
      emitAsmText(MachineKind::Cmov, 6, sortingNetworkCmov(6), true);
  EXPECT_NE(Text.find("r8d"), std::string::npos);
  EXPECT_NE(Text.find("r10d"), std::string::npos);
  EXPECT_NE(Text.find("[rdi + 20]"), std::string::npos) << "6th element";
}

TEST(Jit, CodeBytesAreDeterministic) {
  if (!jitSupported(MachineKind::Cmov))
    GTEST_SKIP();
  auto A = JitKernel::compile(MachineKind::Cmov, 3, paperSynthCmov3());
  auto B = JitKernel::compile(MachineKind::Cmov, 3, paperSynthCmov3());
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  ASSERT_EQ(A->codeSize(), B->codeSize());
  EXPECT_EQ(std::memcmp(reinterpret_cast<const void *>(A->entry()),
                        reinterpret_cast<const void *>(B->entry()),
                        A->codeSize()),
            0);
}

TEST(Jit, PrologueInitializesScratchAndFlags) {
  if (!jitSupported(MachineKind::Cmov))
    GTEST_SKIP();
  // The first bytes must be "xor esi, esi" (31 F6): the scratch register
  // zeroing that also normalizes the host flags (see Jit.cpp).
  auto Kernel = JitKernel::compile(MachineKind::Cmov, 3, paperSynthCmov3());
  ASSERT_NE(Kernel, nullptr);
  const uint8_t *Code = reinterpret_cast<const uint8_t *>(Kernel->entry());
  EXPECT_EQ(Code[0], 0x31);
  EXPECT_EQ(Code[1], 0xF6);
  // And the last byte must be ret.
  EXPECT_EQ(Code[Kernel->codeSize() - 1], 0xC3);
}

TEST(Jit, LongerKernelsProduceMoreCode) {
  if (!jitSupported(MachineKind::Cmov))
    GTEST_SKIP();
  auto Short = JitKernel::compile(MachineKind::Cmov, 3, paperSynthCmov3());
  auto Long = JitKernel::compile(MachineKind::Cmov, 5, sortingNetworkCmov(5));
  ASSERT_NE(Short, nullptr);
  ASSERT_NE(Long, nullptr);
  EXPECT_LT(Short->codeSize(), Long->codeSize());
}

TEST(Jit, HybridIsInterpreterOnly) {
  EXPECT_FALSE(jitSupported(MachineKind::Hybrid));
  EXPECT_EQ(JitKernel::compile(MachineKind::Hybrid, 3, sortingNetworkCmov(3)),
            nullptr);
}

TEST(Jit, InterpreterHandlesHybridKernels) {
  // The hybrid kernel from MachineTest (transfers + min/max CAS) must sort
  // arbitrary ints through the interpreter.
  Program P;
  auto Mov = [](unsigned D, unsigned S) {
    return Instr{Opcode::Mov, static_cast<uint8_t>(D),
                 static_cast<uint8_t>(S)};
  };
  for (unsigned I = 0; I != 3; ++I)
    P.push_back(Mov(4 + I, I));
  for (auto [A, B] : networkPairs(3)) {
    Program Cas = casMinMax(4 + A, 4 + B, 7);
    P.insert(P.end(), Cas.begin(), Cas.end());
  }
  for (unsigned I = 0; I != 3; ++I)
    P.push_back(Mov(I, 4 + I));
  int32_t Data[3] = {55, -3, 12};
  interpretKernel(MachineKind::Hybrid, 3, P, Data);
  EXPECT_EQ(Data[0], -3);
  EXPECT_EQ(Data[1], 12);
  EXPECT_EQ(Data[2], 55);
}

TEST(AsmEmitter, BareListingsOmitMemoryOps) {
  std::string Bare =
      emitAsmText(MachineKind::Cmov, 4, sortingNetworkCmov(4), false);
  EXPECT_EQ(Bare.find("rdi"), std::string::npos);
  EXPECT_EQ(Bare.find("ret"), std::string::npos);
}

} // namespace
