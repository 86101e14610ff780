//===- tests/EmitPinTest.cpp - Emitted-byte pin on both lanes -------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the exact bytes and EmitStatus the encoder produces on both lane
// widths, one hash per corpus group. The translation validator accepts any
// disciplined stream that computes the kernel's function, so "validates"
// does not mean "same bytes"; this test does. A change to the encoder that
// is meant to keep its output (a refactor, a layout change) must leave
// every hash as it is; a change that means to alter the code updates the
// hashes and says why. The same corpus checks that the --asm listing is
// the emitted stream, line for line.
//
//===----------------------------------------------------------------------===//

#include "codegen/AsmEmitter.h"
#include "codegen/Jit.h"

#include "kernels/KernelIO.h"
#include "kernels/ReferenceKernels.h"
#include "search/Search.h"
#include "support/Rng.h"
#include "validate/Decoder.h"

#include <algorithm>
#include <filesystem>
#include <gtest/gtest.h>
#include <sstream>

#ifndef SKS_SOURCE_DIR
#define SKS_SOURCE_DIR "."
#endif

using namespace sks;

namespace {

/// One corpus entry: a program, its kind and array length, and the code
/// buffer capacity to emit it into.
struct Case {
  MachineKind Kind;
  unsigned NumData;
  Program P;
  size_t MaxBytes = kMaxJitCodeBytes;
};

struct Group {
  const char *Name;
  std::vector<Case> Cases;
};

std::vector<Case> networks() {
  std::vector<Case> Cases;
  for (unsigned N = 2; N <= 6; ++N) {
    Cases.push_back({MachineKind::Cmov, N, sortingNetworkCmov(N)});
    Cases.push_back({MachineKind::MinMax, N, sortingNetworkMinMax(N)});
  }
  return Cases;
}

std::vector<Case> paper() {
  return {{MachineKind::Cmov, 3, paperSynthCmov3()},
          {MachineKind::MinMax, 3, paperSynthMinMax3()}};
}

std::vector<Case> prebuilt() {
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(
           std::string(SKS_SOURCE_DIR) + "/kernels_prebuilt"))
    if (E.path().extension() == ".sks")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  std::vector<Case> Cases;
  for (const std::filesystem::path &F : Files) {
    SavedKernel K;
    EXPECT_TRUE(loadKernel(F.string(), K)) << F;
    Cases.push_back({K.Kind, K.N, K.P});
  }
  return Cases;
}

/// 200 seeded programs of 1..24 instructions drawn from each cmov and
/// min/max alphabet at n = 2..6 with 1 and 2 scratch registers. The
/// 2-scratch alphabets reach register 7, which the int64 min/max lane
/// (xmm0 reserved) refuses.
std::vector<Case> random() {
  std::vector<Case> Cases;
  for (MachineKind Kind : {MachineKind::Cmov, MachineKind::MinMax})
    for (unsigned N = 2; N <= 6; ++N)
      for (unsigned Scratch = 1; Scratch <= 2; ++Scratch) {
        const std::vector<Instr> Alphabet =
            Machine(Kind, N, Scratch).instructions();
        Rng R(1000 * N + 10 * Scratch + static_cast<unsigned>(Kind));
        for (int I = 0; I != 200; ++I) {
          Program P(1 + R.below(24));
          for (Instr &In : P)
            In = Alphabet[R.below(Alphabet.size())];
          Cases.push_back({Kind, N, P});
        }
      }
  return Cases;
}

/// Every typed refusal: a foreign alphabet, a capacity of 8 bytes and of
/// one byte short of the stream, the Hybrid kind, and array lengths 0 and
/// 7.
std::vector<Case> edges() {
  std::vector<Case> Cases = {
      {MachineKind::MinMax, 3, paperSynthCmov3()},
      {MachineKind::Cmov, 3, paperSynthMinMax3()},
      {MachineKind::Cmov, 4, sortingNetworkCmov(4), 8},
      {MachineKind::MinMax, 4, sortingNetworkMinMax(4), 8}};
  for (Case C : paper()) {
    for (size_t Size :
         {emitKernelBytes<int32_t>(C.Kind, C.NumData, C.P).Bytes.size(),
          emitKernelBytes<int64_t>(C.Kind, C.NumData, C.P).Bytes.size()}) {
      C.MaxBytes = Size - 1;
      Cases.push_back(C);
      C.MaxBytes = Size;
      Cases.push_back(C);
    }
  }
  Cases.push_back({MachineKind::Hybrid, 3, sortingNetworkCmov(3)});
  Cases.push_back({MachineKind::Cmov, 0, Program()});
  Cases.push_back({MachineKind::Cmov, 7, sortingNetworkCmov(6)});
  Cases.push_back({MachineKind::MinMax, 7, sortingNetworkMinMax(6)});
  return Cases;
}

/// The paper's 5,602 optimal n = 3 cmov kernels, found as perfbench's
/// enumerate workload finds them and put in program order, so the pin
/// does not depend on the order the search reports them in.
std::vector<Case> allN3() {
  SearchOptions SO;
  SO.Heuristic = HeuristicKind::None;
  SO.FindAll = true;
  SO.MaxLength = 11;
  SO.NumThreads = 2;
  SearchResult R = synthesize(Machine(MachineKind::Cmov, 3), SO);
  std::sort(R.Solutions.begin(), R.Solutions.end(),
            [](const Program &A, const Program &B) {
              return std::lexicographical_compare(
                  A.begin(), A.end(), B.begin(), B.end(),
                  [](Instr X, Instr Y) { return X.encode() < Y.encode(); });
            });
  std::vector<Case> Cases;
  for (const Program &P : R.Solutions)
    Cases.push_back({MachineKind::Cmov, 3, P});
  return Cases;
}

/// The corpus, built once per process (the n = 3 group runs a search).
const std::vector<Group> &corpus() {
  static const std::vector<Group> Groups = {
      {"networks", networks()}, {"paper", paper()}, {"prebuilt", prebuilt()},
      {"random", random()},     {"edges", edges()}, {"all n = 3", allN3()}};
  return Groups;
}

/// FNV-1a over the (status, length, bytes) of each emission on the int32
/// lane and then the int64 lane, in corpus order. Self-contained so the
/// pin does not move with support/Hashing.h.
uint64_t hashGroup(const std::vector<Case> &Cases) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Byte = [&H](uint8_t B) { H = (H ^ B) * 0x100000001b3ull; };
  for (const Case &C : Cases)
    for (const EmittedCode &Code :
         {emitKernelBytes<int32_t>(C.Kind, C.NumData, C.P, C.MaxBytes),
          emitKernelBytes<int64_t>(C.Kind, C.NumData, C.P, C.MaxBytes)}) {
      Byte(static_cast<uint8_t>(Code.Status));
      Byte(static_cast<uint8_t>(Code.Bytes.size()));
      Byte(static_cast<uint8_t>(Code.Bytes.size() >> 8));
      for (uint8_t B : Code.Bytes)
        Byte(B);
    }
  return H;
}

TEST(EmitBytes, PinnedOnBothLanes) {
  const struct {
    size_t Programs;
    uint64_t Hash;
  } Expected[] = {{10, 207722248976191218ull},
                  {2, 1924747604422361770ull},
                  {4, 14906677931630261308ull},
                  {4000, 17975028059700946090ull},
                  {16, 6951970830723779018ull},
                  {5602, 12621102106053128393ull}};
  const std::vector<Group> &Groups = corpus();
  ASSERT_EQ(Groups.size(), std::size(Expected));
  for (size_t I = 0; I != Groups.size(); ++I) {
    EXPECT_EQ(Groups[I].Cases.size(), Expected[I].Programs) << Groups[I].Name;
    EXPECT_EQ(hashGroup(Groups[I].Cases), Expected[I].Hash) << Groups[I].Name;
  }
}

TEST(EmitBytes, OnlyTheInt32LaneFitsEightMinMaxRegisters) {
  // n = 6 with two scratch registers names xmm7; the int64 lane keeps
  // xmm0 for blendvpd's mask and has one register fewer.
  Program P = {{Opcode::Mov, 7, 0}, {Opcode::Min, 0, 7}};
  EXPECT_EQ(emitKernelBytes<int32_t>(MachineKind::MinMax, 6, P).Status,
            EmitStatus::Ok);
  EXPECT_EQ(emitKernelBytes<int64_t>(MachineKind::MinMax, 6, P).Status,
            EmitStatus::BadProgram);
  Program Q = {{Opcode::Mov, 7, 0}, {Opcode::Cmp, 0, 7}};
  EXPECT_EQ(emitKernelBytes<int64_t>(MachineKind::Cmov, 6, Q).Status,
            EmitStatus::Ok);
}

std::vector<std::string> linesOf(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  for (std::string Line; std::getline(In, Line);)
    Lines.push_back(Line);
  return Lines;
}

/// The mnemonic the int32 lane emits for \p Op.
std::string expectedMnemonic(MachineKind Kind, Opcode Op) {
  switch (Op) {
  case Opcode::Mov:
    return Kind == MachineKind::Cmov ? "mov" : "movdqa";
  case Opcode::Cmp:
    return "cmp";
  case Opcode::CMovL:
    return "cmovl";
  case Opcode::CMovG:
    return "cmovg";
  case Opcode::Min:
    return "pminsd";
  case Opcode::Max:
    return "pmaxsd";
  }
  return "?";
}

TEST(AsmEmitter, ListsTheEmittedStream) {
  for (const Group &G : corpus())
    for (const Case &C : G.Cases) {
      std::vector<std::string> Full =
          linesOf(emitAsmText(C.Kind, C.NumData, C.P, true));
      std::vector<std::string> Bare =
          linesOf(emitAsmText(C.Kind, C.NumData, C.P, false));
      EmittedCode Code = emitKernelBytes(C.Kind, C.NumData, C.P);
      if (Code.Status != EmitStatus::Ok) {
        const std::vector<std::string> Refused = {
            std::string("    ; no x86 code: ") + emitStatusName(Code.Status)};
        ASSERT_EQ(Full, Refused) << G.Name;
        ASSERT_EQ(Bare, Refused) << G.Name;
        continue;
      }
      // One line per decoded instruction, in order: the scratch zeroing,
      // the n loads, the body, the n stores, ret.
      DecodeResult D = decodeX86(Code.Bytes.data(), Code.Bytes.size());
      ASSERT_TRUE(D.Ok) << G.Name;
      ASSERT_EQ(Full.size(), D.Insns.size()) << G.Name;
      for (size_t I = 0; I != Full.size(); ++I)
        ASSERT_EQ(Full[I], "    " + formatX86(D.Insns[I])) << G.Name;
      const size_t Zeroed = Full.size() - 2 * C.NumData - C.P.size() - 1;
      const std::string Zero =
          C.Kind == MachineKind::Cmov ? "    xor " : "    pxor ";
      if (C.Kind == MachineKind::Cmov) {
        ASSERT_GE(Zeroed, 1u) << G.Name << ": the flags need one xor";
      }
      for (size_t I = 0; I != Zeroed; ++I)
        ASSERT_EQ(Full[I].rfind(Zero, 0), 0u) << G.Name << ": " << Full[I];
      ASSERT_EQ(Full.back(), "    ret") << G.Name;
      // The bare listing is the body: one line per instruction of P.
      ASSERT_EQ(Bare.size(), C.P.size()) << G.Name;
      for (size_t I = 0; I != Bare.size(); ++I) {
        ASSERT_EQ(Bare[I], Full[Zeroed + C.NumData + I]) << G.Name;
        ASSERT_EQ(Bare[I].rfind(
                      "    " + expectedMnemonic(C.Kind, C.P[I].Op) + " ", 0),
                  0u)
            << G.Name << ": " << Bare[I];
      }
    }
}

} // namespace
