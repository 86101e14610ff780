//===- cp/CpSolver.cpp - Finite-domain CP synthesis ------------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Solver internals. Domains are bitsets: register domains over values 0..n
// (uint8_t), flag domains over {none, lt, gt} (uint8_t), instruction
// domains over the (possibly widened) alphabet (fixed-size word array).
// One transition propagator per (example, step) narrows forward images and
// prunes infeasible instructions; goal propagators narrow the final-state
// domains (ascending bounds + a light all-different for the occurrence
// constraints). Search assigns instruction variables in program order,
// propagating to fixpoint after each assignment, and backtracks by
// restoring a full domain snapshot (domains are a few hundred bytes).
//
//===----------------------------------------------------------------------===//

#include "cp/CpSolver.h"

#include "support/Timing.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace sks;

namespace {

constexpr unsigned MaxAlphabetWords = 3; // Up to 192 instructions.

/// Bitset over alphabet indices.
struct InstrDomain {
  uint64_t Words[MaxAlphabetWords] = {0, 0, 0};

  bool contains(unsigned I) const {
    return (Words[I / 64] >> (I % 64)) & 1;
  }
  void insert(unsigned I) { Words[I / 64] |= uint64_t(1) << (I % 64); }
  void erase(unsigned I) { Words[I / 64] &= ~(uint64_t(1) << (I % 64)); }
  bool empty() const { return !(Words[0] | Words[1] | Words[2]); }
  unsigned count() const {
    return static_cast<unsigned>(__builtin_popcountll(Words[0]) +
                                 __builtin_popcountll(Words[1]) +
                                 __builtin_popcountll(Words[2]));
  }
};

// Flag domain bits.
constexpr uint8_t FlagNone = 1, FlagLt = 2, FlagGt = 4;

/// All mutable domain state of a search node; snapshot/restore on
/// backtracking.
struct NodeState {
  std::vector<InstrDomain> InstrDom;  ///< Per step.
  std::vector<uint8_t> RegDom;        ///< [e][t][r] flattened.
  std::vector<uint8_t> FlagDom;       ///< [e][t] flattened.
};

class CpEngine {
public:
  CpEngine(const Machine &M, const CpOptions &Opts);
  CpResult run();

private:
  unsigned regIdx(unsigned E, unsigned T, unsigned R) const {
    return (E * (Opts.Length + 1) + T) * M.numRegs() + R;
  }
  unsigned flagIdx(unsigned E, unsigned T) const {
    return E * (Opts.Length + 1) + T;
  }

  bool propagateFixpoint(NodeState &S);
  bool propagateTransition(NodeState &S, unsigned E, unsigned T,
                           bool &ChangedNext, bool &ChangedInstr);
  bool propagateGoal(NodeState &S, unsigned E);
  void search(NodeState &S, unsigned Depth, CpResult &Result);
  bool finalCheck(const Program &P) const;

  /// Image of the next-state register domains under instruction \p I given
  /// current domains; \returns false if the instruction is infeasible
  /// against the next-state domains.
  bool instrImage(const NodeState &S, unsigned E, unsigned T,
                  const Instr &I, uint8_t *RegImage, uint8_t &FlagImage);

  const Machine &M;
  CpOptions Opts;
  std::vector<Instr> Alphabet;
  std::vector<std::vector<int>> Examples;
  std::vector<uint8_t> ScratchReadMask; ///< Per alphabet instr: scratch regs read.
  std::vector<uint8_t> ScratchWriteMask;
  Program Prefix;
  uint64_t Backtracks = 0;
  uint64_t Propagations = 0;
  uint64_t Nodes = 0;
};

} // namespace

#include "support/Permutations.h"
#include "verify/Verify.h"

CpEngine::CpEngine(const Machine &M, const CpOptions &Opts)
    : M(M), Opts(Opts) {
  Alphabet = M.instructions();
  if (!Opts.CmpSymmetry && M.kind() == MachineKind::Cmov) {
    // Widen the alphabet with the symmetric compares the machine's
    // restricted alphabet omits (reproduces the without-(II) rows).
    for (unsigned A = 0; A != M.numRegs(); ++A)
      for (unsigned B = 0; B != A; ++B)
        Alphabet.push_back(Instr{Opcode::Cmp, static_cast<uint8_t>(A),
                                 static_cast<uint8_t>(B)});
  }
  assert(Alphabet.size() <= MaxAlphabetWords * 64 && "alphabet too large");

  Examples = allPermutations(M.numData());
  if (Opts.PartialExamples > 0 && Opts.PartialExamples < Examples.size())
    Examples.resize(Opts.PartialExamples);

  for (const Instr &I : Alphabet) {
    uint8_t Read = 0, Write = 0;
    unsigned N = M.numData();
    auto ScratchBit = [N](unsigned R) -> uint8_t {
      return R >= N ? uint8_t(1u << (R - N)) : 0;
    };
    switch (I.Op) {
    case Opcode::Mov:
      Read = ScratchBit(I.Src);
      Write = ScratchBit(I.Dst);
      break;
    case Opcode::Cmp:
      Read = ScratchBit(I.Dst) | ScratchBit(I.Src);
      break;
    case Opcode::CMovL:
    case Opcode::CMovG:
    case Opcode::Min:
    case Opcode::Max:
      // Conditional/min/max both read and write the destination.
      Read = ScratchBit(I.Src) | ScratchBit(I.Dst);
      Write = ScratchBit(I.Dst);
      break;
    }
    ScratchReadMask.push_back(Read);
    ScratchWriteMask.push_back(Write);
  }
}

bool CpEngine::instrImage(const NodeState &S, unsigned E, unsigned T,
                          const Instr &I, uint8_t *RegImage,
                          uint8_t &FlagImage) {
  const unsigned R = M.numRegs();
  const uint8_t *Cur = &S.RegDom[regIdx(E, T, 0)];
  uint8_t CurFlag = S.FlagDom[flagIdx(E, T)];
  for (unsigned RegI = 0; RegI != R; ++RegI)
    RegImage[RegI] = Cur[RegI];
  FlagImage = CurFlag;

  switch (I.Op) {
  case Opcode::Mov:
    RegImage[I.Dst] = Cur[I.Src];
    break;
  case Opcode::Cmp: {
    FlagImage = 0;
    for (unsigned VA = 0; VA != M.numValues(); ++VA) {
      if (!((Cur[I.Dst] >> VA) & 1))
        continue;
      for (unsigned VB = 0; VB != M.numValues(); ++VB) {
        if (!((Cur[I.Src] >> VB) & 1))
          continue;
        FlagImage |= VA < VB ? FlagLt : (VA > VB ? FlagGt : FlagNone);
      }
    }
    break;
  }
  case Opcode::CMovL: {
    uint8_t Image = 0;
    if (CurFlag & FlagLt)
      Image |= Cur[I.Src]; // Move may fire.
    if (CurFlag & (FlagNone | FlagGt))
      Image |= Cur[I.Dst]; // Move may not fire.
    RegImage[I.Dst] = Image;
    break;
  }
  case Opcode::CMovG: {
    uint8_t Image = 0;
    if (CurFlag & FlagGt)
      Image |= Cur[I.Src];
    if (CurFlag & (FlagNone | FlagLt))
      Image |= Cur[I.Dst];
    RegImage[I.Dst] = Image;
    break;
  }
  case Opcode::Min:
  case Opcode::Max: {
    uint8_t Image = 0;
    for (unsigned VD = 0; VD != M.numValues(); ++VD) {
      if (!((Cur[I.Dst] >> VD) & 1))
        continue;
      for (unsigned VS = 0; VS != M.numValues(); ++VS) {
        if (!((Cur[I.Src] >> VS) & 1))
          continue;
        unsigned V =
            I.Op == Opcode::Min ? std::min(VD, VS) : std::max(VD, VS);
        Image |= uint8_t(1u << V);
      }
    }
    RegImage[I.Dst] = Image;
    break;
  }
  }

  const uint8_t *Next = &S.RegDom[regIdx(E, T + 1, 0)];
  uint8_t NextFlag = S.FlagDom[flagIdx(E, T + 1)];
  for (unsigned RegI = 0; RegI != R; ++RegI)
    if ((RegImage[RegI] & Next[RegI]) == 0)
      return false;
  return (FlagImage & NextFlag) != 0;
}

bool CpEngine::propagateTransition(NodeState &S, unsigned E, unsigned T,
                                   bool &ChangedNext, bool &ChangedInstr) {
  ++Propagations;
  const unsigned R = M.numRegs();
  uint8_t UnionReg[8] = {0};
  uint8_t UnionFlag = 0;
  uint8_t RegImage[8];
  uint8_t FlagImage;
  InstrDomain &Dom = S.InstrDom[T];

  for (unsigned I = 0; I != Alphabet.size(); ++I) {
    if (!Dom.contains(I))
      continue;
    if (!instrImage(S, E, T, Alphabet[I], RegImage, FlagImage)) {
      Dom.erase(I);
      ChangedInstr = true;
      continue;
    }
    for (unsigned RegI = 0; RegI != R; ++RegI)
      UnionReg[RegI] |= RegImage[RegI];
    UnionFlag |= FlagImage;
  }
  if (Dom.empty())
    return false;

  uint8_t *Next = &S.RegDom[regIdx(E, T + 1, 0)];
  for (unsigned RegI = 0; RegI != R; ++RegI) {
    uint8_t Narrowed = Next[RegI] & UnionReg[RegI];
    if (Narrowed != Next[RegI]) {
      if (!Narrowed)
        return false;
      Next[RegI] = Narrowed;
      ChangedNext = true;
    }
  }
  uint8_t &NextFlag = S.FlagDom[flagIdx(E, T + 1)];
  uint8_t NarrowedFlag = NextFlag & UnionFlag;
  if (NarrowedFlag != NextFlag) {
    if (!NarrowedFlag)
      return false;
    NextFlag = NarrowedFlag;
    ChangedNext = true;
  }
  return true;
}

bool CpEngine::propagateGoal(NodeState &S, unsigned E) {
  const unsigned T = Opts.Length;
  const unsigned N = M.numData();
  uint8_t *Final = &S.RegDom[regIdx(E, T, 0)];

  if (Opts.Goal == CpGoal::Exact || Opts.Goal == CpGoal::Both) {
    for (unsigned RegI = 0; RegI != N; ++RegI) {
      uint8_t Narrowed = Final[RegI] & uint8_t(1u << (RegI + 1));
      if (!Narrowed)
        return false;
      Final[RegI] = Narrowed;
    }
  }
  if (Opts.Goal == CpGoal::AscendingCounts || Opts.Goal == CpGoal::Both) {
    // No zeros in the output (the "#0..." part).
    for (unsigned RegI = 0; RegI != N; ++RegI) {
      uint8_t Narrowed = Final[RegI] & uint8_t(~1u);
      if (!Narrowed)
        return false;
      Final[RegI] = Narrowed;
    }
    // Ascending bounds.
    for (unsigned RegI = 0; RegI + 1 < N; ++RegI) {
      unsigned Lo = static_cast<unsigned>(__builtin_ctz(Final[RegI]));
      uint8_t Mask = static_cast<uint8_t>(~((1u << Lo) - 1));
      uint8_t Narrowed = Final[RegI + 1] & Mask;
      if (!Narrowed)
        return false;
      Final[RegI + 1] = Narrowed;
    }
    for (unsigned RegI = N - 1; RegI > 0; --RegI) {
      unsigned Hi = 31 - static_cast<unsigned>(__builtin_clz(Final[RegI]));
      uint8_t Mask = static_cast<uint8_t>((1u << (Hi + 1)) - 1);
      uint8_t Narrowed = Final[RegI - 1] & Mask;
      if (!Narrowed)
        return false;
      Final[RegI - 1] = Narrowed;
    }
    // Occurrence counts: all-different light — a register fixed to v
    // removes v elsewhere; a value possible in only one register must be
    // that register's value.
    for (unsigned V = 1; V <= N; ++V) {
      unsigned Where = 0, Count = 0;
      for (unsigned RegI = 0; RegI != N; ++RegI)
        if ((Final[RegI] >> V) & 1) {
          Where = RegI;
          ++Count;
        }
      if (Count == 0)
        return false;
      if (Count == 1)
        Final[Where] = uint8_t(1u << V);
    }
    for (unsigned RegI = 0; RegI != N; ++RegI) {
      if (__builtin_popcount(Final[RegI]) != 1)
        continue;
      for (unsigned Other = 0; Other != N; ++Other) {
        if (Other == RegI)
          continue;
        uint8_t Narrowed = Final[Other] & uint8_t(~Final[RegI]);
        if (Narrowed != Final[Other]) {
          if (!Narrowed)
            return false;
          Final[Other] = Narrowed;
        }
      }
    }
  }
  return true;
}

bool CpEngine::propagateFixpoint(NodeState &S) {
  // Round-robin to fixpoint; the constraint graph is a chain per example,
  // so a few forward/backward sweeps converge quickly.
  for (unsigned E = 0; E != Examples.size(); ++E)
    if (!propagateGoal(S, E))
      return false;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned E = 0; E != Examples.size(); ++E) {
      for (unsigned T = 0; T != Opts.Length; ++T) {
        bool ChangedNext = false, ChangedInstr = false;
        if (!propagateTransition(S, E, T, ChangedNext, ChangedInstr))
          return false;
        Changed |= ChangedNext || ChangedInstr;
      }
      if (!propagateGoal(S, E))
        return false;
    }
  }
  if (Opts.EraseValueCheck) {
    // "Do not ultimately erase a value": every value 1..n must remain
    // representable in some register at every time step of every example.
    const unsigned R = M.numRegs();
    for (unsigned E = 0; E != Examples.size(); ++E)
      for (unsigned T = 0; T <= Opts.Length; ++T) {
        uint8_t Union = 0;
        for (unsigned RegI = 0; RegI != R; ++RegI)
          Union |= S.RegDom[regIdx(E, T, RegI)];
        for (unsigned V = 1; V <= M.numData(); ++V)
          if (!((Union >> V) & 1))
            return false;
      }
  }
  return true;
}

bool CpEngine::finalCheck(const Program &P) const {
  for (const std::vector<int> &Example : Examples) {
    uint32_t Row = M.run(M.packInitial(Example), P);
    if (Opts.Goal == CpGoal::Exact || Opts.Goal == CpGoal::Both) {
      if (!M.isSorted(Row))
        return false;
    } else {
      // Ascending + counts (equivalent on these inputs, but checked the
      // way the goal states it).
      unsigned Prev = 0;
      uint8_t SeenMask = 0;
      for (unsigned RegI = 0; RegI != M.numData(); ++RegI) {
        unsigned V = getReg(Row, RegI);
        if (V == 0 || V < Prev)
          return false;
        if ((SeenMask >> V) & 1)
          return false;
        SeenMask |= uint8_t(1u << V);
        Prev = V;
      }
    }
  }
  return true;
}

void CpEngine::search(NodeState &S, unsigned Depth, CpResult &Result) {
  if (Result.TimedOut ||
      (!Opts.EnumerateAll && Result.Found) ||
      Result.Solutions.size() >= Opts.MaxSolutions)
    return;
  // Poll on nodes, not backtracks: deep propagation-heavy subtrees can run
  // long stretches without failing, and a cancel must still land.
  if ((++Nodes & 255) == 0 && Opts.Stop.stopRequested()) {
    Result.TimedOut = true;
    return;
  }
  if (Depth == Opts.Length) {
    if (!finalCheck(Prefix))
      return;
    if (!Result.Found) {
      Result.Found = true;
      Result.P = Prefix;
    }
    if (Opts.EnumerateAll)
      Result.Solutions.push_back(Prefix);
    return;
  }

  // Track which scratch registers the prefix has written (for the
  // only-read-initialized heuristic).
  uint8_t Written = 0;
  if (Opts.OnlyReadInitialized)
    for (size_t I = 0; I != Prefix.size(); ++I)
      for (size_t A = 0; A != Alphabet.size(); ++A)
        if (Alphabet[A] == Prefix[I])
          Written |= ScratchWriteMask[A];

  for (unsigned I = 0; I != Alphabet.size(); ++I) {
    if (!S.InstrDom[Depth].contains(I))
      continue;
    const Instr &Ins = Alphabet[I];
    if (Opts.NoConsecutiveCmp && !Prefix.empty() &&
        Prefix.back().Op == Opcode::Cmp && Ins.Op == Opcode::Cmp)
      continue;
    if (Opts.FirstInstrCmp && Depth == 0 && Ins.Op != Opcode::Cmp)
      continue;
    if (Opts.OnlyReadInitialized && (ScratchReadMask[I] & ~Written))
      continue;

    NodeState Child = S;
    Child.InstrDom[Depth] = InstrDomain();
    Child.InstrDom[Depth].insert(I);
    Prefix.push_back(Ins);
    if (propagateFixpoint(Child))
      search(Child, Depth + 1, Result);
    else
      ++Backtracks;
    Prefix.pop_back();
    if (Result.TimedOut || (!Opts.EnumerateAll && Result.Found))
      return;
  }
  ++Backtracks;
}

CpResult CpEngine::run() {
  Stopwatch Timer;
  CpResult Result;

  NodeState Root;
  Root.InstrDom.resize(Opts.Length);
  for (unsigned T = 0; T != Opts.Length; ++T)
    for (unsigned I = 0; I != Alphabet.size(); ++I)
      Root.InstrDom[T].insert(I);
  const unsigned R = M.numRegs();
  Root.RegDom.assign(Examples.size() * (Opts.Length + 1) * R, 0);
  Root.FlagDom.assign(Examples.size() * (Opts.Length + 1),
                      FlagNone | FlagLt | FlagGt);
  uint8_t FullDomain = static_cast<uint8_t>((1u << M.numValues()) - 1);
  for (unsigned E = 0; E != Examples.size(); ++E) {
    for (unsigned T = 0; T <= Opts.Length; ++T)
      for (unsigned RegI = 0; RegI != R; ++RegI)
        Root.RegDom[regIdx(E, T, RegI)] =
            T == 0 ? uint8_t(1u << (RegI < M.numData()
                                        ? unsigned(Examples[E][RegI])
                                        : 0u))
                   : FullDomain;
    Root.FlagDom[flagIdx(E, 0)] = FlagNone;
  }

  if (Opts.Stop.stopRequested())
    Result.TimedOut = true;
  else if (propagateFixpoint(Root))
    search(Root, 0, Result);
  Result.Backtracks = Backtracks;
  Result.Propagations = Propagations;
  Result.Seconds = Timer.seconds();
  return Result;
}

CpResult sks::cpSynthesize(const Machine &M, const CpOptions &Opts) {
  return CpEngine(M, Opts).run();
}
