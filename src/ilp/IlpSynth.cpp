//===- ilp/IlpSynth.cpp - ILP synthesis formulation ------------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Variable layout (all mapped to a flat index space):
//
//   sel[t][i]         binary     instruction i selected at step t
//   v[e][t][r]        integer    value of register r (0..n)
//   lt[e][t], gt[e][t] binary    flags
//   actL[e][t][i], actG[e][t][i] binary  "activated command": selector and
//                                 flag both hold (paper's indirection)
//
// Big-M implications (M = n + 1):
//
//   copy under guard g:   v'[d] - v[s] <=  M (1 - g), v[s] - v'[d] <= M (1 - g)
//   frame:                |v'[r] - v[r]| <= M * sum(sel of writers of r)
//   cmp flag semantics:   sel ^ lt' = 1  <->  v[a] < v[b]  via two rows
//   flag frame:           |lt' - lt| <= sum(sel of cmp instructions)
//
//===----------------------------------------------------------------------===//

#include "ilp/IlpSynth.h"

#include "ilp/BranchBound.h"
#include "support/Permutations.h"
#include "support/Timing.h"

#include <cassert>

using namespace sks;

namespace {

/// Flat variable indexing for the encoding.
class VarMap {
public:
  VarMap(const Machine &M, unsigned Length, size_t NumExamples)
      : R(M.numRegs()), A(M.instructions().size()), T(Length),
        E(NumExamples) {
    SelBase = 0;
    ValBase = SelBase + T * A;
    LtBase = ValBase + E * (T + 1) * R;
    GtBase = LtBase + E * (T + 1);
    ActLBase = GtBase + E * (T + 1);
    ActGBase = ActLBase + E * T * A;
    Total = ActGBase + E * T * A;
  }

  size_t sel(unsigned Step, size_t Instr) const { return SelBase + Step * A + Instr; }
  size_t val(size_t Ex, unsigned Step, unsigned Reg) const {
    return ValBase + (Ex * (T + 1) + Step) * R + Reg;
  }
  size_t lt(size_t Ex, unsigned Step) const { return LtBase + Ex * (T + 1) + Step; }
  size_t gt(size_t Ex, unsigned Step) const { return GtBase + Ex * (T + 1) + Step; }
  size_t actL(size_t Ex, unsigned Step, size_t Instr) const {
    return ActLBase + (Ex * T + Step) * A + Instr;
  }
  size_t actG(size_t Ex, unsigned Step, size_t Instr) const {
    return ActGBase + (Ex * T + Step) * A + Instr;
  }
  size_t total() const { return Total; }

  size_t R, A;
  unsigned T;
  size_t E;
  size_t SelBase, ValBase, LtBase, GtBase, ActLBase, ActGBase, Total;
};

} // namespace

IlpSynthResult sks::ilpSynthesize(const Machine &M,
                                  const IlpSynthOptions &Opts) {
  assert(M.kind() == MachineKind::Cmov && "ILP route models the cmov machine");
  Stopwatch Timer;
  IlpSynthResult Result;

  const std::vector<Instr> &Alphabet = M.instructions();
  std::vector<std::vector<int>> Examples = allPermutations(M.numData());
  const unsigned T = Opts.Length;
  const double BigM = M.numValues();
  VarMap Vars(M, T, Examples.size());

  LinearProgram LP;
  LP.NumVars = Vars.total();
  LP.Objective.assign(LP.NumVars, 0.0);

  auto Sparse = [&](std::initializer_list<std::pair<size_t, double>> Terms,
                    double Rhs) {
    std::vector<double> Row(LP.NumVars, 0.0);
    for (auto [Var, Coefficient] : Terms)
      Row[Var] += Coefficient;
    LP.addRow(std::move(Row), Rhs);
  };
  auto FixVar = [&](size_t Var, double Value) {
    Sparse({{Var, 1.0}}, Value);
    Sparse({{Var, -1.0}}, -Value);
  };
  auto UpperBound = [&](size_t Var, double Bound) {
    Sparse({{Var, 1.0}}, Bound);
  };

  // Even building the LP is slow at n >= 3 (every row is dense, and the
  // rows run to hundreds of megabytes in total), so a stop must be able to
  // land mid-construction: per selector step, per example, and per step
  // within an example.
  auto BailedOut = [&]() {
    if (!Opts.Stop.stopRequested())
      return false;
    Result.TimedOut = true;
    Result.Seconds = Timer.seconds();
    return true;
  };

  // Selector: exactly one instruction per step; binaries bounded by 1.
  for (unsigned Step = 0; Step != T; ++Step) {
    if (BailedOut())
      return Result;
    std::vector<double> RowLe(LP.NumVars, 0.0), RowGe(LP.NumVars, 0.0);
    for (size_t I = 0; I != Alphabet.size(); ++I) {
      RowLe[Vars.sel(Step, I)] = 1.0;
      RowGe[Vars.sel(Step, I)] = -1.0;
      UpperBound(Vars.sel(Step, I), 1.0);
    }
    LP.addRow(std::move(RowLe), 1.0);
    LP.addRow(std::move(RowGe), -1.0);
  }

  for (size_t Ex = 0; Ex != Examples.size(); ++Ex) {
    if (BailedOut())
      return Result;
    // Initial and goal states.
    for (unsigned Reg = 0; Reg != M.numRegs(); ++Reg) {
      double Initial =
          Reg < M.numData() ? static_cast<double>(Examples[Ex][Reg]) : 0.0;
      FixVar(Vars.val(Ex, 0, Reg), Initial);
      for (unsigned Step = 0; Step <= T; ++Step)
        UpperBound(Vars.val(Ex, Step, Reg), BigM - 1);
      if (Reg < M.numData())
        FixVar(Vars.val(Ex, T, Reg), Reg + 1);
    }
    FixVar(Vars.lt(Ex, 0), 0.0);
    FixVar(Vars.gt(Ex, 0), 0.0);
    for (unsigned Step = 0; Step <= T; ++Step) {
      UpperBound(Vars.lt(Ex, Step), 1.0);
      UpperBound(Vars.gt(Ex, Step), 1.0);
    }

    for (unsigned Step = 0; Step != T; ++Step) {
      if (BailedOut())
        return Result;
      // Frame rows: |v' - v| <= M * (writers selected).
      for (unsigned Reg = 0; Reg != M.numRegs(); ++Reg) {
        std::vector<double> RowUp(LP.NumVars, 0.0), RowDown(LP.NumVars, 0.0);
        RowUp[Vars.val(Ex, Step + 1, Reg)] = 1.0;
        RowUp[Vars.val(Ex, Step, Reg)] = -1.0;
        RowDown[Vars.val(Ex, Step + 1, Reg)] = -1.0;
        RowDown[Vars.val(Ex, Step, Reg)] = 1.0;
        for (size_t I = 0; I != Alphabet.size(); ++I) {
          const Instr &Ins = Alphabet[I];
          if (Ins.Op != Opcode::Cmp && Ins.Dst == Reg) {
            RowUp[Vars.sel(Step, I)] -= BigM;
            RowDown[Vars.sel(Step, I)] -= BigM;
          }
        }
        LP.addRow(std::move(RowUp), 0.0);
        LP.addRow(std::move(RowDown), 0.0);
      }
      // Flag frame: |lt' - lt| <= sum(sel of cmp).
      for (int WhichFlag = 0; WhichFlag != 2; ++WhichFlag) {
        size_t Cur = WhichFlag ? Vars.gt(Ex, Step) : Vars.lt(Ex, Step);
        size_t Next =
            WhichFlag ? Vars.gt(Ex, Step + 1) : Vars.lt(Ex, Step + 1);
        std::vector<double> RowUp(LP.NumVars, 0.0), RowDown(LP.NumVars, 0.0);
        RowUp[Next] = 1.0;
        RowUp[Cur] = -1.0;
        RowDown[Next] = -1.0;
        RowDown[Cur] = 1.0;
        for (size_t I = 0; I != Alphabet.size(); ++I)
          if (Alphabet[I].Op == Opcode::Cmp) {
            RowUp[Vars.sel(Step, I)] -= 1.0;
            RowDown[Vars.sel(Step, I)] -= 1.0;
          }
        LP.addRow(std::move(RowUp), 0.0);
        LP.addRow(std::move(RowDown), 0.0);
      }

      for (size_t I = 0; I != Alphabet.size(); ++I) {
        const Instr &Ins = Alphabet[I];
        size_t Sel = Vars.sel(Step, I);
        switch (Ins.Op) {
        case Opcode::Mov:
          // sel -> v'[d] == v[s].
          Sparse({{Vars.val(Ex, Step + 1, Ins.Dst), 1.0},
                  {Vars.val(Ex, Step, Ins.Src), -1.0},
                  {Sel, BigM}},
                 BigM);
          Sparse({{Vars.val(Ex, Step + 1, Ins.Dst), -1.0},
                  {Vars.val(Ex, Step, Ins.Src), 1.0},
                  {Sel, BigM}},
                 BigM);
          break;
        case Opcode::Cmp: {
          // sel -> (lt' = 1 iff v[a] < v[b]) and (gt' = 1 iff v[a] > v[b]).
          size_t A = Vars.val(Ex, Step, Ins.Dst);
          size_t B = Vars.val(Ex, Step, Ins.Src);
          size_t Lt = Vars.lt(Ex, Step + 1), Gt = Vars.gt(Ex, Step + 1);
          // sel & lt'=0 -> v[b] <= v[a]; sel & lt'=1 -> v[a] <= v[b] - 1
          // (values are integral), and symmetrically for gt'.
          Sparse({{B, 1.0}, {A, -1.0}, {Sel, BigM}, {Lt, -BigM}}, BigM);
          Sparse({{A, 1.0}, {B, -1.0}, {Sel, BigM}, {Lt, BigM}},
                 2 * BigM - 1.0);
          Sparse({{A, 1.0}, {B, -1.0}, {Sel, BigM}, {Gt, -BigM}}, BigM);
          Sparse({{B, 1.0}, {A, -1.0}, {Sel, BigM}, {Gt, BigM}},
                 2 * BigM - 1.0);
          break;
        }
        case Opcode::CMovL:
        case Opcode::CMovG: {
          // Activated command: act = sel * flag (paper's indirection),
          // linearized: act <= sel, act <= flag, act >= sel + flag - 1.
          bool IsL = Ins.Op == Opcode::CMovL;
          size_t Act = IsL ? Vars.actL(Ex, Step, I) : Vars.actG(Ex, Step, I);
          size_t Flag = IsL ? Vars.lt(Ex, Step) : Vars.gt(Ex, Step);
          UpperBound(Act, 1.0);
          Sparse({{Act, 1.0}, {Sel, -1.0}}, 0.0);
          Sparse({{Act, 1.0}, {Flag, -1.0}}, 0.0);
          Sparse({{Sel, 1.0}, {Flag, 1.0}, {Act, -1.0}}, 1.0);
          // act -> v'[d] == v[s]; sel & !act -> v'[d] == v[d] (the frame
          // rows only know "some writer selected", so the not-taken case
          // needs its own copy rows).
          Sparse({{Vars.val(Ex, Step + 1, Ins.Dst), 1.0},
                  {Vars.val(Ex, Step, Ins.Src), -1.0},
                  {Act, BigM}},
                 BigM);
          Sparse({{Vars.val(Ex, Step + 1, Ins.Dst), -1.0},
                  {Vars.val(Ex, Step, Ins.Src), 1.0},
                  {Act, BigM}},
                 BigM);
          Sparse({{Vars.val(Ex, Step + 1, Ins.Dst), 1.0},
                  {Vars.val(Ex, Step, Ins.Dst), -1.0},
                  {Sel, BigM},
                  {Act, -BigM}},
                 BigM);
          Sparse({{Vars.val(Ex, Step + 1, Ins.Dst), -1.0},
                  {Vars.val(Ex, Step, Ins.Dst), 1.0},
                  {Sel, BigM},
                  {Act, -BigM}},
                 BigM);
          break;
        }
        default:
          assert(false && "unexpected opcode in cmov alphabet");
        }
      }
    }
  }

  // Integer variables: selectors, flags, activations, and register values.
  std::vector<size_t> IntegerVars;
  for (size_t Var = 0; Var != LP.NumVars; ++Var)
    IntegerVars.push_back(Var);

  Result.NumVars = LP.NumVars;
  Result.NumRows = LP.Rows.size();
  IlpResult Ilp = solveIlp(LP, IntegerVars, Opts.Stop);
  Result.Nodes = Ilp.NodesExplored;
  Result.TimedOut = Ilp.Status == IlpStatus::TimedOut;
  if (Ilp.Status == IlpStatus::Optimal) {
    Result.Found = true;
    for (unsigned Step = 0; Step != T; ++Step)
      for (size_t I = 0; I != Alphabet.size(); ++I)
        if (Ilp.X[Vars.sel(Step, I)] > 0.5) {
          Result.P.push_back(Alphabet[I]);
          break;
        }
  }
  Result.Seconds = Timer.seconds();
  return Result;
}
