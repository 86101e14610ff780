//===- analysis/AbstractInterp.cpp - Whole-program order analysis ---------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/AbstractInterp.h"

#include "analysis/Symmetry.h"

#include <algorithm>

using namespace sks;

std::vector<OrderState> sks::interpretProgram(const Program &P,
                                              unsigned NumData) {
  std::vector<OrderState> States;
  States.reserve(P.size() + 1);
  States.push_back(OrderState::entry(NumData));
  for (const Instr &I : P)
    States.push_back(States.back().extended(I));
  return States;
}

namespace {

/// The rule and message for an instruction the order domain proves
/// redundant at \p S (OrderState::provablyRedundant). The verdict is the
/// domain's; this only says which case of it holds.
Diagnostic redundancyDiagnostic(const OrderState &S, Instr I, unsigned Index,
                                unsigned NumData) {
  const std::string Dst = regName(I.Dst, NumData);
  const std::string Src = regName(I.Src, NumData);
  auto Make = [&](LintRule Rule, std::string Message) {
    return Diagnostic{Rule, Index, LintSeverity::Warning, std::move(Message)};
  };
  switch (I.Op) {
  case Opcode::Cmp: {
    const uint8_t Out = S.cmpOutcomes(I.Dst, I.Src);
    const char *Verdict = Out == OrderState::kLt   ? "less than "
                          : Out == OrderState::kGt ? "greater than "
                                                   : "equal to ";
    return Make(LintRule::RedundantCmp,
                "the established order already determines the outcome (" +
                    Dst + " is always " + Verdict + Src +
                    "); the cmp and its conditional moves reduce to plain "
                    "moves");
  }
  case Opcode::CMovL:
  case Opcode::CMovG: {
    const uint8_t FireBit =
        I.Op == Opcode::CMovL ? OrderState::kLt : OrderState::kGt;
    if ((S.flagOutcomes() & FireBit) == 0)
      return Make(LintRule::NoopCmov,
                  std::string("the ") +
                      (FireBit == OrderState::kLt ? "lt" : "gt") +
                      " flag outcome is impossible here, so the move never "
                      "fires");
    return Make(LintRule::NoopCmov,
                Dst + " and " + Src +
                    " provably hold equal values; firing changes nothing");
  }
  case Opcode::Mov:
    return Make(LintRule::OrderEstablished,
                Dst + " already provably equals " + Src +
                    "; the move is a no-op");
  case Opcode::Min:
  case Opcode::Max:
    break;
  }
  // pmin/pmax: the destination already holds the winning value.
  const bool IsMin = I.Op == Opcode::Min;
  return Make(LintRule::OrderEstablished,
              (IsMin ? Dst + " <= " + Src : Src + " <= " + Dst) +
                  " is established, so the " + (IsMin ? "min" : "max") +
                  " already sits in the destination");
}

} // namespace

std::vector<Diagnostic> sks::semanticDiagnostics(const Program &P,
                                                 unsigned NumData) {
  std::vector<Diagnostic> Diags;
  OrderState S = OrderState::entry(NumData);
  for (size_t Index = 0; Index != P.size(); ++Index) {
    const Instr &I = P[Index];
    if (S.provablyRedundant(I))
      Diags.push_back(redundancyDiagnostic(S, I, static_cast<unsigned>(Index),
                                           NumData));
    S = S.extended(I);
  }
  return Diags;
}

std::vector<Diagnostic> sks::lintProgramSemantic(const Program &P,
                                                 unsigned NumData) {
  std::vector<Diagnostic> Syntactic = lintProgram(P, NumData);
  std::vector<Diagnostic> Semantic = semanticDiagnostics(P, NumData);

  // Per-instruction subsumption. The syntactic self-move report is the
  // crispest statement of a dst == src no-op, so it wins; otherwise a
  // semantic fact replaces the weaker stale-flags heuristic (noop-cmov
  // covers every never-fires case, not just the cmp-free prefix). The
  // remaining rules describe different defects (dead-code is about the
  // suffix never reading a result; the semantic rules are about the prefix
  // proving a no-op) and co-report.
  std::vector<bool> SelfMove(P.size(), false);
  for (const Diagnostic &D : Syntactic)
    if (D.Rule == LintRule::SelfMove && D.InstrIndex < P.size())
      SelfMove[D.InstrIndex] = true;
  std::vector<bool> SemanticAt(P.size(), false);
  std::vector<Diagnostic> Merged;
  for (Diagnostic &D : Semantic)
    if (D.InstrIndex >= P.size() || !SelfMove[D.InstrIndex]) {
      SemanticAt[D.InstrIndex] = true;
      Merged.push_back(std::move(D));
    }
  for (Diagnostic &D : Syntactic) {
    if (D.Rule == LintRule::StaleFlags && D.InstrIndex < P.size() &&
        SemanticAt[D.InstrIndex])
      continue;
    Merged.push_back(std::move(D));
  }

  // The symmetry analysis's program-level rule (Note: the kernel is still
  // correct and optimal, just not its orbit's representative), anchored at
  // the first instruction the canonical renaming changes.
  Program Canon = canonicalProgram(P, NumData);
  if (Canon != P) {
    unsigned At = 0;
    while (At < P.size() && P[At] == Canon[At])
      ++At;
    Merged.push_back(Diagnostic{
        LintRule::NonCanonicalRegisters, At, LintSeverity::Note,
        "renaming the scratch registers yields the lexicographically "
        "smaller equivalent kernel (first difference: " +
            toString(Canon[At], NumData) + ")"});
  }

  std::stable_sort(Merged.begin(), Merged.end(),
                   [](const Diagnostic &A, const Diagnostic &B) {
                     return A.InstrIndex < B.InstrIndex;
                   });
  return Merged;
}
