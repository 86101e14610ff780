//===- bench/bench_smt.cpp - Section 5.2 SMT table --------------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates the SMT-based-techniques table for n = 3:
//
//   SMT-Perm      44 min   (z3)
//   SMT-CEGIS     97 min   (z3, arbitrary inputs)
//   SMT-CEGIS     25 min   (z3, inputs in range 1..n)
//   SMT-SyGuS     -        (cvc5)
//   SMT-MetaLift  -
//
// Our solver is the in-tree CDCL on the bit-blasted encoding (DESIGN.md);
// the CEGIS oracle restricts counterexamples to permutations of 1..n,
// which is the paper's fastest variant. SyGuS/MetaLift need external
// frameworks and are reported as not-reproduced. n = 4 rows reproduce the
// paper's "none solves n = 4" with a bounded timeout. All measured rows
// run through the driver's Backend interface, so they share its
// verification gate.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "driver/Backends.h"

using namespace sks;
using namespace sks::bench;

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  banner("bench_smt", "section 5.2 SMT-based techniques table");

  double Timeout = isFullRun() ? 3600 : 300;
  Table T({"Approach", "Time (measured)", "Time (paper)", "Note"});

  auto Run = [&](const char *Name, const char *Paper, bool Cegis, unsigned N,
                 unsigned Length, double Seconds, const char *Note) {
    SmtOptions Opts;
    Opts.Cegis = Cegis;
    SynthRequest Req;
    Req.N = N;
    Req.Goal = SynthGoal::FirstKernel; // Single shot at the paper's bound.
    Req.MaxLength = Length;
    Req.TimeoutSeconds = Seconds;
    SynthOutcome O = makeSmtBackend(Opts, Name)->run(Req);
    T.row().cell(Name).cell(outcomeCell(O)).cell(Paper).cell(Note);
  };

  if (Args.Smoke) {
    // n = 2 solves in milliseconds; enough to exercise the full pipeline.
    Run("SMT-CEGIS", "n/a (n = 2 smoke)", true, 2, 4, 30,
        "counterexamples in 1..n");
  } else {
    Run("SMT-Perm", "44 min", false, 3, 11, Timeout,
        "in-tree CDCL, all 6 permutations");
    Run("SMT-CEGIS", "25 min", true, 3, 11, Timeout,
        "counterexamples in 1..n");
    T.row()
        .cell("SMT-CEGIS (arbitrary inputs)")
        .cell("n/a")
        .cell("97 min")
        .cell("constants-free kernels: 1..n oracle is complete (sec. 2.3)");
    T.row().cell("SMT-SyGuS").cell("not reproduced").cell("-").cell(
        "needs cvc5; paper also failed");
    T.row().cell("SMT-MetaLift").cell("not reproduced").cell("-").cell(
        "needs MetaLift; paper also failed");
    // n = 4: expect timeout, as in the paper.
    Run("SMT-CEGIS, n = 4", "- (1 week, 1 TB cluster)", true, 4, 20,
        isFullRun() ? 3600 : 120, "paper: no SMT route solves n = 4");
  }
  T.print();
  return 0;
}
