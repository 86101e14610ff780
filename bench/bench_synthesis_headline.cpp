//===- bench/bench_synthesis_headline.cpp - Section 5.2 headline table -----===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates the paper's headline synthesis-time comparison:
//
//   Time         n = 3     n = 4     n = 5
//   Enum, best   97 ms     2443 ms   11 min
//   AlphaDev-RL  6 min     30 min    ~1050 min
//   AlphaDev-S   0.4 s     0.6 s     ~345 min
//
// Our Enum rows are measured on this machine; the AlphaDev rows are quoted
// from Mankowitz et al. [13] exactly as the paper does (their code is not
// public). n = 5 is gated behind SKS_FULL (the paper used 16 cores);
// bench_kernels_n5 runs a budgeted n = 5 attempt on the layered engine.
// The repository's timing record is perfbench's synth workload, not this
// table.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "lint/Lint.h"
#include "validate/SymbolicExec.h"
#include "verify/Verify.h"

#include <chrono>
#include <cstdlib>

using namespace sks;
using namespace sks::bench;

namespace {

/// Nanoseconds per validateJitKernel call on \p P (median-free small-rep
/// average: the validator is deterministic, so 5 reps suffice). Returns 0
/// when the host has no emission path (the report is then inapplicable).
uint64_t validateNanos(MachineKind Kind, unsigned N, const Program &P,
                       const GoalSpec &Goal = GoalSpec::sort()) {
  constexpr int Reps = 5;
  using Clock = std::chrono::steady_clock;
  bool Applicable = false;
  Clock::time_point Start = Clock::now();
  for (int I = 0; I != Reps; ++I) {
    ValidationReport R = validateJitKernel(Kind, N, P, Goal);
    Applicable = R.Applicable;
    if (R.Applicable && !R.Ok) {
      std::printf("ERROR: emitted kernel failed translation validation!\n");
      std::exit(1);
    }
  }
  if (!Applicable)
    return 0;
  auto Ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Start);
  return static_cast<uint64_t>(Ns.count()) / Reps;
}

} // namespace

int main(int argc, char **argv) {
  BenchArgs Args = parseBenchArgs(argc, argv);
  banner("bench_synthesis_headline",
         "section 5.2 headline synthesis-time table (Enum vs AlphaDev)");

  std::vector<std::string> EnumTimes;
  std::vector<std::string> Lengths;
  std::vector<std::string> LintStatus;
  std::vector<std::string> ValidateCost;
  // Smoke mode (the ctest entry) runs only the sub-second n=3 row.
  unsigned MaxN = Args.Smoke ? 3 : (isFullRun() ? 5 : 4);
  for (unsigned N = 3; N <= 5; ++N) {
    if (N > MaxN) {
      EnumTimes.push_back(Args.Smoke ? "(skipped: --smoke)"
                                     : "(gated: SKS_FULL=1)");
      Lengths.push_back("-");
      LintStatus.push_back("-");
      ValidateCost.push_back("-");
      continue;
    }
    Machine M(MachineKind::Cmov, N);
    SearchOptions Opts = bestEnumConfig(MachineKind::Cmov, N);
    Opts.Stop = StopToken().withDeadline(isFullRun() ? 4 * 3600.0 : 600.0);
    SearchResult R = synthesize(M, Opts);
    if (R.Found && !isCorrectKernel(M, R.Solutions.at(0))) {
      std::printf("ERROR: synthesized kernel failed verification!\n");
      return 1;
    }
    EnumTimes.push_back(R.Found ? formatDuration(R.Stats.Seconds)
                                : "timeout");
    Lengths.push_back(R.Found ? std::to_string(R.OptimalLength) : "-");
    // A minimal kernel must be lint-clean (no dead code / dead cmp / stale
    // flags / self-move); surface the check next to the timing so a search
    // regression that emits a removable instruction is visible here too.
    LintStatus.push_back(
        !R.Found ? "-"
                 : (isLintClean(R.Solutions.at(0), N)
                        ? (lintProgram(R.Solutions.at(0), N).empty()
                               ? "clean"
                               : "clean (notes)")
                        : "WARNINGS"));
    // Validator overhead per compile: the cost of statically proving the
    // JIT's emission of the winner. Belongs next to the synthesis time so
    // the "validate every compile" deployment cost is a table read-off.
    uint64_t ValNs =
        R.Found ? validateNanos(MachineKind::Cmov, N, R.Solutions.at(0)) : 0;
    char ValText[32];
    std::snprintf(ValText, sizeof(ValText), "%.1f us",
                  static_cast<double>(ValNs) / 1e3);
    ValidateCost.push_back(ValNs ? ValText : "-");
  }

  // One goal-predicate row: the select-2 (median-of-3) kernel at n = 3,
  // timed through the same best-enum configuration. Sub-second, so it runs
  // in smoke mode too and keeps the goal-generalized search covered by the
  // headline ctest entry.
  {
    const GoalSpec Goal = GoalSpec::selectK(2);
    Machine M(MachineKind::Cmov, 3, /*Scratch=*/1, Goal);
    SearchOptions Opts = bestEnumConfig(MachineKind::Cmov, 3);
    Opts.Stop = StopToken().withDeadline(600.0);
    SearchResult R = synthesize(M, Opts);
    if (!R.Found || !isCorrectKernel(M, R.Solutions.at(0))) {
      std::printf("ERROR: select-2 kernel %s!\n",
                  R.Found ? "failed verification" : "not found");
      return 1;
    }
    // Exits if the JIT's emission of the kernel fails validation.
    validateNanos(MachineKind::Cmov, 3, R.Solutions.at(0), Goal);
    std::printf("goal row: select-2 at n=3 — length %u in %s\n\n",
                R.OptimalLength, formatDuration(R.Stats.Seconds).c_str());
  }

  Table T({"Time", "n = 3", "n = 4", "n = 5"});
  T.row().cell("Enum, best (measured)").cell(EnumTimes[0]).cell(EnumTimes[1]).cell(EnumTimes[2]);
  T.row().cell("  kernel length").cell(Lengths[0]).cell(Lengths[1]).cell(Lengths[2]);
  T.row().cell("  lint").cell(LintStatus[0]).cell(LintStatus[1]).cell(LintStatus[2]);
  T.row().cell("  jit-validate / compile").cell(ValidateCost[0]).cell(ValidateCost[1]).cell(ValidateCost[2]);
  T.row().cell("Enum, best (paper)").cell("97 ms").cell("2443 ms").cell("11 min");
  T.row().cell("AlphaDev-RL (paper [13])").cell("6 min").cell("30 min").cell("~1050 min");
  T.row().cell("AlphaDev-S (paper [13])").cell("0.4 s").cell("0.6 s").cell("~345 min");
  T.print();

  std::printf("shape check: Enum beats AlphaDev-RL by >= 2 orders of "
              "magnitude at n = 3 and n = 4.\n");
  return 0;
}
