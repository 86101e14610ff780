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
// public). n = 5 is gated behind SKS_FULL (the paper used 16 cores; this
// container has one).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "lint/Lint.h"
#include "validate/SymbolicExec.h"
#include "verify/Verify.h"

#include <chrono>
#include <cstdlib>
#include <unistd.h>

using namespace sks;
using namespace sks::bench;

namespace {

/// Throwaway spill directory under TMPDIR (default /tmp); "" on failure
/// (read-only filesystem) — the attempt then stays resident.
std::string makeSpillDir() {
  const char *Base = std::getenv("TMPDIR");
  std::string Template =
      std::string(Base && *Base ? Base : "/tmp") + "/sks-headline-XXXXXX";
  std::vector<char> Buf(Template.begin(), Template.end());
  Buf.push_back('\0');
  if (!mkdtemp(Buf.data()))
    return "";
  return std::string(Buf.data());
}

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

  JsonResultWriter Json;
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
    Opts.TimeoutSeconds = isFullRun() ? 4 * 3600.0 : 600.0;
    SearchResult R = synthesize(M, Opts);
    Json.add("enum_best_n" + std::to_string(N), R);
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
    if (ValNs)
      Json.addValidateNanos(ValNs);
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
    Opts.TimeoutSeconds = 600.0;
    SearchResult R = synthesize(M, Opts);
    Json.add("enum_best_n3_select2", R, Goal.name());
    if (!R.Found || !isCorrectKernel(M, R.Solutions.at(0))) {
      std::printf("ERROR: select-2 kernel %s!\n",
                  R.Found ? "failed verification" : "not found");
      return 1;
    }
    if (uint64_t ValNs =
            validateNanos(MachineKind::Cmov, 3, R.Solutions.at(0), Goal))
      Json.addValidateNanos(ValNs);
    std::printf("goal row: select-2 at n=3 — length %u in %s\n\n",
                R.OptimalLength, formatDuration(R.Stats.Seconds).c_str());
  }

  // The n = 5 budget row: even when the full synthesis is gated, record a
  // bounded attempt with the compressed, spillable frontier so the
  // trajectory file carries either the first n = 5 datapoint or a
  // machine-readable infeasibility certificate (found=false plus
  // timed_out/memory_limited naming the budget that bound).
  if (!Args.Smoke) {
    Machine M5(MachineKind::Cmov, 5);
    SearchOptions Opts = bestEnumConfig(MachineKind::Cmov, 5);
    Opts.CompressFrontier = true;
    std::string SpillDir = makeSpillDir();
    Opts.SpillDir = SpillDir;
    Opts.SpillThresholdBytes = 1u << 20; // Spill beyond 1 MiB: the budget
                                         // run must exercise the disk tier.
    Opts.TimeoutSeconds = isFullRun() ? 4 * 3600.0 : 120.0;
    Opts.MaxStateBytes = isFullRun() ? (64ull << 30) : (2ull << 30);
    SearchResult R = synthesize(M5, Opts);
    Json.add("enum_n5_budget_compressed", R);
    std::printf("n=5 budget attempt (compressed+spill): %s in %s — "
                "states=%zu resident-peak=%zu spilled-peak=%zu\n\n",
                R.Found               ? "FOUND"
                : R.Stats.MemoryLimited ? "resident budget exhausted"
                : R.Stats.TimedOut      ? "timed out"
                                        : "bound exhausted",
                formatDuration(R.Stats.Seconds).c_str(),
                R.Stats.StatesExpanded, R.Stats.PeakResidentBytes,
                R.Stats.SpilledBytes);
    if (!SpillDir.empty())
      ::rmdir(SpillDir.c_str()); // Spill files are unlinked at creation.
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
  if (!Json.write(Args.JsonPath)) {
    std::fprintf(stderr, "error: cannot write %s\n", Args.JsonPath.c_str());
    return 1;
  }
  return 0;
}
