//===- tools/sks_synth.cpp - Command-line kernel synthesizer ---------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The user-facing synthesizer:
//
//   sks-synth --n 3                          synthesize a cmov kernel
//   sks-synth --n 4 --isa minmax             min/max (vector) kernel
//   sks-synth --n 3 --all                    enumerate all optimal kernels
//   sks-synth --n 3 --prove                  add a minimality certificate
//   sks-synth --n 3 --asm                    emit x86-64 assembly
//   sks-synth --n 3 --robust                 require correctness on any
//                                            distinct integers (not just
//                                            1..n; ties are not checked)
//   sks-synth --n 3 --schedule               list-schedule the kernel
//   sks-synth --n 3 --export-minizinc m.mzn  write the CP model
//   sks-synth --n 3 --export-pddl dom.pddl prob.pddl
//
// Options mirroring the paper's section 3 knobs: --heuristic
// perm|assign|needed|none, --cut <k>, --timeout <s>, --max-length <L>.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/Pipeline.h"
#include "codegen/AsmEmitter.h"
#include "cp/MiniZincExport.h"
#include "driver/Backend.h"
#include "driver/Portfolio.h"
#include "planning/Pddl.h"
#include "search/Search.h"
#include "service/Protocol.h"
#include "service/SynthService.h"
#include "support/Timing.h"
#include "validate/SymbolicExec.h"
#include "verify/Verify.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>

#include <fcntl.h>
#include <unistd.h>

using namespace sks;

namespace {

struct CliOptions {
  unsigned N = 3;
  MachineKind Kind = MachineKind::Cmov;
  HeuristicKind Heuristic = HeuristicKind::PermCount;
  double Cut = 1.0;
  bool NoCut = false;
  bool All = false;
  bool Prove = false;
  bool EmitAsm = false;
  bool RequireRobust = false;
  bool Schedule = false;
  bool SyntacticPrune = false;
  bool SemanticPrune = false;
  bool Symmetry = false;
  bool Profile = false;
  double Timeout = 0;
  unsigned MaxLength = 0;
  unsigned Threads = 1;
  size_t MaxStateBytes = 0;
  bool CompressFrontier = false;
  std::string SpillDir;
  size_t SpillThresholdBytes = 0;
  std::string MiniZincPath;
  std::string PddlDomainPath, PddlProblemPath;
  /// Backend-interface mode: a name from backendNames(), or "portfolio".
  /// Empty selects the legacy enumerative flow below.
  std::string Backend;
  /// Content-addressed kernel cache directory for --backend runs; empty
  /// runs uncached.
  std::string CacheDir;
  SynthGoal Goal = SynthGoal::MinLength;
  /// Goal predicate the synthesized kernel must establish (machine/Goal.h):
  /// full sortedness by default, or a selection/partial-sort objective.
  GoalSpec GoalPred = GoalSpec::sort();
  /// Statically prove the JIT's x86-64 emission of the result computes the
  /// kernel's function (validate/SymbolicExec.h) — both the scalar and the
  /// packed key-payload path. With --backend it gates the outcome.
  bool ValidateJit = false;
};

void usage(const char *Argv0) {
  std::printf(
      "usage: %s --n <2..6> [options]\n"
      "  --isa cmov|minmax       instruction set (default cmov)\n"
      "  --backend enum|smt|cp|ilp|stoke|mcts|plan|portfolio\n"
      "                          run one synthesis substrate through the\n"
      "                          unified driver (portfolio races them all\n"
      "                          and cancels the losers); --timeout is the\n"
      "                          shared deadline for every backend\n"
      "  --goal first|minlength  what --backend runs optimize for\n"
      "                          (default minlength)\n"
      "  --goal-pred sort|select-<k>|top-<k>|partial-sort-<p>\n"
      "                          goal predicate the kernel must establish\n"
      "                          (default sort; k and p range over 1..n)\n"
      "  --cache-dir <dir>       content-addressed kernel cache for\n"
      "                          --backend runs: hits are re-verified and\n"
      "                          answered without running any backend\n"
      "  --validate-jit          statically prove the JIT's x86-64 emission\n"
      "                          of the result (scalar and key-payload\n"
      "                          paths) computes the kernel's function;\n"
      "                          with --backend a validation failure\n"
      "                          demotes the outcome\n"
      "  --heuristic perm|assign|needed|none\n"
      "  --cut <k>               permutation-count cut factor (default 1)\n"
      "  --no-cut                disable the cut (optimality-preserving)\n"
      "  --all                   enumerate ALL optimal kernels\n"
      "  --prove                 certify minimality (exhaust length-1)\n"
      "  --asm                   print x86-64 assembly\n"
      "  --robust                require correctness on every input of\n"
      "                          distinct ints (inputs with ties are not\n"
      "                          checked)\n"
      "  --schedule              list-schedule the kernel for ILP\n"
      "  --syntactic-prune       refuse expansions that plant dead code\n"
      "                          (sound; preserves the optimal count)\n"
      "  --semantic-prune        refuse expansions the order-domain\n"
      "                          abstract interpreter proves redundant\n"
      "                          (sound; preserves the optimal count)\n"
      "  --symmetry              quotient states by scratch-register\n"
      "                          renaming and the lt/gt flag involution\n"
      "                          (sound; solutions lifted back to original\n"
      "                          names; cmov/hybrid only)\n"
      "  --profile               print the per-stage expansion-pipeline\n"
      "                          time breakdown (apply/canonicalize/\n"
      "                          viability/merge)\n"
      "  --timeout <seconds>     wall-clock budget\n"
      "  --max-length <L>        length bound (default: network size)\n"
      "  --threads <T>           worker threads; more than one runs the\n"
      "                          layered engine\n"
      "  --max-state-bytes <B>   abort when the state store exceeds B bytes\n"
      "                          (resident bytes; spilled levels don't count)\n"
      "  --compress-frontier     delta+varint-compress committed levels once\n"
      "                          they leave the frontier (layered engines;\n"
      "                          preserves counts and the solution set)\n"
      "  --spill-dir <dir>       spill compressed levels to temp files in\n"
      "                          <dir> once they exceed the threshold\n"
      "                          (implies --compress-frontier)\n"
      "  --spill-threshold-bytes <B>\n"
      "                          keep at most B compressed bytes resident\n"
      "                          before spilling (default 0: spill all)\n"
      "  --export-minizinc <path>\n"
      "  --export-pddl <domain> <problem>\n",
      Argv0);
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    // Numeric values follow the wire protocol's number rules: the whole
    // value must parse, and a negative, non-finite or out-of-range value
    // is a usage error rather than a silently different budget.
    auto Count = [&](unsigned long long Max, auto &Out) {
      const char *V = Next();
      unsigned long long Parsed = 0;
      if (!V || !parseCount(V, Max, Parsed))
        return false;
      Out = static_cast<std::remove_reference_t<decltype(Out)>>(Parsed);
      return true;
    };
    auto Number = [&](double &Out) {
      const char *V = Next();
      return V && parseNonNegative(V, Out);
    };
    if (Arg == "--n") {
      if (!Count(6, Opts.N))
        return false;
    } else if (Arg == "--isa") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "cmov") == 0)
        Opts.Kind = MachineKind::Cmov;
      else if (std::strcmp(V, "minmax") == 0)
        Opts.Kind = MachineKind::MinMax;
      else
        return false;
    } else if (Arg == "--heuristic") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "perm") == 0)
        Opts.Heuristic = HeuristicKind::PermCount;
      else if (std::strcmp(V, "assign") == 0)
        Opts.Heuristic = HeuristicKind::AssignCount;
      else if (std::strcmp(V, "needed") == 0)
        Opts.Heuristic = HeuristicKind::NeededInstrs;
      else if (std::strcmp(V, "none") == 0)
        Opts.Heuristic = HeuristicKind::None;
      else
        return false;
    } else if (Arg == "--backend") {
      const char *V = Next();
      if (!V)
        return false;
      if (!isBackendPolicy(V)) {
        std::fprintf(stderr, "error: unknown backend '%s'\n", V);
        return false;
      }
      Opts.Backend = V;
    } else if (Arg == "--cache-dir") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.CacheDir = V;
    } else if (Arg == "--goal") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "first") == 0)
        Opts.Goal = SynthGoal::FirstKernel;
      else if (std::strcmp(V, "minlength") == 0)
        Opts.Goal = SynthGoal::MinLength;
      else
        return false;
    } else if (Arg == "--goal-pred") {
      const char *V = Next();
      if (!V)
        return false;
      if (!GoalSpec::parse(V, Opts.GoalPred)) {
        std::fprintf(stderr, "error: unknown goal predicate '%s'; valid: %s\n",
                     V, GoalSpec::validNames());
        return false;
      }
    } else if (Arg == "--validate-jit") {
      Opts.ValidateJit = true;
    } else if (Arg == "--cut") {
      if (!Number(Opts.Cut))
        return false;
    } else if (Arg == "--no-cut") {
      Opts.NoCut = true;
    } else if (Arg == "--all") {
      Opts.All = true;
    } else if (Arg == "--prove") {
      Opts.Prove = true;
    } else if (Arg == "--asm") {
      Opts.EmitAsm = true;
    } else if (Arg == "--robust") {
      Opts.RequireRobust = true;
    } else if (Arg == "--schedule") {
      Opts.Schedule = true;
    } else if (Arg == "--syntactic-prune") {
      Opts.SyntacticPrune = true;
    } else if (Arg == "--semantic-prune") {
      Opts.SemanticPrune = true;
    } else if (Arg == "--symmetry") {
      Opts.Symmetry = true;
    } else if (Arg == "--profile") {
      Opts.Profile = true;
    } else if (Arg == "--timeout") {
      if (!Number(Opts.Timeout))
        return false;
    } else if (Arg == "--max-length") {
      if (!Count(kMaxLengthLimit, Opts.MaxLength))
        return false;
    } else if (Arg == "--threads") {
      if (!Count(kMaxThreads, Opts.Threads))
        return false;
    } else if (Arg == "--max-state-bytes") {
      if (!Count(SIZE_MAX, Opts.MaxStateBytes))
        return false;
    } else if (Arg == "--compress-frontier") {
      Opts.CompressFrontier = true;
    } else if (Arg == "--spill-dir") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.SpillDir = V;
      Opts.CompressFrontier = true; // Spilling is a tier of compression.
    } else if (Arg == "--spill-threshold-bytes") {
      if (!Count(SIZE_MAX, Opts.SpillThresholdBytes))
        return false;
    } else if (Arg == "--export-minizinc") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.MiniZincPath = V;
    } else if (Arg == "--export-pddl") {
      const char *Domain = Next();
      const char *Problem = Next();
      if (!Domain || !Problem)
        return false;
      Opts.PddlDomainPath = Domain;
      Opts.PddlProblemPath = Problem;
    } else {
      return false;
    }
  }
  return Opts.N >= 2;
}

/// Prints one driver outcome as a comment line: backend, status, wall
/// time, and the backend-specific counters.
void printOutcome(const SynthOutcome &O) {
  std::printf("; backend=%s status=%s verified=%s time=%s",
              O.BackendName.c_str(), statusName(O.Status),
              O.Verified ? "yes" : "no",
              formatDuration(O.Seconds).c_str());
  for (const auto &[Key, Value] : O.Stats)
    std::printf(" %s=%llu", Key.c_str(),
                static_cast<unsigned long long>(Value));
  std::printf("\n");
}

/// --backend mode: one substrate (or the portfolio race) through the
/// unified driver. \returns the process exit code.
int runBackendMode(const CliOptions &Cli) {
  SynthRequest Req;
  Req.N = Cli.N;
  Req.Kind = Cli.Kind;
  Req.Goal = Cli.Goal;
  Req.GoalPred = Cli.GoalPred;
  Req.MaxLength = Cli.MaxLength;
  Req.TimeoutSeconds = Cli.Timeout; // The shared deadline, every backend.
  Req.NumThreads = Cli.Threads;
  Req.ValidateJit = Cli.ValidateJit;

  SynthOutcome Winner;
  if (!Cli.CacheDir.empty()) {
    // Cached mode routes through the service layer: a hit is re-verified
    // on load and answered without running any backend; a miss runs the
    // selected policy and stores the verified kernel for next time.
    ServiceOptions SO;
    SO.CacheDir = Cli.CacheDir;
    SO.Workers = 1;
    SynthService Service(SO);
    if (!Service.cache() || !Service.cache()->valid()) {
      std::fprintf(stderr, "error: cannot use cache dir '%s'\n",
                   Cli.CacheDir.c_str());
      return 2;
    }
    Req.BackendPolicy = Cli.Backend;
    bool Cached = false;
    Winner = Service.synthesize(Req, &Cached);
    std::printf("; cache=%s dir=%s\n", Cached ? "hit" : "miss",
                Cli.CacheDir.c_str());
    // Cache hits bypass Backend::run; apply the same validation gate to
    // the stored kernel (idempotent on misses, which were gated already).
    applyJitValidationGate(Req, Winner);
  } else if (Cli.Backend == "portfolio") {
    std::vector<std::unique_ptr<Backend>> Backends;
    for (const std::string &Name : backendNames())
      Backends.push_back(createBackend(Name));
    if (Req.NumThreads <= 1)
      Req.NumThreads = static_cast<unsigned>(Backends.size());
    PortfolioResult R = runPortfolio(Backends, Req);
    for (size_t I = 0; I != R.Outcomes.size(); ++I)
      if (I != R.WinnerIndex)
        printOutcome(R.Outcomes[I]);
    Winner = R.Winner;
  } else {
    Winner = createBackend(Cli.Backend)->run(Req);
  }

  printOutcome(Winner);
  if (Winner.Kernel.empty() || !Winner.Verified) {
    std::fprintf(stderr, "no verified kernel (%s)\n",
                 statusName(Winner.Status));
    return 1;
  }
  std::printf("; n=%u length=%zu\n", Cli.N, Winner.Kernel.size());
  if (Cli.EmitAsm)
    std::printf("%s", emitAsmText(Cli.Kind, Cli.N, Winner.Kernel).c_str());
  else
    std::printf("%s", toString(Winner.Kernel, Cli.N).c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Cli;
  if (!parseArgs(Argc, Argv, Cli)) {
    usage(Argv[0]);
    return 2;
  }

  if (!Cli.GoalPred.validFor(Cli.N)) {
    std::fprintf(stderr,
                 "error: --goal-pred parameter out of range for --n %u "
                 "(valid: %s)\n",
                 Cli.N, GoalSpec::validNames());
    return 2;
  }
  // The CP and planning exports encode full sortedness as the goal state;
  // refuse the combination instead of writing a model for the wrong
  // objective.
  if (!Cli.GoalPred.isSort() &&
      (!Cli.MiniZincPath.empty() || !Cli.PddlDomainPath.empty())) {
    std::fprintf(stderr,
                 "error: --export-minizinc/--export-pddl only model the "
                 "sort goal; they cannot be combined with --goal-pred\n");
    return 2;
  }

  if (!Cli.CacheDir.empty() && Cli.Backend.empty()) {
    std::fprintf(stderr,
                 "error: --cache-dir requires --backend (the cache key is "
                 "a driver request; the legacy enumerative flow does not "
                 "go through the driver)\n");
    return 2;
  }

  // Reject --symmetry where the quotient is unimplemented or trivial
  // instead of silently ignoring the flag.
  if (Cli.Symmetry && !Cli.Backend.empty()) {
    std::fprintf(stderr,
                 "error: --symmetry is only implemented for the enumerative "
                 "engines; it cannot be combined with --backend\n");
    return 2;
  }
  if (Cli.Symmetry && Cli.Kind == MachineKind::MinMax) {
    std::fprintf(stderr,
                 "error: --symmetry has no effect for --isa minmax: the "
                 "machine has no flags and a single scratch register, so "
                 "the renaming group is trivial\n");
    return 2;
  }
  if (Cli.CompressFrontier && !Cli.Backend.empty()) {
    std::fprintf(stderr,
                 "error: --compress-frontier/--spill-dir are only "
                 "implemented for the enumerative engines; they cannot be "
                 "combined with --backend\n");
    return 2;
  }
  if (!Cli.SpillDir.empty()) {
    // Fail fast on a bad spill directory instead of silently running
    // resident: probe it with a create+unlink before any search starts.
    std::string Probe = Cli.SpillDir + "/sks-spill-probe-" +
                        std::to_string(::getpid());
    int Fd = ::open(Probe.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC,
                    0600);
    if (Fd < 0) {
      std::fprintf(stderr,
                   "error: --spill-dir '%s' is not a writable directory\n",
                   Cli.SpillDir.c_str());
      return 2;
    }
    ::close(Fd);
    ::unlink(Probe.c_str());
  }

  if (!Cli.Backend.empty())
    return runBackendMode(Cli);

  Machine M(Cli.Kind, Cli.N, /*Scratch=*/1, Cli.GoalPred);
  unsigned Bound =
      Cli.MaxLength ? Cli.MaxLength : networkUpperBound(Cli.Kind, Cli.N);

  if (!Cli.MiniZincPath.empty()) {
    CpOptions Cp;
    Cp.Length = Bound;
    if (!writeMiniZinc(M, Cp, Cli.MiniZincPath)) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   Cli.MiniZincPath.c_str());
      return 1;
    }
    std::printf("wrote MiniZinc model to %s\n", Cli.MiniZincPath.c_str());
  }
  if (!Cli.PddlDomainPath.empty()) {
    if (!writePddl(M, Cli.PddlDomainPath, Cli.PddlProblemPath)) {
      std::fprintf(stderr, "error: cannot write PDDL files\n");
      return 1;
    }
    std::printf("wrote PDDL to %s / %s\n", Cli.PddlDomainPath.c_str(),
                Cli.PddlProblemPath.c_str());
  }

  SearchOptions Opts;
  Opts.Heuristic = Cli.All ? HeuristicKind::None : Cli.Heuristic;
  Opts.UseViability = true;
  if (!Cli.NoCut && !Cli.All)
    Opts.Cut = CutConfig::mult(Cli.Cut);
  Opts.MaxLength = Bound;
  Opts.FindAll = Cli.All;
  Opts.SyntacticPrune = Cli.SyntacticPrune;
  Opts.SemanticPrune = Cli.SemanticPrune;
  Opts.SymmetryReduce = Cli.Symmetry;
  Opts.Stop = StopToken().withDeadline(Cli.Timeout);
  Opts.NumThreads = Cli.Threads;
  Opts.MaxStateBytes = Cli.MaxStateBytes;
  Opts.ProfilePipeline = Cli.Profile;
  Opts.CompressFrontier = Cli.CompressFrontier;
  Opts.SpillDir = Cli.SpillDir;
  Opts.SpillThresholdBytes = Cli.SpillThresholdBytes;

  Stopwatch Timer;
  SearchResult R = synthesize(M, Opts);
  if (!R.Found) {
    std::fprintf(stderr, "no kernel found within the budget (%s)\n",
                 R.Stats.Stopped == StopReason::None
                     ? "bound exhausted"
                     : stopReasonName(R.Stats.Stopped));
    return 1;
  }

  std::printf("; n=%u isa=%s length=%u states=%zu peak-state-bytes=%zu "
              "time=%s\n",
              Cli.N, Cli.Kind == MachineKind::Cmov ? "cmov" : "minmax",
              R.OptimalLength, R.Stats.StatesExpanded,
              R.Stats.PeakStateBytes,
              formatDuration(Timer.seconds()).c_str());
  if (Cli.SyntacticPrune)
    std::printf("; syntactic prune: %zu expansions refused\n",
                R.Stats.SyntacticPruned);
  if (Cli.SemanticPrune)
    std::printf("; semantic prune: %zu expansions refused\n",
                R.Stats.SemanticPruned);
  if (Cli.Symmetry)
    std::printf("; symmetry quotient: %zu candidates merged onto canonical "
                "representatives\n",
                R.Stats.SymmetryMerged);
  if (Cli.CompressFrontier) {
    const double Ratio =
        R.Stats.CompressedRawBytes
            ? static_cast<double>(R.Stats.CompressedBytes) /
                  static_cast<double>(R.Stats.CompressedRawBytes)
            : 0.0;
    std::printf("; frontier compression: %zu -> %zu bytes (%.1f%%), peak "
                "resident %zu bytes, %zu block decodes (%.1f ms)\n",
                R.Stats.CompressedRawBytes, R.Stats.CompressedBytes,
                100.0 * Ratio, R.Stats.PeakResidentBytes,
                R.Stats.BlocksDecoded, R.Stats.DecodeNanos / 1e6);
    if (!Cli.SpillDir.empty())
      std::printf("; spill: %zu bytes on disk at peak (dir %s)\n",
                  R.Stats.SpilledBytes, Cli.SpillDir.c_str());
  }
  if (Cli.Profile) {
    auto Ms = [](uint64_t Nanos) { return Nanos / 1e6; };
    std::printf("; pipeline profile: apply %.1f ms, canonicalize %.1f ms, "
                "viability %.1f ms, merge %.1f ms\n",
                Ms(R.Stats.ApplyNanos), Ms(R.Stats.CanonNanos),
                Ms(R.Stats.ViabilityNanos), Ms(R.Stats.MergeNanos));
  }
  if (Cli.All)
    std::printf("; %llu optimal kernels in total\n",
                static_cast<unsigned long long>(R.SolutionCount));

  // Pick the kernel to print: structurally best (and robust if required).
  const Program *Chosen = nullptr;
  for (const Program &P : R.Solutions) {
    if (Cli.RequireRobust && !isRobustKernel(M, P))
      continue;
    if (!Chosen ||
        std::pair(kernelScore(P), criticalPathLength(P)) <
            std::pair(kernelScore(*Chosen), criticalPathLength(*Chosen)))
      Chosen = &P;
  }
  if (!Chosen) {
    std::fprintf(stderr, "no %skernel among the solutions\n",
                 Cli.RequireRobust ? "robust " : "");
    return 1;
  }
  Program Final = *Chosen;
  if (Cli.Schedule) {
    Final = scheduleProgram(Final);
    std::printf("; scheduled: latency bound %.0f -> %.0f cycles\n",
                estimateThroughput(*Chosen).LatencyBound,
                estimateThroughput(Final).LatencyBound);
  }
  if (!isCorrectKernel(M, Final)) {
    std::fprintf(stderr, "internal error: kernel failed verification\n");
    return 1;
  }
  if (Cli.ValidateJit) {
    ValidationReport Scalar =
        validateJitKernel(Cli.Kind, Cli.N, Final, Cli.GoalPred);
    ValidationReport Pair =
        validateJitPairKernel(Cli.Kind, Cli.N, Final, Cli.GoalPred);
    std::printf("; jit-validate: scalar %s (%u boolean + %u order vectors), "
                "pair %s (%u order vectors)\n",
                Scalar.summary().c_str(), Scalar.BooleanVectors,
                Scalar.OrderVectors, Pair.summary().c_str(),
                Pair.OrderVectors);
    if ((Scalar.Applicable && !Scalar.Ok) || (Pair.Applicable && !Pair.Ok)) {
      std::fprintf(stderr,
                   "error: JIT translation validation failed for the "
                   "synthesized kernel\n");
      return 1;
    }
  }
  std::printf("; score=%u critical-path=%u est-cycles=%.2f robust=%s\n",
              kernelScore(Final), criticalPathLength(Final),
              estimateThroughput(Final).Cycles,
              isRobustKernel(M, Final) ? "yes" : "NO");
  if (Cli.EmitAsm)
    std::printf("%s", emitAsmText(Cli.Kind, Cli.N, Final).c_str());
  else
    std::printf("%s", toString(Final, Cli.N).c_str());

  if (Cli.Prove) {
    SearchResult Proof;
    bool Minimal = proveNoKernelOfLength(
        M, R.OptimalLength - 1, Proof, nullptr,
        StopToken().withDeadline(Cli.Timeout > 0 ? Cli.Timeout : 3600));
    if (Minimal)
      std::printf("; minimality: PROVEN (length-(L-1) space exhausted)\n");
    else if (Proof.Found)
      std::printf("; minimality: REFUTED (shorter kernel exists!)\n");
    else
      std::printf("; minimality: unproven (%s)\n",
                  stopReasonName(Proof.Stats.Stopped));
  }
  return 0;
}
