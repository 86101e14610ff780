//===- driver/Backends.cpp - Substrate adapters ----------------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// One adapter per substrate. The adapters translate the request into the
// substrate's native options, hand over the stop token (the only carrier
// of the request deadline, so construction phases and nested solvers
// observe it too), run it, and map the native result onto the shared
// status taxonomy:
//
//   - complete substrates (enum, smt, cp, ilp, plan) report Infeasible
//     when they exhaust the space below the length bound without a kernel
//     — that is a proof;
//   - stochastic substrates (stoke, mcts) report Exhausted when their
//     iteration budget runs out — that proves nothing.
//
//===----------------------------------------------------------------------===//

#include "driver/Backends.h"

#include "ilp/IlpSynth.h"
#include "planning/PlanSynth.h"
#include "search/Search.h"
#include "support/Timing.h"
#include "validate/SymbolicExec.h"
#include "verify/Verify.h"
#include "verify/ZeroOne.h"

using namespace sks;

const char *sks::statusName(SynthStatus S) {
  switch (S) {
  case SynthStatus::Found:
    return "found";
  case SynthStatus::Optimal:
    return "optimal";
  case SynthStatus::Exhausted:
    return "exhausted";
  case SynthStatus::TimedOut:
    return "timeout";
  case SynthStatus::Cancelled:
    return "cancelled";
  case SynthStatus::Infeasible:
    return "infeasible";
  case SynthStatus::Rejected:
    return "rejected";
  }
  return "unknown";
}

bool sks::statusFromName(const std::string &Name, SynthStatus &Out) {
  for (SynthStatus S :
       {SynthStatus::Found, SynthStatus::Optimal, SynthStatus::Exhausted,
        SynthStatus::TimedOut, SynthStatus::Cancelled, SynthStatus::Infeasible,
        SynthStatus::Rejected}) {
    if (Name == statusName(S)) {
      Out = S;
      return true;
    }
  }
  return false;
}

unsigned SynthRequest::lengthBound() const {
  return MaxLength > 0 ? MaxLength : networkUpperBound(Kind, N);
}

SynthOutcome Backend::run(const SynthRequest &Req) const {
  Stopwatch Timer;
  Machine M(Req.Kind, Req.N, Req.Scratch, Req.GoalPred);
  StopToken Stop = Req.Stop.withDeadline(Req.TimeoutSeconds);

  SynthOutcome Outcome;
  if (Stop.stopRequested())
    Outcome.Status = SynthStatus::TimedOut; // Refined below.
  else
    Outcome = runImpl(M, Req, Stop);
  Outcome.BackendName = BackendName;

  // Universal verification gate: no backend's claim leaves the driver
  // unchecked, however the substrate produced the kernel. Kernels built
  // from mov/pmin/pmax only are certified statically by the 0-1 principle
  // (verify/ZeroOne.h, 2^n bit-parallel vectors — equivalent to and
  // cross-checked against the n! interpreter run); everything else takes
  // the n!-permutation path.
  if (!Outcome.Kernel.empty()) {
    ZeroOneReport ZO = zeroOneCheck(M, Outcome.Kernel);
    if (ZO.Applicable) {
      Outcome.Verified = ZO.Correct;
      Outcome.Stats.emplace_back("zero_one_vectors", ZO.VectorCount);
    } else {
      Outcome.Verified = isCorrectKernel(M, Outcome.Kernel);
    }
  }
  if ((Outcome.Status == SynthStatus::Found ||
       Outcome.Status == SynthStatus::Optimal) &&
      !Outcome.Verified) {
    // A substrate reported success with a wrong kernel — a bug there, but
    // the driver must not surface it as success.
    Outcome.Kernel.clear();
    Outcome.Status = SynthStatus::Exhausted;
    Outcome.Stats.emplace_back("verify_failed", 1);
  }

  // Optional translation-validation gate (--validate-jit): after the
  // kernel is verified against the model, additionally prove the JIT's
  // x86-64 emission of it — both the scalar and the packed key-payload
  // path — computes the same function (validate/SymbolicExec.h). A
  // failure here is a codegen bug, not a synthesis bug, but the driver
  // must not hand out a kernel whose executable form is unproven.
  applyJitValidationGate(Req, Outcome);

  if (Outcome.Status == SynthStatus::TimedOut && !Stop.deadlineExpired() &&
      Stop.cancelRequested())
    Outcome.Status = SynthStatus::Cancelled;

  Outcome.Seconds = Timer.seconds();
  return Outcome;
}

void sks::applyJitValidationGate(const SynthRequest &Req,
                                 SynthOutcome &Outcome) {
  if (!Req.ValidateJit || Outcome.Kernel.empty() || !Outcome.Verified)
    return;
  for (const auto &[Key, Value] : Outcome.Stats)
    if (Key == "jit_validated")
      return; // Already gated (Backend::run ran before the cache stored it).
  ValidationReport Scalar =
      validateJitKernel(Req.Kind, Req.N, Outcome.Kernel, Req.GoalPred);
  ValidationReport Pair =
      validateJitPairKernel(Req.Kind, Req.N, Outcome.Kernel, Req.GoalPred);
  const bool AnyApplicable = Scalar.Applicable || Pair.Applicable;
  const bool AllOk =
      (!Scalar.Applicable || Scalar.Ok) && (!Pair.Applicable || Pair.Ok);
  if (!AnyApplicable)
    return; // Hybrid: no JIT emission path to prove.
  Outcome.Stats.emplace_back("jit_validated", AllOk ? 1 : 0);
  if (!AllOk) {
    Outcome.Kernel.clear();
    Outcome.Verified = false;
    Outcome.Status = SynthStatus::Exhausted;
    Outcome.Stats.emplace_back("jit_validate_failed", 1);
  }
}

namespace {

/// Substrates whose native encodings hard-code the sortedness objective
/// (SMT/CP/ILP constraint rows, the STRIPS goal grounding) refuse non-sort
/// requests here. The status is Exhausted — "this backend has nothing to
/// say" — and never Infeasible, which would falsely claim a proof that no
/// kernel exists. \returns true when the request was rejected.
bool rejectNonSortGoal(const Machine &M, SynthOutcome &Outcome) {
  if (M.goal().isSort())
    return false;
  Outcome.Status = SynthStatus::Exhausted;
  Outcome.Stats.emplace_back("unsupported_goal", 1);
  return true;
}

/// Enumerative search (best-first / layered engines).
class EnumBackend final : public Backend {
public:
  EnumBackend() : Backend("enum", /*OptimalCapable=*/true) {}

protected:
  SynthOutcome runImpl(const Machine &M, const SynthRequest &Req,
                       const StopToken &Stop) const override {
    // FirstKernel: the paper's configuration (III). MinLength: the
    // admissible per-assignment bound, uncut, makes the first best-first
    // goal provably minimal.
    SearchOptions Opts = bestEnumConfig(Req.Kind, Req.N);
    if (Req.Goal == SynthGoal::MinLength) {
      Opts.Heuristic = HeuristicKind::NeededInstrs;
      Opts.Cut = CutConfig::none();
    }
    Opts.Stop = Stop;
    Opts.MaxLength = Req.lengthBound();
    Opts.NumThreads = Req.NumThreads;
    DistanceTable Table(M);
    SearchResult R = synthesize(M, Opts, &Table);
    // A bound the cut exhausted after discarding states is no proof: the
    // uncut rerun decides, and its counters describe the outcome.
    const size_t CutStates = R.Stats.CutStates;
    if (!R.Found && R.Stats.Stopped == StopReason::None && CutStates > 0) {
      Opts.Cut = CutConfig::none();
      R = synthesize(M, Opts, &Table);
    }

    SynthOutcome Outcome;
    if (R.Found && !R.Solutions.empty()) {
      Outcome.Kernel = R.Solutions.front();
      Outcome.Status = Req.Goal == SynthGoal::MinLength ? SynthStatus::Optimal
                                                        : SynthStatus::Found;
    } else {
      // The deciding run cut nothing, so it pruned by dedup and the
      // admissible viability bound only: exhaustion is a proof. A byte
      // budget is an internal budget, which proves nothing.
      const StopReason Why = R.Stats.Stopped;
      Outcome.Status = Why == StopReason::None       ? SynthStatus::Infeasible
                       : Why == StopReason::Deadline  ? SynthStatus::TimedOut
                       : Why == StopReason::Cancelled ? SynthStatus::Cancelled
                                                      : SynthStatus::Exhausted;
    }
    Outcome.Stats.emplace_back("states_expanded", R.Stats.StatesExpanded);
    Outcome.Stats.emplace_back("states_generated", R.Stats.StatesGenerated);
    Outcome.Stats.emplace_back("dedup_hits", R.Stats.DedupHits);
    Outcome.Stats.emplace_back("peak_state_bytes", R.Stats.PeakStateBytes);
    Outcome.Stats.emplace_back("cut_states", CutStates);
    return Outcome;
  }
};

/// Bit-blasted SMT synthesis: iterates lengths from 1 for MinLength,
/// solves single-shot at the bound for FirstKernel (the paper's table
/// semantics).
class SmtBackend final : public Backend {
public:
  SmtBackend(SmtOptions Native, std::string Name)
      : Backend(std::move(Name), /*OptimalCapable=*/true),
        Native(std::move(Native)) {}

protected:
  SynthOutcome runImpl(const Machine &M, const SynthRequest &Req,
                       const StopToken &Stop) const override {
    SynthOutcome Rejected;
    if (rejectNonSortGoal(M, Rejected))
      return Rejected;
    SmtOptions Opts = Native;
    Opts.Stop = Stop;
    SmtResult R;
    if (Req.Goal == SynthGoal::MinLength) {
      Opts.Length = 1;
      R = smtSynthesizeIterative(M, Opts, Req.lengthBound());
    } else {
      Opts.Length = Req.lengthBound();
      R = smtSynthesize(M, Opts);
    }

    SynthOutcome Outcome;
    if (R.Found) {
      Outcome.Kernel = R.P;
      // Iterating from length 1 proves every shorter length UNSAT, so a
      // find is a certified minimum.
      Outcome.Status = Req.Goal == SynthGoal::MinLength ? SynthStatus::Optimal
                                                        : SynthStatus::Found;
    } else {
      Outcome.Status =
          R.TimedOut ? SynthStatus::TimedOut : SynthStatus::Infeasible;
    }
    Outcome.Stats.emplace_back("cegis_iterations", R.CegisIterations);
    Outcome.Stats.emplace_back("sat_vars", R.NumVars);
    Outcome.Stats.emplace_back("sat_clauses", R.NumClauses);
    return Outcome;
  }

private:
  SmtOptions Native;
};

/// Finite-domain CP synthesis: iterates lengths from 1 for MinLength,
/// solves single-shot at the bound for FirstKernel.
class CpBackend final : public Backend {
public:
  CpBackend(CpOptions Native, std::string Name)
      : Backend(std::move(Name), /*OptimalCapable=*/true),
        Native(std::move(Native)) {}

protected:
  SynthOutcome runImpl(const Machine &M, const SynthRequest &Req,
                       const StopToken &Stop) const override {
    SynthOutcome Outcome;
    if (rejectNonSortGoal(M, Outcome))
      return Outcome;
    uint64_t Backtracks = 0, Propagations = 0;
    Outcome.Status = SynthStatus::Infeasible;
    unsigned First =
        Req.Goal == SynthGoal::MinLength ? 1 : Req.lengthBound();
    for (unsigned Length = First; Length <= Req.lengthBound(); ++Length) {
      CpOptions Opts = Native;
      Opts.Stop = Stop;
      Opts.Length = Length;
      CpResult R = cpSynthesize(M, Opts);
      Backtracks += R.Backtracks;
      Propagations += R.Propagations;
      if (R.Found) {
        Outcome.Kernel = R.P;
        // In the iterative mode every shorter length was exhausted first.
        Outcome.Status = Req.Goal == SynthGoal::MinLength ? SynthStatus::Optimal
                                                          : SynthStatus::Found;
        break;
      }
      if (R.TimedOut) {
        Outcome.Status = SynthStatus::TimedOut;
        break;
      }
    }
    Outcome.Stats.emplace_back("backtracks", Backtracks);
    Outcome.Stats.emplace_back("propagations", Propagations);
    return Outcome;
  }

private:
  CpOptions Native;
};

/// ILP branch-and-bound at the exact request bound (the route's natural
/// formulation; the paper's ILP rows never solved beyond toy sizes).
class IlpBackend final : public Backend {
public:
  IlpBackend() : Backend("ilp", /*OptimalCapable=*/false) {}

protected:
  SynthOutcome runImpl(const Machine &M, const SynthRequest &Req,
                       const StopToken &Stop) const override {
    SynthOutcome Outcome;
    if (rejectNonSortGoal(M, Outcome))
      return Outcome;
    if (M.kind() != MachineKind::Cmov) {
      // The ILP encoding models the cmov machine only.
      Outcome.Status = SynthStatus::Infeasible;
      Outcome.Stats.emplace_back("unsupported_machine", 1);
      return Outcome;
    }
    IlpSynthOptions Opts;
    Opts.Length = Req.lengthBound();
    Opts.Stop = Stop;
    IlpSynthResult R = ilpSynthesize(M, Opts);

    if (R.Found) {
      Outcome.Kernel = R.P;
      Outcome.Status = SynthStatus::Found;
    } else {
      // Infeasibility here only proves "no kernel of exactly this length".
      Outcome.Status =
          R.TimedOut ? SynthStatus::TimedOut : SynthStatus::Infeasible;
    }
    Outcome.Stats.emplace_back("lp_vars", R.NumVars);
    Outcome.Stats.emplace_back("lp_rows", R.NumRows);
    Outcome.Stats.emplace_back("bnb_nodes", R.Nodes);
    return Outcome;
  }
};

/// STOKE-style MCMC at the request bound.
class StokeBackend final : public Backend {
public:
  StokeBackend(StokeOptions Native, std::string Name)
      : Backend(std::move(Name), /*OptimalCapable=*/false),
        Native(std::move(Native)) {}

protected:
  SynthOutcome runImpl(const Machine &M, const SynthRequest &Req,
                       const StopToken &Stop) const override {
    StokeOptions Opts = Native;
    Opts.Stop = Stop;
    Opts.Length = Req.lengthBound();
    StokeResult R = stokeSynthesize(M, Opts);

    SynthOutcome Outcome;
    if (R.Found) {
      Outcome.Kernel = R.Best;
      Outcome.Status = SynthStatus::Found;
    } else {
      Outcome.Status =
          R.TimedOut ? SynthStatus::TimedOut : SynthStatus::Exhausted;
    }
    Outcome.Stats.emplace_back("iterations", R.Iterations);
    Outcome.Stats.emplace_back("best_cost", R.BestCost);
    return Outcome;
  }

private:
  StokeOptions Native;
};

/// UCT Monte-Carlo tree search at the request bound.
class MctsBackend final : public Backend {
public:
  MctsBackend(MctsOptions Native, std::string Name)
      : Backend(std::move(Name), /*OptimalCapable=*/false),
        Native(std::move(Native)) {}

protected:
  SynthOutcome runImpl(const Machine &M, const SynthRequest &Req,
                       const StopToken &Stop) const override {
    MctsOptions Opts = Native;
    Opts.Stop = Stop;
    Opts.MaxLength = Req.lengthBound();
    MctsResult R = mctsSynthesize(M, Opts);

    SynthOutcome Outcome;
    if (R.Found) {
      Outcome.Kernel = R.P;
      Outcome.Status = SynthStatus::Found;
    } else {
      Outcome.Status =
          R.TimedOut ? SynthStatus::TimedOut : SynthStatus::Exhausted;
    }
    Outcome.Stats.emplace_back("iterations", R.Iterations);
    Outcome.Stats.emplace_back("tree_nodes", R.TreeNodes);
    return Outcome;
  }

private:
  MctsOptions Native;
};

/// Grounded STRIPS planning (greedy h_add by default).
class PlanBackend final : public Backend {
public:
  PlanBackend(PlanOptions Native, std::string Name)
      : Backend(std::move(Name), /*OptimalCapable=*/false),
        Native(std::move(Native)) {}

protected:
  // The planner takes no length bound: greedy best-first runs until a plan
  // or open-list exhaustion, so the request bound is unused here.
  SynthOutcome runImpl(const Machine &M, const SynthRequest & /*Req*/,
                       const StopToken &Stop) const override {
    SynthOutcome Rejected;
    if (rejectNonSortGoal(M, Rejected))
      return Rejected;
    PlanOptions Opts = Native;
    Opts.Stop = Stop;
    PlanSynthResult R = planSynthesize(M, Opts);

    SynthOutcome Outcome;
    if (R.Found) {
      Outcome.Kernel = R.P;
      Outcome.Status = SynthStatus::Found;
    } else if (R.TimedOut) {
      Outcome.Status = SynthStatus::TimedOut;
    } else {
      Outcome.Status = R.Expanded >= Native.MaxExpansions
                           ? SynthStatus::Exhausted
                           : SynthStatus::Infeasible;
    }
    Outcome.Stats.emplace_back("expanded", R.Expanded);
    return Outcome;
  }

private:
  PlanOptions Native;
};

} // namespace

std::unique_ptr<Backend> sks::makeEnumBackend() {
  return std::make_unique<EnumBackend>();
}

std::unique_ptr<Backend> sks::makeSmtBackend(SmtOptions Native,
                                             std::string Name) {
  return std::make_unique<SmtBackend>(std::move(Native), std::move(Name));
}

std::unique_ptr<Backend> sks::makeCpBackend(CpOptions Native,
                                            std::string Name) {
  return std::make_unique<CpBackend>(std::move(Native), std::move(Name));
}

std::unique_ptr<Backend> sks::makeIlpBackend() {
  return std::make_unique<IlpBackend>();
}

std::unique_ptr<Backend> sks::makeStokeBackend(StokeOptions Native,
                                               std::string Name) {
  return std::make_unique<StokeBackend>(std::move(Native), std::move(Name));
}

std::unique_ptr<Backend> sks::makeMctsBackend(MctsOptions Native,
                                              std::string Name) {
  return std::make_unique<MctsBackend>(std::move(Native), std::move(Name));
}

std::unique_ptr<Backend> sks::makePlanBackend(PlanOptions Native,
                                              std::string Name) {
  return std::make_unique<PlanBackend>(std::move(Native), std::move(Name));
}

std::vector<std::string> sks::backendNames() {
  return {"enum", "smt", "cp", "ilp", "stoke", "mcts", "plan"};
}

bool sks::isBackendPolicy(const std::string &Name) {
  if (Name == "portfolio")
    return true;
  for (const std::string &Known : backendNames())
    if (Name == Known)
      return true;
  return false;
}

std::unique_ptr<Backend> sks::createBackend(const std::string &Name) {
  if (Name == "enum")
    return makeEnumBackend();
  if (Name == "smt") {
    SmtOptions Opts;
    Opts.Cegis = true; // The paper's fastest SMT variant.
    return makeSmtBackend(Opts);
  }
  if (Name == "cp")
    return makeCpBackend();
  if (Name == "ilp")
    return makeIlpBackend();
  if (Name == "stoke")
    return makeStokeBackend();
  if (Name == "mcts")
    return makeMctsBackend();
  if (Name == "plan") {
    PlanOptions Opts;
    Opts.Heuristic = PlanHeuristic::HAdd;
    Opts.Greedy = true;
    return makePlanBackend(Opts);
  }
  return nullptr;
}
