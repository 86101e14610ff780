//===- tests/BackendConformanceTest.cpp - Backend interface conformance ------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Conformance suite for the driver layer: every registered backend, driven
// only through the Backend interface, must (a) produce a Verify-checked
// kernel where its substrate is able to (the paper's section 5 tables say
// where that is), (b) honor the shared deadline promptly, (c) report
// pre-cancelled requests as Cancelled, and (d) never surface an unverified
// kernel as success. The portfolio driver must return a verified winner
// and cancel the losers cooperatively.
//
// Paper-faithful deviations from "every backend solves every size":
//  - ILP cannot solve even n = 2 (length 4): a 10-minute run explores only
//    ~550 branch-and-bound nodes on the big-M encoding. The paper's ILP
//    rows fail the same way, so the conformance bar for ILP is a prompt
//    TimedOut, not a kernel.
//  - STOKE/MCTS/SMT/CP do not reach n = 3 within unit-test budgets
//    (minutes at best, per the section 5.2 tables); n = 3 coverage here is
//    enum + planning, the routes the paper found viable.
//
//===----------------------------------------------------------------------===//

#include "driver/Backends.h"
#include "driver/Portfolio.h"
#include "kernels/ReferenceKernels.h"
#include "machine/Machine.h"
#include "search/Search.h"
#include "verify/Verify.h"

#include <gtest/gtest.h>

using namespace sks;

namespace {

SynthRequest request(unsigned N, SynthGoal Goal, double TimeoutSeconds) {
  SynthRequest Req;
  Req.N = N;
  Req.Kind = MachineKind::Cmov;
  Req.Goal = Goal;
  Req.TimeoutSeconds = TimeoutSeconds;
  return Req;
}

/// \returns the outcome stat named \p Key; fails the test when it is
/// missing.
uint64_t stat(const SynthOutcome &O, const char *Key) {
  for (const auto &[Name, Value] : O.Stats)
    if (Name == Key)
      return Value;
  ADD_FAILURE() << "no stat " << Key;
  return 0;
}

TEST(BackendRegistry, ResolvesEveryName) {
  std::vector<std::string> Names = backendNames();
  EXPECT_EQ(Names.size(), 7u);
  for (const std::string &Name : Names) {
    std::unique_ptr<Backend> B = createBackend(Name);
    ASSERT_NE(B, nullptr) << Name;
    EXPECT_EQ(B->name(), Name);
  }
  EXPECT_EQ(createBackend("no-such-backend"), nullptr);
}

TEST(BackendConformance, EveryCapableBackendSynthesizesN2) {
  Machine M(MachineKind::Cmov, 2);
  for (const std::string &Name : backendNames()) {
    if (Name == "ilp")
      continue; // Covered below: the ILP route cannot solve even n = 2.
    std::unique_ptr<Backend> B = createBackend(Name);
    SynthOutcome O = B->run(request(2, SynthGoal::FirstKernel, 120));
    EXPECT_TRUE(O.Status == SynthStatus::Found ||
                O.Status == SynthStatus::Optimal)
        << Name << " -> " << statusName(O.Status);
    EXPECT_TRUE(O.Verified) << Name;
    // The Verified flag must mean what it says, independent of the gate.
    EXPECT_TRUE(isCorrectKernel(M, O.Kernel)) << Name;
  }
}

TEST(BackendConformance, IlpHonorsDeadlineAtN2) {
  // The big-M encoding defeats branch-and-bound even at n = 2 (paper
  // finding; reproduced at 10-minute scale). The conformance requirement
  // is that the deadline lands promptly and the failure is truthful.
  std::unique_ptr<Backend> B = createBackend("ilp");
  SynthOutcome O = B->run(request(2, SynthGoal::FirstKernel, 1.0));
  EXPECT_EQ(O.Status, SynthStatus::TimedOut);
  EXPECT_TRUE(O.Kernel.empty());
  EXPECT_FALSE(O.Verified);
  EXPECT_LT(O.Seconds, 10.0);
}

TEST(BackendConformance, IlpStopInsideTheRelaxationIsNoProof) {
  // Short deadlines land inside an LP relaxation, which the simplex cuts
  // short; branch-and-bound must not prune that node as infeasible. A
  // length-4 n=2 kernel exists, so no run may claim Infeasible, and a run
  // without a kernel timed out.
  std::unique_ptr<Backend> B = createBackend("ilp");
  for (double Seconds : {0.005, 0.01, 0.02, 0.05, 0.1}) {
    SynthOutcome O = B->run(request(2, SynthGoal::FirstKernel, Seconds));
    EXPECT_NE(O.Status, SynthStatus::Infeasible) << Seconds << " s";
    if (O.Kernel.empty()) {
      EXPECT_EQ(O.Status, SynthStatus::TimedOut) << Seconds << " s";
    }
  }
}

TEST(BackendConformance, OptimalCapableBackendsCertifyN2Minimum) {
  // enum, smt, and cp can certify minimality; the optimal cmov kernel for
  // n = 2 has length 4.
  for (const char *Name : {"enum", "smt", "cp"}) {
    std::unique_ptr<Backend> B = createBackend(Name);
    EXPECT_TRUE(B->optimalCapable()) << Name;
    SynthOutcome O = B->run(request(2, SynthGoal::MinLength, 120));
    EXPECT_EQ(O.Status, SynthStatus::Optimal) << Name;
    EXPECT_TRUE(O.Verified) << Name;
    EXPECT_EQ(O.Kernel.size(), 4u) << Name;
  }
}

TEST(BackendConformance, ViableRoutesSynthesizeN3) {
  // n = 3 through the interface, on the routes the paper found viable:
  // enumeration (optimal, length 11) and satisficing planning.
  Machine M(MachineKind::Cmov, 3);
  {
    SynthOutcome O =
        createBackend("enum")->run(request(3, SynthGoal::MinLength, 300));
    EXPECT_EQ(O.Status, SynthStatus::Optimal);
    EXPECT_TRUE(O.Verified);
    EXPECT_EQ(O.Kernel.size(), 11u);
    EXPECT_TRUE(isCorrectKernel(M, O.Kernel));
  }
  {
    SynthOutcome O =
        createBackend("plan")->run(request(3, SynthGoal::FirstKernel, 300));
    EXPECT_EQ(O.Status, SynthStatus::Found);
    EXPECT_TRUE(O.Verified);
    EXPECT_TRUE(isCorrectKernel(M, O.Kernel));
  }
}

TEST(BackendConformance, EnumFirstRunsConfigurationIII) {
  // `first` is the paper's configuration (III), the cut included: the n=4
  // kernel with exactly the expansions of a direct run.
  Machine M(MachineKind::Cmov, 4);
  SearchResult Direct = synthesize(M, bestEnumConfig(MachineKind::Cmov, 4));
  ASSERT_TRUE(Direct.Found);
  SynthOutcome O =
      createBackend("enum")->run(request(4, SynthGoal::FirstKernel, 60));
  EXPECT_EQ(O.Status, SynthStatus::Found);
  EXPECT_TRUE(O.Verified);
  EXPECT_EQ(O.Kernel.size(), 20u);
  EXPECT_TRUE(isCorrectKernel(M, O.Kernel));
  EXPECT_EQ(O.Kernel, Direct.Solutions.front());
  EXPECT_EQ(stat(O, "states_expanded"), Direct.Stats.StatesExpanded);

  // The thread count is a hint the cache key leaves out, so it must not
  // swap the configuration: four threads run the same best-first search.
  SynthRequest Threaded = request(4, SynthGoal::FirstKernel, 60);
  Threaded.NumThreads = 4;
  SynthOutcome T = createBackend("enum")->run(Threaded);
  EXPECT_EQ(T.Status, SynthStatus::Found);
  EXPECT_EQ(T.Kernel, Direct.Solutions.front());
  EXPECT_EQ(stat(T, "states_expanded"), Direct.Stats.StatesExpanded);
}

TEST(BackendConformance, EnumFirstRerunsUncutWhenTheCutExhaustsTheBound) {
  // The cut exhausts partial-sort-2's bound 15 at n=4 although a length-15
  // kernel exists. The uncut rerun finds it; without the rerun the backend
  // would claim a false Infeasible.
  SynthRequest Req = request(4, SynthGoal::FirstKernel, 300);
  Req.GoalPred = GoalSpec::partialSort(2);
  Req.MaxLength = 15;
  SynthOutcome O = createBackend("enum")->run(Req);
  EXPECT_EQ(O.Status, SynthStatus::Found);
  EXPECT_TRUE(O.Verified);
  EXPECT_LE(O.Kernel.size(), 15u);
  EXPECT_TRUE(isCorrectKernel(Machine(MachineKind::Cmov, 4, 1, Req.GoalPred),
                              O.Kernel));
  EXPECT_GT(stat(O, "cut_states"), 0u);
}

TEST(BackendConformance, EnumFirstInfeasibleUnderTheCutIsProvedUncut) {
  // Min/max n=3 needs 8 instructions. The cut run exhausts bound 7 after
  // discarding states, so the uncut rerun must prove Infeasible.
  SynthRequest Req = request(3, SynthGoal::FirstKernel, 300);
  Req.Kind = MachineKind::MinMax;
  Req.MaxLength = 7;
  SynthOutcome O = createBackend("enum")->run(Req);
  EXPECT_EQ(O.Status, SynthStatus::Infeasible);
  EXPECT_TRUE(O.Kernel.empty());
  EXPECT_GT(stat(O, "cut_states"), 0u);
}

TEST(BackendConformance, EnumFirstWithNothingCutIsItsOwnProof) {
  // The shape of a service miss: n=2 below its optimum 4. The cut
  // discards nothing, so the cut run's exhaustion is already the proof.
  SynthRequest Req = request(2, SynthGoal::FirstKernel, 60);
  Req.MaxLength = 3;
  SynthOutcome O = createBackend("enum")->run(Req);
  EXPECT_EQ(O.Status, SynthStatus::Infeasible);
  EXPECT_EQ(stat(O, "cut_states"), 0u);
}

TEST(BackendConformance, PreCancelledRequestReportsCancelled) {
  StopSource Source;
  Source.requestStop();
  for (const std::string &Name : backendNames()) {
    SynthRequest Req = request(3, SynthGoal::FirstKernel, 300);
    Req.Stop = Source.token();
    SynthOutcome O = createBackend(Name)->run(Req);
    EXPECT_EQ(O.Status, SynthStatus::Cancelled) << Name;
    EXPECT_TRUE(O.Kernel.empty()) << Name;
    EXPECT_LT(O.Seconds, 5.0) << Name;
  }
}

TEST(BackendConformance, EveryBackendHonorsAHundredMillisecondDeadline) {
  // The shared-deadline regression of the driver refactor: at n = 4 no
  // substrate can finish in 100 ms, so each must wind down cooperatively.
  // Release builds return within ~2x the deadline; the bound here leaves
  // slack for sanitizer builds and loaded single-core CI hosts.
  for (const std::string &Name : backendNames()) {
    SynthOutcome O =
        createBackend(Name)->run(request(4, SynthGoal::MinLength, 0.1));
    if (O.Kernel.empty()) {
      EXPECT_EQ(O.Status, SynthStatus::TimedOut) << Name;
    } else {
      EXPECT_TRUE(O.Verified) << Name; // A sub-100ms find must be real.
    }
    EXPECT_LT(O.Seconds, 2.0) << Name << " overshot the deadline";
  }
}

/// A backend that claims success with whatever kernel it is given —
/// exercises the driver's universal verification gate.
class ClaimingBackend final : public Backend {
public:
  explicit ClaimingBackend(Program P)
      : Backend("claiming", /*OptimalCapable=*/false), Claim(std::move(P)) {}

protected:
  SynthOutcome runImpl(const Machine &, const SynthRequest &,
                       const StopToken &) const override {
    SynthOutcome O;
    O.Kernel = Claim;
    O.Status = SynthStatus::Found;
    return O;
  }

private:
  Program Claim;
};

TEST(BackendConformance, VerificationGateDemotesWrongClaims) {
  // A lying backend: claims the empty program sorts n = 2. The driver must
  // strip the claim rather than surface unverified success.
  ClaimingBackend Liar{Program{}};
  SynthOutcome O = Liar.run(request(2, SynthGoal::FirstKernel, 10));
  EXPECT_EQ(O.Status, SynthStatus::Exhausted);
  EXPECT_TRUE(O.Kernel.empty());
  EXPECT_FALSE(O.Verified);
  bool Flagged = false;
  for (const auto &KV : O.Stats)
    Flagged |= KV.first == "verify_failed";
  EXPECT_TRUE(Flagged);

  // An honest claim passes the gate untouched.
  SynthOutcome Real =
      createBackend("enum")->run(request(2, SynthGoal::FirstKernel, 10));
  ASSERT_TRUE(Real.Verified);
  ClaimingBackend Honest{Real.Kernel};
  SynthOutcome O2 = Honest.run(request(2, SynthGoal::FirstKernel, 10));
  EXPECT_EQ(O2.Status, SynthStatus::Found);
  EXPECT_TRUE(O2.Verified);
  EXPECT_EQ(O2.Kernel, Real.Kernel);

  // Min/max claims take the same n! check: the n=3 network one pmax short
  // is demoted, and the whole network passes with no stat of its own.
  SynthRequest MinMax = request(3, SynthGoal::FirstKernel, 10);
  MinMax.Kind = MachineKind::MinMax;
  const Program Network = sortingNetworkMinMax(3);
  ClaimingBackend Short{Program(Network.begin(), Network.end() - 1)};
  SynthOutcome O3 = Short.run(MinMax);
  EXPECT_EQ(O3.Status, SynthStatus::Exhausted);
  EXPECT_TRUE(O3.Kernel.empty());
  EXPECT_FALSE(O3.Verified);
  EXPECT_EQ(stat(O3, "verify_failed"), 1u);
  ClaimingBackend HonestMinMax{Network};
  SynthOutcome O4 = HonestMinMax.run(MinMax);
  EXPECT_EQ(O4.Status, SynthStatus::Found);
  EXPECT_TRUE(O4.Verified);
  EXPECT_EQ(O4.Kernel, Network);
  for (const auto &KV : O4.Stats)
    EXPECT_NE(KV.first, "zero_one_vectors");
}

TEST(BackendConformance, VerificationGateChecksMinMaxLikeCmov) {
  // End to end: the enum backend's optimal n=3 kernels pass the gate on
  // both machines through the same n! check, with the same stats.
  for (MachineKind Kind : {MachineKind::MinMax, MachineKind::Cmov}) {
    SynthRequest Req = request(3, SynthGoal::MinLength, 60);
    Req.Kind = Kind;
    SynthOutcome Outcome = createBackend("enum")->run(Req);
    ASSERT_EQ(Outcome.Status, SynthStatus::Optimal);
    EXPECT_TRUE(Outcome.Verified);
    EXPECT_TRUE(isCorrectKernel(Machine(Kind, 3), Outcome.Kernel));
    for (const auto &KV : Outcome.Stats)
      EXPECT_NE(KV.first, "zero_one_vectors");
  }
}

TEST(PortfolioDriver, NThreeReturnsVerifiedWinnerAndCancelsLosers) {
  // The acceptance race: all seven registered backends on n = 3 under the
  // min-length goal. Whoever wins must hold a verified optimal-length
  // kernel; everyone else is cancelled cooperatively (a loser may also
  // have finished legitimately just before the cancel landed).
  std::vector<std::unique_ptr<Backend>> Backends;
  for (const std::string &Name : backendNames())
    Backends.push_back(createBackend(Name));
  SynthRequest Req = request(3, SynthGoal::MinLength, 300);
  // Two race threads keep the test fast on small CI hosts: the enumerative
  // backend wins within seconds and the queued backends then observe the
  // cancel before starting any real work.
  Req.NumThreads = 2;

  PortfolioResult R = runPortfolio(Backends, Req);
  ASSERT_NE(R.WinnerIndex, SIZE_MAX);
  EXPECT_EQ(R.Outcomes.size(), Backends.size());
  EXPECT_TRUE(R.Winner.Verified);
  EXPECT_EQ(R.Winner.Status, SynthStatus::Optimal);
  EXPECT_EQ(R.Winner.Kernel.size(), 11u);
  Machine M(MachineKind::Cmov, 3);
  EXPECT_TRUE(isCorrectKernel(M, R.Winner.Kernel));

  size_t Cancelled = 0;
  for (size_t I = 0; I != R.Outcomes.size(); ++I) {
    if (I == R.WinnerIndex)
      continue;
    const SynthOutcome &O = R.Outcomes[I];
    Cancelled += O.Status == SynthStatus::Cancelled;
    // No loser may beat the certified minimum.
    if (O.Verified) {
      EXPECT_GE(O.Kernel.size(), R.Winner.Kernel.size()) << O.BackendName;
    }
  }
  EXPECT_GE(Cancelled, 4u);
}

TEST(PortfolioDriver, FirstKernelRaceAtN4EndsOnAVerifiedKernel) {
  // Under FirstKernel the first verified kernel cancels the race. The enum
  // racer runs configuration (III), the cut included, so an n = 4 race
  // ends within seconds even instrumented (the tsan_portfolio entry).
  std::vector<std::unique_ptr<Backend>> Backends;
  for (const std::string &Name : backendNames())
    Backends.push_back(createBackend(Name));
  SynthRequest Req = request(4, SynthGoal::FirstKernel, 300);
  Req.NumThreads = 2;

  PortfolioResult R = runPortfolio(Backends, Req);
  ASSERT_NE(R.WinnerIndex, SIZE_MAX);
  EXPECT_EQ(R.Outcomes.size(), Backends.size());
  EXPECT_TRUE(R.Winner.Verified);
  EXPECT_EQ(R.Winner.Status, SynthStatus::Found);
  EXPECT_TRUE(isCorrectKernel(Machine(MachineKind::Cmov, 4), R.Winner.Kernel));
}

} // namespace
