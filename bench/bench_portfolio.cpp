//===- bench/bench_portfolio.cpp - Portfolio driver race --------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Races every registered backend on one synthesis request through the
// portfolio driver (src/driver/Portfolio.h): the first verified
// optimal-length kernel wins and cancels the rest cooperatively. The
// paper's section 5 tables show the enumerative route dominating every
// other substrate; this binary shows the same ranking operationally — the
// winner column is the substrate that would answer first in production.
// Smoke mode races at n = 2 so ctest exercises the full cancellation
// path in seconds.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "driver/Backends.h"
#include "driver/Portfolio.h"

using namespace sks;
using namespace sks::bench;

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  banner("bench_portfolio", "portfolio race over all synthesis substrates");

  SynthRequest Req;
  Req.N = Args.Smoke ? 2 : 3;
  Req.Goal = SynthGoal::MinLength;
  Req.TimeoutSeconds = Args.Smoke ? 60 : (isFullRun() ? 600 : 120);
  // Every verified winner's emission is statically proven by the
  // translation validator before it counts.
  Req.ValidateJit = true;

  std::vector<std::unique_ptr<Backend>> Backends;
  for (const std::string &Name : backendNames())
    Backends.push_back(createBackend(Name));
  Req.NumThreads = static_cast<unsigned>(Backends.size());

  PortfolioResult R = runPortfolio(Backends, Req);

  Table T({"Backend", "Outcome", "Verified", "Role"});
  for (size_t I = 0; I != R.Outcomes.size(); ++I) {
    const SynthOutcome &O = R.Outcomes[I];
    T.row()
        .cell(O.BackendName)
        .cell(outcomeCell(O))
        .cell(O.Verified ? "yes" : "no")
        .cell(I == R.WinnerIndex ? "winner" : "loser");
  }
  T.print();

  bool Won = R.WinnerIndex != SIZE_MAX && R.Winner.Verified;
  if (Won)
    std::printf("winner: %s, verified length-%zu kernel in %s\n",
                R.Winner.BackendName.c_str(), R.Winner.Kernel.size(),
                formatDuration(R.Winner.Seconds).c_str());
  else
    std::printf("no backend produced a verified kernel within %.0f s\n",
                Req.TimeoutSeconds);
  return Won ? 0 : 1;
}
