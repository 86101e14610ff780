//===- bench/bench_cut_k.cpp - Section 5.2 cut-factor table ----------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates the cut-factor study: synthesis time for n = 3 and n = 4 and
// the number of surviving optimal solutions for n = 3, for k in
// {1, 1.5, 2, 3, 4}. The paper's reference: all 5602 solutions survive at
// k >= 2; 838 at 1.5; 222 at 1.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "tables/DistanceTable.h"

using namespace sks;
using namespace sks::bench;

int main() {
  banner("bench_cut_k", "section 5.2 cut-factor table + Figure 2 counts");

  Machine M3(MachineKind::Cmov, 3);
  Machine M4(MachineKind::Cmov, 4);
  DistanceTable DT3(M3);
  DistanceTable DT4(M4);

  struct KRow {
    double K;
    const char *PaperN3;
    const char *PaperN4;
    const char *PaperSolutions;
  };
  const KRow Ks[] = {{1.0, "97 ms", "2443 ms", "222"},
                     {1.5, "215 ms", "82 s", "838"},
                     {2.0, "629 ms", "763 s", "5602"},
                     {3.0, "631 ms", "-", "5602"},
                     {4.0, "623 ms", "-", "5602"}};

  Table T({"k", "time n=3", "(paper)", "time n=4", "(paper)",
           "solutions n=3", "(paper)"});
  for (const KRow &Row : Ks) {
    SearchOptions Best3 = bestEnumConfig(MachineKind::Cmov, 3);
    Best3.Cut = CutConfig::mult(Row.K);
    Best3.Stop = StopToken().withDeadline(120);
    SearchResult R3 = synthesize(M3, Best3, &DT3);

    std::string TimeN4 = "(gated)";
    if (Row.K <= 1.5 || isFullRun()) {
      SearchOptions Best4 = bestEnumConfig(MachineKind::Cmov, 4);
      Best4.Cut = CutConfig::mult(Row.K);
      Best4.Stop = StopToken().withDeadline(isFullRun() ? 3600 : 300);
      SearchResult R4 = synthesize(M4, Best4, &DT4);
      TimeN4 = R4.Found ? formatDuration(R4.Stats.Seconds) : "timeout";
    }

    // Surviving solutions at n=3 under this cut (layered count).
    SearchOptions All3;
    All3.Heuristic = HeuristicKind::None;
    All3.FindAll = true;
    All3.MaxLength = 11;
    All3.MaxSolutionsKept = 0;
    All3.Cut = CutConfig::mult(Row.K);
    All3.Stop = StopToken().withDeadline(300);
    SearchResult A3 = synthesize(M3, All3, &DT3);

    T.row()
        .cell(Row.K, 1)
        .cell(R3.Found ? formatDuration(R3.Stats.Seconds) : "timeout")
        .cell(Row.PaperN3)
        .cell(TimeN4)
        .cell(Row.PaperN4)
        .cell(A3.Found ? std::to_string(A3.SolutionCount) : "timeout")
        .cell(Row.PaperSolutions);
  }
  T.print();
  return 0;
}
