//===- bench/bench_enum_ablation.cpp - Section 5.2 enum ablation table -----===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates the paper's enumerative-approach ablation for n = 3: plain
// Dijkstra (single core and parallel; the paper's GPU row has no
// counterpart here, see EXPERIMENTS.md), A* with each section 3.1
// heuristic in isolation, each cut setting, the action filter, the
// viability check, and the combined configurations (II) and (III). Every
// configuration verifies the kernel it finds.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "tables/DistanceTable.h"
#include "verify/Verify.h"

#include <unistd.h>

using namespace sks;
using namespace sks::bench;

namespace {

struct Row {
  const char *Name;
  const char *PaperTime;
  SearchOptions Opts;
};

} // namespace

int main(int argc, char **argv) {
  BenchArgs Args = parseBenchArgs(argc, argv);
  banner("bench_enum_ablation",
         "section 5.2 'Enumerative Approach' ablation table (n = 3)");

  const unsigned N = 3;
  Machine M(MachineKind::Cmov, N);
  DistanceTable DT(M);
  const unsigned Bound = networkUpperBound(MachineKind::Cmov, N);
  const double Timeout = isFullRun() ? 1800 : 180;
  // The unpruned rows outgrow any small machine (the paper used 32 GB):
  // cap the resident state bytes at half of this host's physical memory.
  const size_t MemoryCap = static_cast<size_t>(sysconf(_SC_PHYS_PAGES)) *
                           static_cast<size_t>(sysconf(_SC_PAGE_SIZE)) / 2;

  auto Base = [&](HeuristicKind H) {
    SearchOptions Opts;
    Opts.Heuristic = H;
    Opts.UseViability = false;
    Opts.UseActionFilter = false;
    Opts.MaxLength = Bound;
    Opts.MaxStateBytes = MemoryCap;
    return Opts;
  };

  std::vector<Row> Rows;
  if (Args.Smoke) {
    // The fast subset for the ctest smoke entry: the layered engine on
    // one and on four threads (with the full pruning stack, so each
    // finishes in well under a second) plus the combined best-first
    // configurations — every engine path is exercised, none of the
    // minute-scale unpruned rows run.
    auto Fast = [&](unsigned Threads) {
      SearchOptions Opts = Base(HeuristicKind::PermCount);
      Opts.UseViability = true;
      Opts.Cut = CutConfig::mult(1.0);
      Opts.Layered = true;
      Opts.NumThreads = Threads;
      return Opts;
    };
    Rows.push_back(
        {"smoke: dijkstra+viability+cut, single core", "-", Fast(1)});
    Rows.push_back(
        {"smoke: dijkstra+viability+cut, 4 threads", "-", Fast(4)});
    {
      SearchOptions Opts = Base(HeuristicKind::PermCount);
      Opts.UseActionFilter = true;
      Opts.UseViability = true;
      Rows.push_back(
          {"(II) := (I) + perm count, opt. instr, viability", "690 ms", Opts});
      Opts.Cut = CutConfig::mult(1.0);
      Rows.push_back({"(III) := (II) + cut 1", "97 ms", Opts});
      Opts.SemanticPrune = true;
      Rows.push_back({"smoke: (III) + semantic prune", "-", Opts});
      Opts.SemanticPrune = false;
      Opts.SymmetryReduce = true;
      Rows.push_back({"smoke: (III) + symmetry", "-", Opts});
    }
  }
  if (!Args.Smoke) {
    SearchOptions Opts = Base(HeuristicKind::None);
    Opts.Layered = true;
    Rows.push_back({"dijkstra, single core", "56 s", Opts});
    Opts.NumThreads = 4;
    Rows.push_back({"dijkstra, parallel (4 threads)", "17 s", Opts});
  }
  if (!Args.Smoke) {
    Rows.push_back({"(I) := A*, dedup, no heuristic", "219 s",
                    Base(HeuristicKind::None)});
    Rows.push_back({"(I) + permutation count", "1713 ms",
                    Base(HeuristicKind::PermCount)});
    Rows.push_back({"(I) + register assignment count", "2582 ms",
                    Base(HeuristicKind::AssignCount)});
    Rows.push_back({"(I) + assignment instructions needed", "7176 ms",
                    Base(HeuristicKind::NeededInstrs)});
  }
  if (!Args.Smoke) {
    // The cut compares against the per-length minimum permutation count;
    // its clean semantics need length-synchronized exploration, so these
    // rows run on the layered engine.
    SearchOptions Opts = Base(HeuristicKind::None);
    Opts.Layered = true;
    Opts.Cut = CutConfig::mult(2.0);
    Rows.push_back({"(I) + cut with 2", "37 s", Opts});
    Opts.Cut = CutConfig::mult(1.5);
    Rows.push_back({"(I) + cut with 1.5", "3221 ms", Opts});
    Opts.Cut = CutConfig::mult(1.0);
    Rows.push_back({"(I) + cut with 1", "325 ms", Opts});
    Opts.Cut = CutConfig::add(2);
    Rows.push_back({"(I) + cut with +2", "16 s", Opts});
  }
  if (!Args.Smoke) {
    SearchOptions Opts = Base(HeuristicKind::None);
    Opts.UseActionFilter = true;
    Rows.push_back({"(I) + assignment optimal instructions", "90 s", Opts});
    Opts.UseActionFilter = false;
    Opts.UseViability = true;
    Rows.push_back({"(I) + assignment viability check", "8646 ms", Opts});
  }
  if (!Args.Smoke) {
    SearchOptions Opts = Base(HeuristicKind::PermCount);
    Opts.UseActionFilter = true;
    Opts.UseViability = true;
    Rows.push_back(
        {"(II) := (I) + perm count, opt. instr, viability", "690 ms", Opts});
    Opts.SyntacticPrune = true;
    Rows.push_back({"(II) + syntactic prune", "-", Opts});
    Opts.SyntacticPrune = false;
    Opts.SemanticPrune = true;
    Rows.push_back({"(II) + semantic prune", "-", Opts});
    Opts.SemanticPrune = false;
    Opts.Cut = CutConfig::mult(1.0);
    Rows.push_back({"(III) := (II) + cut 1", "97 ms", Opts});
    Opts.SyntacticPrune = true;
    Rows.push_back({"(III) + syntactic prune", "-", Opts});
    Opts.SyntacticPrune = false;
    Opts.SemanticPrune = true;
    Rows.push_back({"(III) + semantic prune", "-", Opts});
    Opts.SyntacticPrune = true;
    Rows.push_back({"(III) + syntactic + semantic prune", "-", Opts});
    Opts.SyntacticPrune = false;
    Opts.SemanticPrune = false;
    Opts.SymmetryReduce = true;
    Rows.push_back({"(III) + symmetry", "-", Opts});
    Opts.SemanticPrune = true;
    Rows.push_back({"(III) + semantic prune + symmetry", "-", Opts});
  }

  Table T({"Approach", "Time (measured)", "Time (paper)", "len",
           "states expanded", "states gen", "syn pruned", "sem pruned",
           "sym merged", "peak MB"});
  for (const Row &Config : Rows) {
    // Each row's deadline starts when its run does.
    SearchOptions Opts = Config.Opts;
    Opts.Stop = StopToken().withDeadline(Timeout);
    SearchResult R = synthesize(M, Opts, &DT);
    bool Verified =
        R.Found && isCorrectKernel(M, R.Solutions.at(0));
    std::string TimeText = R.Found ? formatDuration(R.Stats.Seconds)
                           : R.Stats.Stopped == StopReason::None
                               ? "-"
                               : stopReasonName(R.Stats.Stopped);
    if (R.Found && !Verified)
      TimeText += " (VERIFY FAILED)";
    char PeakMB[32];
    std::snprintf(PeakMB, sizeof(PeakMB), "%.1f",
                  static_cast<double>(R.Stats.PeakStateBytes) / (1 << 20));
    T.row()
        .cell(Config.Name)
        .cell(TimeText)
        .cell(Config.PaperTime)
        .cell(R.Found ? std::to_string(R.OptimalLength) : "-")
        .cell(R.Stats.StatesExpanded)
        .cell(R.Stats.StatesGenerated)
        .cell(R.Stats.SyntacticPruned)
        .cell(R.Stats.SemanticPruned)
        .cell(R.Stats.SymmetryMerged)
        .cell(PeakMB);
  }
  T.print();
  std::printf(
      "notes: the paper's GPU row (46 s) has no row here: an instruction-\n"
      "major batch expansion that stood in for it measured no faster than\n"
      "the node-major loop and was removed (EXPERIMENTS.md). The parallel\n"
      "row shows a speedup only on as many free cores as threads. The\n"
      "action filter keeps cmps on unresolved register pairs (see\n"
      "EXPERIMENTS.md on section 3.2).\n"
      "The syntactic-prune rows (lint/PrefixLint.h) refuse expansions that\n"
      "provably plant a dead instruction; the prune is sound (it preserves\n"
      "the 5602-solution count, see LintTest.cpp) and mainly cuts states\n"
      "GENERATED — most pruned targets are states dedup would also skip.\n"
      "The semantic-prune rows add the order-domain abstract interpreter\n"
      "(analysis/OrderDomain.h): expansions whose instruction is provably a\n"
      "no-op — or a cmp with a statically determined outcome — under the\n"
      "inferred <=-relation are refused, subsuming the syntactic facts\n"
      "(DESIGN.md section 10; soundness pinned in EngineEquivalenceTest).\n"
      "Determined-cmp prunes remove whole child states, so the semantic\n"
      "rows also shrink states EXPANDED, at the cost of carrying one\n"
      "48-byte order state per stored node.\n"
      "The symmetry rows (analysis/Symmetry.h, DESIGN.md section 11)\n"
      "quotient states by the admissible register renamings — scratch\n"
      "permutations and the lt/gt flag involution — so symmetric states\n"
      "merge into one node ('sym merged' counts candidates rewritten onto\n"
      "a non-identity orbit representative); solutions are lifted back to\n"
      "original register names and every emitted kernel still verifies.\n");
  return 0;
}
