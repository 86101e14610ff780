//===- bench/bench_fig2_tsne.cpp - Figure 2 solution-space embedding -------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Figure 2: the 2-D t-SNE embedding of all optimal n = 3
// kernels, colored by the smallest cut factor that preserves them
// (k=1 kernels are also k=1.5 and k=2 kernels, as in the paper's nested
// sets 222 of 838 of 5602). Also reports the "only 23 distinct command
// combinations" observation. Output: fig2_tsne.csv with columns
// x, y, cut_class (2 = survives only without/with k>=2 cut, 1.5, 1).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "analysis/Analysis.h"
#include "tables/DistanceTable.h"
#include "tsne/Tsne.h"

#include <map>
#include <set>

using namespace sks;
using namespace sks::bench;

static std::vector<Program> allSolutions(const Machine &M,
                                         const DistanceTable &DT,
                                         CutConfig Cut) {
  SearchOptions Opts;
  Opts.Heuristic = HeuristicKind::None;
  Opts.FindAll = true;
  Opts.MaxLength = 11;
  Opts.Cut = Cut;
  Opts.MaxSolutionsKept = 1 << 20;
  Opts.Stop = StopToken().withDeadline(600);
  SearchResult R = synthesize(M, Opts, &DT);
  return R.Solutions;
}

int main() {
  banner("bench_fig2_tsne",
         "Figure 2: t-SNE of the n=3 solution space per cut factor");

  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);

  std::vector<Program> All = allSolutions(M, DT, CutConfig::none());
  std::vector<Program> K15 = allSolutions(M, DT, CutConfig::mult(1.5));
  std::vector<Program> K1 = allSolutions(M, DT, CutConfig::mult(1.0));
  std::vector<Program> K2 = allSolutions(M, DT, CutConfig::mult(2.0));

  std::printf("solutions: no cut %zu (paper 5602), k=2 %zu (paper 5602), "
              "k=1.5 %zu (paper 838), k=1 %zu (paper 222)\n",
              All.size(), K2.size(), K15.size(), K1.size());
  std::printf("distinct command combinations: %zu (paper: 23)\n\n",
              countDistinctCombinations(All));

  auto KeyOf = [](const Program &P) {
    std::string Key;
    for (const Instr &I : P) {
      Key.push_back(static_cast<char>(I.encode() & 0xff));
      Key.push_back(static_cast<char>(I.encode() >> 8));
    }
    return Key;
  };
  std::set<std::string> In15, In1;
  for (const Program &P : K15)
    In15.insert(KeyOf(P));
  for (const Program &P : K1)
    In1.insert(KeyOf(P));

  // Embed (subsampled by default; the full 5602-point embedding is gated).
  size_t Limit = isFullRun() ? All.size() : std::min<size_t>(All.size(), 1200);
  std::vector<std::vector<uint16_t>> Encoded;
  std::vector<const Program *> Chosen;
  size_t Stride = std::max<size_t>(1, All.size() / Limit);
  for (size_t I = 0; I < All.size() && Chosen.size() < Limit; I += Stride)
    Chosen.push_back(&All[I]);
  for (const Program *P : Chosen) {
    std::vector<uint16_t> Row;
    for (const Instr &I : *P)
      Row.push_back(I.encode());
    Encoded.push_back(std::move(Row));
  }

  std::vector<float> D2 = programDistanceMatrix(Encoded);
  TsneOptions Opts;
  Opts.Perplexity = 50;
  Opts.Iterations = 300;
  Opts.LearningRate = 100;
  Stopwatch Timer;
  std::vector<double> Y = tsneEmbed(D2, Encoded.size(), Opts);
  std::printf("t-SNE over %zu programs in %s\n", Encoded.size(),
              formatDuration(Timer.seconds()).c_str());

  Table T({"x", "y", "cut_class"});
  for (size_t I = 0; I != Chosen.size(); ++I) {
    std::string Key = KeyOf(*Chosen[I]);
    const char *Class = In1.count(Key) ? "1"
                        : In15.count(Key) ? "1.5"
                                          : "2";
    T.row().cell(Y[2 * I], 4).cell(Y[2 * I + 1], 4).cell(Class);
  }
  if (!T.writeCsv("fig2_tsne.csv"))
    std::printf("warning: could not write fig2_tsne.csv\n");
  std::printf("embedding written to fig2_tsne.csv "
              "(cut_class matches the paper's colors)\n");
  return 0;
}
