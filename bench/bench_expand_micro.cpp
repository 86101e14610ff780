//===- bench/bench_expand_micro.cpp - Expansion hot-path microbenches ------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the per-stage speedups of the fused, vectorized expansion pipeline
// (DESIGN.md section 8) on the google-benchmark harness:
//
//   canonicalize/{scalar,simd}/<rows>   sortRows networks + radix vs
//                                       std::sort + std::unique
//   apply/{scalar,simd}                 Machine::apply loop vs applyBatch
//   finish/{multipass,fused}            separate sort+unique, perm-count
//                                       and hash traversals vs
//                                       CandidatePipeline::finish, which
//                                       counts before the sort, on viable
//                                       children (the verdict runs before
//                                       apply); where the machine has a
//                                       successor block, a child that its
//                                       bound cuts never reaches finish()
//
// The scalar arms run in the same binary, so the reported ratios are
// SIMD-vs-scalar on one build (the acceptance comparison), not a
// cross-build artifact. --smoke caps every benchmark at a few iterations
// for the ctest entry.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "search/Expansion.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

using namespace sks;
using namespace sks::bench;
using namespace sks::detail;

namespace {

/// Row-buffer sizes exercised: network band (8..32) and radix band
/// (120, 720 = the n=5/n=6 state sizes).
constexpr uint32_t kLens[] = {8, 16, 24, 32, 120, 720};
/// Corpus buffers per benchmark: large enough that the branch predictor
/// cannot memorize each buffer's comparison pattern across iterations —
/// a 64-buffer corpus made the branchy scalar sort look ~3x faster than
/// it is on the search's ever-fresh row buffers.
constexpr size_t kBuffers = 512;

/// Builds a corpus of \p Count raw row buffers of \p Len rows each for
/// machine size \p N: random register values 0..n and random flag state,
/// sampled from a small pool so duplicate compaction has work to do.
std::vector<uint32_t> rowCorpus(unsigned N, uint32_t Len, size_t Count,
                                uint64_t Seed) {
  Machine M(MachineKind::Cmov, N);
  Rng R(Seed);
  std::vector<uint32_t> Pool(Len * 2);
  for (uint32_t &Row : Pool) {
    Row = 0;
    for (unsigned Reg = 0; Reg != M.numRegs(); ++Reg)
      Row = setReg(Row, Reg, static_cast<uint32_t>(R.below(N + 1)));
    uint64_t Flags = R.below(3);
    if (Flags == 1)
      Row |= FlagLT;
    else if (Flags == 2)
      Row |= FlagGT;
  }
  std::vector<uint32_t> Corpus(Count * Len);
  for (uint32_t &Row : Corpus)
    Row = Pool[R.below(Pool.size())];
  // Pre-sort ~70% of the buffers: that is the measured fraction of raw
  // applied buffers that arrive already sorted in a real search (apply
  // usually preserves the parent's canonical order), and the stage's
  // sorted-input shortcut is part of what this benchmark measures.
  for (size_t B = 0; B != Count; ++B)
    if (B % 10 < 7)
      std::sort(Corpus.begin() + static_cast<ptrdiff_t>(B * Len),
                Corpus.begin() + static_cast<ptrdiff_t>((B + 1) * Len));
  return Corpus;
}

void benchCanonicalize(benchmark::State &State, uint32_t Len, bool Simd) {
  // n = 5 rows for the radix-band sizes, n = 4 for the network band.
  std::vector<uint32_t> Pristine =
      rowCorpus(Len > 32 ? 5 : 4, Len, kBuffers, 42 + Len);
  std::vector<uint32_t> Work(Len);
  for (auto _ : State) {
    for (size_t B = 0; B != kBuffers; ++B) {
      std::copy_n(Pristine.data() + B * Len, Len, Work.data());
      uint32_t Unique = Simd ? canonicalizeRows(Work.data(), Len)
                             : canonicalizeRowsScalar(Work.data(), Len);
      benchmark::DoNotOptimize(Unique);
      benchmark::DoNotOptimize(Work.data());
    }
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(kBuffers * Len));
}

void benchApply(benchmark::State &State, bool Simd) {
  Machine M(MachineKind::Cmov, 4);
  constexpr uint32_t kRows = 4096;
  std::vector<uint32_t> In = rowCorpus(4, kRows, 1, 7);
  std::vector<uint32_t> Out(kRows);
  const std::vector<Instr> &Instrs = M.instructions();
  for (auto _ : State) {
    for (const Instr &I : Instrs) {
      if (Simd) {
        applyBatch(M, I, In.data(), Out.data(), kRows);
      } else {
        for (uint32_t R = 0; R != kRows; ++R)
          Out[R] = M.apply(In[R], I);
      }
      benchmark::DoNotOptimize(Out.data());
    }
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Instrs.size() * kRows));
}

/// Everything the finish() benchmarks share: a real n = 4 machine with its
/// distance table and a corpus of raw (applied, not yet canonical) viable
/// candidate row buffers drawn from random walks off the initial state.
struct FinishFixture {
  Machine M{MachineKind::Cmov, 4};
  DistanceTable DT{M};
  SearchOptions Opts;
  CutTracker Cuts;
  CandidatePipeline Pipeline;
  std::vector<uint32_t> Corpus; ///< kBuffers raw buffers of Len rows each.
  std::vector<uint8_t> Needed;  ///< Each corpus buffer's maxDist.
  uint32_t Len;

  FinishFixture()
      : Opts(makeOpts()), Cuts(Opts.Cut),
        Pipeline(M, Opts, &DT, Cuts) {
    SearchState Init = initialState(M);
    Len = static_cast<uint32_t>(Init.Rows.size()); // 24 rows at n = 4.
    Rng R(11);
    const std::vector<Instr> &Instrs = M.instructions();
    std::vector<uint32_t> Parent;
    while (Needed.size() != kBuffers) {
      // Random-depth walk from the initial state, then one more apply
      // producing the raw (uncanonical) child buffer finish() sees; a
      // child that fails the viability verdict (ChildG = 1) never gets
      // there, so it is drawn again.
      Parent = Init.Rows;
      unsigned Depth = static_cast<unsigned>(R.below(6));
      for (unsigned D = 0; D != Depth; ++D) {
        Instr I = Instrs[R.below(Instrs.size())];
        for (uint32_t &Row : Parent)
          Row = M.apply(Row, I);
        Parent.resize(canonicalizeRows(
            Parent.data(), static_cast<uint32_t>(Parent.size())));
      }
      Instr Via = Instrs[R.below(Instrs.size())];
      std::vector<uint32_t> Child;
      for (uint32_t Row : Parent)
        Child.push_back(M.apply(Row, Via));
      uint8_t D = DT.maxDist(Child);
      if (D == DistanceTable::Unreachable || 1u + D > Opts.MaxLength)
        continue;
      // Pad walks that shrank below Len back up by repeating rows, so
      // every corpus buffer is a uniform Len (duplicates are realistic:
      // raw buffers repeat rows all the time).
      Child.resize(Len, Child.front());
      Corpus.insert(Corpus.end(), Child.begin(), Child.end());
      Needed.push_back(D);
    }
  }

  static SearchOptions makeOpts() {
    SearchOptions Opts;
    Opts.UseViability = true;
    Opts.Cut = CutConfig::none();
    Opts.MaxLength = networkUpperBound(MachineKind::Cmov, 4);
    return Opts;
  }
};

FinishFixture &finishFixture() {
  static FinishFixture F;
  return F;
}

/// The multipass finish(): separate sort+unique, perm-count (the
/// pipeline's bitmap counter, as its own traversal of the canonical rows)
/// and hash traversals. Kept as the baseline.
bool finishMultipass(const FinishFixture &F, CandidateBatch &B,
                     size_t RawBegin, uint8_t Needed) {
  auto Begin = B.Rows.begin() + static_cast<ptrdiff_t>(RawBegin);
  std::sort(Begin, B.Rows.end());
  B.Rows.erase(std::unique(Begin, B.Rows.end()), B.Rows.end());
  const uint32_t *Rows = B.Rows.data() + RawBegin;
  const uint32_t Len = static_cast<uint32_t>(B.Rows.size() - RawBegin);
  uint32_t Perm = permCount(F.M, Rows, Len, B.Scratch);
  Candidate C;
  C.RowOffset = static_cast<uint32_t>(RawBegin);
  C.RowLen = Len;
  C.Parent = 0;
  C.Via = F.M.instructions()[0];
  C.Perm = Perm;
  C.Needed = Needed;
  C.Hash = hashWords(Rows, Len);
  C.Lint = PrefixLint::entry();
  B.List.push_back(C);
  return true;
}

void benchFinish(benchmark::State &State, bool Fused) {
  FinishFixture &F = finishFixture();
  CandidateBatch B;
  B.List.reserve(kBuffers);
  B.Rows.reserve(kBuffers * F.Len);
  SearchStats Stats;
  PrefixLint Lint = PrefixLint::entry();
  Instr Via = F.M.instructions()[0];
  size_t Survivors = 0;
  for (auto _ : State) {
    B.clear();
    for (size_t Buf = 0; Buf != kBuffers; ++Buf) {
      size_t RawBegin = B.Rows.size();
      B.Rows.insert(B.Rows.end(), F.Corpus.data() + Buf * F.Len,
                    F.Corpus.data() + (Buf + 1) * F.Len);
      // ChildG = 1, the depth at which every corpus buffer is viable.
      const uint8_t Needed = F.Needed[Buf];
      bool Survived =
          Fused ? F.Pipeline.finish(B, RawBegin, 1, 0, Via, Lint, Needed,
                                    F.Cuts.maxKept(1), 0, Stats)
                : finishMultipass(F, B, RawBegin, Needed);
      Survivors += Survived;
    }
    benchmark::DoNotOptimize(B.Rows.data());
    benchmark::DoNotOptimize(B.List.data());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(kBuffers * F.Len));
  State.counters["survivors"] =
      static_cast<double>(Survivors) /
      static_cast<double>(std::max<int64_t>(1, State.iterations()));
}

/// Captures per-benchmark timings while still printing the console table.
class CaptureReporter : public benchmark::ConsoleReporter {
public:
  struct Timing {
    std::string Name;
    double NsPerOp;
  };
  std::vector<Timing> Timings;

  void ReportRuns(const std::vector<Run> &Reports) override {
    for (const Run &R : Reports) {
      if (R.error_occurred)
        continue;
      double Iters = std::max<double>(1, static_cast<double>(R.iterations));
      double NsPerOp = R.real_accumulated_time * 1e9 / Iters;
      // Smoke mode's ->Iterations() appends "/iterations:N" to the name;
      // strip it so the speedup pairing below works in both modes.
      std::string Name = R.benchmark_name();
      if (size_t Pos = Name.find("/iterations:"); Pos != std::string::npos)
        Name.resize(Pos);
      Timings.push_back({std::move(Name), NsPerOp});
    }
    ConsoleReporter::ReportRuns(Reports);
  }
};

double nsOf(const CaptureReporter &Rep, const std::string &Name) {
  for (const auto &T : Rep.Timings)
    if (T.Name == Name)
      return T.NsPerOp;
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  BenchArgs Args = parseBenchArgs(argc, argv);
  banner("bench_expand_micro",
         "DESIGN.md section 8: per-stage speedups of the fused, vectorized "
         "expansion pipeline");

  const int64_t SmokeIters = 4;
  auto Register = [&](const std::string &Name, auto Fn) {
    auto *B = benchmark::RegisterBenchmark(Name.c_str(), Fn);
    if (Args.Smoke)
      B->Iterations(SmokeIters);
  };

  for (uint32_t Len : kLens) {
    Register("canonicalize/scalar/" + std::to_string(Len),
             [Len](benchmark::State &S) { benchCanonicalize(S, Len, false); });
    Register("canonicalize/simd/" + std::to_string(Len),
             [Len](benchmark::State &S) { benchCanonicalize(S, Len, true); });
  }
  Register("apply/scalar",
           [](benchmark::State &S) { benchApply(S, false); });
  Register("apply/simd", [](benchmark::State &S) { benchApply(S, true); });
  Register("finish/multipass",
           [](benchmark::State &S) { benchFinish(S, false); });
  Register("finish/fused",
           [](benchmark::State &S) { benchFinish(S, true); });

  int FakeArgc = 1;
  benchmark::Initialize(&FakeArgc, argv);
  CaptureReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);

  // Derived speedup rows (equal workloads, so the ns/op ratio is the
  // throughput ratio). The canonicalize acceptance bar is >= 1.5x.
  Table T({"stage", "scalar ns/op", "simd ns/op", "speedup"});
  auto AddRow = [&](const std::string &Label, const std::string &Scalar,
                    const std::string &Simd) {
    double S = nsOf(Reporter, Scalar), V = nsOf(Reporter, Simd);
    double Ratio = V > 0 ? S / V : 0;
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.2fx", Ratio);
    T.row()
        .cell(Label)
        .cell(std::to_string(static_cast<long long>(S)))
        .cell(std::to_string(static_cast<long long>(V)))
        .cell(Buf);
    return Ratio;
  };
  // The headline canonicalize claim is the geomean across sizes: small
  // buffers are harness- and fixed-cost-dominated, large ones radix-bound.
  double LogSum = 0;
  size_t Count = 0;
  for (uint32_t Len : kLens) {
    double Ratio = AddRow("canonicalize/" + std::to_string(Len),
                          "canonicalize/scalar/" + std::to_string(Len),
                          "canonicalize/simd/" + std::to_string(Len));
    if (Ratio > 0) {
      LogSum += std::log(Ratio);
      ++Count;
    }
  }
  {
    double Geomean = Count ? std::exp(LogSum / static_cast<double>(Count)) : 0;
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.2fx", Geomean);
    T.row().cell("canonicalize/geomean").cell("-").cell("-").cell(Buf);
  }
  AddRow("apply", "apply/scalar", "apply/simd");
  AddRow("finish", "finish/multipass", "finish/fused");
  std::printf("\n");
  T.print();
  std::printf("simd: apply=%s canonicalize=%s (scalar arms forced via the "
              "*Scalar entry points)\n",
              batchApplyUsesSimd() ? "on" : "off",
              canonicalizeUsesSimd() ? "on" : "off");
  return 0;
}
