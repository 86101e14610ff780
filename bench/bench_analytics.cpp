//===- bench/bench_analytics.cpp - Analytics-shaped kernel workloads -------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runtime benchmarks for the goal-predicate generalization: the sortlib
// analytics entry points backed by synthesized kernels against their
// standard-library counterparts.
//
//   sort_keyval   sortKeyVal (packed 64-bit pair quicksort, synthesized
//                 base case) vs std::sort over the same packed lanes
//   select_k      selectK (kernel-finished quickselect) vs std::nth_element
//   top_k         topK (descending quickselect + kernel sort) vs
//                 std::partial_sort
//   group_by      sort-based group-by/aggregate (sortKeyVal by group key,
//                 then one linear aggregation pass) vs the same pass over
//                 std::sort-ed pairs
//
// Every configuration is checked against its baseline for agreement before
// timing, so the smoke ctest entry doubles as an end-to-end correctness
// test of the pair JIT + sortlib analytics path. The kernel rows' mix
// column names the goal predicate each row exercises.
//
//===----------------------------------------------------------------------===//

#include "KernelBench.h"

#include "verify/Verify.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>

using namespace sks;
using namespace sks::bench;

namespace {

/// One timed comparison row.
struct AnalyticsRow {
  std::string Config;
  std::string Goal;
  std::string Baseline;
  double Millis = 0;
  double BaselineMillis = 0;
};

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  banner("bench_analytics",
         "analytics workloads over synthesized kernels: key-value sort, "
         "selection, top-k, sort-based group-by");

  // One synthesized n=4 cmov sorting kernel backs every base case: it
  // satisfies each goal in the family, and the identical program drives
  // both the int32 JIT (BaseCase) and the packed-pair JIT (PairBaseCase).
  const unsigned N = 4;
  Machine M(MachineKind::Cmov, N);
  SearchResult R = synthesize(M, bestEnumConfig(MachineKind::Cmov, N));
  if (!R.Found) {
    std::fprintf(stderr, "error: n=4 kernel synthesis failed\n");
    return 1;
  }
  const Program &Kernel = R.Solutions.front();
  std::printf("synthesized n=%u kernel: %u instructions\n", N,
              R.OptimalLength);

  // attachJitKernel compiles, registers, and (in debug builds) proves the
  // emission with the translation validator before installing it.
  BaseCase Base(N);
  std::unique_ptr<JitKernel> Jit =
      attachJitKernel(Base, MachineKind::Cmov, N, Kernel);
  if (!Jit)
    std::printf("warning: no JIT on this host; base cases fall back to "
                "insertion sort.\n");

  PairBaseCase PairBase(N);
  std::unique_ptr<JitPairKernel> PairJit =
      attachJitKernel(PairBase, MachineKind::Cmov, N, Kernel);

  const size_t Len = Args.Smoke ? 50'000 : 1'000'000;
  Rng Gen(42);
  std::vector<int32_t> Keys(Len);
  std::vector<uint32_t> Payloads(Len);
  for (size_t I = 0; I != Len; ++I) {
    Keys[I] = static_cast<int32_t>(Gen.range(-100000, 100000));
    Payloads[I] = static_cast<uint32_t>(I);
  }

  std::vector<AnalyticsRow> Rows;
  bool Ok = true;

  // --- sort_keyval: pair quicksort vs std::sort on packed lanes. ---------
  {
    std::vector<int64_t> Packed(Len);
    for (size_t I = 0; I != Len; ++I)
      Packed[I] = packPair(Keys[I], Payloads[I]);

    std::vector<int32_t> K1 = Keys;
    std::vector<uint32_t> P1 = Payloads;
    sortKeyVal(K1.data(), P1.data(), Len, PairBase);
    std::vector<int64_t> Reference = Packed;
    std::sort(Reference.begin(), Reference.end());
    for (size_t I = 0; Ok && I != Len; ++I)
      Ok = K1[I] == pairKey(Reference[I]) && P1[I] == pairPayload(Reference[I]);
    if (!Ok) {
      std::fprintf(stderr, "error: sortKeyVal disagrees with std::sort\n");
      return 1;
    }

    std::vector<int32_t> WorkK(Len);
    std::vector<uint32_t> WorkP(Len);
    double Ours = measureMillis([&] {
      WorkK = Keys;
      WorkP = Payloads;
      sortKeyVal(WorkK.data(), WorkP.data(), Len, PairBase);
    });
    std::vector<int64_t> WorkPacked(Len);
    double Std = measureMillis([&] {
      WorkPacked = Packed;
      std::sort(WorkPacked.begin(), WorkPacked.end());
    });
    Rows.push_back({"sort_keyval", "sort", "std::sort(packed)", Ours, Std});
  }

  // --- select_k: median via kernel quickselect vs std::nth_element. ------
  {
    const size_t K = Len / 2 + 1; // 1-based median rank.
    std::vector<int32_t> A = Keys;
    selectK(A.data(), Len, K, Base);
    std::vector<int32_t> B = Keys;
    std::nth_element(B.begin(), B.begin() + (K - 1), B.end());
    if (A[K - 1] != B[K - 1]) {
      std::fprintf(stderr, "error: selectK disagrees with nth_element\n");
      return 1;
    }

    std::vector<int32_t> Work(Len);
    double Ours = measureMillis([&] {
      Work = Keys;
      selectK(Work.data(), Len, K, Base);
    });
    double Std = measureMillis([&] {
      Work = Keys;
      std::nth_element(Work.begin(), Work.begin() + (K - 1), Work.end());
    });
    Rows.push_back({"select_k_median", "select-" + std::to_string(K),
                    "std::nth_element", Ours, Std});
  }

  // --- top_k: 100 largest via kernel top-k vs std::partial_sort. ---------
  {
    const size_t K = 100;
    std::vector<int32_t> A = Keys;
    topK(A.data(), Len, K, Base);
    std::vector<int32_t> B = Keys;
    std::partial_sort(B.begin(), B.begin() + K, B.end(),
                      std::greater<int32_t>());
    if (std::memcmp(A.data(), B.data(), K * sizeof(int32_t)) != 0) {
      std::fprintf(stderr, "error: topK disagrees with partial_sort\n");
      return 1;
    }

    std::vector<int32_t> Work(Len);
    double Ours = measureMillis([&] {
      Work = Keys;
      topK(Work.data(), Len, K, Base);
    });
    double Std = measureMillis([&] {
      Work = Keys;
      std::partial_sort(Work.begin(), Work.begin() + K, Work.end(),
                        std::greater<int32_t>());
    });
    Rows.push_back({"top_k_100", "top-" + std::to_string(K),
                    "std::partial_sort", Ours, Std});
  }

  // --- group_by: sort-by-group-key then one aggregation pass. ------------
  {
    const uint32_t Groups = 1000;
    std::vector<int32_t> GroupKey(Len);
    std::vector<uint32_t> Value(Len);
    for (size_t I = 0; I != Len; ++I) {
      GroupKey[I] = static_cast<int32_t>(Gen.below(Groups));
      Value[I] = static_cast<uint32_t>(Gen.below(1000));
    }

    // Aggregate per group after sorting by key; the sorted order makes it
    // one linear pass.
    auto Aggregate = [&](const int32_t *SortedKeys, const uint32_t *SortedVals,
                         std::vector<uint64_t> &Sums) {
      Sums.assign(Groups, 0);
      for (size_t I = 0; I != Len; ++I)
        Sums[static_cast<uint32_t>(SortedKeys[I])] += SortedVals[I];
    };

    std::vector<int32_t> WorkK(Len);
    std::vector<uint32_t> WorkV(Len);
    std::vector<uint64_t> OurSums, StdSums;
    double Ours = measureMillis([&] {
      WorkK = GroupKey;
      WorkV = Value;
      sortKeyVal(WorkK.data(), WorkV.data(), Len, PairBase);
      Aggregate(WorkK.data(), WorkV.data(), OurSums);
    });
    std::vector<std::pair<int32_t, uint32_t>> Pairs(Len);
    double Std = measureMillis([&] {
      for (size_t I = 0; I != Len; ++I)
        Pairs[I] = {GroupKey[I], Value[I]};
      std::sort(Pairs.begin(), Pairs.end());
      WorkK.clear();
      WorkV.clear();
      for (const auto &[GK, V] : Pairs) {
        WorkK.push_back(GK);
        WorkV.push_back(V);
      }
      Aggregate(WorkK.data(), WorkV.data(), StdSums);
    });
    if (OurSums != StdSums) {
      std::fprintf(stderr, "error: group-by aggregates disagree\n");
      return 1;
    }
    Rows.push_back({"group_by_sum", "sort", "std::sort(pairs)", Ours, Std});
  }

  std::vector<TimedRow> Table;
  for (const AnalyticsRow &Row : Rows) {
    Table.push_back({Row.Config + " (kernel)", Row.Millis, 0, Row.Goal});
    Table.push_back({Row.Config + " (" + Row.Baseline + ")",
                     Row.BaselineMillis, 0, "-"});
  }
  printRankedTable("analytics workloads", Table);
  return 0;
}
