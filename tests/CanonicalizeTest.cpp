//===- tests/CanonicalizeTest.cpp - SIMD canonicalization equivalence ------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Randomized property tests for the vectorized expansion hot path:
//
//  - canonicalizeRows (SSE2 sorting networks / radix sort) must equal the
//    scalar std::sort + std::unique reference on arbitrary 31-bit buffers,
//    across every dispatch band and boundary;
//  - the fused CandidatePipeline::finish must make exactly the decisions
//    and produce exactly the rows/hash/perm of the separate
//    sort+unique / maxDist / countDistinctMasked / hashWords calls it
//    replaced, over random walks of real Cmov, MinMax, and Hybrid machines
//    at n = 3..5.
//
//===----------------------------------------------------------------------===//

#include "machine/BatchApply.h"
#include "search/Expansion.h"
#include "state/Canonicalize.h"
#include "support/Rng.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace sks;
using namespace sks::detail;

namespace {

std::vector<uint32_t> scalarReference(std::vector<uint32_t> Rows) {
  std::sort(Rows.begin(), Rows.end());
  Rows.erase(std::unique(Rows.begin(), Rows.end()), Rows.end());
  return Rows;
}

TEST(Canonicalize, MatchesScalarOnRandomBuffers) {
  // Every dispatch band and its boundaries: network (<= 32, padded to 16
  // or 32), radix (33..1024), std::sort fallback (> 1024).
  const uint32_t Lens[] = {0,  1,  2,   3,   4,   5,    7,    8,    9,
                           15, 16, 17,  24,  31,  32,   33,   64,   120,
                           511, 720, 1023, 1024, 1025, 2000};
  Rng R(123);
  for (uint32_t Len : Lens) {
    for (int Round = 0; Round != 20; ++Round) {
      std::vector<uint32_t> Buf(Len);
      // Mix value ranges: tiny (heavy duplicates), full 30-bit, and the
      // 31-bit edge including the 0x7FFFFFFF padding sentinel itself.
      for (uint32_t &V : Buf) {
        switch (R.below(3)) {
        case 0:
          V = static_cast<uint32_t>(R.below(8));
          break;
        case 1:
          V = static_cast<uint32_t>(R.below(1u << 30));
          break;
        default:
          V = 0x7fffffffu - static_cast<uint32_t>(R.below(4));
          break;
        }
      }
      std::vector<uint32_t> Expected = scalarReference(Buf);
      std::vector<uint32_t> Simd = Buf;
      uint32_t Unique = canonicalizeRows(Simd.data(), Len);
      ASSERT_EQ(Unique, Expected.size()) << "Len=" << Len;
      Simd.resize(Unique);
      EXPECT_EQ(Simd, Expected) << "Len=" << Len;

      std::vector<uint32_t> Sorted = Buf;
      sortRows(Sorted.data(), Len);
      std::sort(Buf.begin(), Buf.end());
      EXPECT_EQ(Sorted, Buf) << "sortRows Len=" << Len;
    }
  }
}

TEST(Canonicalize, ScalarEntryPointMatchesToo) {
  Rng R(9);
  std::vector<uint32_t> Buf(24);
  for (uint32_t &V : Buf)
    V = static_cast<uint32_t>(R.below(64));
  std::vector<uint32_t> Expected = scalarReference(Buf);
  uint32_t Unique =
      canonicalizeRowsScalar(Buf.data(), static_cast<uint32_t>(Buf.size()));
  Buf.resize(Unique);
  EXPECT_EQ(Buf, Expected);
}

TEST(Canonicalize, SimdProbesAgreeWithBuild) {
  // Both SIMD paths are gated on the same architecture test; a build where
  // apply vectorizes but canonicalize does not (or vice versa) is a wiring
  // bug.
  EXPECT_EQ(canonicalizeUsesSimd(), batchApplyUsesSimd());
}

/// One machine's random-walk equivalence check: at every step, the fused
/// finish() must agree with the separate reference calls it replaced.
void checkFusedFinishEquivalence(MachineKind Kind, unsigned N,
                                 unsigned MaxLength, uint64_t Seed) {
  SCOPED_TRACE(testing::Message() << "kind=" << static_cast<int>(Kind)
                                  << " n=" << N << " maxLen=" << MaxLength);
  Machine M(Kind, N);
  DistanceTable DT(M);
  SearchOptions Opts;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::none();
  Opts.MaxLength = MaxLength;
  CutTracker Cuts(Opts.Cut, Opts.MaxLength);
  CandidatePipeline Pipeline(M, Opts, &DT, Cuts);

  Rng R(Seed);
  const std::vector<Instr> &Instrs = M.instructions();
  std::vector<uint32_t> Rows = initialState(M).Rows;
  CandidateBatch B;
  SearchStats Stats;
  PrefixLint Lint = PrefixLint::entry();
  size_t RefPruned = 0, RefSurvived = 0;

  for (int Step = 0; Step != 60; ++Step) {
    Instr Via = Instrs[R.below(Instrs.size())];
    std::vector<uint32_t> Raw(Rows.size());
    applyBatch(M, Via, Rows.data(), Raw.data(), Rows.size());

    // Reference: the separate calls of the multipass pipeline.
    std::vector<uint32_t> Ref = scalarReference(Raw);
    unsigned ChildG = 1 + static_cast<unsigned>(R.below(MaxLength + 2));
    uint8_t Needed = DT.maxDist(Ref.data(), Ref.size());
    bool RefViable = Needed != DistanceTable::Unreachable &&
                     ChildG + Needed <= Opts.MaxLength;
    (RefViable ? RefSurvived : RefPruned) += 1;

    // Fused pipeline on the same raw rows.
    B.clear();
    B.Rows = Raw;
    bool Survived = Pipeline.finish(B, 0, ChildG, 0, Via, Lint, Stats);
    ASSERT_EQ(Survived, RefViable);
    if (Survived) {
      ASSERT_EQ(B.List.size(), 1u);
      const Candidate &C = B.List.back();
      ASSERT_EQ(C.RowLen, Ref.size());
      EXPECT_TRUE(std::equal(Ref.begin(), Ref.end(), B.rowsOf(C)));
      EXPECT_EQ(C.Hash, hashWords(Ref.data(), Ref.size()));
      std::vector<uint32_t> Scratch;
      EXPECT_EQ(C.Perm, countDistinctMasked(Ref.data(), Ref.size(),
                                            M.dataMask(), Scratch));
    } else {
      EXPECT_TRUE(B.List.empty());
      EXPECT_TRUE(B.Rows.empty()) << "pruned candidates leave no rows";
    }

    // Continue the walk from the canonical child (restart when the walk
    // collapses to a dead end so later steps keep exercising wide states).
    Rows = std::move(Ref);
    if (Rows.size() <= 1 || Needed == DistanceTable::Unreachable)
      Rows = initialState(M).Rows;
  }
  EXPECT_EQ(Stats.ViabilityPruned, RefPruned);
  EXPECT_EQ(Stats.StatesGenerated, RefPruned + RefSurvived);
}

TEST(Canonicalize, FusedFinishMatchesSeparateCallsCmov) {
  for (unsigned N = 3; N <= 5; ++N) {
    checkFusedFinishEquivalence(MachineKind::Cmov, N,
                                networkUpperBound(MachineKind::Cmov, N),
                                1000 + N);
    // A tight budget forces the ChildG + maxDist > MaxLength prune arm.
    checkFusedFinishEquivalence(MachineKind::Cmov, N, 6, 2000 + N);
  }
}

TEST(Canonicalize, FusedFinishMatchesSeparateCallsMinMax) {
  for (unsigned N = 3; N <= 5; ++N) {
    checkFusedFinishEquivalence(MachineKind::MinMax, N,
                                networkUpperBound(MachineKind::MinMax, N),
                                3000 + N);
    checkFusedFinishEquivalence(MachineKind::MinMax, N, 5, 4000 + N);
  }
}

TEST(Canonicalize, FusedFinishMatchesSeparateCallsHybrid) {
  // The hybrid machine exists at n = 3 only.
  checkFusedFinishEquivalence(MachineKind::Hybrid, 3,
                              networkUpperBound(MachineKind::Hybrid, 3),
                              5003);
}

TEST(Canonicalize, SingleRowFastPath) {
  // Len == 1 skips the sort and the masked perm pass entirely; the result
  // must still be a full candidate with Perm = 1 and the right hash.
  Machine M(MachineKind::Cmov, 3);
  DistanceTable DT(M);
  SearchOptions Opts;
  Opts.UseViability = true;
  Opts.Cut = CutConfig::none();
  Opts.MaxLength = networkUpperBound(MachineKind::Cmov, 3);
  CutTracker Cuts(Opts.Cut, Opts.MaxLength);
  CandidatePipeline Pipeline(M, Opts, &DT, Cuts);

  uint32_t Row = initialState(M).Rows.front();
  CandidateBatch B;
  B.Rows = {Row};
  SearchStats Stats;
  ASSERT_TRUE(Pipeline.finish(B, 0, 1, 0, M.instructions().front(),
                              PrefixLint::entry(), Stats));
  ASSERT_EQ(B.List.size(), 1u);
  EXPECT_EQ(B.List[0].RowLen, 1u);
  EXPECT_EQ(B.List[0].Perm, 1u);
  EXPECT_EQ(B.List[0].Hash, hashWords(&Row, 1));
}

} // namespace
