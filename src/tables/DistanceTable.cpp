//===- tables/DistanceTable.cpp - Exact per-assignment distances ----------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Backward BFS from all goal-accepting assignments (all sorted assignments
// for the sort goal). For each instruction we generate the *predecessors*
// of a frontier state S:
//
//   mov d s    : requires S[d] == S[s]; predecessors set register d to any
//                other value (the mov overwrote it).
//   cmp a b    : requires S's flags to match cmp(S[a], S[b]); predecessors
//                carry any other flag state.
//   cmovl d s  : with lt set, same as mov (the move fired); with lt clear
//                the instruction is a no-op, contributing only self-loops.
//   cmovg d s  : symmetric with gt.
//   pmin d s   : requires S[d] <= S[s]; if S[d] == S[s] the destination may
//                have held any larger value; if S[d] < S[s] only S itself
//                (self-loop). pmax symmetric.
//
// Self-loops never improve a BFS distance and are skipped.
//
// The successor block is filled from the finished table, one row per
// reachable flag-free assignment. Every forward edge appears reversed in
// the predecessor rules above, so a child of an unreachable assignment is
// unreachable too, and all unreachable assignments share row 0 (all
// Unreachable). The fold reads the block with SSE2, sixteen instructions
// per load, and so does the budget compare after it, with a portable byte
// loop elsewhere.
//
//===----------------------------------------------------------------------===//

#include "tables/DistanceTable.h"

#include "machine/BatchApply.h"

#include <algorithm>
#include <cassert>

#if defined(__x86_64__)
#include <emmintrin.h>
#define SKS_FOLD_SIMD 1
#else
#define SKS_FOLD_SIMD 0
#endif

using namespace sks;

namespace {

/// Flag class of a row: 0 no flag, 1 lt, 2 gt (a cmp sets at most one).
constexpr unsigned kClasses = 3;
inline unsigned flagClass(uint32_t Row) { return (Row >> 28) & 3u; }

/// The flags under which \p Op fires; a cmov entry is its mov child's.
inline uint32_t firingFlags(Opcode Op) {
  return Op == Opcode::CMovL ? FlagLT : Op == Opcode::CMovG ? FlagGT : 0u;
}

#if SKS_FOLD_SIMD
inline __m128i load(const uint8_t *P) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i *>(P));
}
inline void store(uint8_t *P, __m128i V) {
  _mm_storeu_si128(reinterpret_cast<__m128i *>(P), V);
}
/// Lane-wise Mask ? A : B.
inline __m128i select(__m128i Mask, __m128i A, __m128i B) {
  return _mm_or_si128(_mm_and_si128(Mask, A), _mm_andnot_si128(Mask, B));
}
#endif

/// Acc[0..Stride) = max(Acc, Src), lane-wise.
inline void maxInto(uint8_t *Acc, const uint8_t *Src, size_t Stride) {
#if SKS_FOLD_SIMD
  for (size_t B = 0; B != Stride; B += 16)
    store(Acc + B, _mm_max_epu8(load(Acc + B), load(Src + B)));
#else
  for (size_t B = 0; B != Stride; ++B)
    Acc[B] = std::max(Acc[B], Src[B]);
#endif
}

/// Marks in \p Acc every entry of \p Src one below \p Own. The add
/// saturates, so an Unreachable entry never wraps around to match.
inline void markDrops(uint8_t *Acc, const uint8_t *Src, uint8_t Own,
                      size_t Stride) {
#if SKS_FOLD_SIMD
  const __m128i One = _mm_set1_epi8(1);
  const __m128i Target = _mm_set1_epi8(static_cast<char>(Own));
  for (size_t B = 0; B != Stride; B += 16)
    store(Acc + B,
          _mm_or_si128(load(Acc + B),
                       _mm_cmpeq_epi8(_mm_adds_epu8(load(Src + B), One),
                                      Target)));
#else
  for (size_t B = 0; B != Stride; ++B)
    if (Src[B] != DistanceTable::Unreachable && Src[B] + 1 == Own)
      Acc[B] = 0xff;
#endif
}

} // namespace

DistanceTable::DistanceTable(const Machine &M)
    : M(M), HasFlags(M.kind() != MachineKind::MinMax) {
  const unsigned R = M.numRegs();
  const uint32_t NumValues = M.numValues();
  size_t RegSpace = size_t(1) << (3 * R);
  Dist.assign(HasFlags ? RegSpace * 3 : RegSpace, Unreachable);

  // Seed the BFS with every accepting assignment: goal-pinned data
  // registers read their required values, the remaining enumerated
  // registers (unpinned data positions, then scratch) and the flags are
  // arbitrary. For the sort goal every data register is pinned, so this
  // reproduces the original sorted-row seed set in the same order.
  // The hybrid machine's vector registers are not enumerated: they stay 0
  // in every seed, so an accepting row with a value in a vector register
  // reads a positive distance and the table over-estimates there
  // (ROADMAP, correctness item on the hybrid table). Seeding them makes
  // PaperNumbers.HybridOffersNoShorterKernel's length-10 proof run out of
  // memory, so the fix waits for a proof that fits.
  std::vector<uint32_t> Frontier;
  const unsigned NumScratch = M.numScratch();
  const unsigned N = M.numData();
  uint32_t FlagChoices[3] = {0, FlagLT, FlagGT};
  std::vector<unsigned> FreeRegs;
  uint32_t Pinned = M.goal().pinnedPositions(N);
  for (unsigned J = 0; J != N; ++J)
    if (!(Pinned & (1u << J)))
      FreeRegs.push_back(J);
  for (unsigned I = 0; I != NumScratch; ++I)
    FreeRegs.push_back(N + I);
  size_t FreeCombos = 1;
  for (size_t I = 0; I != FreeRegs.size(); ++I)
    FreeCombos *= NumValues;
  for (size_t Combo = 0; Combo != FreeCombos; ++Combo) {
    uint32_t Row = M.goalPattern();
    size_t Rest = Combo;
    for (unsigned Reg : FreeRegs) {
      Row = setReg(Row, Reg, static_cast<uint32_t>(Rest % NumValues));
      Rest /= NumValues;
    }
    for (unsigned F = 0; F != (HasFlags ? 3u : 1u); ++F) {
      uint32_t Seeded = Row | FlagChoices[F];
      uint8_t &Slot = Dist[indexOf(Seeded)];
      if (Slot == 0)
        continue;
      Slot = 0;
      Frontier.push_back(Seeded);
    }
  }
  Reachable = Frontier.size();

  auto Visit = [&](uint32_t Pred, uint8_t D, std::vector<uint32_t> &Next) {
    uint8_t &Slot = Dist[indexOf(Pred)];
    if (Slot != Unreachable)
      return;
    Slot = D;
    ++Reachable;
    Next.push_back(Pred);
  };

  std::vector<uint32_t> Next;
  for (uint8_t D = 1; !Frontier.empty(); ++D) {
    Next.clear();
    for (uint32_t S : Frontier) {
      uint32_t Flags = S & FlagMask;
      // mov-like predecessors (mov always; cmovl/cmovg only under their
      // flag; pmin/pmax with the range conditions).
      for (unsigned DstReg = 0; DstReg != R; ++DstReg) {
        uint32_t DstVal = getReg(S, DstReg);
        for (unsigned SrcReg = 0; SrcReg != R; ++SrcReg) {
          if (DstReg == SrcReg)
            continue;
          uint32_t SrcVal = getReg(S, SrcReg);
          if (M.kind() != MachineKind::MinMax) {
            if (DstVal != SrcVal)
              continue;
            // mov fired unconditionally; cmovl/cmovg fired under the
            // current flags. All three share the same predecessor set, so
            // one pass suffices.
            for (uint32_t V = 0; V != NumValues; ++V) {
              if (V == DstVal)
                continue;
              Visit(setReg(S, DstReg, V), D, Next);
            }
          } else {
            // pmin: S[d] == S[s] means the old value was >= S[s].
            if (DstVal == SrcVal) {
              for (uint32_t V = 0; V != NumValues; ++V) {
                if (V == DstVal)
                  continue;
                // Either pmin erased a larger value or pmax erased a
                // smaller one; both directions yield predecessors.
                Visit(setReg(S, DstReg, V), D, Next);
              }
              // movdqa predecessors coincide with the union above.
            }
          }
        }
      }
      if (HasFlags) {
        // cmp predecessors: if S's flags are consistent with comparing some
        // register pair of S, any prior flag state is a predecessor.
        bool FlagsProducible = false;
        for (unsigned A = 0; A != R && !FlagsProducible; ++A)
          for (unsigned B = A + 1; B != R; ++B) {
            uint32_t VA = getReg(S, A), VB = getReg(S, B);
            uint32_t Produced =
                VA < VB ? FlagLT : (VA > VB ? FlagGT : 0u);
            if (Produced == Flags) {
              FlagsProducible = true;
              break;
            }
          }
        if (FlagsProducible) {
          uint32_t Bare = S & ~FlagMask;
          for (uint32_t F : FlagChoices) {
            if (F == Flags)
              continue;
            Visit(Bare | F, D, Next);
          }
        }
      }
    }
    Frontier.swap(Next);
  }
  buildSuccessors();
}

void DistanceTable::buildSuccessors() {
  const std::vector<Instr> &Instrs = M.instructions();
  OwnSlot = Instrs.size();
  Stride = (OwnSlot + 16) / 16 * 16;
  Fires.assign(kClasses * Stride, 0);
  for (size_t K = 0; K != Instrs.size(); ++K)
    for (unsigned C = 0; C != kClasses; ++C) {
      uint32_t Need = firingFlags(Instrs[K].Op);
      uint32_t Has = C == 1 ? FlagLT : C == 2 ? FlagGT : 0u;
      Fires[C * Stride + K] = (Need & ~Has) == 0 ? 0xff : 0;
    }

  // Flags never change a distance, so each reachable register assignment
  // is reachable under all of its flag states and the BFS count gives the
  // block's size before any row is built; row 0 is the unreachable one.
  const size_t BlockRows = 1 + Reachable / (HasFlags ? 3 : 1);
  const unsigned NumValues = M.numValues();
  size_t Ranks = 1;
  for (unsigned Reg = 0; Reg != M.numRegs(); ++Reg)
    Ranks *= NumValues;
  if (BlockRows > 0x10000 ||
      BlockRows * Stride + Ranks * sizeof(uint16_t) > Dist.size())
    return;

  SuccIndex.assign(Ranks, 0);
  Succ.reserve(BlockRows * Stride);
  Succ.assign(Stride, 0);
  std::fill_n(Succ.begin(), OwnSlot + 1, Unreachable);
  for (size_t Rank = 0; Rank != Ranks; ++Rank) {
    uint32_t Regs = 0;
    size_t Rest = Rank;
    for (unsigned Reg = 0; Reg != M.numRegs(); ++Reg, Rest /= NumValues)
      Regs = setReg(Regs, Reg, static_cast<uint32_t>(Rest % NumValues));
    const uint8_t Own = dist(Regs);
    if (Own == Unreachable)
      continue;
    // The flag-free row serves all three flag states.
    assert(!HasFlags ||
           (dist(Regs | FlagLT) == Own && dist(Regs | FlagGT) == Own));
    SuccIndex[Rank] = static_cast<uint16_t>(Succ.size() / Stride);
    Succ.resize(Succ.size() + Stride);
    uint8_t *Row = Succ.data() + Succ.size() - Stride;
    for (size_t K = 0; K != Instrs.size(); ++K)
      Row[K] = dist(M.apply(Regs | firingFlags(Instrs[K].Op), Instrs[K]));
    Row[OwnSlot] = Own;
  }
  assert(Succ.size() == BlockRows * Stride);
}

void DistanceTable::foldSuccessors(const uint32_t *Rows, size_t Len,
                                   bool WantOptimal, SuccessorFold &F) const {
  F.Needed.resize(Stride);
  if (WantOptimal)
    F.Optimal.resize(Stride);
  if (Succ.empty()) {
    foldByApply(Rows, Len, WantOptimal, F);
    return;
  }
  // Maxima per flag class, then (on request) optimal-progress marks.
  F.Acc.assign((WantOptimal ? 2 : 1) * kClasses * Stride, 0);
  uint8_t *Max = F.Acc.data();
  uint8_t *Marks = Max + kClasses * Stride;
  for (size_t I = 0; I != Len; ++I) {
    const unsigned C = flagClass(Rows[I]);
    assert(C < kClasses && "a row carries at most one flag");
    const uint8_t *Src = Succ.data() + SuccIndex[rankOf(Rows[I])] * Stride;
    maxInto(Max + C * Stride, Src, Stride);
    const uint8_t Own = Src[OwnSlot];
    if (WantOptimal && Own != 0 && Own != Unreachable)
      markDrops(Marks + C * Stride, Src, Own, Stride);
  }

  // Per instruction, a class the instruction fires on contributes its
  // fired maximum, any other class its own distance (the row is left as
  // it was): a cmovl takes the lt maximum and the other classes' own.
  const uint8_t *Fire = Fires.data();
#if SKS_FOLD_SIMD
  __m128i Own[kClasses];
  for (unsigned C = 0; C != kClasses; ++C)
    Own[C] = _mm_set1_epi8(static_cast<char>(Max[C * Stride + OwnSlot]));
  for (size_t B = 0; B != Stride; B += 16) {
    __m128i Need = _mm_setzero_si128(), Opt = _mm_setzero_si128();
    for (unsigned C = 0; C != kClasses; ++C) {
      const size_t At = C * Stride + B;
      const __m128i Fired = load(Fire + At);
      Need = _mm_max_epu8(Need, select(Fired, load(Max + At), Own[C]));
      if (WantOptimal)
        Opt = _mm_or_si128(Opt, _mm_and_si128(Fired, load(Marks + At)));
    }
    store(F.Needed.data() + B, Need);
    if (WantOptimal)
      store(F.Optimal.data() + B, Opt);
  }
#else
  for (size_t B = 0; B != Stride; ++B) {
    uint8_t Need = 0, Opt = 0;
    for (unsigned C = 0; C != kClasses; ++C) {
      const size_t At = C * Stride + B;
      Need = std::max<uint8_t>(Need, Fire[At] ? Max[At]
                                              : Max[C * Stride + OwnSlot]);
      if (WantOptimal)
        Opt |= Fire[At] & Marks[At];
    }
    F.Needed[B] = Need;
    if (WantOptimal)
      F.Optimal[B] = Opt;
  }
#endif
}

InstrSet DistanceTable::withinBudget(const SuccessorFold &F,
                                     unsigned Budget) const {
  assert(F.Needed.size() == Stride && "F holds no fold of this table");
  const uint8_t Limit = static_cast<uint8_t>(std::min(Budget, 254u));
  InstrSet Out;
  // The loads stop inside the padded stride: OwnSlot < Stride.
#if SKS_FOLD_SIMD
  const __m128i Max = _mm_set1_epi8(static_cast<char>(Limit));
  for (size_t B = 0; B < OwnSlot; B += 16) {
    const __m128i Need = load(F.Needed.data() + B);
    const __m128i Within = _mm_cmpeq_epi8(_mm_min_epu8(Need, Max), Need);
    Out.insertBits(B, static_cast<unsigned>(_mm_movemask_epi8(Within)));
  }
#else
  for (size_t K = 0; K != OwnSlot; ++K)
    if (F.Needed[K] <= Limit)
      Out.insert(K);
#endif
  // Drop the own-distance slot and the padding past the alphabet.
  return Out & InstrSet::prefix(OwnSlot);
}

void DistanceTable::foldByApply(const uint32_t *Rows, size_t Len,
                                bool WantOptimal, SuccessorFold &F) const {
  const std::vector<Instr> &Instrs = M.instructions();
  F.Applied.resize(Len);
  for (size_t K = 0; K != Instrs.size(); ++K) {
    applyBatch(M, Instrs[K], Rows, F.Applied.data(), Len);
    uint8_t Need = 0, Opt = 0;
    for (size_t I = 0; I != Len; ++I) {
      const uint8_t D = dist(F.Applied[I]);
      Need = std::max(Need, D);
      if (WantOptimal) {
        const uint8_t Own = dist(Rows[I]);
        if (Own != 0 && Own != Unreachable && D + 1 == Own)
          Opt = 0xff;
      }
    }
    F.Needed[K] = Need;
    if (WantOptimal)
      F.Optimal[K] = Opt;
  }
}
