//===- sortlib/SortLib.cpp - Sorts with pluggable base-case kernel ---------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sortlib/SortLib.h"

#ifndef NDEBUG
#include "validate/SymbolicExec.h"
#endif

#include <algorithm>
#include <cassert>
#include <functional>
#include <vector>

using namespace sks;

template <KernelLane Lane>
BaseCaseOf<Lane>::BaseCaseOf(unsigned Threshold) : Threshold(Threshold) {
  assert(Threshold >= 2 && Threshold <= 6 && "kernel lengths cover 2..6");
}

template <KernelLane Lane>
void BaseCaseOf<Lane>::setKernel(unsigned Length, KernelFn Fn) {
  assert(Length >= 2 && Length <= Threshold && "kernel length out of range");
  Kernels[Length] = Fn;
}

template <typename Lane> static void insertionSort(Lane *Data, size_t Len) {
  for (size_t I = 1; I < Len; ++I) {
    Lane Value = Data[I];
    size_t J = I;
    for (; J > 0 && Data[J - 1] > Value; --J)
      Data[J] = Data[J - 1];
    Data[J] = Value;
  }
}

template <KernelLane Lane>
void BaseCaseOf<Lane>::sortSmall(Lane *Data, size_t Len) const {
  assert(Len <= Threshold && "not a base case");
  if (Len < 2)
    return;
  if (KernelFn Fn = Kernels[Len]) {
    Fn(Data);
    return;
  }
  insertionSort(Data, Len);
}

template class sks::BaseCaseOf<int32_t>;
template class sks::BaseCaseOf<int64_t>;

template <KernelLane Lane>
std::unique_ptr<JitCode<Lane>> sks::attachJitKernel(BaseCaseOf<Lane> &Base,
                                                    MachineKind Kind,
                                                    unsigned Length,
                                                    const Program &P) {
#ifndef NDEBUG
  // Refuse to install code the translation validator cannot prove: a
  // kernel behind a sort entry point runs on arbitrary user data, so in
  // debug builds every emission is re-proven at attach time.
  if (ValidationReport R = validateJitKernel<Lane>(Kind, Length, P);
      R.Applicable && !R.Ok)
    return nullptr;
#endif
  std::unique_ptr<JitCode<Lane>> Jit = JitCode<Lane>::compile(Kind, Length, P);
  if (!Jit)
    return nullptr;
  Base.setKernel(Length, Jit->entry());
  return Jit;
}

template std::unique_ptr<JitKernel>
sks::attachJitKernel(BaseCase &, MachineKind, unsigned, const Program &);
template std::unique_ptr<JitPairKernel>
sks::attachJitKernel(PairBaseCase &, MachineKind, unsigned, const Program &);

/// Hoare partition of [Lo, Hi) around the median of its first, middle and
/// last lanes, under the order \p Before (std::less ascending,
/// std::greater descending). \returns the split: no lane of [Lo, Split)
/// comes after any lane of [Split, Hi) in that order.
template <typename Lane, typename Order>
static size_t partition(Lane *Data, size_t Lo, size_t Hi, Order Before) {
  size_t Mid = Lo + (Hi - Lo) / 2;
  Lane A = Data[Lo], B = Data[Mid], C = Data[Hi - 1];
  Lane Pivot = std::max(std::min(A, B, Before),
                        std::min(std::max(A, B, Before), C, Before), Before);
  size_t I = Lo, J = Hi - 1;
  for (;;) {
    while (Before(Data[I], Pivot))
      ++I;
    while (Before(Pivot, Data[J]))
      --J;
    if (I >= J)
      break;
    std::swap(Data[I], Data[J]);
    ++I;
    --J;
  }
  return J + 1;
}

template <typename Lane>
static void quicksortRec(Lane *Data, size_t Lo, size_t Hi,
                         const BaseCaseOf<Lane> &Base) {
  while (Hi - Lo > Base.threshold()) {
    size_t Split = partition(Data, Lo, Hi, std::less<Lane>());
    // Recurse into the smaller side first to bound stack depth.
    if (Split - Lo < Hi - Split) {
      quicksortRec(Data, Lo, Split, Base);
      Lo = Split;
    } else {
      quicksortRec(Data, Split, Hi, Base);
      Hi = Split;
    }
  }
  Base.sortSmall(Data + Lo, Hi - Lo);
}

void sks::quicksortWithKernel(int32_t *Data, size_t Len,
                              const BaseCase &Base) {
  if (Len > 1)
    quicksortRec(Data, 0, Len, Base);
}

static void mergesortRec(int32_t *Data, int32_t *Scratch, size_t Len,
                         const BaseCase &Base) {
  if (Len <= Base.threshold()) {
    Base.sortSmall(Data, Len);
    return;
  }
  size_t Half = Len / 2;
  mergesortRec(Data, Scratch, Half, Base);
  mergesortRec(Data + Half, Scratch, Len - Half, Base);
  std::copy(Data, Data + Half, Scratch);
  size_t I = 0, J = Half, Out = 0;
  while (I < Half && J < Len)
    Data[Out++] = Scratch[I] <= Data[J] ? Scratch[I++] : Data[J++];
  while (I < Half)
    Data[Out++] = Scratch[I++];
}

void sks::mergesortWithKernel(int32_t *Data, size_t Len,
                              const BaseCase &Base) {
  if (Len < 2)
    return;
  std::vector<int32_t> Scratch(Len / 2 + 1);
  mergesortRec(Data, Scratch.data(), Len, Base);
}

//===----------------------------------------------------------------------===//
// Analytics entry points
//===----------------------------------------------------------------------===//

void sks::sortKeyVal(int32_t *Keys, uint32_t *Payloads, size_t Len,
                     const PairBaseCase &Base) {
  if (Len < 2)
    return;
  std::vector<int64_t> Pairs(Len);
  for (size_t I = 0; I != Len; ++I)
    Pairs[I] = packPair(Keys[I], Payloads[I]);
  quicksortRec(Pairs.data(), 0, Len, Base);
  for (size_t I = 0; I != Len; ++I) {
    Keys[I] = pairKey(Pairs[I]);
    Payloads[I] = pairPayload(Pairs[I]);
  }
}

/// Quickselect under \p Before: partitions like the quicksort but keeps
/// only the side holding rank \p Target, until at most \p Base's
/// threshold remains. \returns that window [Lo, Hi): every lane of
/// [0, Lo) comes before it and every lane of [Hi, Len) after it.
template <typename Order>
static std::pair<size_t, size_t> selectWindow(int32_t *Data, size_t Len,
                                              size_t Target,
                                              const BaseCase &Base,
                                              Order Before) {
  size_t Lo = 0, Hi = Len;
  while (Hi - Lo > Base.threshold()) {
    size_t Split = partition(Data, Lo, Hi, Before);
    if (Target < Split)
      Hi = Split;
    else
      Lo = Split;
  }
  return {Lo, Hi};
}

void sks::selectK(int32_t *Data, size_t Len, size_t K, const BaseCase &Base) {
  assert(K >= 1 && K <= Len && "selection rank out of range");
  auto [Lo, Hi] = selectWindow(Data, Len, K - 1, Base, std::less<int32_t>());
  // Sorting the surviving window orders everything around the target rank,
  // which is strictly stronger than the nth_element contract.
  Base.sortSmall(Data + Lo, Hi - Lo);
}

void sks::topK(int32_t *Data, size_t Len, size_t K, const BaseCase &Base) {
  assert(K >= 1 && K <= Len && "top-k count out of range");
  if (K < Len) {
    // Quickselect under the DESCENDING order at rank K-1. Afterwards the
    // partition invariant gives [0,Lo) >= window [Lo,Hi) >= [Hi,Len)
    // element-wise, and placing the window's ranks exactly (a kernel sort
    // of <= threshold elements) makes the prefix [0,K) the top-K set.
    auto [Lo, Hi] =
        selectWindow(Data, Len, K - 1, Base, std::greater<int32_t>());
    Base.sortSmall(Data + Lo, Hi - Lo);
    std::reverse(Data + Lo, Data + Hi); // Window descending, ranks exact.
  }
  // [0,K) now holds the K largest (in some order); kernel-sort them
  // ascending and reverse for the conventional descending top-k.
  quicksortWithKernel(Data, K, Base);
  std::reverse(Data, Data + K);
}
