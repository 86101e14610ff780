//===- sortlib/SortLib.h - Sorts with pluggable base-case kernel -*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quicksort and mergesort that recurse until at most n elements remain and
/// then invoke a small-array kernel — the "natural way" the paper embeds
/// the synthesized kernels for its section 5.3 embedded benchmarks — plus
/// the analytics entry points (key-payload sort, selection, top-k) built
/// on the same quicksort partition. The base case is one template over the
/// lane type of codegen/Jit.h: int32 values, or packed 64-bit key-payload
/// lanes for sortKeyVal.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_SORTLIB_SORTLIB_H
#define SKS_SORTLIB_SORTLIB_H

#include "codegen/Jit.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace sks {

/// The base case of the divide-and-conquer sorts over \p Lane lanes:
/// exact-length kernels for lengths 2..Threshold; missing entries fall
/// back to insertion sort.
template <KernelLane Lane> class BaseCaseOf {
public:
  using KernelFn = void (*)(Lane *);

  /// Creates a base case that switches to kernels at \p Threshold
  /// remaining elements (2 <= Threshold <= 6).
  explicit BaseCaseOf(unsigned Threshold);

  /// Registers the kernel sorting exactly \p Length lanes.
  void setKernel(unsigned Length, KernelFn Fn);

  unsigned threshold() const { return Threshold; }

  /// Sorts \p Len <= threshold() lanes.
  void sortSmall(Lane *Data, size_t Len) const;

private:
  unsigned Threshold;
  std::array<KernelFn, 7> Kernels{};
};

using BaseCase = BaseCaseOf<int32_t>;
/// Over packed key-payload lanes (codegen/Jit.h packPair: int32 key in the
/// high half, uint32 payload in the low half, so a signed 64-bit
/// comparison orders by key).
using PairBaseCase = BaseCaseOf<int64_t>;

/// JIT-compiles \p P over \p Base's lanes and registers it as the kernel
/// for \p Length lanes. \returns the owning kernel (keep it alive as long
/// as \p Base uses it), or nullptr when the host lacks JIT support or
/// emission fails. Debug builds first run the translation validator
/// (validate/SymbolicExec.h) on the emitted bytes and refuse — returning
/// nullptr without registering — any stream that fails its proof, so no
/// unproven code is ever installed behind a sort entry point.
template <KernelLane Lane>
std::unique_ptr<JitCode<Lane>> attachJitKernel(BaseCaseOf<Lane> &Base,
                                               MachineKind Kind,
                                               unsigned Length,
                                               const Program &P);

/// Quicksort (Hoare partition, median-of-three pivot) recursing to
/// \p Base.threshold() and finishing with the base-case kernels.
void quicksortWithKernel(int32_t *Data, size_t Len, const BaseCase &Base);

/// Bottom-up-free recursive mergesort with one scratch buffer, using the
/// base-case kernels for leaves.
void mergesortWithKernel(int32_t *Data, size_t Len, const BaseCase &Base);

//===----------------------------------------------------------------------===//
// Analytics entry points: key-payload sort, selection, top-k
//===----------------------------------------------------------------------===//

/// Sorts \p Keys ascending and applies the same permutation to
/// \p Payloads (a sort-by-key over parallel arrays, the shape of a
/// sort-based group-by). Packs into 64-bit lanes, quicksorts with the
/// pair base-case kernels, and unpacks. Equal keys order by payload (the
/// packed comparison's tiebreak), so the result is deterministic.
void sortKeyVal(int32_t *Keys, uint32_t *Payloads, size_t Len,
                const PairBaseCase &Base);

/// Quickselect: places the K-th smallest element (K is 1-based, matching
/// the select-k goal predicate) at Data[K-1], with no element after it
/// smaller and none before it larger — std::nth_element semantics.
/// Subranges at or below the base-case threshold are finished with the
/// kernels.
void selectK(int32_t *Data, size_t Len, size_t K, const BaseCase &Base);

/// Moves the K largest elements to Data[0..K), sorted descending (the
/// analytics "top-k" shape); the remaining Len-K elements follow in
/// unspecified order. Quickselect under the descending order, then
/// kernel-sort the prefix.
void topK(int32_t *Data, size_t Len, size_t K, const BaseCase &Base);

} // namespace sks

#endif // SKS_SORTLIB_SORTLIB_H
