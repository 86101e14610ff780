//===- machine/BatchApply.h - Data-parallel row transforms -----*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Applies one instruction to a whole buffer of packed rows — the
/// data-parallel formulation a GPU kernel would use (one lane per row),
/// realized here with SSE2 intrinsics four rows at a time (scalar tail and
/// portable fallback included). Every operation on a packed row is pure
/// bit arithmetic with instruction-constant masks/shifts, so the transform
/// vectorizes exactly:
///
///   mov d s   : row = (row & ~maskD) | (((row >> shS) & 7) << shD)
///   cmp a b   : flags from field compares (equal/greater masks)
///   cmovl/g   : blend of the mov result under the flag bit
///   min/max   : field compare + blend of the two fields
///
/// Used by the candidate pipeline of both search engines, which applies
/// each instruction to all rows of a state at once (search/Expansion.h),
/// and by the section 3.2 action filter (tables/DistanceTable.h).
///
//===----------------------------------------------------------------------===//

#ifndef SKS_MACHINE_BATCHAPPLY_H
#define SKS_MACHINE_BATCHAPPLY_H

#include "machine/Machine.h"

#include <cstddef>

namespace sks {

/// Transforms \p Count packed rows from \p In to \p Out under \p I
/// (buffers may alias). Semantically identical to applying
/// Machine::apply row by row; uses SSE2 when available.
void applyBatch(const Machine &M, Instr I, const uint32_t *In, uint32_t *Out,
                size_t Count);

/// \returns true when the SIMD path is compiled in (the function works —
/// scalar — either way).
bool batchApplyUsesSimd();

} // namespace sks

#endif // SKS_MACHINE_BATCHAPPLY_H
