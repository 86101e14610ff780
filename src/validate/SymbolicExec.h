//===- validate/SymbolicExec.h - JIT translation validation -----*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static translation validation of the JIT (DESIGN.md section 15): prove
/// that an emitted x86-64 byte stream computes the same function as the
/// source kernel IR, without ever executing the bytes. The proof stacks
/// four layers over the decoded stream (validate/Decoder.h):
///
///  1. Register/ABI discipline — every written register belongs to the
///     kernel's model file; rdi (the array pointer), rsp/rbp/rbx/r12-r15
///     (callee-saved), and every other host register are provably
///     untouched because no decoded instruction names them as a
///     destination. Operand widths must match the lane width (REX.W on
///     pair kernels, 32-bit forms on scalar ones).
///  2. Memory discipline — every access is [rdi + disp8] with a
///     lane-aligned displacement inside the n-element array, and each
///     slot is stored exactly once (the epilogue shape).
///  3. Flag/init discipline — a conditional move must be dominated by a
///     flag-defining instruction (the prologue xor or a cmp), and no
///     register is read before the stream defines it. These uses are
///     data-independent (a cmov reads its source and flags whether or not
///     it moves), so one static pass decides them. In the pair min/max
///     path the same layer pins the xmm0 mask staging shape (stage data,
///     pcmpgtq, blendvpd) so mask values never leak into the data flow.
///  4. Semantic equivalence — the decoded stream and the IR run side by
///     side over the order family: all n^n vectors over {1..n}. Both are
///     comparison/copy programs, which commute with every strictly
///     monotone map, so agreement on every weak order of the inputs
///     (ties included) implies agreement on every input — this is what
///     upgrades the check from testing to proof. When either side
///     compares a zero-initialized value (scratch reads are legal and
///     real: lint's uninit-read note), the family widens to
///     (n+2)*(n+1)^n vectors that also enumerate every position of the
///     constant 0 among the inputs. Pair kernels run the same vectors as
///     packed lanes with one constant payload, so two lanes tie exactly
///     when their keys do and both lane widths see every weak order of
///     (inputs, 0). Layers 1-3 pin the code to whole-lane compares and
///     copies, so agreement on pair lanes is agreement on every int64
///     input: a payload never leaves its key.
///
/// What this does NOT prove: anything about the host memory model,
/// concurrency, or the mapping/mprotect path — the theorem is about the
/// byte stream as a sequential function from the n input lanes to the n
/// output lanes. Hybrid kernels have no JIT emission path and report
/// Applicable = false.
///
/// One entry serves both lane types: validateJitKernel<Lane> emits
/// through the JIT's one encoder (codegen/Jit.h emitKernelBytes<Lane>),
/// and every layer takes the lane width as data (validateKernelBytes's
/// PairLanes).
///
//===----------------------------------------------------------------------===//

#ifndef SKS_VALIDATE_SYMBOLICEXEC_H
#define SKS_VALIDATE_SYMBOLICEXEC_H

#include "codegen/Jit.h"
#include "isa/Instr.h"
#include "machine/Goal.h"
#include "machine/Machine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sks {

/// What a validation finding is about.
enum class ValidationRule : uint8_t {
  Decode,             ///< The stream is not in the emitted subset.
  Emit,               ///< Emission itself failed (validateJitKernel only).
  Structure,          ///< Program/array shape outside the model.
  RegisterDiscipline, ///< Write outside the model file / wrong width or
                      ///< file / ABI clobber.
  MemoryDiscipline,   ///< Access outside or misaligned in the array, or a
                      ///< slot not stored exactly once.
  FlagDiscipline,     ///< Conditional move under undefined host flags, or
                      ///< a broken xmm0 mask staging shape (pair min/max).
  UninitRead,         ///< Register read before any definition.
  Semantics,          ///< An input vector where code and IR disagree.
};

/// \returns the display name of \p R ("decode", "semantics", ...).
const char *validationRuleName(ValidationRule R);

/// One reason the translation is not proven.
struct ValidationFinding {
  ValidationRule Rule = ValidationRule::Decode;
  /// Byte offset into the stream (the failing instruction, or the decode
  /// error position); 0 when the finding is not tied to an offset.
  uint32_t Offset = 0;
  std::string Message;
};

/// Result of validating one byte stream against one source program.
struct ValidationReport {
  /// False when the kind has no JIT emission path (Hybrid): nothing to
  /// validate, Ok is meaningless.
  bool Applicable = false;
  /// True when every layer passed: the stream provably computes the IR's
  /// function.
  bool Ok = false;
  std::vector<ValidationFinding> Findings;
  /// Instructions decoded (0 when decoding failed).
  size_t DecodedCount = 0;
  /// Always 0: the boolean family it counted is gone, and the field stays
  /// for callers that still report it.
  unsigned BooleanVectors = 0;
  /// Order-family vectors checked (n^n, or (n+2)*(n+1)^n when a zero is
  /// compared); 0 when an earlier layer already failed.
  unsigned OrderVectors = 0;

  /// The first finding as "rule: message (offset K)", or "ok".
  std::string summary() const;
};

/// Validates \p Len bytes at \p Bytes against \p P: the stream must be
/// the (Kind, NumData) kernel body over int32 lanes (PairLanes false) or
/// packed 64-bit key-payload lanes (PairLanes true).
ValidationReport validateKernelBytes(const uint8_t *Bytes, size_t Len,
                                     MachineKind Kind, unsigned NumData,
                                     const Program &P, bool PairLanes);

/// Emits \p P through codegen/Jit.h emitKernelBytes<Lane> and validates
/// the result — the one-call gate used by the driver (--validate-jit), the
/// sortlib/bench debug gates, and sks-lint --validate. The proof is
/// equivalence to \p P on every input, so it holds whatever the kernel's
/// goal; the goal argument does not enter it and is accepted for callers
/// that pass their request's goal along.
template <KernelLane Lane = int32_t>
ValidationReport validateJitKernel(MachineKind Kind, unsigned NumData,
                                   const Program &P,
                                   GoalSpec Goal = GoalSpec::sort());

} // namespace sks

#endif // SKS_VALIDATE_SYMBOLICEXEC_H
