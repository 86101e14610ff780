//===- codegen/Jit.h - Runtime machine-code generation ---------*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Just-in-time compilation of synthesized kernels to real x86-64 machine
/// code so the section 5.3 runtime benchmarks execute the actual
/// instructions the paper reasons about (cmov kernels on the
/// general-purpose file, min/max kernels on the SSE file with
/// pminsd/pmaxsd). Kernels sort n int32 values in place through a
/// void(int32_t*) entry point. A portable interpreter with identical
/// semantics backs the JIT on non-x86 hosts and in the property tests.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_CODEGEN_JIT_H
#define SKS_CODEGEN_JIT_H

#include "isa/Instr.h"
#include "machine/Machine.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace sks {

/// \returns true when the host can execute JIT-compiled kernels of the
/// given kind (x86-64 with SSE4.1 for min/max kernels, plus executable
/// memory).
bool jitSupported(MachineKind Kind);

//===----------------------------------------------------------------------===//
// Raw emission
//===----------------------------------------------------------------------===//
//
// The byte-level emitters behind JitKernel/JitPairKernel, exposed so the
// static translation validator (validate/SymbolicExec.h) can prove the
// emitted stream equivalent to the source program without mapping it
// executable. Emission is total: every failure mode is a typed status, so
// a bad program or an exceeded buffer can never silently truncate the
// stream.

/// Default capacity of the emission buffer. Generous: the longest shipped
/// kernel shape (a pair min/max network at n = 6) stays under 512 bytes.
inline constexpr size_t kMaxJitCodeBytes = 4096;

/// Why emission produced no code.
enum class EmitStatus : uint8_t {
  Ok,
  /// The kind has no emission path (Hybrid kernels run interpreted).
  UnsupportedKind,
  /// An opcode outside the kind's alphabet, a register beyond the model
  /// file, or an array length outside 1..6.
  BadProgram,
  /// The bounded code buffer filled up; no partial stream is returned.
  CapacityExceeded,
};

/// \returns the lower-case display name of \p S ("ok", "bad-program", ...).
const char *emitStatusName(EmitStatus S);

/// An emitted instruction stream, or the typed reason there is none.
struct EmittedCode {
  EmitStatus Status = EmitStatus::UnsupportedKind;
  /// The instruction bytes, ending in ret; empty unless Status is Ok.
  std::vector<uint8_t> Bytes;
};

/// Emits \p P as the void(int32_t*) scalar kernel body (the stream
/// JitKernel::compile maps executable).
EmittedCode emitKernelBytes(MachineKind Kind, unsigned NumData,
                            const Program &P,
                            size_t MaxBytes = kMaxJitCodeBytes);

/// Emits \p P as the void(int64_t*) packed key-payload kernel body (the
/// stream JitPairKernel::compile maps executable).
EmittedCode emitPairKernelBytes(MachineKind Kind, unsigned NumData,
                                const Program &P,
                                size_t MaxBytes = kMaxJitCodeBytes);

/// An executable sorting kernel. Construct via JitKernel::compile.
class JitKernel {
public:
  using EntryFn = void (*)(int32_t *);

  JitKernel(JitKernel &&Other) noexcept { *this = std::move(Other); }
  JitKernel &operator=(JitKernel &&Other) noexcept;
  JitKernel(const JitKernel &) = delete;
  JitKernel &operator=(const JitKernel &) = delete;
  ~JitKernel();

  /// Compiles \p P for array length \p NumData. \returns nullptr when the
  /// host lacks JIT support (use interpretKernel instead).
  static std::unique_ptr<JitKernel> compile(MachineKind Kind, unsigned NumData,
                                            const Program &P);

  /// Sorts \p Data (NumData elements) in place.
  void operator()(int32_t *Data) const { Entry(Data); }

  EntryFn entry() const { return Entry; }
  size_t codeSize() const { return CodeSize; }

  /// The emitted instruction bytes (codeSize() of them; the mapping is
  /// readable as well as executable) — the span the translation validator
  /// checks against the source program.
  const uint8_t *codeBytes() const {
    return static_cast<const uint8_t *>(Memory);
  }

  /// Entry metadata: what this code was compiled from.
  MachineKind kind() const { return Kind; }
  unsigned numData() const { return NumData; }

private:
  JitKernel() = default;

  EntryFn Entry = nullptr;
  void *Memory = nullptr;
  size_t MappedSize = 0;
  size_t CodeSize = 0;
  MachineKind Kind = MachineKind::Cmov;
  unsigned NumData = 0;
};

/// Reference interpreter with semantics identical to the JIT (int32 values,
/// signed comparisons/min/max); sorts \p Data in place.
void interpretKernel(MachineKind Kind, unsigned NumData, const Program &P,
                     int32_t *Data);

//===----------------------------------------------------------------------===//
// Key-payload (pair) kernels
//===----------------------------------------------------------------------===//
//
// The same synthesized programs, re-emitted over 64-bit lanes that pack an
// int32 key in the high half and a uint32 payload in the low half
// (packPair). A signed 64-bit comparison of two packed lanes orders by key
// first (payload is a tiebreak among equal keys), and every instruction
// moves whole lanes, so a payload never leaves its key; validateJitPairKernel
// (validate/SymbolicExec.h) proves the emitted bytes equal the IR on these
// lanes. Cmov kernels rerun with REX.W-prefixed forms; min/max kernels
// lower Min/Max to pcmpgtq + blendvpd (SSE4.2), with xmm0 reserved as
// blendvpd's implicit mask and the model registers shifted to xmm1+.

/// Packs a key-payload pair into one 64-bit lane.
inline int64_t packPair(int32_t Key, uint32_t Payload) {
  return (static_cast<int64_t>(Key) << 32) | Payload;
}
inline int32_t pairKey(int64_t Pair) {
  return static_cast<int32_t>(Pair >> 32);
}
inline uint32_t pairPayload(int64_t Pair) {
  return static_cast<uint32_t>(Pair);
}

/// \returns true when the host can execute JIT-compiled key-payload
/// kernels of the given kind (x86-64; min/max kernels additionally need
/// SSE4.2 for pcmpgtq).
bool jitPairSupported(MachineKind Kind);

/// An executable key-payload kernel over packed 64-bit pair lanes.
class JitPairKernel {
public:
  using EntryFn = void (*)(int64_t *);

  JitPairKernel(JitPairKernel &&Other) noexcept { *this = std::move(Other); }
  JitPairKernel &operator=(JitPairKernel &&Other) noexcept;
  JitPairKernel(const JitPairKernel &) = delete;
  JitPairKernel &operator=(const JitPairKernel &) = delete;
  ~JitPairKernel();

  /// Compiles \p P for \p NumData packed pairs. \returns nullptr when the
  /// host lacks pair-JIT support (use interpretPairKernel instead).
  static std::unique_ptr<JitPairKernel>
  compile(MachineKind Kind, unsigned NumData, const Program &P);

  /// Sorts \p Pairs (NumData packed lanes) in place by key.
  void operator()(int64_t *Pairs) const { Entry(Pairs); }

  EntryFn entry() const { return Entry; }
  size_t codeSize() const { return CodeSize; }

  /// The emitted instruction bytes (codeSize() of them), for the
  /// translation validator.
  const uint8_t *codeBytes() const {
    return static_cast<const uint8_t *>(Memory);
  }

  /// Entry metadata: what this code was compiled from.
  MachineKind kind() const { return Kind; }
  unsigned numData() const { return NumData; }

private:
  JitPairKernel() = default;

  EntryFn Entry = nullptr;
  void *Memory = nullptr;
  size_t MappedSize = 0;
  size_t CodeSize = 0;
  MachineKind Kind = MachineKind::Cmov;
  unsigned NumData = 0;
};

/// Reference interpreter with semantics identical to the pair JIT (signed
/// 64-bit comparisons/min/max over packed lanes); sorts \p Pairs in place.
void interpretPairKernel(MachineKind Kind, unsigned NumData, const Program &P,
                         int64_t *Pairs);

} // namespace sks

#endif // SKS_CODEGEN_JIT_H
