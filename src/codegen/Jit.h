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
/// general-purpose file, min/max kernels on the SSE file). One runtime
/// serves two lane types: int32 values, and packed 64-bit key-payload
/// lanes (packPair) for the analytics entry points of sortlib/SortLib.h.
/// The encoder takes the lane width as data; a kernel over n lanes of
/// type Lane is a void(Lane*) entry point that sorts them in place. A
/// portable interpreter with identical semantics backs the JIT on non-x86
/// hosts and in the property tests.
///
/// Key-payload lanes pack an int32 key in the high half and a uint32
/// payload in the low half, so a signed 64-bit comparison orders by key
/// first (payload is a tiebreak among equal keys), and every instruction
/// moves whole lanes, so a payload never leaves its key;
/// validateJitKernel<int64_t> (validate/SymbolicExec.h) proves the
/// emitted bytes equal the IR on these lanes. Cmov kernels take the
/// REX.W forms; min/max kernels lower Min/Max to pcmpgtq + blendvpd
/// (SSE4.2), with xmm0 reserved as blendvpd's implicit mask and the model
/// registers shifted to xmm1+.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_CODEGEN_JIT_H
#define SKS_CODEGEN_JIT_H

#include "isa/Instr.h"
#include "isa/Interpret.h"
#include "machine/Machine.h"

#include <concepts>
#include <cstdint>
#include <memory>
#include <vector>

namespace sks {

/// The lane types a kernel runs on: int32 values, or packed 64-bit
/// key-payload pairs.
template <typename Lane>
concept KernelLane = std::same_as<Lane, int32_t> || std::same_as<Lane, int64_t>;

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

/// \returns true when the host can execute JIT-compiled kernels of the
/// given kind over \p Lane lanes (x86-64 with executable memory; min/max
/// kernels need SSE4.1 for pminsd on int32 lanes and SSE4.2 for pcmpgtq
/// on int64 lanes).
template <KernelLane Lane = int32_t> bool jitSupported(MachineKind Kind);

//===----------------------------------------------------------------------===//
// Raw emission
//===----------------------------------------------------------------------===//
//
// The byte-level emitter behind JitCode, exposed so the static translation
// validator (validate/SymbolicExec.h) can prove the emitted stream
// equivalent to the source program without mapping it executable, and so
// codegen/AsmEmitter.h can list it. Emission is total: every failure mode
// is a typed status, so a bad program or an exceeded buffer can never
// silently truncate the stream.

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

/// Emits \p P as the void(Lane*) kernel body (the stream
/// JitCode<Lane>::compile maps executable).
template <KernelLane Lane = int32_t>
EmittedCode emitKernelBytes(MachineKind Kind, unsigned NumData,
                            const Program &P,
                            size_t MaxBytes = kMaxJitCodeBytes);

/// An executable sorting kernel over \p Lane lanes. Construct via
/// JitCode::compile.
template <KernelLane Lane> class JitCode {
public:
  using EntryFn = void (*)(Lane *);

  JitCode(JitCode &&Other) noexcept { *this = std::move(Other); }
  JitCode &operator=(JitCode &&Other) noexcept;
  JitCode(const JitCode &) = delete;
  JitCode &operator=(const JitCode &) = delete;
  ~JitCode();

  /// Compiles \p P for array length \p NumData. \returns nullptr when the
  /// host lacks JIT support (use interpretKernel instead).
  static std::unique_ptr<JitCode> compile(MachineKind Kind, unsigned NumData,
                                          const Program &P);

  /// Sorts \p Data (NumData lanes) in place.
  void operator()(Lane *Data) const { Entry(Data); }

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
  JitCode() = default;

  EntryFn Entry = nullptr;
  void *Memory = nullptr;
  size_t MappedSize = 0;
  size_t CodeSize = 0;
  MachineKind Kind = MachineKind::Cmov;
  unsigned NumData = 0;
};

using JitKernel = JitCode<int32_t>;
using JitPairKernel = JitCode<int64_t>;

/// Reference interpreter with semantics identical to the JIT (signed
/// comparisons and min/max on the lane type); sorts \p Data in place.
template <KernelLane Lane>
void interpretKernel(MachineKind, unsigned NumData, const Program &P,
                     Lane *Data) {
  interpretOnArray(P, NumData, Data);
}

} // namespace sks

#endif // SKS_CODEGEN_JIT_H
