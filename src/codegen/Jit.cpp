//===- codegen/Jit.cpp - Runtime machine-code generation ------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Encodings used (Intel operand order). The GPR forms take REX.W on
// int64 lanes; the SSE file moves a lane with movd (int32) or movq
// (int64):
//
//   mov   r, [rdi+d8]     8B /r          (load)
//   mov   [rdi+d8], r     89 /r          (store)
//   mov   r, r            8B /r
//   cmp   r, r            3B /r          (cmp reg, rm: computes dst - src)
//   cmovl r, r            0F 4C /r
//   cmovg r, r            0F 4F /r
//   xor   r32, r32        31 /r          (scratch zeroing, both lanes)
//   movd  xmm, [rdi+d8]   66 0F 6E /r
//   movd  [rdi+d8], xmm   66 0F 7E /r
//   movq  xmm, [rdi+d8]   F3 0F 7E /r
//   movq  [rdi+d8], xmm   66 0F D6 /r   (operands swapped: store form)
//   movdqa xmm, xmm       66 0F 6F /r
//   pxor  xmm, xmm        66 0F EF /r
//   pminsd xmm, xmm       66 0F 38 39 /r  (SSE4.1, signed)
//   pmaxsd xmm, xmm       66 0F 38 3D /r
//   pcmpgtq xmm, xmm      66 0F 38 37 /r  (SSE4.2, signed 64-bit)
//   blendvpd xmm, xmm     66 0F 38 15 /r  (implicit xmm0 mask, bit 63)
//   ret                   C3
//
// There is no 64-bit integer min/max in SSE, so on int64 lanes Min/Max
// lower to a compare + mask-blend pair with xmm0 reserved as blendvpd's
// implicit mask; the model registers shift up to xmm1+ to keep it free.
// That lowering and the xmm base are the only places the encoder branches
// on the lane width.
//
// Model GPRs map to eax, ecx, edx, esi, r8d..r11d (rdi holds the array
// pointer); all are caller-saved in the System V ABI, so no prologue is
// needed. The paper's min/max kernels use pminud/pmaxud because their
// values are 1..n; the runtime benchmarks sort signed ints, so we emit the
// signed forms, which agree with the unsigned ones on the verification
// domain 1..n.
//
//===----------------------------------------------------------------------===//

#include "codegen/Jit.h"

#include <algorithm>
#include <cstring>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

using namespace sks;

// x86 encoding numbers of the model GPRs: eax, ecx, edx, esi, r8d-r11d.
static const uint8_t GprNumber[8] = {0, 1, 2, 6, 8, 9, 10, 11};
static const uint8_t RdiNumber = 7;

namespace {

/// Little code buffer with x86 encoding helpers. The capacity is a hard
/// bound: every emit is checked, and an overflow latches instead of
/// truncating — the encoder surfaces it as EmitStatus::CapacityExceeded,
/// so no caller can ever map a partial stream.
class CodeBuffer {
public:
  explicit CodeBuffer(size_t MaxBytes) : MaxBytes(MaxBytes) {}

  void byte(uint8_t B) {
    if (Bytes.size() >= MaxBytes) {
      Overflow = true;
      return;
    }
    Bytes.push_back(B);
  }

  /// GPR register-register form with the destination in the ModRM reg
  /// field (mov r,rm / cmov / cmp r,rm / xor); REX.W when \p Wide.
  void gprRR(bool Wide, std::initializer_list<uint8_t> Op, uint8_t Dst,
             uint8_t Src) {
    rex(Wide, Dst, Src);
    for (uint8_t B : Op)
      byte(B);
    modRR(Dst, Src);
  }

  /// GPR [rdi + disp8] form (load 8B, store 89); REX.W when \p Wide.
  void gprMem(bool Wide, uint8_t Op, uint8_t Reg, uint8_t Disp) {
    rex(Wide, Reg, RdiNumber);
    byte(Op);
    modMemRdi(Reg, Disp);
  }

  /// SSE register-register form: 66, the opcode, ModRM (xmm0-7, no REX).
  void xmmRR(std::initializer_list<uint8_t> Op, uint8_t Dst, uint8_t Src) {
    byte(0x66);
    for (uint8_t B : Op)
      byte(B);
    modRR(Dst, Src);
  }

  /// SSE [rdi + disp8] form: mandatory \p Prefix, 0F, \p Op, ModRM.
  void xmmMem(uint8_t Prefix, uint8_t Op, uint8_t Reg, uint8_t Disp) {
    byte(Prefix);
    byte(0x0F);
    byte(Op);
    modMemRdi(Reg, Disp);
  }

  const std::vector<uint8_t> &bytes() const { return Bytes; }
  bool overflowed() const { return Overflow; }

private:
  /// REX with W, R (reg >= 8) and B (rm >= 8) as needed; none when no bit
  /// is set.
  void rex(bool W, uint8_t Reg, uint8_t Rm) {
    uint8_t Rex = 0x40;
    if (W)
      Rex |= 0x08; // REX.W
    if (Reg >= 8)
      Rex |= 0x04; // REX.R
    if (Rm >= 8)
      Rex |= 0x01; // REX.B
    if (Rex != 0x40)
      byte(Rex);
  }

  /// ModRM for register-register (mod = 11).
  void modRR(uint8_t Reg, uint8_t Rm) {
    byte(0xC0 | ((Reg & 7) << 3) | (Rm & 7));
  }

  /// ModRM for [rdi + disp8] (mod = 01, rm = rdi).
  void modMemRdi(uint8_t Reg, uint8_t Disp) {
    byte(0x40 | ((Reg & 7) << 3) | RdiNumber);
    byte(Disp);
  }

  std::vector<uint8_t> Bytes;
  size_t MaxBytes;
  bool Overflow = false;
};

} // namespace

/// Total register count of \p P: operands beyond the data registers are
/// scratch.
static unsigned programNumRegs(unsigned NumData, const Program &P) {
  unsigned NumRegs = NumData;
  for (const Instr &I : P)
    NumRegs = std::max({NumRegs, unsigned(I.Dst) + 1, unsigned(I.Src) + 1});
  return NumRegs;
}

/// Emits \p P over int32 lanes, or over packed 64-bit key-payload lanes
/// when \p Wide.
static EmitStatus encodeKernel(MachineKind Kind, unsigned NumData,
                               const Program &P, bool Wide, CodeBuffer &Code) {
  if (Kind == MachineKind::Hybrid)
    return EmitStatus::UnsupportedKind; // Runs through the interpreter.
  if (NumData < 1 || NumData > 6)
    return EmitStatus::BadProgram; // disp8 slots / model data registers.
  auto Slot = [Wide](unsigned I) {
    return static_cast<uint8_t>((Wide ? 8 : 4) * I);
  };
  // The model starts with scratch registers holding 0 and the lt/gt flags
  // clear. xor r, r establishes both at once: it zeroes the register and
  // leaves ZF=1, SF=OF=0, under which neither cmovl (SF != OF) nor cmovg
  // (ZF = 0 and SF = OF) moves — exactly the cleared-flags behaviour.
  unsigned NumRegs = programNumRegs(NumData, P);
  if (Kind == MachineKind::Cmov) {
    // Always emit at least one xor: it also normalizes the host's flags,
    // which are otherwise undefined at entry (a conditional move before
    // any cmp must behave as the model's no-op).
    NumRegs = std::max(NumRegs, NumData + 1);
    if (NumRegs > 8)
      return EmitStatus::BadProgram; // Model register file exceeded.
    // The 32-bit xor zero-extends to the full register on either lane.
    for (unsigned I = NumData; I != NumRegs; ++I)
      Code.gprRR(false, {0x31}, GprNumber[I], GprNumber[I]); // xor r, r
    for (unsigned I = 0; I != NumData; ++I)
      Code.gprMem(Wide, 0x8B, GprNumber[I], Slot(I));
    for (const Instr &I : P) {
      uint8_t Dst = GprNumber[I.Dst], Src = GprNumber[I.Src];
      switch (I.Op) {
      case Opcode::Mov:
        Code.gprRR(Wide, {0x8B}, Dst, Src);
        break;
      case Opcode::Cmp:
        Code.gprRR(Wide, {0x3B}, Dst, Src);
        break;
      case Opcode::CMovL:
        Code.gprRR(Wide, {0x0F, 0x4C}, Dst, Src);
        break;
      case Opcode::CMovG:
        Code.gprRR(Wide, {0x0F, 0x4F}, Dst, Src);
        break;
      default:
        return EmitStatus::BadProgram; // min/max opcode in a cmov kernel.
      }
    }
    for (unsigned I = 0; I != NumData; ++I)
      Code.gprMem(Wide, 0x89, GprNumber[I], Slot(I));
  } else {
    // On int64 lanes model register i lives in xmm(i+1): xmm0 is
    // blendvpd's implicit mask.
    const unsigned XmmBase = Wide ? 1 : 0;
    if (NumRegs + XmmBase > 8)
      return EmitStatus::BadProgram; // Model register file exceeded.
    auto X = [XmmBase](unsigned Reg) {
      return static_cast<uint8_t>(Reg + XmmBase);
    };
    for (unsigned I = NumData; I != NumRegs; ++I)
      Code.xmmRR({0x0F, 0xEF}, X(I), X(I)); // pxor xmm, xmm
    for (unsigned I = 0; I != NumData; ++I)
      Code.xmmMem(Wide ? 0xF3 : 0x66, Wide ? 0x7E : 0x6E, X(I), Slot(I));
    for (const Instr &I : P) {
      uint8_t Dst = X(I.Dst), Src = X(I.Src);
      switch (I.Op) {
      case Opcode::Mov:
        Code.xmmRR({0x0F, 0x6F}, Dst, Src); // movdqa
        break;
      case Opcode::Min:
      case Opcode::Max: {
        const bool IsMin = I.Op == Opcode::Min;
        if (!Wide) {
          Code.xmmRR({0x0F, 0x38, uint8_t(IsMin ? 0x39 : 0x3D)}, Dst, Src);
          break;
        }
        // xmm0 = (dst > src) for Min, (src > dst) for Max; blendvpd then
        // takes src where the mask is set.
        Code.xmmRR({0x0F, 0x6F}, 0, IsMin ? Dst : Src);       // movdqa xmm0
        Code.xmmRR({0x0F, 0x38, 0x37}, 0, IsMin ? Src : Dst); // pcmpgtq
        Code.xmmRR({0x0F, 0x38, 0x15}, Dst, Src);             // blendvpd
        break;
      }
      default:
        return EmitStatus::BadProgram; // cmov opcode in a min/max kernel.
      }
    }
    for (unsigned I = 0; I != NumData; ++I)
      Code.xmmMem(0x66, Wide ? 0xD6 : 0x7E, X(I), Slot(I));
  }
  Code.byte(0xC3); // ret
  return Code.overflowed() ? EmitStatus::CapacityExceeded : EmitStatus::Ok;
}

const char *sks::emitStatusName(EmitStatus S) {
  switch (S) {
  case EmitStatus::Ok:
    return "ok";
  case EmitStatus::UnsupportedKind:
    return "unsupported-kind";
  case EmitStatus::BadProgram:
    return "bad-program";
  case EmitStatus::CapacityExceeded:
    return "capacity-exceeded";
  }
  return "unknown";
}

template <KernelLane Lane>
EmittedCode sks::emitKernelBytes(MachineKind Kind, unsigned NumData,
                                 const Program &P, size_t MaxBytes) {
  EmittedCode Out;
  CodeBuffer Code(MaxBytes);
  Out.Status = encodeKernel(Kind, NumData, P, sizeof(Lane) == 8, Code);
  if (Out.Status == EmitStatus::Ok)
    Out.Bytes = Code.bytes();
  return Out;
}

#if defined(__x86_64__) && defined(__linux__)
/// Maps \p Code into executable memory. \returns the entry address (and
/// the mapping via \p Mem / \p MappedSize), or nullptr on failure.
static void *publishCode(const std::vector<uint8_t> &Code, void *&Mem,
                         size_t &MappedSize) {
  size_t PageSize = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  size_t Size = (Code.size() + PageSize - 1) & ~(PageSize - 1);
  void *M = mmap(nullptr, Size, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (M == MAP_FAILED)
    return nullptr;
  std::memcpy(M, Code.data(), Code.size());
  if (mprotect(M, Size, PROT_READ | PROT_EXEC) != 0) {
    munmap(M, Size);
    return nullptr;
  }
  Mem = M;
  MappedSize = Size;
  return M;
}
#endif

template <KernelLane Lane> bool sks::jitSupported(MachineKind Kind) {
#if defined(__x86_64__) && defined(__linux__)
  if (Kind == MachineKind::MinMax)
    return sizeof(Lane) == 4 ? __builtin_cpu_supports("sse4.1")  // pminsd
                             : __builtin_cpu_supports("sse4.2"); // pcmpgtq
  return Kind == MachineKind::Cmov; // Hybrid kernels run interpreted.
#else
  (void)Kind;
  return false;
#endif
}

template <KernelLane Lane>
JitCode<Lane> &JitCode<Lane>::operator=(JitCode &&Other) noexcept {
  std::swap(Entry, Other.Entry);
  std::swap(Memory, Other.Memory);
  std::swap(MappedSize, Other.MappedSize);
  std::swap(CodeSize, Other.CodeSize);
  std::swap(Kind, Other.Kind);
  std::swap(NumData, Other.NumData);
  return *this;
}

template <KernelLane Lane> JitCode<Lane>::~JitCode() {
#if defined(__linux__)
  if (Memory)
    munmap(Memory, MappedSize);
#endif
}

template <KernelLane Lane>
std::unique_ptr<JitCode<Lane>>
JitCode<Lane>::compile(MachineKind Kind, unsigned NumData, const Program &P) {
#if defined(__x86_64__) && defined(__linux__)
  if (!jitSupported<Lane>(Kind))
    return nullptr;
  EmittedCode Code = emitKernelBytes<Lane>(Kind, NumData, P);
  if (Code.Status != EmitStatus::Ok)
    return nullptr;

  std::unique_ptr<JitCode> Kernel(new JitCode());
  void *Mem = publishCode(Code.Bytes, Kernel->Memory, Kernel->MappedSize);
  if (!Mem)
    return nullptr;
  Kernel->CodeSize = Code.Bytes.size();
  Kernel->Entry = reinterpret_cast<EntryFn>(Mem);
  Kernel->Kind = Kind;
  Kernel->NumData = NumData;
  return Kernel;
#else
  (void)Kind;
  (void)NumData;
  (void)P;
  return nullptr;
#endif
}

template bool sks::jitSupported<int32_t>(MachineKind);
template bool sks::jitSupported<int64_t>(MachineKind);
template EmittedCode sks::emitKernelBytes<int32_t>(MachineKind, unsigned,
                                                   const Program &, size_t);
template EmittedCode sks::emitKernelBytes<int64_t>(MachineKind, unsigned,
                                                   const Program &, size_t);
template class sks::JitCode<int32_t>;
template class sks::JitCode<int64_t>;
