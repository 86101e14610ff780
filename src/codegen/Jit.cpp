//===- codegen/Jit.cpp - Runtime machine-code generation ------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Encodings used (all 32-bit operand size, Intel operand order):
//
//   mov   r32, [rdi+d8]   8B /r          (load)
//   mov   [rdi+d8], r32   89 /r          (store)
//   mov   r32, r32        8B /r
//   cmp   r32, r32        3B /r          (cmp reg, rm: computes dst - src)
//   cmovl r32, r32        0F 4C /r
//   cmovg r32, r32        0F 4F /r
//   movd  xmm, [rdi+d8]   66 0F 6E /r
//   movd  [rdi+d8], xmm   66 0F 7E /r
//   movdqa xmm, xmm       66 0F 6F /r
//   pminsd xmm, xmm       66 0F 38 39 /r  (SSE4.1, signed)
//   pmaxsd xmm, xmm       66 0F 38 3D /r
//   ret                   C3
//
// Key-payload kernels add the 64-bit forms (REX.W versions of the above
// for the GPR file) and, on the SSE file:
//
//   movq  xmm, [rdi+d8]   F3 0F 7E /r
//   movq  [rdi+d8], xmm   66 0F D6 /r   (operands swapped: store form)
//   pcmpgtq xmm, xmm      66 0F 38 37 /r  (SSE4.2, signed 64-bit)
//   blendvpd xmm, xmm     66 0F 38 15 /r  (implicit xmm0 mask, bit 63)
//
// There is no 64-bit integer min/max in SSE, so Min/Max lower to a
// compare + mask-blend pair with xmm0 reserved as blendvpd's implicit
// mask; the model registers shift up to xmm1+ to keep it free.
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

#include "isa/Interpret.h"

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

  /// Emits an optional REX prefix for 32-bit register-register forms.
  void rexRR(uint8_t Reg, uint8_t Rm) {
    uint8_t Rex = 0x40;
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

  const std::vector<uint8_t> &bytes() const { return Bytes; }
  bool overflowed() const { return Overflow; }

private:
  std::vector<uint8_t> Bytes;
  size_t MaxBytes;
  bool Overflow = false;
};

} // namespace

static void emitGprLoad(CodeBuffer &Code, uint8_t Reg, uint8_t Disp) {
  if (Reg >= 8)
    Code.byte(0x44); // REX.R
  Code.byte(0x8B);
  Code.modMemRdi(Reg, Disp);
}

static void emitGprStore(CodeBuffer &Code, uint8_t Reg, uint8_t Disp) {
  if (Reg >= 8)
    Code.byte(0x44);
  Code.byte(0x89);
  Code.modMemRdi(Reg, Disp);
}

/// reg-reg instruction where the destination is the ModRM reg field
/// (mov r32,rm32 / cmov / cmp r32,rm32 all use this shape here).
static void emitRegReg(CodeBuffer &Code, std::initializer_list<uint8_t> Op,
                       uint8_t Dst, uint8_t Src) {
  Code.rexRR(Dst, Src);
  for (uint8_t B : Op)
    Code.byte(B);
  Code.modRR(Dst, Src);
}

static void emitXmmLoad(CodeBuffer &Code, uint8_t Reg, uint8_t Disp) {
  Code.byte(0x66);
  Code.byte(0x0F);
  Code.byte(0x6E);
  Code.modMemRdi(Reg, Disp);
}

static void emitXmmStore(CodeBuffer &Code, uint8_t Reg, uint8_t Disp) {
  Code.byte(0x66);
  Code.byte(0x0F);
  Code.byte(0x7E);
  Code.modMemRdi(Reg, Disp);
}

static void emitXmmRegReg(CodeBuffer &Code, std::initializer_list<uint8_t> Op,
                          uint8_t Dst, uint8_t Src) {
  Code.byte(0x66);
  for (uint8_t B : Op)
    Code.byte(B);
  Code.modRR(Dst, Src);
}

static void emitGprLoad64(CodeBuffer &Code, uint8_t Reg, uint8_t Disp) {
  Code.byte(Reg >= 8 ? 0x4C : 0x48); // REX.W (+R)
  Code.byte(0x8B);
  Code.modMemRdi(Reg, Disp);
}

static void emitGprStore64(CodeBuffer &Code, uint8_t Reg, uint8_t Disp) {
  Code.byte(Reg >= 8 ? 0x4C : 0x48);
  Code.byte(0x89);
  Code.modMemRdi(Reg, Disp);
}

/// 64-bit reg-reg form: mandatory REX.W, destination in the reg field.
static void emitRegReg64(CodeBuffer &Code, std::initializer_list<uint8_t> Op,
                         uint8_t Dst, uint8_t Src) {
  uint8_t Rex = 0x48;
  if (Dst >= 8)
    Rex |= 0x04; // REX.R
  if (Src >= 8)
    Rex |= 0x01; // REX.B
  Code.byte(Rex);
  for (uint8_t B : Op)
    Code.byte(B);
  Code.modRR(Dst, Src);
}

static void emitXmmLoadQ(CodeBuffer &Code, uint8_t Reg, uint8_t Disp) {
  Code.byte(0xF3);
  Code.byte(0x0F);
  Code.byte(0x7E);
  Code.modMemRdi(Reg, Disp);
}

static void emitXmmStoreQ(CodeBuffer &Code, uint8_t Reg, uint8_t Disp) {
  Code.byte(0x66);
  Code.byte(0x0F);
  Code.byte(0xD6);
  Code.modMemRdi(Reg, Disp);
}

/// Total register count of \p P: operands beyond the data registers are
/// scratch.
static unsigned programNumRegs(unsigned NumData, const Program &P) {
  unsigned NumRegs = NumData;
  for (const Instr &I : P)
    NumRegs = std::max({NumRegs, unsigned(I.Dst) + 1, unsigned(I.Src) + 1});
  return NumRegs;
}

static EmitStatus encodeKernel(MachineKind Kind, unsigned NumData,
                               const Program &P, CodeBuffer &Code) {
  if (Kind == MachineKind::Hybrid)
    return EmitStatus::UnsupportedKind; // Runs through the interpreter.
  if (NumData < 1 || NumData > 6)
    return EmitStatus::BadProgram; // disp8 slots / model data registers.
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
    for (unsigned I = NumData; I != NumRegs; ++I)
      emitRegReg(Code, {0x31}, GprNumber[I], GprNumber[I]); // xor r, r
    for (unsigned I = 0; I != NumData; ++I)
      emitGprLoad(Code, GprNumber[I], static_cast<uint8_t>(4 * I));
    for (const Instr &I : P) {
      uint8_t Dst = GprNumber[I.Dst], Src = GprNumber[I.Src];
      switch (I.Op) {
      case Opcode::Mov:
        emitRegReg(Code, {0x8B}, Dst, Src);
        break;
      case Opcode::Cmp:
        emitRegReg(Code, {0x3B}, Dst, Src);
        break;
      case Opcode::CMovL:
        emitRegReg(Code, {0x0F, 0x4C}, Dst, Src);
        break;
      case Opcode::CMovG:
        emitRegReg(Code, {0x0F, 0x4F}, Dst, Src);
        break;
      default:
        return EmitStatus::BadProgram; // min/max opcode in a cmov kernel.
      }
    }
    for (unsigned I = 0; I != NumData; ++I)
      emitGprStore(Code, GprNumber[I], static_cast<uint8_t>(4 * I));
  } else {
    if (NumRegs > 8)
      return EmitStatus::BadProgram;
    for (unsigned I = NumData; I != NumRegs; ++I)
      emitXmmRegReg(Code, {0x0F, 0xEF}, static_cast<uint8_t>(I),
                    static_cast<uint8_t>(I)); // pxor xmm, xmm
    for (unsigned I = 0; I != NumData; ++I)
      emitXmmLoad(Code, static_cast<uint8_t>(I), static_cast<uint8_t>(4 * I));
    for (const Instr &I : P) {
      switch (I.Op) {
      case Opcode::Mov:
        emitXmmRegReg(Code, {0x0F, 0x6F}, I.Dst, I.Src);
        break;
      case Opcode::Min:
        emitXmmRegReg(Code, {0x0F, 0x38, 0x39}, I.Dst, I.Src);
        break;
      case Opcode::Max:
        emitXmmRegReg(Code, {0x0F, 0x38, 0x3D}, I.Dst, I.Src);
        break;
      default:
        return EmitStatus::BadProgram; // cmov opcode in a min/max kernel.
      }
    }
    for (unsigned I = 0; I != NumData; ++I)
      emitXmmStore(Code, static_cast<uint8_t>(I), static_cast<uint8_t>(4 * I));
  }
  Code.byte(0xC3); // ret
  return Code.overflowed() ? EmitStatus::CapacityExceeded : EmitStatus::Ok;
}

/// Emits \p P over packed 64-bit key-payload lanes. Same structure as
/// encodeKernel, with 64-bit forms and, for the SSE file, Min/Max lowered
/// to pcmpgtq + blendvpd (xmm0 reserved as the implicit blend mask, model
/// registers shifted to xmm1+).
static EmitStatus encodePairKernel(MachineKind Kind, unsigned NumData,
                                   const Program &P, CodeBuffer &Code) {
  if (Kind == MachineKind::Hybrid)
    return EmitStatus::UnsupportedKind;
  if (NumData < 1 || NumData > 6)
    return EmitStatus::BadProgram;
  unsigned NumRegs = programNumRegs(NumData, P);
  if (Kind == MachineKind::Cmov) {
    NumRegs = std::max(NumRegs, NumData + 1);
    if (NumRegs > 8)
      return EmitStatus::BadProgram; // Model register file exceeded.
    // 32-bit xor zero-extends to the full 64-bit register and normalizes
    // the host flags, exactly as in the 32-bit kernel.
    for (unsigned I = NumData; I != NumRegs; ++I)
      emitRegReg(Code, {0x31}, GprNumber[I], GprNumber[I]);
    for (unsigned I = 0; I != NumData; ++I)
      emitGprLoad64(Code, GprNumber[I], static_cast<uint8_t>(8 * I));
    for (const Instr &I : P) {
      uint8_t Dst = GprNumber[I.Dst], Src = GprNumber[I.Src];
      switch (I.Op) {
      case Opcode::Mov:
        emitRegReg64(Code, {0x8B}, Dst, Src);
        break;
      case Opcode::Cmp:
        emitRegReg64(Code, {0x3B}, Dst, Src);
        break;
      case Opcode::CMovL:
        emitRegReg64(Code, {0x0F, 0x4C}, Dst, Src);
        break;
      case Opcode::CMovG:
        emitRegReg64(Code, {0x0F, 0x4F}, Dst, Src);
        break;
      default:
        return EmitStatus::BadProgram; // min/max opcode in a cmov kernel.
      }
    }
    for (unsigned I = 0; I != NumData; ++I)
      emitGprStore64(Code, GprNumber[I], static_cast<uint8_t>(8 * I));
  } else {
    // Model register i lives in xmm(i+1); xmm0 is blendvpd's implicit
    // mask. n <= 6 data + 1 scratch fits in xmm1..xmm7 (no REX needed).
    if (NumRegs + 1 > 8)
      return EmitStatus::BadProgram; // Register file exceeded (xmm0 reserved).
    auto X = [](unsigned Reg) { return static_cast<uint8_t>(Reg + 1); };
    for (unsigned I = NumData; I != NumRegs; ++I)
      emitXmmRegReg(Code, {0x0F, 0xEF}, X(I), X(I)); // pxor xmm, xmm
    for (unsigned I = 0; I != NumData; ++I)
      emitXmmLoadQ(Code, X(I), static_cast<uint8_t>(8 * I));
    for (const Instr &I : P) {
      uint8_t Dst = X(I.Dst), Src = X(I.Src);
      switch (I.Op) {
      case Opcode::Mov:
        emitXmmRegReg(Code, {0x0F, 0x6F}, Dst, Src);
        break;
      case Opcode::Min:
        // xmm0 = (dst > src) ? ~0 : 0; dst = blend(dst, src, xmm0).
        emitXmmRegReg(Code, {0x0F, 0x6F}, 0, Dst);        // movdqa xmm0, dst
        emitXmmRegReg(Code, {0x0F, 0x38, 0x37}, 0, Src);  // pcmpgtq xmm0, src
        emitXmmRegReg(Code, {0x0F, 0x38, 0x15}, Dst, Src); // blendvpd
        break;
      case Opcode::Max:
        // xmm0 = (src > dst) ? ~0 : 0; dst = blend(dst, src, xmm0).
        emitXmmRegReg(Code, {0x0F, 0x6F}, 0, Src);
        emitXmmRegReg(Code, {0x0F, 0x38, 0x37}, 0, Dst);
        emitXmmRegReg(Code, {0x0F, 0x38, 0x15}, Dst, Src);
        break;
      default:
        return EmitStatus::BadProgram; // cmov opcode in a min/max kernel.
      }
    }
    for (unsigned I = 0; I != NumData; ++I)
      emitXmmStoreQ(Code, X(I), static_cast<uint8_t>(8 * I));
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

EmittedCode sks::emitKernelBytes(MachineKind Kind, unsigned NumData,
                                 const Program &P, size_t MaxBytes) {
  EmittedCode Out;
  CodeBuffer Code(MaxBytes);
  Out.Status = encodeKernel(Kind, NumData, P, Code);
  if (Out.Status == EmitStatus::Ok)
    Out.Bytes = Code.bytes();
  return Out;
}

EmittedCode sks::emitPairKernelBytes(MachineKind Kind, unsigned NumData,
                                     const Program &P, size_t MaxBytes) {
  EmittedCode Out;
  CodeBuffer Code(MaxBytes);
  Out.Status = encodePairKernel(Kind, NumData, P, Code);
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

bool sks::jitSupported(MachineKind Kind) {
#if defined(__x86_64__) && defined(__linux__)
  if (Kind == MachineKind::MinMax)
    return __builtin_cpu_supports("sse4.1");
  if (Kind == MachineKind::Hybrid)
    return false; // Mixed-file kernels run through the interpreter.
  return true;
#else
  (void)Kind;
  return false;
#endif
}

JitKernel &JitKernel::operator=(JitKernel &&Other) noexcept {
  std::swap(Entry, Other.Entry);
  std::swap(Memory, Other.Memory);
  std::swap(MappedSize, Other.MappedSize);
  std::swap(CodeSize, Other.CodeSize);
  std::swap(Kind, Other.Kind);
  std::swap(NumData, Other.NumData);
  return *this;
}

JitKernel::~JitKernel() {
#if defined(__linux__)
  if (Memory)
    munmap(Memory, MappedSize);
#endif
}

std::unique_ptr<JitKernel> JitKernel::compile(MachineKind Kind,
                                              unsigned NumData,
                                              const Program &P) {
#if defined(__x86_64__) && defined(__linux__)
  if (!jitSupported(Kind))
    return nullptr;
  EmittedCode Code = emitKernelBytes(Kind, NumData, P);
  if (Code.Status != EmitStatus::Ok)
    return nullptr;

  std::unique_ptr<JitKernel> Kernel(new JitKernel());
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

void sks::interpretKernel(MachineKind Kind, unsigned NumData, const Program &P,
                          int32_t *Data) {
  (void)Kind;
  interpretOnArray(P, NumData, Data);
}

bool sks::jitPairSupported(MachineKind Kind) {
#if defined(__x86_64__) && defined(__linux__)
  if (Kind == MachineKind::MinMax)
    return __builtin_cpu_supports("sse4.2"); // pcmpgtq
  if (Kind == MachineKind::Hybrid)
    return false;
  return true;
#else
  (void)Kind;
  return false;
#endif
}

JitPairKernel &JitPairKernel::operator=(JitPairKernel &&Other) noexcept {
  std::swap(Entry, Other.Entry);
  std::swap(Memory, Other.Memory);
  std::swap(MappedSize, Other.MappedSize);
  std::swap(CodeSize, Other.CodeSize);
  std::swap(Kind, Other.Kind);
  std::swap(NumData, Other.NumData);
  return *this;
}

JitPairKernel::~JitPairKernel() {
#if defined(__linux__)
  if (Memory)
    munmap(Memory, MappedSize);
#endif
}

std::unique_ptr<JitPairKernel>
JitPairKernel::compile(MachineKind Kind, unsigned NumData, const Program &P) {
#if defined(__x86_64__) && defined(__linux__)
  if (!jitPairSupported(Kind))
    return nullptr;
  EmittedCode Code = emitPairKernelBytes(Kind, NumData, P);
  if (Code.Status != EmitStatus::Ok)
    return nullptr;

  std::unique_ptr<JitPairKernel> Kernel(new JitPairKernel());
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

void sks::interpretPairKernel(MachineKind Kind, unsigned NumData,
                              const Program &P, int64_t *Pairs) {
  (void)Kind;
  interpretOnArray(P, NumData, Pairs);
}
