//===- validate/Decoder.cpp - x86-64 decoder for the JIT subset -----------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "validate/Decoder.h"

#include <cstdio>

using namespace sks;

const char *sks::x86OpName(X86Op Op) {
  switch (Op) {
  case X86Op::XorRR:
    return "xor";
  case X86Op::MovRR:
    return "mov";
  case X86Op::CmpRR:
    return "cmp";
  case X86Op::CMovL:
    return "cmovl";
  case X86Op::CMovG:
    return "cmovg";
  case X86Op::GprLoad:
    return "mov(load)";
  case X86Op::GprStore:
    return "mov(store)";
  case X86Op::PXor:
    return "pxor";
  case X86Op::MovDqa:
    return "movdqa";
  case X86Op::PMinSD:
    return "pminsd";
  case X86Op::PMaxSD:
    return "pmaxsd";
  case X86Op::PCmpGtQ:
    return "pcmpgtq";
  case X86Op::BlendVPD:
    return "blendvpd";
  case X86Op::MovdLoad:
    return "movd(load)";
  case X86Op::MovdStore:
    return "movd(store)";
  case X86Op::MovqLoad:
    return "movq(load)";
  case X86Op::MovqStore:
    return "movq(store)";
  case X86Op::Ret:
    return "ret";
  }
  return "unknown";
}

bool sks::isGprOp(X86Op Op) {
  switch (Op) {
  case X86Op::XorRR:
  case X86Op::MovRR:
  case X86Op::CmpRR:
  case X86Op::CMovL:
  case X86Op::CMovG:
  case X86Op::GprLoad:
  case X86Op::GprStore:
    return true;
  default:
    return false;
  }
}

const char *sks::x86GprName(uint8_t R, bool W) {
  static const char *const Names[2][16] = {
      {"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi", "r8d", "r9d",
       "r10d", "r11d", "r12d", "r13d", "r14d", "r15d"},
      {"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi", "r8", "r9",
       "r10", "r11", "r12", "r13", "r14", "r15"}};
  return R < 16 ? Names[W][R] : "?";
}

std::string sks::formatX86(const X86Insn &I) {
  if (I.Op == X86Op::Ret)
    return "ret";
  auto Reg = [&I](uint8_t R) -> std::string {
    return isGprOp(I.Op) ? x86GprName(R, I.W) : "xmm" + std::to_string(R);
  };
  std::string Operands;
  if (I.Mem) {
    const bool Qword =
        I.W || I.Op == X86Op::MovqLoad || I.Op == X86Op::MovqStore;
    const std::string Slot = std::string(Qword ? "qword" : "dword") +
                             " ptr [rdi + " + std::to_string(I.Disp) + "]";
    const bool Store = I.Op == X86Op::GprStore ||
                       I.Op == X86Op::MovdStore || I.Op == X86Op::MovqStore;
    Operands = Store ? Slot + ", " + Reg(I.Reg) : Reg(I.Reg) + ", " + Slot;
  } else {
    Operands = Reg(I.Reg) + ", " + Reg(I.Rm);
    if (I.Op == X86Op::BlendVPD)
      Operands += ", xmm0"; // The implicit mask.
  }
  // "mov(load)" and its kin name the form; the mnemonic is the stem.
  std::string Mnemonic = x86OpName(I.Op);
  Mnemonic = Mnemonic.substr(0, Mnemonic.find('('));
  char Line[80];
  std::snprintf(Line, sizeof(Line), "%-7s %s", Mnemonic.c_str(),
                Operands.c_str());
  return Line;
}

namespace {

/// rm encoding number of rdi, the array-pointer base of every memory form.
constexpr uint8_t RdiNumber = 7;

/// Bounds-checked cursor over the input stream. fetch() reports
/// exhaustion instead of reading past the end; after a fail() every
/// subsequent operation is a no-op, so decode logic can stay straight-line.
class Cursor {
public:
  Cursor(const uint8_t *Bytes, size_t Len, DecodeResult &Result)
      : Bytes(Bytes), Len(Len), Result(Result) {}

  size_t pos() const { return Pos; }
  bool atEnd() const { return Pos == Len; }
  bool failed() const { return Failed; }

  /// Reads one byte, or fails with "truncated instruction".
  bool fetch(uint8_t &B) {
    if (Failed)
      return false;
    if (Pos == Len) {
      fail(Pos, "truncated instruction");
      return false;
    }
    B = Bytes[Pos++];
    return true;
  }

  void fail(size_t At, const std::string &Message) {
    if (Failed)
      return;
    Failed = true;
    Result.ErrorOffset = static_cast<uint32_t>(At);
    Result.Error = Message;
  }

private:
  const uint8_t *Bytes;
  size_t Len;
  DecodeResult &Result;
  size_t Pos = 0;
  bool Failed = false;
};

/// Parsed ModRM fields.
struct ModRm {
  uint8_t Mod = 0, Reg = 0, Rm = 0;
};

bool fetchModRm(Cursor &C, ModRm &M) {
  uint8_t B = 0;
  if (!C.fetch(B))
    return false;
  M.Mod = B >> 6;
  M.Reg = (B >> 3) & 7;
  M.Rm = B & 7;
  return true;
}

/// Register-register form: mod must be 11.
bool finishRR(Cursor &C, size_t Start, X86Insn &I, bool RexR, bool RexB) {
  ModRm M;
  if (!fetchModRm(C, M))
    return false;
  if (M.Mod != 3) {
    C.fail(C.pos() - 1, std::string("register form of ") + x86OpName(I.Op) +
                            " requires mod=11");
    return false;
  }
  I.Reg = M.Reg | (RexR ? 8 : 0);
  I.Rm = M.Rm | (RexB ? 8 : 0);
  I.Mem = false;
  (void)Start;
  return true;
}

/// [rdi + disp8] form: mod must be 01, rm must be rdi, REX.B clear.
bool finishMem(Cursor &C, X86Insn &I, bool RexR, bool RexB) {
  ModRm M;
  if (!fetchModRm(C, M))
    return false;
  if (M.Mod != 1 || M.Rm != RdiNumber) {
    C.fail(C.pos() - 1, std::string("memory form of ") + x86OpName(I.Op) +
                            " must be [rdi + disp8]");
    return false;
  }
  if (RexB) {
    C.fail(I.Offset, "REX.B on a memory form (base would not be rdi)");
    return false;
  }
  I.Reg = M.Reg | (RexR ? 8 : 0);
  I.Rm = RdiNumber;
  I.Mem = true;
  return C.fetch(I.Disp);
}

/// Decodes one instruction starting at the cursor. On success appends to
/// \p Result.Insns and \returns true; Ret is appended like any other
/// instruction (the caller checks stream-level placement).
bool decodeOne(Cursor &C, DecodeResult &Result) {
  X86Insn I;
  I.Offset = static_cast<uint32_t>(C.pos());
  const size_t Start = C.pos();

  uint8_t B = 0;
  if (!C.fetch(B))
    return false;

  bool Prefix66 = false, PrefixF3 = false;
  if (B == 0x66) {
    Prefix66 = true;
    if (!C.fetch(B))
      return false;
  } else if (B == 0xF3) {
    PrefixF3 = true;
    if (!C.fetch(B))
      return false;
  }

  // REX: only before the GPR opcodes (the emitter's vector forms never
  // carry one), never the redundant 0x40, never REX.X (no SIB forms).
  bool RexR = false, RexB = false;
  if (!Prefix66 && !PrefixF3 && B >= 0x40 && B <= 0x4F) {
    if (B == 0x40) {
      C.fail(C.pos() - 1, "non-canonical empty REX prefix");
      return false;
    }
    if (B & 0x02) {
      C.fail(C.pos() - 1, "REX.X set (no indexed addressing in the subset)");
      return false;
    }
    I.W = (B & 0x08) != 0;
    RexR = (B & 0x04) != 0;
    RexB = (B & 0x01) != 0;
    if (!C.fetch(B))
      return false;
  }

  bool Done = false;
  if (!Prefix66 && !PrefixF3) {
    switch (B) {
    case 0xC3:
      if (I.W || RexR || RexB) {
        C.fail(Start, "REX prefix on ret");
        return false;
      }
      I.Op = X86Op::Ret;
      Done = true;
      break;
    case 0x31: {
      I.Op = X86Op::XorRR;
      if (I.W) {
        C.fail(Start, "REX.W on xor (the emitter zeroes 32-bit forms only)");
        return false;
      }
      if (!finishRR(C, Start, I, RexR, RexB))
        return false;
      if (I.Reg != I.Rm) {
        C.fail(Start, "xor with distinct operands (not the zero idiom)");
        return false;
      }
      Done = true;
      break;
    }
    case 0x8B: {
      // Load or reg-reg mov, disambiguated by ModRM.mod.
      ModRm M;
      if (!fetchModRm(C, M))
        return false;
      if (M.Mod == 3) {
        I.Op = X86Op::MovRR;
        I.Reg = M.Reg | (RexR ? 8 : 0);
        I.Rm = M.Rm | (RexB ? 8 : 0);
      } else if (M.Mod == 1 && M.Rm == RdiNumber) {
        if (RexB) {
          C.fail(Start, "REX.B on a memory form (base would not be rdi)");
          return false;
        }
        I.Op = X86Op::GprLoad;
        I.Reg = M.Reg | (RexR ? 8 : 0);
        I.Rm = RdiNumber;
        I.Mem = true;
        if (!C.fetch(I.Disp))
          return false;
      } else {
        C.fail(C.pos() - 1, "mov (8B) with an addressing form outside the "
                            "subset");
        return false;
      }
      Done = true;
      break;
    }
    case 0x89:
      I.Op = X86Op::GprStore;
      if (!finishMem(C, I, RexR, RexB))
        return false;
      Done = true;
      break;
    case 0x3B:
      I.Op = X86Op::CmpRR;
      if (!finishRR(C, Start, I, RexR, RexB))
        return false;
      Done = true;
      break;
    case 0x0F: {
      uint8_t Second = 0;
      if (!C.fetch(Second))
        return false;
      if (Second == 0x4C)
        I.Op = X86Op::CMovL;
      else if (Second == 0x4F)
        I.Op = X86Op::CMovG;
      else {
        C.fail(C.pos() - 1, "0F opcode outside the subset");
        return false;
      }
      if (!finishRR(C, Start, I, RexR, RexB))
        return false;
      Done = true;
      break;
    }
    default:
      C.fail(Start, "opcode outside the emitted subset");
      return false;
    }
  } else if (Prefix66) {
    if (B != 0x0F) {
      C.fail(C.pos() - 1, "66-prefixed opcode outside the subset");
      return false;
    }
    uint8_t Second = 0;
    if (!C.fetch(Second))
      return false;
    switch (Second) {
    case 0xEF:
      I.Op = X86Op::PXor;
      if (!finishRR(C, Start, I, false, false))
        return false;
      if (I.Reg != I.Rm) {
        C.fail(Start, "pxor with distinct operands (not the zero idiom)");
        return false;
      }
      Done = true;
      break;
    case 0x6F:
      I.Op = X86Op::MovDqa;
      if (!finishRR(C, Start, I, false, false))
        return false;
      Done = true;
      break;
    case 0x6E:
      I.Op = X86Op::MovdLoad;
      if (!finishMem(C, I, false, false))
        return false;
      Done = true;
      break;
    case 0x7E:
      I.Op = X86Op::MovdStore;
      if (!finishMem(C, I, false, false))
        return false;
      Done = true;
      break;
    case 0xD6:
      I.Op = X86Op::MovqStore;
      if (!finishMem(C, I, false, false))
        return false;
      Done = true;
      break;
    case 0x38: {
      uint8_t Third = 0;
      if (!C.fetch(Third))
        return false;
      switch (Third) {
      case 0x39:
        I.Op = X86Op::PMinSD;
        break;
      case 0x3D:
        I.Op = X86Op::PMaxSD;
        break;
      case 0x37:
        I.Op = X86Op::PCmpGtQ;
        break;
      case 0x15:
        I.Op = X86Op::BlendVPD;
        break;
      default:
        C.fail(C.pos() - 1, "66 0F 38 opcode outside the subset");
        return false;
      }
      if (!finishRR(C, Start, I, false, false))
        return false;
      Done = true;
      break;
    }
    default:
      C.fail(C.pos() - 1, "66 0F opcode outside the subset");
      return false;
    }
  } else { // PrefixF3
    if (B != 0x0F) {
      C.fail(C.pos() - 1, "F3-prefixed opcode outside the subset");
      return false;
    }
    uint8_t Second = 0;
    if (!C.fetch(Second))
      return false;
    if (Second != 0x7E) {
      C.fail(C.pos() - 1, "F3 0F opcode outside the subset");
      return false;
    }
    I.Op = X86Op::MovqLoad;
    if (!finishMem(C, I, false, false))
      return false;
    Done = true;
  }

  if (!Done || C.failed())
    return false;
  I.Length = static_cast<uint8_t>(C.pos() - Start);
  Result.Insns.push_back(I);
  return true;
}

} // namespace

DecodeResult sks::decodeX86(const uint8_t *Bytes, size_t Len) {
  DecodeResult Result;
  Cursor C(Bytes, Len, Result);
  while (!C.atEnd()) {
    if (!decodeOne(C, Result))
      return Result;
    if (Result.Insns.back().Op == X86Op::Ret) {
      if (!C.atEnd()) {
        C.fail(C.pos(), "trailing bytes after ret");
        return Result;
      }
      Result.Ok = true;
      return Result;
    }
  }
  C.fail(Len, "stream ends without ret");
  return Result;
}
