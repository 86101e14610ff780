//===- isa/InstrSet.h - Sets over an instruction alphabet ------*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-width set over the indices of an instruction alphabet
/// (Machine::instructions()), and the instruction classes that the
/// expansion pipeline (search/Expansion.h) picks a node's children with.
/// The largest alphabet, cmov on eight registers, has 196 instructions
/// (cmov n = 4 has 70, hybrid n = 3 has 110), so one 256-bit set holds
/// any node's children. The dead-instruction gate's refusals, the
/// viability verdict and the section 3.5 cut each become a few word
/// operations per node instead of a branch per instruction.
///
/// count() is an inline SWAR popcount: on baseline x86-64 (no POPCNT)
/// std::popcount is a libgcc call.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_ISA_INSTRSET_H
#define SKS_ISA_INSTRSET_H

#include "isa/Instr.h"

#include <array>
#include <bit>
#include <cstddef>

namespace sks {

/// A set of alphabet indices below kCapacity (32 bytes, POD).
class InstrSet {
public:
  static constexpr size_t kCapacity = 256;

  /// \returns the set {0, ..., \p Count - 1}.
  static InstrSet prefix(size_t Count) {
    assert(Count <= kCapacity && "the alphabet overflows an InstrSet");
    InstrSet S;
    for (size_t I = 0; I != kWords; ++I) {
      const size_t Lo = I * 64;
      S.W[I] = Count >= Lo + 64 ? ~uint64_t(0)
               : Count > Lo     ? (uint64_t(1) << (Count - Lo)) - 1
                                : 0;
    }
    return S;
  }

  void insert(size_t K) {
    assert(K < kCapacity);
    W[K / 64] |= uint64_t(1) << (K % 64);
  }
  /// Inserts At + I for every set bit I of \p Bits; \p At is a multiple
  /// of 16 and \p Bits has at most 16 bits, so they land in one word.
  void insertBits(size_t At, uint64_t Bits) {
    assert(At % 16 == 0 && At < kCapacity && Bits < (uint64_t(1) << 16));
    W[At / 64] |= Bits << (At % 64);
  }
  bool contains(size_t K) const {
    assert(K < kCapacity);
    return (W[K / 64] >> (K % 64)) & 1;
  }

  bool empty() const {
    uint64_t Any = 0;
    for (uint64_t X : W)
      Any |= X;
    return Any == 0;
  }
  size_t count() const {
    size_t N = 0;
    for (uint64_t X : W)
      N += popcount(X);
    return N;
  }

  InstrSet &operator&=(const InstrSet &O) {
    for (size_t I = 0; I != kWords; ++I)
      W[I] &= O.W[I];
    return *this;
  }
  InstrSet &operator|=(const InstrSet &O) {
    for (size_t I = 0; I != kWords; ++I)
      W[I] |= O.W[I];
    return *this;
  }
  friend InstrSet operator&(InstrSet A, const InstrSet &B) { return A &= B; }
  /// \returns this set without the members of \p O.
  InstrSet minus(const InstrSet &O) const {
    InstrSet S;
    for (size_t I = 0; I != kWords; ++I)
      S.W[I] = W[I] & ~O.W[I];
    return S;
  }
  friend bool operator==(const InstrSet &A, const InstrSet &B) {
    return A.W == B.W;
  }

  /// Calls \p F(K) for every member K, in ascending order.
  template <typename Fn> void forEach(Fn &&F) const {
    for (size_t I = 0; I != kWords; ++I)
      for (uint64_t X = W[I]; X != 0; X &= X - 1)
        F(I * 64 + static_cast<size_t>(std::countr_zero(X)));
  }

private:
  static constexpr size_t kWords = kCapacity / 64;

  static unsigned popcount(uint64_t X) {
    X -= (X >> 1) & 0x5555555555555555ull;
    X = (X & 0x3333333333333333ull) + ((X >> 2) & 0x3333333333333333ull);
    X = (X + (X >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return static_cast<unsigned>((X * 0x0101010101010101ull) >> 56);
  }

  std::array<uint64_t, kWords> W = {};
};

/// The classes of one alphabet that the dead-instruction gate
/// (PrefixLint::refused) and the section 3.5 cut refuse whole. Built once
/// per machine and only read after that, so one instance serves every
/// worker thread.
struct InstrClasses {
  /// Registers 0..\p NumData - 1 are the data registers. Asserts that
  /// \p Alphabet fits an InstrSet.
  InstrClasses(const std::vector<Instr> &Alphabet, unsigned NumData)
      : All(InstrSet::prefix(Alphabet.size())) {
    Index.fill(kNotInAlphabet);
    for (size_t K = 0; K != Alphabet.size(); ++K) {
      const Instr I = Alphabet[K];
      Index[I.encode()] = static_cast<uint16_t>(K);
      if (I.Op == Opcode::Cmp) {
        Cmps.insert(K);
        KeepsData.insert(K);
        continue;
      }
      if (I.Op == Opcode::Mov)
        MovsInto[I.Dst].insert(K);
      if (I.Op == Opcode::CMovL || I.Op == Opcode::CMovG)
        CMovs.insert(K);
      (I.Dst < NumData ? DataWriters[I.Dst] : KeepsData).insert(K);
    }
  }

  /// \returns the alphabet index of the instruction with encoding
  /// \p Encoding (Instr::encode()), or kNotInAlphabet.
  size_t indexOf(uint16_t Encoding) const {
    return Encoding < Index.size() ? Index[Encoding] : kNotInAlphabet;
  }
  static constexpr uint16_t kNotInAlphabet = 0xFFFF;

  InstrSet All;
  InstrSet Cmps;
  InstrSet CMovs; ///< Every cmovl and cmovg.
  /// MovsInto[d]: the movs whose destination is register d.
  InstrSet MovsInto[kMaxRegs];
  /// DataWriters[d], d a data register: the non-cmp instructions that
  /// write d.
  InstrSet DataWriters[kMaxRegs];
  /// The instructions that write no data register: cmps, and writes to
  /// scratch or hybrid vector registers.
  InstrSet KeepsData;

private:
  /// Alphabet index by Instr::encode(): opcode * 64 + Dst * 8 + Src.
  std::array<uint16_t, (static_cast<size_t>(Opcode::Max) + 1) * 64> Index;
};

} // namespace sks

#endif // SKS_ISA_INSTRSET_H
