//===- analysis/OrderDomain.cpp - Order-relation abstract domain ----------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/OrderDomain.h"

using namespace sks;

OrderState OrderState::entry(unsigned NumData) {
  OrderState S;
  for (unsigned Slot = 0; Slot != kNumSlots; ++Slot)
    S.Leq[Slot] = static_cast<uint16_t>(1u << Slot); // Reflexive.
  const unsigned ZSlot = kSymBase;
  for (unsigned Reg = 0; Reg != kMaxRegs; ++Reg) {
    // Data register i holds exactly x_i+1; every other register (scratch,
    // and for the hybrid machine the whole vector file) holds exactly Z.
    // Registers beyond the machine's file are never referenced; giving
    // them the Z binding keeps entry() machine-size-independent.
    const unsigned Sym = Reg < NumData ? Reg + 1 : 0;
    const unsigned SymSlot = kSymBase + Sym;
    S.Vals[Reg] = static_cast<uint8_t>(1u << Sym);
    S.Leq[Reg] |= static_cast<uint16_t>(1u << SymSlot);
    S.Leq[SymSlot] |= static_cast<uint16_t>(1u << Reg);
  }
  // The scratch zero sits below every input value (inputs are 1..n).
  for (unsigned Sym = 1; Sym <= NumData; ++Sym)
    S.Leq[ZSlot] |= static_cast<uint16_t>(1u << (kSymBase + Sym));
  S.close();
  return S;
}

void OrderState::close() {
  for (unsigned K = 0; K != kNumSlots; ++K) {
    const uint16_t RowK = Leq[K];
    const uint16_t BitK = static_cast<uint16_t>(1u << K);
    for (unsigned I = 0; I != kNumSlots; ++I)
      if (Leq[I] & BitK)
        Leq[I] |= RowK;
  }
}

void OrderState::assign(unsigned D, unsigned S) {
  if (D == S)
    return;
  Vals[D] = Vals[S];
  const uint16_t BitD = static_cast<uint16_t>(1u << D);
  const uint16_t BitS = static_cast<uint16_t>(1u << S);
  // Column: t <= new d exactly when t <= s (this makes d and s equal: the
  // S row's reflexive bit gives s <= d, the row copy below gives d <= s).
  for (unsigned T = 0; T != kNumSlots; ++T) {
    if (Leq[T] & BitS)
      Leq[T] |= BitD;
    else
      Leq[T] &= static_cast<uint16_t>(~BitD);
  }
  // Row: new d <= t exactly when s <= t. Copying a closed row/column pair
  // keeps the matrix closed, so no re-closure is needed.
  Leq[D] = Leq[S] | BitD;
}

void OrderState::fold(unsigned D, unsigned S, bool IsMin) {
  Vals[D] |= Vals[S];
  const uint16_t BitD = static_cast<uint16_t>(1u << D);
  const uint16_t BitS = static_cast<uint16_t>(1u << S);
  if (IsMin) {
    // d' = min(d, s): d' <= t whenever d <= t or s <= t (d' is one of the
    // two); t <= d' only when t <= d and t <= s.
    const uint16_t NewRow = Leq[D] | Leq[S];
    for (unsigned T = 0; T != kNumSlots; ++T)
      if (!(Leq[T] & BitS))
        Leq[T] &= static_cast<uint16_t>(~BitD);
    Leq[D] = NewRow | BitD;
  } else {
    const uint16_t NewRow = Leq[D] & Leq[S];
    for (unsigned T = 0; T != kNumSlots; ++T)
      if (Leq[T] & BitS)
        Leq[T] |= BitD;
    Leq[D] = NewRow | BitD;
  }
  close();
}

void OrderState::addLeqEdge(unsigned A, unsigned B) {
  Leq[A] |= static_cast<uint16_t>(1u << B);
  close();
}

uint8_t OrderState::cmpOutcomes(unsigned A, unsigned B) const {
  uint8_t Out = 0;
  if (!leq(B, A))
    Out |= kLt;
  if (!leq(A, B))
    Out |= kGt;
  // Symbols denote pairwise-distinct concrete values (inputs are a
  // permutation of 1..n, Z is 0), so disjoint may-sets prove the operands
  // unequal. Proven-equal operands leave only EQ (both branches above are
  // excluded by the two leq facts).
  if ((Vals[A] & Vals[B]) != 0 || provablyEqual(A, B))
    Out |= kEq;
  return Out;
}

OrderState OrderState::extended(Instr I) const {
  OrderState Next = *this;
  switch (I.Op) {
  case Opcode::Mov:
    Next.invalidatePairOn(I.Dst);
    Next.assign(I.Dst, I.Src);
    break;
  case Opcode::Cmp:
    Next.FlagOut = cmpOutcomes(I.Dst, I.Src);
    Next.FlagA = I.Dst;
    Next.FlagB = I.Src;
    Next.PairValid = true;
    break;
  case Opcode::CMovL:
  case Opcode::CMovG: {
    const uint8_t FireBit = I.Op == Opcode::CMovL ? kLt : kGt;
    if ((FlagOut & FireBit) == 0)
      break; // Can never fire: the state is unchanged.
    // Taken branch: the firing flag proves a strict order between the cmp
    // operands (their values are unchanged while PairValid holds), then
    // the move executes.
    OrderState Taken = *this;
    if (PairValid) {
      if (I.Op == Opcode::CMovL)
        Taken.addLeqEdge(FlagA, FlagB); // Fired: val(A) < val(B).
      else
        Taken.addLeqEdge(FlagB, FlagA); // Fired: val(A) > val(B).
    }
    Taken.assign(I.Dst, I.Src);
    if ((FlagOut & ~FireBit) == 0) {
      Next = Taken; // The move always fires; no untaken branch to join.
    } else {
      // Untaken branch: the flag's negation is a non-strict order.
      OrderState Untaken = *this;
      if (PairValid) {
        if (I.Op == Opcode::CMovL)
          Untaken.addLeqEdge(FlagB, FlagA); // !(A < B) => B <= A.
        else
          Untaken.addLeqEdge(FlagA, FlagB); // !(A > B) => A <= B.
      }
      Next = Taken;
      Next.meet(Untaken);
    }
    // A conditional move does not touch the flags; restore the flag
    // abstraction the meet widened, then account for the write.
    Next.FlagOut = FlagOut;
    Next.FlagA = FlagA;
    Next.FlagB = FlagB;
    Next.PairValid = PairValid;
    Next.invalidatePairOn(I.Dst);
    break;
  }
  case Opcode::Min:
  case Opcode::Max: {
    const bool IsMin = I.Op == Opcode::Min;
    // When dst is provably on the winning side the fold is a no-op; when
    // src is, it is an exact assignment; otherwise fold both orders.
    if (IsMin ? leq(I.Dst, I.Src) : leq(I.Src, I.Dst)) {
      // dst already holds the winning value: no-op.
    } else if (IsMin ? leq(I.Src, I.Dst) : leq(I.Dst, I.Src)) {
      Next.assign(I.Dst, I.Src);
    } else {
      Next.fold(I.Dst, I.Src, IsMin);
    }
    Next.invalidatePairOn(I.Dst);
    break;
  }
  }
  return Next;
}

void OrderState::meet(const OrderState &Other) {
  for (unsigned Slot = 0; Slot != kNumSlots; ++Slot)
    Leq[Slot] &= Other.Leq[Slot];
  for (unsigned Reg = 0; Reg != kMaxRegs; ++Reg)
    Vals[Reg] |= Other.Vals[Reg];
  FlagOut |= Other.FlagOut;
  if (!(PairValid && Other.PairValid && FlagA == Other.FlagA &&
        FlagB == Other.FlagB)) {
    PairValid = false;
    FlagA = FlagB = 0;
  }
  // The intersection of two reflexive transitive relations is reflexive
  // and transitive, so the matrix stays closed without re-closing.
}
