//===- state/StateStore.cpp - Chunked, sharded state storage --------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "state/StateStore.h"

#include <utility>

using namespace sks;

void IndexShard::rehash(size_t NewSize) {
  assert(NewSize <= (size_t{1} << 32) && "a 32-bit tag picks the home slot");
  std::vector<Slot> Old = std::move(Slots);
  Slots.assign(NewSize, Slot{0, kEmpty});
  const size_t Mask = NewSize - 1;
  for (const Slot &S : Old) {
    if (S.Payload == kEmpty)
      continue;
    size_t I = S.Tag & Mask;
    while (Slots[I].Payload != kEmpty)
      I = (I + 1) & Mask;
    Slots[I] = S;
  }
}
