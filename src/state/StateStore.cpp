//===- state/StateStore.cpp - Arena-backed sharded state storage ----------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "state/StateStore.h"

#include <utility>

using namespace sks;

void IndexShard::rehash(size_t NewSize) {
  std::vector<Slot> Old = std::move(Slots);
  Slots.assign(NewSize, Slot{0, kEmpty});
  size_t Mask = NewSize - 1;
  for (const Slot &S : Old) {
    if (S.Payload == kEmpty)
      continue;
    size_t I = S.Hash & Mask;
    while (Slots[I].Payload != kEmpty)
      I = (I + 1) & Mask;
    Slots[I] = S;
  }
}
