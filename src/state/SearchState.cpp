//===- state/SearchState.cpp - Canonical synthesis search states ----------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "state/SearchState.h"

using namespace sks;

SearchState sks::initialState(const Machine &M) {
  SearchState S;
  S.Rows = M.initialRows();
  canonicalizeRows(S.Rows);
  return S;
}

void sks::applyToState(const Machine &M, const SearchState &In, Instr I,
                       std::vector<uint32_t> &Out) {
  Out.clear();
  Out.reserve(In.Rows.size());
  for (uint32_t Row : In.Rows)
    Out.push_back(M.apply(Row, I));
  canonicalizeRows(Out);
}

unsigned sks::permCount(const Machine &M, const SearchState &S) {
  std::vector<uint64_t> Bitmap;
  return permCount(M, S.Rows.data(), S.Rows.size(), Bitmap);
}

unsigned sks::assignCount(const Machine &M, const SearchState &S) {
  std::vector<uint64_t> Bitmap;
  return assignCount(M, S.Rows.data(), S.Rows.size(), Bitmap);
}

bool sks::allSorted(const Machine &M, const SearchState &S) {
  for (uint32_t Row : S.Rows)
    if (!M.accepts(Row))
      return false;
  return true;
}
