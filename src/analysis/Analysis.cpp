//===- analysis/Analysis.cpp - Kernel analyses ------------------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"

#include <algorithm>
#include <map>

using namespace sks;

unsigned sks::kernelScore(const Program &P) {
  unsigned Score = 0;
  for (const Instr &I : P) {
    switch (I.Op) {
    case Opcode::Mov:
      Score += 1;
      break;
    case Opcode::Cmp:
      Score += 2;
      break;
    case Opcode::CMovL:
    case Opcode::CMovG:
    case Opcode::Min:
    case Opcode::Max:
      Score += 4;
      break;
    }
  }
  return Score;
}

unsigned sks::criticalPathLength(const Program &P) {
  // Depth[r] = length of the longest chain producing register r's current
  // value; FlagDepth likewise for the flags. Unit latency per instruction.
  unsigned Depth[8] = {0};
  unsigned FlagDepth = 0;
  unsigned Longest = 0;
  for (const Instr &I : P) {
    unsigned Mine = 0;
    switch (I.Op) {
    case Opcode::Mov:
      Mine = Depth[I.Src] + 1;
      Depth[I.Dst] = Mine;
      break;
    case Opcode::Cmp:
      Mine = std::max(Depth[I.Dst], Depth[I.Src]) + 1;
      FlagDepth = Mine;
      break;
    case Opcode::CMovL:
    case Opcode::CMovG:
      // A conditional move reads flags, its source, and its own previous
      // value.
      Mine = std::max({FlagDepth, Depth[I.Src], Depth[I.Dst]}) + 1;
      Depth[I.Dst] = Mine;
      break;
    case Opcode::Min:
    case Opcode::Max:
      Mine = std::max(Depth[I.Src], Depth[I.Dst]) + 1;
      Depth[I.Dst] = Mine;
      break;
    }
    Longest = std::max(Longest, Mine);
  }
  return Longest;
}

std::string sks::commandCombination(const Program &P) {
  std::string Key;
  Key.reserve(P.size());
  for (const Instr &I : P)
    Key.push_back(static_cast<char>(I.Op));
  std::sort(Key.begin(), Key.end());
  return Key;
}

size_t sks::countDistinctCombinations(const std::vector<Program> &Programs) {
  std::vector<std::string> Keys;
  Keys.reserve(Programs.size());
  for (const Program &P : Programs)
    Keys.push_back(commandCombination(P));
  std::sort(Keys.begin(), Keys.end());
  return static_cast<size_t>(
      std::unique(Keys.begin(), Keys.end()) - Keys.begin());
}

std::vector<Program> sks::sampleByScore(const std::vector<Program> &Programs,
                                        unsigned NumScores, size_t PerScore) {
  std::map<unsigned, std::vector<const Program *>> ByScore;
  for (const Program &P : Programs)
    ByScore[kernelScore(P)].push_back(&P);
  std::vector<Program> Sampled;
  unsigned ClassesTaken = 0;
  for (const auto &[Score, Members] : ByScore) {
    if (ClassesTaken++ == NumScores)
      break;
    for (size_t I = 0; I != Members.size() && I != PerScore; ++I)
      Sampled.push_back(*Members[I]);
  }
  return Sampled;
}
