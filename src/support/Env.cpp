//===- support/Env.cpp - Benchmark environment knobs ----------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Env.h"

#include <cstdlib>
#include <cstring>

using namespace sks;

bool sks::isFullRun() {
  const char *Value = std::getenv("SKS_FULL");
  return Value && std::strcmp(Value, "0") != 0 && Value[0] != '\0';
}

double sks::envDouble(const char *Name, double Default) {
  const char *Value = std::getenv(Name);
  if (!Value || !*Value)
    return Default;
  char *End = nullptr;
  double Parsed = std::strtod(Value, &End);
  return (End && *End == '\0') ? Parsed : Default;
}
