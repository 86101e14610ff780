//===- support/Env.h - Benchmark environment knobs -------------*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Environment-variable knobs for the benchmark harness. The paper's slow
/// experiments (n=5 synthesis, the n=4 length-19 exhaustion, the full n=4
/// solution walk) are gated behind SKS_FULL=1 so the default bench run
/// finishes in minutes on one core.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_SUPPORT_ENV_H
#define SKS_SUPPORT_ENV_H

namespace sks {

/// \returns true when SKS_FULL=1: run the paper-scale experiments.
bool isFullRun();

/// \returns the double value of environment variable \p Name, or \p Default.
double envDouble(const char *Name, double Default);

} // namespace sks

#endif // SKS_SUPPORT_ENV_H
