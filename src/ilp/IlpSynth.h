//===- ilp/IlpSynth.h - ILP synthesis formulation (section 4.2) -*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CP-ILP formulation of section 4.2: binary selector variables per
/// (step, instruction), integer register-value variables per (example,
/// step, register), binary flag variables, and the paper's activated-
/// command indirection (active_cmovl = sel * flag) linearized with big-M
/// rows. Solved by the in-tree branch-and-bound (the paper used Gurobi and
/// CBC; none of the ILP routes synthesized even n = 3 — this baseline
/// reproduces that failure mode while remaining correct on toy sizes).
///
//===----------------------------------------------------------------------===//

#ifndef SKS_ILP_ILPSYNTH_H
#define SKS_ILP_ILPSYNTH_H

#include "machine/Machine.h"
#include "support/StopToken.h"

namespace sks {

struct IlpSynthOptions {
  unsigned Length = 0;
  /// Deadline and cancellation, polled while constructing the LP and
  /// inside branch-and-bound. Any stop is reported as
  /// IlpSynthResult::TimedOut.
  StopToken Stop;
};

struct IlpSynthResult {
  bool Found = false;
  bool TimedOut = false;
  Program P;
  double Seconds = 0;
  size_t NumVars = 0;
  size_t NumRows = 0;
  uint64_t Nodes = 0;
};

/// Synthesizes a kernel of exactly Opts.Length instructions via the ILP
/// route (cmov machine only).
IlpSynthResult ilpSynthesize(const Machine &M, const IlpSynthOptions &Opts);

} // namespace sks

#endif // SKS_ILP_ILPSYNTH_H
