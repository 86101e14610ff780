//===- ilp/BranchBound.h - Branch-and-bound integer programming -*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Depth-first branch-and-bound over the simplex relaxation: branch on the
/// most fractional integer variable, adding bound rows (x <= floor(v) or
/// -x <= -ceil(v)); prune nodes whose relaxation is infeasible or worse
/// than the incumbent.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_ILP_BRANCHBOUND_H
#define SKS_ILP_BRANCHBOUND_H

#include "ilp/Simplex.h"

#include <cstdint>
#include <vector>

namespace sks {

enum class IlpStatus { Optimal, Infeasible, TimedOut };

struct IlpResult {
  IlpStatus Status = IlpStatus::Infeasible;
  double Objective = 0;
  std::vector<double> X;
  uint64_t NodesExplored = 0;
};

/// Solves \p LP with the variables listed in \p IntegerVars restricted to
/// integers. \p Stop is polled at every node and inside the simplex
/// relaxation, reporting TimedOut when it fires — never Infeasible, since
/// a node the stop cut short was not proven empty.
IlpResult solveIlp(const LinearProgram &LP,
                   const std::vector<size_t> &IntegerVars,
                   const StopToken &Stop = {});

} // namespace sks

#endif // SKS_ILP_BRANCHBOUND_H
