//===- driver/Backends.h - Substrate adapter factories ---------*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Factories for the seven substrate adapters behind the Backend
/// interface. Each takes the substrate's native option struct so callers
/// (the bench harness in particular) can run configured variants — e.g.
/// SMT-CEGIS vs SMT-Perm, or CP with a different goal formulation — under
/// the uniform request/outcome contract. Per-request fields (length,
/// timeout, stop token) of the native options are overwritten by the
/// adapter from the SynthRequest.
///
//===----------------------------------------------------------------------===//

#ifndef SKS_DRIVER_BACKENDS_H
#define SKS_DRIVER_BACKENDS_H

#include "cp/CpSolver.h"
#include "driver/Backend.h"
#include "mcts/Mcts.h"
#include "planning/Planner.h"
#include "smt/SmtSynth.h"
#include "stoke/Stoke.h"

#include <memory>
#include <string>

namespace sks {

/// Layered/best-first enumerative search (sections 3, 5.2). Optimal-capable:
/// MinLength requests run with an admissible configuration. FirstKernel
/// requests run bestEnumConfig, and an uncut rerun decides any bound the
/// cut exhausted after discarding states.
std::unique_ptr<Backend> makeEnumBackend();

/// Bit-blasted SMT synthesis (section 4.1). Optimal-capable: iterates
/// lengths from 1, so a Found kernel carries UNSAT proofs for all shorter
/// lengths.
std::unique_ptr<Backend> makeSmtBackend(SmtOptions Native = {},
                                        std::string Name = "smt");

/// Finite-domain CP synthesis (section 4.2). Optimal-capable, like smt.
std::unique_ptr<Backend> makeCpBackend(CpOptions Native = {},
                                       std::string Name = "cp");

/// ILP via branch-and-bound over the simplex relaxation (section 4.2).
/// Satisficing: solves the exact-length instance at the request bound.
std::unique_ptr<Backend> makeIlpBackend();

/// STOKE-style MCMC superoptimization (section 5.2). Satisficing.
std::unique_ptr<Backend> makeStokeBackend(StokeOptions Native = {},
                                          std::string Name = "stoke");

/// UCT Monte-Carlo tree search (AlphaDev stand-in). Satisficing.
std::unique_ptr<Backend> makeMctsBackend(MctsOptions Native = {},
                                         std::string Name = "mcts");

/// Grounded STRIPS planning (section 5.2). Satisficing (the default
/// configuration is greedy h_add, the only planner row that solves n = 3).
std::unique_ptr<Backend> makePlanBackend(PlanOptions Native = {},
                                         std::string Name = "plan");

} // namespace sks

#endif // SKS_DRIVER_BACKENDS_H
