//===- planning/Planner.h - STRIPS planner with conditional effects -*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A grounded STRIPS planner supporting conditional effects (the ADL
/// fragment the synthesis domain needs), with greedy best-first / A*
/// search and two classic heuristics: goal counting and the additive
/// delete-relaxation heuristic h_add. It is the substrate for the planning
/// baselines of section 5.2 (the paper ran fast-downward, LAMA, Scorpion
/// and CPDDL; see DESIGN.md's substitution table).
///
//===----------------------------------------------------------------------===//

#ifndef SKS_PLANNING_PLANNER_H
#define SKS_PLANNING_PLANNER_H

#include "support/StopToken.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sks {

/// A grounded planning task over propositional facts 0..NumFacts-1.
struct PlanningTask {
  struct CondEffect {
    std::vector<uint32_t> Conditions; ///< All must hold in the pre-state.
    std::vector<uint32_t> Adds;
    std::vector<uint32_t> Dels;
  };
  struct Action {
    std::string Name;
    std::vector<uint32_t> Preconditions;
    std::vector<CondEffect> Effects;
  };

  uint32_t NumFacts = 0;
  std::vector<uint32_t> InitialFacts;
  std::vector<uint32_t> GoalFacts;
  std::vector<Action> Actions;
};

enum class PlanHeuristic {
  GoalCount,    ///< Number of unsatisfied goal facts.
  SeqGoalCount, ///< Goal count weighted lexicographically by fact order —
                ///< the "handle each permutation one after another"
                ///< linearization of the paper's Plan-Seq formulation.
  HAdd,         ///< Additive delete-relaxation heuristic.
};

struct PlanOptions {
  PlanHeuristic Heuristic = PlanHeuristic::GoalCount;
  /// Greedy best-first (f = h) when true, A* (f = g + h) otherwise.
  bool Greedy = true;
  size_t MaxExpansions = SIZE_MAX;
  /// Deadline and cancellation, polled in the expansion loop. Any stop is
  /// reported as PlanResult::TimedOut.
  StopToken Stop;
};

struct PlanResult {
  bool Found = false;
  bool TimedOut = false;
  std::vector<uint32_t> Plan; ///< Action indices.
  size_t Expanded = 0;
  double Seconds = 0;
};

/// Runs forward search on \p Task.
PlanResult plan(const PlanningTask &Task, const PlanOptions &Opts);

} // namespace sks

#endif // SKS_PLANNING_PLANNER_H
