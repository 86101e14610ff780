//===- planning/Planner.cpp - STRIPS planner with conditional effects ------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "planning/Planner.h"

#include "support/Hashing.h"
#include "support/Timing.h"

#include <algorithm>
#include <queue>
#include <unordered_map>

using namespace sks;

namespace {

using FactSet = std::vector<uint64_t>;

bool hasFact(const FactSet &S, uint32_t Fact) {
  return (S[Fact / 64] >> (Fact % 64)) & 1;
}
void addFact(FactSet &S, uint32_t Fact) {
  S[Fact / 64] |= uint64_t(1) << (Fact % 64);
}
void delFact(FactSet &S, uint32_t Fact) {
  S[Fact / 64] &= ~(uint64_t(1) << (Fact % 64));
}

struct Node {
  FactSet State;
  int32_t Parent;
  uint32_t ViaAction;
  uint32_t G;
};

struct OpenEntry {
  double F;
  uint32_t G;
  uint32_t Index;
  friend bool operator<(const OpenEntry &A, const OpenEntry &B) {
    if (A.F != B.F)
      return A.F > B.F;
    return A.G < B.G;
  }
};

class PlannerImpl {
public:
  PlannerImpl(const PlanningTask &Task, const PlanOptions &Opts)
      : Task(Task), Opts(Opts),
        Words((Task.NumFacts + 63) / 64) {}

  PlanResult run();

private:
  double heuristic(const FactSet &S);
  double hAdd(const FactSet &S);
  FactSet apply(const FactSet &S, const PlanningTask::Action &A) const;
  bool applicable(const FactSet &S, const PlanningTask::Action &A) const {
    for (uint32_t Pre : A.Preconditions)
      if (!hasFact(S, Pre))
        return false;
    return true;
  }

  const PlanningTask &Task;
  const PlanOptions &Opts;
  size_t Words;
};

} // namespace

FactSet PlannerImpl::apply(const FactSet &S,
                           const PlanningTask::Action &A) const {
  // Conditional effects are all evaluated against the pre-state; deletes
  // apply before adds.
  FactSet Next = S;
  for (const PlanningTask::CondEffect &E : A.Effects) {
    bool Fires = true;
    for (uint32_t C : E.Conditions)
      if (!hasFact(S, C)) {
        Fires = false;
        break;
      }
    if (!Fires)
      continue;
    for (uint32_t D : E.Dels)
      delFact(Next, D);
  }
  for (const PlanningTask::CondEffect &E : A.Effects) {
    bool Fires = true;
    for (uint32_t C : E.Conditions)
      if (!hasFact(S, C)) {
        Fires = false;
        break;
      }
    if (!Fires)
      continue;
    for (uint32_t Add : E.Adds)
      addFact(Next, Add);
  }
  return Next;
}

double PlannerImpl::heuristic(const FactSet &S) {
  switch (Opts.Heuristic) {
  case PlanHeuristic::GoalCount: {
    double H = 0;
    for (uint32_t G : Task.GoalFacts)
      H += !hasFact(S, G);
    return H;
  }
  case PlanHeuristic::SeqGoalCount: {
    // Lexicographic goal counting: the first unsatisfied goal dominates,
    // modelling the paper's Plan-Seq "one permutation after another".
    double H = 0;
    double Weight = 1.0;
    for (size_t I = Task.GoalFacts.size(); I > 0; --I) {
      if (!hasFact(S, Task.GoalFacts[I - 1]))
        H += Weight;
      Weight *= 2.0;
      if (Weight > 1e12)
        Weight = 1e12; // Saturate: earliest goals dominate equally.
    }
    return H;
  }
  case PlanHeuristic::HAdd:
    return hAdd(S);
  }
  return 0;
}

double PlannerImpl::hAdd(const FactSet &S) {
  // Additive delete-relaxation: fixpoint over fact costs; each
  // (action, conditional effect) pair is a relaxed unit-cost rule whose
  // body is preconditions + conditions.
  constexpr double Inf = 1e18;
  std::vector<double> Cost(Task.NumFacts, Inf);
  for (uint32_t F = 0; F != Task.NumFacts; ++F)
    if (hasFact(S, F))
      Cost[F] = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const PlanningTask::Action &A : Task.Actions) {
      double PreCost = 0;
      for (uint32_t Pre : A.Preconditions) {
        PreCost += Cost[Pre];
        if (PreCost >= Inf)
          break;
      }
      if (PreCost >= Inf)
        continue;
      for (const PlanningTask::CondEffect &E : A.Effects) {
        double BodyCost = PreCost;
        for (uint32_t C : E.Conditions) {
          BodyCost += Cost[C];
          if (BodyCost >= Inf)
            break;
        }
        if (BodyCost >= Inf)
          continue;
        double RuleCost = BodyCost + 1;
        for (uint32_t Add : E.Adds)
          if (RuleCost < Cost[Add]) {
            Cost[Add] = RuleCost;
            Changed = true;
          }
      }
    }
  }
  double H = 0;
  for (uint32_t G : Task.GoalFacts) {
    if (Cost[G] >= Inf)
      return Inf;
    H += Cost[G];
  }
  return H;
}

PlanResult PlannerImpl::run() {
  PlanResult Result;
  Stopwatch Timer;

  std::vector<Node> Arena;
  std::unordered_map<uint64_t, std::vector<uint32_t>> Seen;
  std::priority_queue<OpenEntry> Open;

  FactSet Initial(Words, 0);
  for (uint32_t F : Task.InitialFacts)
    addFact(Initial, F);
  Arena.push_back(Node{Initial, -1, 0, 0});
  Seen[hashWords(reinterpret_cast<const uint32_t *>(Initial.data()),
                 Words * 2)]
      .push_back(0);
  Open.push(OpenEntry{heuristic(Initial), 0, 0});

  auto IsGoal = [&](const FactSet &S) {
    for (uint32_t G : Task.GoalFacts)
      if (!hasFact(S, G))
        return false;
    return true;
  };

  while (!Open.empty()) {
    // Poll every expansion: one expansion evaluates h_add on every
    // successor, which costs tens of milliseconds on the n = 4 grounding —
    // any batching interval here would overshoot a short deadline badly.
    if (Opts.Stop.stopRequested()) {
      Result.TimedOut = true;
      break;
    }
    if (Result.Expanded >= Opts.MaxExpansions)
      break;
    OpenEntry Top = Open.top();
    Open.pop();
    FactSet State = Arena[Top.Index].State;
    if (IsGoal(State)) {
      Result.Found = true;
      int32_t Walk = static_cast<int32_t>(Top.Index);
      while (Arena[Walk].Parent >= 0) {
        Result.Plan.push_back(Arena[Walk].ViaAction);
        Walk = Arena[Walk].Parent;
      }
      std::reverse(Result.Plan.begin(), Result.Plan.end());
      break;
    }
    ++Result.Expanded;

    for (uint32_t ActionIdx = 0; ActionIdx != Task.Actions.size();
         ++ActionIdx) {
      const PlanningTask::Action &A = Task.Actions[ActionIdx];
      if (!applicable(State, A))
        continue;
      FactSet Next = apply(State, A);
      uint64_t Hash = hashWords(
          reinterpret_cast<const uint32_t *>(Next.data()), Words * 2);
      std::vector<uint32_t> &Bucket = Seen[Hash];
      bool Duplicate = false;
      for (uint32_t Existing : Bucket)
        if (Arena[Existing].State == Next) {
          Duplicate = true;
          break;
        }
      if (Duplicate)
        continue;
      uint32_t G = Top.G + 1;
      double H = heuristic(Next);
      if (H >= 1e18)
        continue; // Dead end under the relaxation.
      uint32_t Index = static_cast<uint32_t>(Arena.size());
      Arena.push_back(
          Node{std::move(Next), static_cast<int32_t>(Top.Index), ActionIdx,
               G});
      Bucket.push_back(Index);
      Open.push(OpenEntry{Opts.Greedy ? H : G + H, G, Index});
    }
  }
  Result.Seconds = Timer.seconds();
  return Result;
}

PlanResult sks::plan(const PlanningTask &Task, const PlanOptions &Opts) {
  return PlannerImpl(Task, Opts).run();
}
