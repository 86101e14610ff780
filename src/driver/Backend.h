//===- driver/Backend.h - Unified synthesis backend interface --*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver layer (DESIGN.md section 9): one cancellable interface over
/// all seven synthesis substrates — enumerative search, SAT/SMT, CP, ILP,
/// STOKE-style MCMC, MCTS, and planning. A backend takes a
/// backend-independent SynthRequest and returns a SynthOutcome in the
/// shared status taxonomy; every reported kernel is routed through
/// verify/Verify.h before the outcome leaves the driver, so no substrate
/// can report an unverified success.
///
/// Cancellation contract: the driver hands each backend a StopToken, the
/// only carrier of the request deadline below it, combined with any
/// external cancel (the portfolio race). Substrates report any stop as
/// their native TimedOut flag; Backend::run disambiguates by asking the
/// token which half fired — deadline first (TimedOut), then cancel
/// (Cancelled).
///
//===----------------------------------------------------------------------===//

#ifndef SKS_DRIVER_BACKEND_H
#define SKS_DRIVER_BACKEND_H

#include "machine/Machine.h"
#include "support/StopToken.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace sks {

/// Outcome taxonomy shared by all backends.
enum class SynthStatus {
  Found,      ///< A verified kernel; minimality unknown.
  Optimal,    ///< A verified kernel with a minimality certificate.
  Exhausted,  ///< An internal budget (iterations, expansions) ran out
              ///< without a kernel; says nothing about existence.
  TimedOut,   ///< The request deadline expired first.
  Cancelled,  ///< An external cancel (portfolio loser) stopped the run.
  Infeasible, ///< Proof that no kernel within the length bound exists.
  Rejected,   ///< Admission control refused the request before any backend
              ///< ran (service queue full); retry later.
};

/// \returns the lower-case display name of \p S ("found", "optimal", ...).
const char *statusName(SynthStatus S);

/// Parses a statusName() string back to the enum. \returns false for an
/// unknown name (the inverse used by the outcome deserializer and the
/// sks-serve protocol).
bool statusFromName(const std::string &Name, SynthStatus &Out);

/// What the requester wants from a run.
enum class SynthGoal {
  FirstKernel, ///< Any correct kernel, as fast as possible.
  MinLength,   ///< A minimal-length kernel, certified where the backend can.
};

/// A backend-independent synthesis request.
struct SynthRequest {
  /// Array length n (2..6).
  unsigned N = 3;
  /// Scratch registers m (the paper uses 1 throughout; part of the cache
  /// identity so future m > 1 work reuses the same store).
  unsigned Scratch = 1;
  MachineKind Kind = MachineKind::Cmov;
  SynthGoal Goal = SynthGoal::MinLength;
  /// What the kernel must establish (machine/Goal.h): full sortedness by
  /// default, or a select/top-k/partial-sort predicate. Part of the cache
  /// identity. Backends without a goal-generalized encoding reject
  /// non-sort requests with Exhausted + an "unsupported_goal" stat.
  GoalSpec GoalPred = GoalSpec::sort();
  /// Which substrate(s) may answer: a backendNames() entry or "portfolio".
  /// Backends themselves ignore it — the service layer dispatches on it,
  /// and the kernel cache keys on it (a portfolio answer and an
  /// enum-only answer are distinct artifacts).
  std::string BackendPolicy = "portfolio";
  /// Inclusive program-length bound; 0 = the sorting-network upper bound
  /// for (Kind, N), which is always a correct kernel's length.
  unsigned MaxLength = 0;
  /// Wall-clock budget in seconds (0 = unlimited).
  double TimeoutSeconds = 0;
  /// Worker threads granted to the backend; only the enumerative engine
  /// uses more than one, and the portfolio driver spends them on the race
  /// instead.
  unsigned NumThreads = 1;
  /// Also run the JIT translation validator (validate/SymbolicExec.h) on
  /// any verified kernel: statically prove the emitted x86-64 bytes of
  /// both the scalar and the pair emission path compute the kernel IR's
  /// function. A post-verification gate on the finished program — NOT
  /// part of the canonical cache identity (the artifact is the same
  /// kernel either way), and off the search hot path.
  bool ValidateJit = false;
  /// External cancellation (e.g. the portfolio race token). Combined with
  /// the deadline by Backend::run.
  StopToken Stop;

  /// \returns the effective length bound (MaxLength, or the network bound
  /// when MaxLength is 0).
  unsigned lengthBound() const;
};

/// A backend-independent synthesis outcome.
struct SynthOutcome {
  std::string BackendName;
  SynthStatus Status = SynthStatus::Exhausted;
  /// The synthesized kernel; non-empty only for Found/Optimal.
  Program Kernel;
  /// True when Kernel passed isCorrectKernel (all n! permutations). Set by
  /// Backend::run for every backend — the universal verification gate.
  bool Verified = false;
  double Seconds = 0;
  /// Backend-specific counters (states expanded, SAT conflicts, ...), in
  /// the backend's preferred display order.
  std::vector<std::pair<std::string, uint64_t>> Stats;
};

/// Interface every substrate adapter implements. Non-virtual run() wraps
/// the virtual runImpl() (NVI) so the verification gate and the
/// TimedOut/Cancelled disambiguation cannot be bypassed.
class Backend {
public:
  virtual ~Backend() = default;

  const std::string &name() const { return BackendName; }

  /// True when this backend's MinLength results carry a minimality
  /// certificate (exhaustive enumeration or per-length UNSAT proofs) and
  /// so report Optimal rather than Found.
  bool optimalCapable() const { return OptimalCapable; }

  /// Runs the backend: builds the machine, combines Req.Stop with the
  /// request deadline, calls runImpl, verifies any reported kernel, and
  /// refines a stop into TimedOut or Cancelled.
  SynthOutcome run(const SynthRequest &Req) const;

protected:
  Backend(std::string Name, bool OptimalCapable)
      : BackendName(std::move(Name)), OptimalCapable(OptimalCapable) {}

  /// Substrate adapter: synthesize on \p M, polling \p Stop (the combined
  /// deadline + cancel token). Reports any stop as SynthStatus::TimedOut;
  /// run() refines it. Must leave Outcome.Kernel empty unless the
  /// substrate claims a correct kernel.
  virtual SynthOutcome runImpl(const Machine &M, const SynthRequest &Req,
                               const StopToken &Stop) const = 0;

private:
  std::string BackendName;
  bool OptimalCapable;
};

/// Applies the Req.ValidateJit translation-validation gate to \p Outcome:
/// a no-op unless requested and a verified kernel is present. Proves the
/// JIT's scalar and pair emissions of the kernel (validate/SymbolicExec.h),
/// appends the jit_validated stat, and demotes the outcome to Exhausted
/// (jit_validate_failed) when an applicable path fails. Idempotent — it
/// skips outcomes already carrying the stat — so cache hits, which bypass
/// Backend::run, can be gated with the same call.
void applyJitValidationGate(const SynthRequest &Req, SynthOutcome &Outcome);

/// \returns the names of the seven registered backends, in portfolio
/// order: "enum", "smt", "cp", "ilp", "stoke", "mcts", "plan".
std::vector<std::string> backendNames();

/// \returns true for "portfolio" or a backendNames() entry.
bool isBackendPolicy(const std::string &Name);

/// Input limits shared by the wire protocol and the CLIs: the largest
/// length bound (SynthRequest::MaxLength) and thread count one may ask for.
constexpr unsigned kMaxLengthLimit = 1000;
constexpr unsigned kMaxThreads = 256;

/// \returns the named backend with its default native configuration, or
/// nullptr for an unknown name.
std::unique_ptr<Backend> createBackend(const std::string &Name);

} // namespace sks

#endif // SKS_DRIVER_BACKEND_H
