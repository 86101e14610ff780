//===- support/StopToken.h - Cooperative cancellation ----------*- C++ -*-===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cooperative cancellation for the synthesis substrates. A StopSource owns
/// a cancellation flag; the StopTokens it hands out combine that flag with
/// a wall-clock Deadline, and every substrate's inner loop polls
/// StopToken::stopRequested() instead of a bare Deadline. This gives all
/// seven backends one uniform stop contract:
///
///  - external cancel: the portfolio driver requests a stop on the losers
///    as soon as one backend returns a verified kernel;
///  - deadline: the per-request timeout (sks-synth --timeout, bench
///    budgets) maps onto the same poll sites.
///
/// A default-constructed token never stops, and stopRequested() on it is
/// branch-only (no clock read, no atomic load), so engines pay nothing
/// when cancellation is unused. Tokens chain: StopSource can be rooted in
/// a parent token, so a portfolio race nested under an outer deadline
/// observes both. The token is the only carrier of a deadline below the
/// driver, and its clock starts when withDeadline() makes it: a caller
/// reusing options for several runs makes a fresh token for each. Which
/// half fired is the token's to say, deadline first (deadlineExpired, then
/// cancelRequested).
///
//===----------------------------------------------------------------------===//

#ifndef SKS_SUPPORT_STOPTOKEN_H
#define SKS_SUPPORT_STOPTOKEN_H

#include "support/Timing.h"

#include <atomic>
#include <memory>

namespace sks {

class StopSource;

/// A cancellation observer: shared cancel flag (set by a StopSource) plus
/// a deadline, plus an optional parent token. Cheap to copy; thread-safe
/// to poll concurrently.
class StopToken {
public:
  StopToken() = default;

  /// \returns true when the run should wind down, for any reason.
  bool stopRequested() const {
    if (Cancel && Cancel->load(std::memory_order_relaxed))
      return true;
    if (Budget.expired())
      return true;
    return Parent && Parent->stopRequested();
  }

  /// \returns true when an external cancel (not the deadline) fired; the
  /// driver maps this to SynthStatus::Cancelled.
  bool cancelRequested() const {
    if (Cancel && Cancel->load(std::memory_order_relaxed))
      return true;
    return Parent && Parent->cancelRequested();
  }

  /// \returns true when a deadline expired (here or in a parent); the
  /// driver maps this to SynthStatus::TimedOut.
  bool deadlineExpired() const {
    if (Budget.expired())
      return true;
    return Parent && Parent->deadlineExpired();
  }

  /// \returns true when this token can ever stop (flag, armed deadline, or
  /// a parent); false for the default token.
  bool canStop() const {
    return Cancel != nullptr || Budget.armed() || Parent != nullptr;
  }

  /// \returns this token tightened by a deadline \p BudgetSeconds from now
  /// (<= 0 adds nothing). The cancel flag and parent chain are shared; the
  /// resulting deadline is whichever of the two expires first.
  StopToken withDeadline(double BudgetSeconds) const {
    StopToken T = *this;
    T.Budget = Deadline::earlier(Budget, Deadline(BudgetSeconds));
    return T;
  }

private:
  friend class StopSource;
  std::shared_ptr<std::atomic<bool>> Cancel;
  std::shared_ptr<const StopToken> Parent;
  Deadline Budget;
};

/// Owns a cancellation flag and mints tokens observing it.
class StopSource {
public:
  StopSource() : Flag(std::make_shared<std::atomic<bool>>(false)) {}

  /// Roots the source under \p Parent: tokens from this source also stop
  /// when the parent token does (a trivial parent is dropped).
  explicit StopSource(const StopToken &Parent) : StopSource() {
    if (Parent.canStop())
      ParentToken = std::make_shared<const StopToken>(Parent);
  }

  /// Requests a cooperative stop; every token minted from this source (and
  /// every engine polling one) observes it at its next poll site.
  void requestStop() { Flag->store(true, std::memory_order_relaxed); }

  /// \returns true once requestStop() was called.
  bool stopRequested() const {
    return Flag->load(std::memory_order_relaxed);
  }

  /// Mints a token observing this source (and its parent, if any).
  StopToken token() const {
    StopToken T;
    T.Cancel = Flag;
    T.Parent = ParentToken;
    return T;
  }

private:
  std::shared_ptr<std::atomic<bool>> Flag;
  std::shared_ptr<const StopToken> ParentToken;
};

} // namespace sks

#endif // SKS_SUPPORT_STOPTOKEN_H
