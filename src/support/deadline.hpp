// Wall-clock deadlines for the synthesis pipeline. A Deadline is threaded
// by value through candidate generation, the merging pricers, and the UCP
// branch-and-bound; each hot loop polls expired() and degrades gracefully
// instead of running unbounded (docs/robustness.md describes the ladder).
//
// THREAD SAFETY: a single Deadline object may be polled concurrently from
// many workers (the parallel pricing stage shares one by const reference).
// The expiry latch and the fault-injection poll counter are atomics, so
// concurrent polls never tear the count (docs/performance.md).
//
// expired() latches: once a Deadline has reported expiry it keeps doing so,
// so a caller observing "expired" mid-stage can rely on every later stage
// observing the same.
//
// Deterministic testing: expire_after_checks(n) builds a Deadline that
// ignores the clock and expires on the (n+1)-th expired() poll, so every
// degradation edge is unit-testable without timing races.
#pragma once

#include <atomic>
#include <chrono>

namespace cdcs::support {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Default: never expires (and polls are two branch instructions).
  Deadline() = default;

  /// Copies snapshot the latch and the remaining poll budget.
  Deadline(const Deadline& other)
      : at_(other.at_),
        has_deadline_(other.has_deadline_),
        has_checks_(other.has_checks_),
        checks_left_(other.checks_left_.load(std::memory_order_relaxed)),
        expired_(other.expired_.load(std::memory_order_relaxed)) {}

  Deadline& operator=(const Deadline& other) {
    if (this != &other) {
      at_ = other.at_;
      has_deadline_ = other.has_deadline_;
      has_checks_ = other.has_checks_;
      checks_left_.store(other.checks_left_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      expired_.store(other.expired_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
    return *this;
  }

  static Deadline never() { return Deadline(); }

  static Deadline after(Clock::duration budget) {
    Deadline d;
    d.has_deadline_ = true;
    d.at_ = Clock::now() + budget;
    return d;
  }

  static Deadline after_ms(double ms) {
    return after(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(ms < 0.0 ? 0.0 : ms)));
  }

  /// Fault injection: expires on the (n+1)-th expired() call regardless of
  /// the clock. n = 0 expires on the first poll. Polls from any thread
  /// consume the shared budget of THIS object; copies snapshot what is left.
  static Deadline expire_after_checks(long n) {
    Deadline d;
    d.has_checks_ = true;
    d.checks_left_.store(n < 0 ? 0 : n, std::memory_order_relaxed);
    return d;
  }

  bool unlimited() const {
    return !has_deadline_ && !has_checks_ &&
           !expired_.load(std::memory_order_relaxed);
  }

  /// True when some earlier poll of this copy already observed expiry.
  /// Never consumes a fault-injection poll and never advances the latch --
  /// the poll-free query for "did a pricer bail out on us?" decisions
  /// (e.g. whether a pricing result is safe to memoize).
  bool latched() const { return expired_.load(std::memory_order_relaxed); }

  bool expired() const {
    if (expired_.load(std::memory_order_relaxed)) return true;
    if (has_checks_) {
      // fetch_sub gives each concurrent poller a distinct ticket; exactly
      // the poll holding ticket 0 (the (n+1)-th overall) trips the latch,
      // and the count can go negative but never tears.
      if (checks_left_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
        return latch();
      }
    }
    if (has_deadline_ && Clock::now() >= at_) return latch();
    return false;
  }

 private:
  /// Sets the expiry latch. Always returns true.
  bool latch() const {
    expired_.store(true, std::memory_order_relaxed);
    return true;
  }

  Clock::time_point at_{};
  bool has_deadline_{false};
  bool has_checks_{false};
  /// Fault-injection poll budget; only meaningful when has_checks_. Mutable
  /// so const hot-path polls can count; copies take a snapshot.
  mutable std::atomic<long> checks_left_{-1};
  mutable std::atomic<bool> expired_{false};
};

}  // namespace cdcs::support
