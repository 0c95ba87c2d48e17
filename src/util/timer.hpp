// Wall-clock timing and deadline handling for solver runs and benchmarks.
#pragma once

#include <chrono>

namespace aspmt::util {

/// Monotonic stopwatch.
class Timer {
 public:
  Timer() noexcept : start_(Clock::now()) {}

  void restart() noexcept { start_ = Clock::now(); }

  [[nodiscard]] double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] double elapsed_ms() const noexcept { return elapsed_seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A deadline that solver loops poll periodically.  A non-positive budget
/// means "no limit".
class Deadline {
 public:
  Deadline() noexcept = default;
  explicit Deadline(double budget_seconds) noexcept : budget_(budget_seconds) {}

  [[nodiscard]] bool expired() const noexcept {
    return budget_ > 0.0 && timer_.elapsed_seconds() >= budget_;
  }

  [[nodiscard]] bool unlimited() const noexcept { return budget_ <= 0.0; }

 private:
  Timer timer_;
  double budget_ = -1.0;
};

}  // namespace aspmt::util
