// Scoped-span timing for pipeline stages: an RAII timer that adds the
// enclosed scope's wall time and calling-thread CPU time (nanoseconds) to
// a pair of counters on destruction.
//
// Time is exclusive per thread: a timer nested in another on the same
// thread charges its whole duration to its own counters and the outer
// timer keeps only the remainder, so the stages timed on one thread add
// up to the outermost timer's wall time. Timers on pool workers add
// their own time, so summed stage time can exceed wall time at >1
// thread. A pool work item dispatched from inside a stage charges its
// CPU (never its wall time) to that stage when a worker runs it; see
// StageMetrics::TimeItem.
//
// Wall time is steady_clock; CPU time is CLOCK_THREAD_CPUTIME_ID, the
// calling thread's CPU only. Inert counters make the timer a no-op,
// including the clock reads; an inert timer's time stays with the
// enclosing one.
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#define TRACEWEAVER_OBS_HAS_THREAD_CPUTIME 1
#endif

#include "obs/metrics.h"

namespace traceweaver::obs {

/// Nanoseconds of CPU consumed by the calling thread (0 where the platform
/// lacks a thread cputime clock).
inline std::uint64_t ThreadCpuNowNs() {
#if defined(TRACEWEAVER_OBS_HAS_THREAD_CPUTIME)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

inline std::uint64_t WallNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Adds the scope's wall/CPU nanoseconds, minus those of the timers
/// nested in it on this thread, to the given counters. Either counter may
/// be inert; a fully inert timer performs no clock reads. Timers must be
/// destroyed in reverse order of construction (scoped use guarantees it).
class StageTimer {
 public:
  StageTimer(Counter wall_ns, Counter cpu_ns)
      : wall_(wall_ns), cpu_(cpu_ns), armed_(wall_ns || cpu_ns) {
    if (armed_) {
      parent_ = current_;
      current_ = this;
      wall0_ = WallNowNs();
      cpu0_ = ThreadCpuNowNs();
    }
  }
  ~StageTimer() {
    if (!armed_) return;
    const std::uint64_t cpu1 = ThreadCpuNowNs();
    const std::uint64_t wall1 = WallNowNs();
    const std::uint64_t wall = wall1 > wall0_ ? wall1 - wall0_ : 0;
    const std::uint64_t cpu = cpu1 > cpu0_ ? cpu1 - cpu0_ : 0;
    wall_.Inc(wall > nested_wall_ ? wall - nested_wall_ : 0);
    cpu_.Inc(cpu > nested_cpu_ ? cpu - nested_cpu_ : 0);
    current_ = parent_;
    if (parent_ != nullptr) {
      parent_->nested_wall_ += wall;
      parent_->nested_cpu_ += cpu;
    }
  }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// True while an armed timer runs on the calling thread.
  static bool InStage() { return current_ != nullptr; }

 private:
  /// The innermost armed timer running on this thread.
  static inline thread_local StageTimer* current_ = nullptr;

  Counter wall_;
  Counter cpu_;
  bool armed_;
  StageTimer* parent_ = nullptr;
  std::uint64_t wall0_ = 0;
  std::uint64_t cpu0_ = 0;
  std::uint64_t nested_wall_ = 0;  ///< Full durations of nested timers.
  std::uint64_t nested_cpu_ = 0;
};

}  // namespace traceweaver::obs
