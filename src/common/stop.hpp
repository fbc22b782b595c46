#pragma once
// Cooperative cancellation for long-running flows (DESIGN.md §5.12).
//
// A StopSource is the single writer side of a stop request: a signal handler,
// a wall-clock deadline or a step budget arms it, and every long loop in the
// library (GA generations, Runner cell dispatch, ThreadPool index claiming)
// polls a StopToken view of it at its natural boundaries. The request path is
// one relaxed atomic store, so it is async-signal-safe — clrtool's SIGINT /
// SIGTERM handler does nothing but call request_stop().
//
// Cancellation is *cooperative and boundary-aligned*: a stop request never
// tears a generation or a replication job in half. Loops finish the unit of
// work they started, report their restartable state (see io/checkpoint.hpp)
// and return with a `complete = false` flag. This is what makes interrupted
// runs resumable bit-identically.

#include <atomic>
#include <chrono>
#include <cstdint>

namespace clr::util {

/// Why a stop was requested (first request wins; later ones are ignored).
enum class StopReason : int {
  None = 0,      ///< no stop requested
  Signal = 1,    ///< SIGINT/SIGTERM (or an explicit external request)
  Deadline = 2,  ///< the wall-clock deadline passed
  Budget = 3,    ///< a session's step budget of boundaries was exhausted
};

/// Human-readable reason ("signal", "deadline", "budget", "none").
const char* stop_reason_name(StopReason reason);

class StopToken;

/// Owner side of a cooperative stop flag. All members are lock-free atomics;
/// request_stop() is async-signal-safe.
class StopSource {
 public:
  StopSource() = default;
  StopSource(const StopSource&) = delete;
  StopSource& operator=(const StopSource&) = delete;

  /// Latch the stop flag. The first caller's reason sticks. Safe to call
  /// from a signal handler (one relaxed exchange + one relaxed store).
  void request_stop(StopReason reason = StopReason::Signal) noexcept {
    if (!stopped_.exchange(true, std::memory_order_relaxed)) {
      reason_.store(static_cast<int>(reason), std::memory_order_relaxed);
    }
  }

  /// Arm a wall-clock deadline `seconds` from now (steady clock). The flag
  /// latches on the first stop_requested() call at/after the deadline —
  /// there is no timer thread. seconds <= 0 stops immediately.
  void set_deadline_after(double seconds) {
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(now).count() +
                    static_cast<std::int64_t>(seconds * 1e9);
    deadline_ns_.store(ns, std::memory_order_relaxed);
  }

  /// True once a stop was requested (or the armed deadline has passed;
  /// checking latches the flag so the reason is stable afterwards).
  bool stop_requested() noexcept {
    if (stopped_.load(std::memory_order_relaxed)) return true;
    const std::int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    if (deadline != 0) {
      const auto now = std::chrono::steady_clock::now().time_since_epoch();
      if (std::chrono::duration_cast<std::chrono::nanoseconds>(now).count() >= deadline) {
        request_stop(StopReason::Deadline);
        return true;
      }
    }
    return false;
  }

  StopReason reason() const noexcept {
    return static_cast<StopReason>(reason_.load(std::memory_order_relaxed));
  }

  /// A lightweight view; valid as long as this source outlives it.
  StopToken token() noexcept;

 private:
  std::atomic<bool> stopped_{false};
  std::atomic<int> reason_{static_cast<int>(StopReason::None)};
  std::atomic<std::int64_t> deadline_ns_{0};  ///< steady-clock ns; 0 = none
};

/// Nullable, copyable view of a StopSource. A default-constructed token never
/// reports a stop — APIs take it by value and callers that don't care pass
/// `{}`.
class StopToken {
 public:
  StopToken() = default;

  bool stop_possible() const noexcept { return source_ != nullptr; }
  bool stop_requested() const noexcept {
    return source_ != nullptr && source_->stop_requested();
  }
  StopReason reason() const noexcept {
    return source_ != nullptr ? source_->reason() : StopReason::None;
  }

 private:
  friend class StopSource;
  explicit StopToken(StopSource* source) : source_(source) {}
  StopSource* source_ = nullptr;
};

inline StopToken StopSource::token() noexcept { return StopToken(this); }

/// Route SIGINT and SIGTERM to `source.request_stop(StopReason::Signal)`.
/// Installed with SA_RESETHAND: the first signal requests a cooperative stop
/// (finish the current generation/cell, write a final checkpoint), a second
/// one falls back to the default disposition and kills the process. The
/// source must outlive the process's signal handling (clrtool uses a
/// function-local static). No-op on platforms without sigaction.
void install_stop_signal_handlers(StopSource& source);

}  // namespace clr::util
