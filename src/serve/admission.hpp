#pragma once
/// \file admission.hpp
/// Admission control for the serve executor: classify each decoded query
/// by cost, admit it against per-class concurrency + queue-depth budgets
/// (plus an optional per-session token bucket), and reject *early* —
/// with a retry-after hint — rather than queue work that will die of its
/// own deadline.
///
/// Cost classes (docs/SERVE.md "Overload policy"):
///   kCheap      point lookups and health probes — O(1), always worth
///               running; mapped to ThreadPool Priority::kHigh so they
///               keep flowing under overload.
///   kMedium     slice and region-sum/max scans — O(plane); kNormal.
///   kExpensive  region-grid extraction and hotspot clustering —
///               O(volume) allocations + scans; kLow, first to shed.
///
/// Shedding policy, in decision order:
///   1. Writer-stall circuit breaker: when the registry's last publish is
///      older than the stall threshold (the executor's
///      SessionConfig::stall_after, the same one that marks sessions
///      kDegraded) the estimator is presumed wedged —
///      expensive queries are shed outright (their answers age fastest and
///      cost most), while cheap/medium reads keep serving from last-good
///      pins (PR 7's degraded mode, now load-aware).
///   2. Per-session token bucket: one client cannot monopolize a class
///      budget; dry bucket → shed with the bucket's exact refill time as
///      the retry-after hint.
///   3. Class budgets: running < concurrency admits to *run*; otherwise
///      the request queues only if the class queue has room AND the
///      EWMA-estimated queue wait still fits inside the request deadline.
///      Anything else is shed with a wait-estimate retry-after hint.
///
/// The controller is a passive policy object: NOT internally synchronized.
/// RequestExecutor owns one and serializes every call under its mutex
/// (declared STKDE_GUARDED_BY there); keeping the lock outside makes the
/// decision + bookkeeping atomic with the executor's queue manipulation
/// and keeps this class trivially deterministic under ManualClock.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "sched/thread_pool.hpp"
#include "serve/wire.hpp"
#include "util/clock.hpp"
#include "util/token_bucket.hpp"

namespace stkde::serve {

enum class CostClass : std::uint8_t { kCheap = 0, kMedium = 1, kExpensive = 2 };

inline constexpr std::size_t kCostClasses = 3;

/// Cost class of a decoded query (see the table above).
[[nodiscard]] CostClass classify(const wire::QueryMessage& query);

/// Stable lowercase name, for stats tables and bench JSON.
[[nodiscard]] const char* to_string(CostClass c);

/// Pool priority a class executes at: cheap work preempts expensive work
/// at dequeue, never the reverse.
[[nodiscard]] sched::Priority priority_of(CostClass c);

/// Budget for one cost class.
struct ClassBudget {
  int concurrency = 1;  ///< max requests of this class running at once
  int queue_depth = 8;  ///< max requests of this class waiting
};

struct AdmissionConfig {
  /// Per-class budgets, indexed by CostClass. Defaults size for a small
  /// shared pool: many cheap slots, few expensive ones.
  std::array<ClassBudget, kCostClasses> budgets{
      ClassBudget{4, 64}, ClassBudget{2, 32}, ClassBudget{1, 8}};

  /// EWMA priors for per-class service time (ms) before any request of
  /// that class has completed; the wait estimator needs a nonzero seed.
  std::array<double, kCostClasses> initial_cost_ms{0.05, 1.0, 10.0};

  /// Per-session token bucket: tokens/second and burst. rate <= 0
  /// disables per-session limiting entirely (the default — class budgets
  /// alone bound the server).
  double session_rate = 0.0;
  double session_burst = 16.0;

  /// Floor for every retry-after hint (never advise an instant retry).
  std::chrono::milliseconds min_retry_after{1};
};

/// Shed/admit counters (executor stats and the overload bench).
struct AdmissionStats {
  std::uint64_t admitted_run = 0;    ///< admitted straight to a slot
  std::uint64_t admitted_queue = 0;  ///< admitted to a class queue
  std::uint64_t shed_budget = 0;     ///< class queue full
  std::uint64_t shed_deadline = 0;   ///< estimated wait exceeded deadline
  std::uint64_t shed_session = 0;    ///< per-session token bucket dry
  std::uint64_t shed_stalled = 0;    ///< writer-stall breaker tripped
  std::uint64_t dropped_dequeue = 0; ///< queued, then expired before a slot
  std::uint64_t bucket_overflow = 0; ///< session-bucket table full; no limit

  [[nodiscard]] std::uint64_t shed_total() const {
    return shed_budget + shed_deadline + shed_session + shed_stalled;
  }
};

/// One admission decision.
struct AdmissionDecision {
  enum class Verdict : std::uint8_t {
    kRun = 0,    ///< slot granted: dispatch now (running count incremented)
    kQueue = 1,  ///< queued (queued count incremented)
    kShed = 2,   ///< rejected: answer kOverloaded with retry_after
  };
  Verdict verdict = Verdict::kShed;
  std::chrono::milliseconds retry_after{0};  ///< meaningful for kShed
  const char* reason = "";                   ///< static string for kShed
};

class AdmissionController {
 public:
  AdmissionController(AdmissionConfig cfg, const util::Clock* clock);

  /// Decide for one request. \p deadline_left is the request's remaining
  /// budget (milliseconds::max() when it has no deadline); \p session_key
  /// 0 means anonymous (no per-session bucket); \p writer_stalled is the
  /// executor's registry publish-age check. On kRun/kQueue the matching
  /// counter is already incremented — decision and bookkeeping are one
  /// atomic step under the executor's lock.
  [[nodiscard]] AdmissionDecision offer(CostClass c, std::uint64_t session_key,
                                        std::chrono::milliseconds deadline_left,
                                        bool writer_stalled);

  /// A queued request was granted the freed slot: queued-- running++.
  void on_dequeue_run(CostClass c);

  /// A queued request was dropped at dequeue (deadline expired / drain):
  /// queued-- only.
  void on_dequeue_drop(CostClass c);

  /// Dispatch of a granted slot failed before the task ran: running--.
  void on_start_failed(CostClass c);

  /// A running request finished after \p service_ms: running--, EWMA fold.
  void on_finish(CostClass c, double service_ms);

  /// EWMA estimate of how long a newly queued request of class \p c would
  /// wait for a slot: (queued + 1) * ewma / concurrency.
  [[nodiscard]] std::chrono::milliseconds estimated_wait(CostClass c) const;

  [[nodiscard]] int running(CostClass c) const {
    return running_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] int queued(CostClass c) const {
    return queued_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] double ewma_ms(CostClass c) const {
    return ewma_ms_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const AdmissionStats& stats() const { return stats_; }
  [[nodiscard]] const AdmissionConfig& config() const { return cfg_; }

 private:
  /// Retry-after hint derived from the wait estimate, floored and capped.
  [[nodiscard]] std::chrono::milliseconds retry_hint(CostClass c) const;

  AdmissionConfig cfg_;
  const util::Clock* clock_;
  std::array<int, kCostClasses> running_{};
  std::array<int, kCostClasses> queued_{};
  std::array<double, kCostClasses> ewma_ms_{};
  AdmissionStats stats_;

  /// Per-session buckets, bounded: at kMaxSessionBuckets new sessions are
  /// admitted unmetered (bucket_overflow counts them) — a hostile key
  /// stream must not grow server memory without bound.
  static constexpr std::size_t kMaxSessionBuckets = 4096;
  std::unordered_map<std::uint64_t, util::TokenBucket> buckets_;
};

}  // namespace stkde::serve
