#pragma once
/// \file executor.hpp
/// The overload-hardened request executor: frame in, future<frame> out,
/// with every decoded request flowing through admission control
/// (serve/admission.hpp) onto the shared sched::ThreadPool at its cost
/// class's priority.
///
/// Lifecycle of one request:
///   1. decode — malformed frames answer kMalformed immediately (bounded
///      work, no admission slot consumed; hostile bytes cannot occupy the
///      server).
///   2. health bypass — HealthQuery is answered inline, never queued: the
///      probe that tells you the server is drowning must not drown with it.
///   3. admission — classify, then AdmissionController::offer under the
///      executor lock. A shed answers kOverloaded *now*, with a
///      retry-after hint, instead of joining a queue it would die in.
///   4. execution — granted requests run on the pool; queued requests wait
///      in per-class FIFOs and are re-checked at dequeue: a deadline that
///      expired while waiting answers kDeadlineExceeded without running.
///      In-flight expensive queries poll a cancellation token between
///      8-row grid slabs (serve::execute, Session::region_grid).
///   5. the served-response invariant — a response computed past its
///      deadline is converted to kDeadlineExceeded before it is sent:
///      the executor never serves a deadline-expired result, full stop.
///
/// drain() stops admission (new submits answer kShuttingDown), fails every
/// queued request with kShuttingDown, and blocks until in-flight work
/// finishes. Requests hold their own pinned Snapshot (a shared_ptr'd
/// grid), so a drained or cancelled request can never touch freed memory.
///
/// Failpoints (chaos battery, docs/ROBUSTNESS.md): `serve.admit` (kError
/// → the request is shed as kOverloaded: admission subsystem failure
/// degrades to backpressure, not an outage), `serve.execute` (fires inside
/// the worker: any injected fault answers kInternal), `serve.shed`
/// (traversed once per shed — arm it kOff to count sheds, kDelay to slow
/// the shed path itself).
///
/// Threading: submit()/drain()/stats() are safe from any thread. One
/// mutex guards the admission state and queues; execution happens on the
/// pool's workers. The clock is injectable (util/clock.hpp) so deadline
/// and token-bucket behavior is deterministic under test.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>

#include "sched/thread_pool.hpp"
#include "serve/admission.hpp"
#include "serve/session.hpp"
#include "serve/snapshot_registry.hpp"
#include "serve/wire.hpp"
#include "util/clock.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace stkde::serve {

struct ExecutorConfig {
  AdmissionConfig admission;

  /// Per-request session policy. request_deadline is the end-to-end
  /// deadline each request carries through admission, queueing, and
  /// execution; 0 means requests never expire. stall_after also trips the
  /// admission's writer-stall breaker.
  SessionConfig session;
};

/// Executor counters. Every submitted frame lands in exactly one of the
/// disposition counters (malformed, health_inline, shed,
/// rejected_shutdown, expired_*, cancelled_inflight, failed, completed).
struct ExecutorStats {
  std::uint64_t submitted = 0;
  std::uint64_t malformed = 0;           ///< answered kMalformed at decode
  std::uint64_t health_inline = 0;       ///< health probes served inline
  std::uint64_t shed = 0;                ///< answered kOverloaded
  std::uint64_t rejected_shutdown = 0;   ///< answered kShuttingDown
  std::uint64_t expired_at_dequeue = 0;  ///< died waiting; never ran
  std::uint64_t expired_result = 0;      ///< ran, finished past deadline
  std::uint64_t cancelled_inflight = 0;  ///< cancelled between grid slabs
  std::uint64_t failed = 0;              ///< answered kInternal
  std::uint64_t completed = 0;           ///< real (non-error) responses
  std::size_t queue_high_water = 0;      ///< max total queued, ever
  AdmissionStats admission;
};

class RequestExecutor {
 public:
  RequestExecutor(const SnapshotRegistry& registry, sched::ThreadPool& pool,
                  ExecutorConfig cfg = {},
                  const util::Clock* clock = &util::SteadyClock::instance());

  /// Drains: equivalent to drain() then teardown.
  ~RequestExecutor();

  RequestExecutor(const RequestExecutor&) = delete;
  RequestExecutor& operator=(const RequestExecutor&) = delete;

  /// Submit one request frame. Always returns a future that will hold a
  /// well-formed response frame — shed, expired, failed, or answered —
  /// and never blocks the caller on execution. \p session_key identifies
  /// the client for per-session rate limiting (0 = anonymous, unmetered).
  [[nodiscard]] std::future<wire::Frame> submit(const std::uint8_t* data,
                                                std::size_t size,
                                                std::uint64_t session_key = 0);

  /// Graceful shutdown: stop admitting (subsequent submits answer
  /// kShuttingDown), fail all queued requests with kShuttingDown, then
  /// block until in-flight requests finish. Idempotent.
  void drain() STKDE_EXCLUDES(mu_);

  [[nodiscard]] bool draining() const STKDE_EXCLUDES(mu_);
  [[nodiscard]] ExecutorStats stats() const STKDE_EXCLUDES(mu_);

 private:
  struct Job {
    wire::QueryMessage query;
    CostClass cls = CostClass::kCheap;
    std::promise<wire::Frame> promise;
    util::Clock::time_point deadline;  ///< time_point::max() = no deadline
    std::shared_ptr<std::atomic<bool>> cancel;
  };
  using JobPtr = std::shared_ptr<Job>;

  /// Resolve a job with an encoded error frame.
  static void complete_error(Job& job, wire::ErrorCode code,
                             std::uint32_t retry_after_ms, const char* msg);

  /// Hand a slot-granted job to the pool (no executor lock held). A
  /// dispatch failure (pool.submit failpoint, allocation) answers
  /// kInternal and releases the slot.
  void dispatch(JobPtr job) STKDE_EXCLUDES(mu_);

  /// Worker-side: deadline re-check, execute, convert-if-expired, answer,
  /// then release the slot and pump the class queue.
  void run_job(const JobPtr& job) STKDE_EXCLUDES(mu_);

  /// Release one slot of \p cls (folding \p service_ms into the EWMA),
  /// then grant the freed slot to the first still-live queued job of the
  /// same class; queued jobs found expired are answered kDeadlineExceeded.
  void finish_and_pump(CostClass cls, double service_ms) STKDE_EXCLUDES(mu_);

  [[nodiscard]] int total_running() const STKDE_REQUIRES(mu_) {
    return adm_.running(CostClass::kCheap) + adm_.running(CostClass::kMedium) +
           adm_.running(CostClass::kExpensive);
  }

  [[nodiscard]] std::size_t total_queued() const STKDE_REQUIRES(mu_) {
    return queues_[0].size() + queues_[1].size() + queues_[2].size();
  }

  const SnapshotRegistry* reg_;
  sched::ThreadPool* pool_;
  ExecutorConfig cfg_;
  const util::Clock* clock_;

  mutable util::Mutex mu_;
  util::CondVar cv_idle_;  ///< signaled when running work hits zero
  AdmissionController adm_ STKDE_GUARDED_BY(mu_);
  std::array<std::deque<JobPtr>, kCostClasses> queues_ STKDE_GUARDED_BY(mu_);
  bool draining_ STKDE_GUARDED_BY(mu_) = false;
  ExecutorStats stats_ STKDE_GUARDED_BY(mu_);
};

}  // namespace stkde::serve
