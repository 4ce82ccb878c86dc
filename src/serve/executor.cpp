#include "serve/executor.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "serve/service.hpp"
#include "util/failpoint.hpp"

namespace stkde::serve {

namespace {

/// An already-resolved future (early rejections never touch the pool).
std::future<wire::Frame> ready_frame(wire::Frame f) {
  std::promise<wire::Frame> p;
  auto fut = p.get_future();
  p.set_value(std::move(f));
  return fut;
}

wire::Frame error_frame(wire::ErrorCode code, std::uint32_t retry_after_ms,
                        const char* msg) {
  return wire::encode(wire::ResponseMessage{
      wire::ErrorResponse{code, retry_after_ms, msg}});
}

}  // namespace

RequestExecutor::RequestExecutor(const SnapshotRegistry& registry,
                                 sched::ThreadPool& pool, ExecutorConfig cfg,
                                 const util::Clock* clock)
    : reg_(&registry),
      pool_(&pool),
      cfg_(cfg),
      clock_(clock),
      adm_(cfg.admission, clock) {}

RequestExecutor::~RequestExecutor() { drain(); }

void RequestExecutor::complete_error(Job& job, wire::ErrorCode code,
                                     std::uint32_t retry_after_ms,
                                     const char* msg) {
  job.promise.set_value(error_frame(code, retry_after_ms, msg));
}

std::future<wire::Frame> RequestExecutor::submit(const std::uint8_t* data,
                                                 std::size_t size,
                                                 std::uint64_t session_key) {
  {
    util::LockGuard lk(mu_);
    ++stats_.submitted;
  }

  // 1. Decode. Malformed frames get their answer without consuming any
  // admission budget: decoding is bounded by the frame itself, so this is
  // the cheapest possible disposition for hostile bytes.
  std::string decode_error;
  auto query = wire::decode_query(data, size, &decode_error);
  if (!query) {
    util::LockGuard lk(mu_);
    ++stats_.malformed;
    return ready_frame(error_frame(wire::ErrorCode::kMalformed, 0,
                                   decode_error.c_str()));
  }

  // 2. Health bypass: answered inline, before (and regardless of) any
  // admission state — the probe must work precisely when everything else
  // is shedding.
  if (std::holds_alternative<wire::HealthQuery>(*query)) {
    {
      util::LockGuard lk(mu_);
      ++stats_.health_inline;
    }
    Session session(*reg_, cfg_.session);
    return ready_frame(wire::encode(execute(session, *query)));
  }

  const CostClass cls = classify(*query);

  // Registry lock taken before the executor lock (fixed order: never
  // nested the other way around).
  const bool stalled = cfg_.session.stall_after.count() > 0 &&
                       reg_->publish_age() > cfg_.session.stall_after;

  const auto now = clock_->now();
  const bool has_deadline = cfg_.session.request_deadline.count() > 0;
  const auto deadline_left = has_deadline
                                 ? cfg_.session.request_deadline
                                 : std::chrono::milliseconds::max();

  auto job = std::make_shared<Job>();
  job->query = std::move(*query);
  job->cls = cls;
  job->deadline = has_deadline ? now + cfg_.session.request_deadline
                               : util::Clock::time_point::max();
  job->cancel = std::make_shared<std::atomic<bool>>(false);
  auto fut = job->promise.get_future();

  // Chaos site: an injected admission failure degrades to backpressure
  // (the request is shed), never to an unanswered frame.
  bool admit_fault = false;
  try {
    STKDE_FAILPOINT("serve.admit");
  } catch (const util::InjectedFault&) {
    admit_fault = true;
  }

  AdmissionDecision decision;
  if (admit_fault) {
    decision.verdict = AdmissionDecision::Verdict::kShed;
    decision.retry_after = cfg_.admission.min_retry_after;
    decision.reason = "admission fault injected";
  } else {
    util::LockGuard lk(mu_);
    if (draining_) {
      ++stats_.rejected_shutdown;
      complete_error(*job, wire::ErrorCode::kShuttingDown, 0,
                     "executor draining");
      return fut;
    }
    decision = adm_.offer(cls, session_key, deadline_left, stalled);
    if (decision.verdict == AdmissionDecision::Verdict::kQueue) {
      queues_[static_cast<std::size_t>(cls)].push_back(job);
      stats_.queue_high_water = std::max(stats_.queue_high_water,
                                         total_queued());
    }
  }

  switch (decision.verdict) {
    case AdmissionDecision::Verdict::kShed: {
      // Chaos probe: traversed exactly once per shed; arm kOff to count
      // shedding, kDelay to slow the rejection path itself.
      STKDE_FAILPOINT("serve.shed");
      {
        util::LockGuard lk(mu_);
        ++stats_.shed;
      }
      const auto retry_ms = static_cast<std::uint32_t>(
          std::max<std::int64_t>(0, decision.retry_after.count()));
      complete_error(*job, wire::ErrorCode::kOverloaded, retry_ms,
                     decision.reason);
      break;
    }
    case AdmissionDecision::Verdict::kRun:
      dispatch(std::move(job));
      break;
    case AdmissionDecision::Verdict::kQueue:
      break;  // a finishing request of this class will pick it up
  }
  return fut;
}

void RequestExecutor::dispatch(JobPtr job) {
  const CostClass cls = job->cls;
  try {
    pool_->submit([this, job] { run_job(job); }, priority_of(cls));
  } catch (...) {
    // pool.submit failpoint / allocation failure: the slot is released,
    // the caller still gets an answer frame.
    {
      util::LockGuard lk(mu_);
      adm_.on_start_failed(cls);
      ++stats_.failed;
      if (total_running() == 0) cv_idle_.notify_all();
    }
    complete_error(*job, wire::ErrorCode::kInternal, 0,
                   "task dispatch failed");
  }
}

void RequestExecutor::run_job(const JobPtr& job) {
  const auto t0 = clock_->now();

  enum class Outcome : std::uint8_t {
    kCompleted,
    kExpiredAtDequeue,
    kCancelledInflight,
    kExpiredResult,
    kFailed,
  };
  Outcome outcome = Outcome::kCompleted;
  wire::ResponseMessage resp;

  if (t0 > job->deadline) {
    // "Checked again at dequeue": the wait for a worker consumed the whole
    // deadline — answer without touching the snapshot.
    outcome = Outcome::kExpiredAtDequeue;
    resp = wire::ErrorResponse{wire::ErrorCode::kDeadlineExceeded,
                               "deadline expired before execution"};
  } else {
    try {
      STKDE_FAILPOINT("serve.execute");
      // The per-request session pins its own Snapshot (shared_ptr'd grid):
      // however this request ends, it reads memory it owns.
      Session session(*reg_, cfg_.session);
      const auto cancelled = [this, &job] {
        return job->cancel->load(std::memory_order_acquire) ||
               clock_->now() > job->deadline;
      };
      resp = execute(session, job->query, cancelled);
      if (const auto* err = std::get_if<wire::ErrorResponse>(&resp);
          err && err->code == wire::ErrorCode::kDeadlineExceeded)
        outcome = Outcome::kCancelledInflight;
    } catch (const std::exception& e) {
      outcome = Outcome::kFailed;
      resp = wire::ErrorResponse{wire::ErrorCode::kInternal, e.what()};
    } catch (...) {
      outcome = Outcome::kFailed;
      resp = wire::ErrorResponse{wire::ErrorCode::kInternal,
                                 "unknown server failure"};
    }
  }

  // The served-response invariant: a result computed past its deadline is
  // worthless to the caller and poisonous to tail-latency accounting —
  // convert it. After this point every response the executor ever emits is
  // either in-deadline or a typed error.
  if (outcome == Outcome::kCompleted &&
      !std::holds_alternative<wire::ErrorResponse>(resp) &&
      clock_->now() > job->deadline) {
    outcome = Outcome::kExpiredResult;
    resp = wire::ErrorResponse{wire::ErrorCode::kDeadlineExceeded,
                               "result completed past deadline"};
  }

  job->promise.set_value(wire::encode(resp));

  {
    util::LockGuard lk(mu_);
    switch (outcome) {
      case Outcome::kCompleted:
        ++stats_.completed;
        break;
      case Outcome::kExpiredAtDequeue:
        ++stats_.expired_at_dequeue;
        break;
      case Outcome::kCancelledInflight:
        ++stats_.cancelled_inflight;
        break;
      case Outcome::kExpiredResult:
        ++stats_.expired_result;
        break;
      case Outcome::kFailed:
        ++stats_.failed;
        break;
    }
  }

  const double service_ms =
      std::chrono::duration<double, std::milli>(clock_->now() - t0).count();
  finish_and_pump(job->cls, service_ms);
}

void RequestExecutor::finish_and_pump(CostClass cls, double service_ms) {
  JobPtr next;
  std::vector<JobPtr> expired;
  {
    util::LockGuard lk(mu_);
    adm_.on_finish(cls, service_ms);
    auto& q = queues_[static_cast<std::size_t>(cls)];
    while (!q.empty()) {
      JobPtr j = std::move(q.front());
      q.pop_front();
      if (clock_->now() > j->deadline ||
          j->cancel->load(std::memory_order_acquire)) {
        adm_.on_dequeue_drop(cls);
        ++stats_.expired_at_dequeue;
        expired.push_back(std::move(j));
        continue;
      }
      adm_.on_dequeue_run(cls);
      next = std::move(j);
      break;
    }
    if (!next && total_running() == 0 && total_queued() == 0)
      cv_idle_.notify_all();
  }
  for (const JobPtr& j : expired)
    complete_error(*j, wire::ErrorCode::kDeadlineExceeded, 0,
                   "deadline expired while queued");
  if (next) dispatch(std::move(next));
}

void RequestExecutor::drain() {
  std::vector<JobPtr> doomed;
  {
    util::LockGuard lk(mu_);
    draining_ = true;
    for (std::size_t i = 0; i < kCostClasses; ++i) {
      auto& q = queues_[i];
      while (!q.empty()) {
        adm_.on_dequeue_drop(static_cast<CostClass>(i));
        ++stats_.rejected_shutdown;
        doomed.push_back(std::move(q.front()));
        q.pop_front();
      }
    }
  }
  for (const JobPtr& j : doomed)
    complete_error(*j, wire::ErrorCode::kShuttingDown, 0,
                   "executor drained before execution");
  util::UniqueLock lk(mu_);
  while (total_running() != 0) cv_idle_.wait(lk);
}

bool RequestExecutor::draining() const {
  util::LockGuard lk(mu_);
  return draining_;
}

ExecutorStats RequestExecutor::stats() const {
  util::LockGuard lk(mu_);
  ExecutorStats out = stats_;
  out.admission = adm_.stats();
  return out;
}

}  // namespace stkde::serve
