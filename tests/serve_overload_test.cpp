/// Overload-hardening battery (docs/SERVE.md "Overload policy"): the
/// injectable clock, token bucket, and decorrelated backoff primitives;
/// the admission controller's budget/deadline/session/stall policy; the
/// request executor end to end — shed-at-budget with retry-after hints,
/// deadline re-checks at dequeue, mid-grid cancellation, graceful drain,
/// the writer-stall circuit breaker — and, in failpoint builds, the
/// serve.admit / serve.execute / serve.shed chaos sites. Every test is
/// deterministic: time moves only when the test moves it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "grid/dense_grid.hpp"
#include "sched/thread_pool.hpp"
#include "serve/admission.hpp"
#include "serve/client_retry.hpp"
#include "serve/executor.hpp"
#include "serve/snapshot_registry.hpp"
#include "serve/wire.hpp"
#include "util/backoff.hpp"
#include "util/clock.hpp"
#include "util/failpoint.hpp"
#include "util/token_bucket.hpp"

namespace stkde {
namespace {

namespace fp = util::failpoint;
namespace wire = serve::wire;
using std::chrono::milliseconds;

DomainSpec small_domain(double gx = 16, double gy = 16, double gt = 8) {
  DomainSpec d;
  d.x0 = d.y0 = d.t0 = 0.0;
  d.gx = gx;
  d.gy = gy;
  d.gt = gt;
  d.sres = 1.0;
  d.tres = 1.0;
  return d;
}

void publish_uniform(serve::SnapshotRegistry& reg, const DomainSpec& dom,
                     std::uint64_t version, float value = 0.25f) {
  auto grid = std::make_shared<DensityGrid>(dom.dims());
  grid->fill(value);
  reg.publish(serve::Snapshot{std::move(grid), 100, version});
}

wire::Frame frame_of(const wire::QueryMessage& q) { return wire::encode(q); }

/// Decode a response frame, failing the test on undecodable bytes.
wire::ResponseMessage must_decode(const wire::Frame& f) {
  auto r = wire::decode_response(f.data(), f.size());
  EXPECT_TRUE(r.has_value()) << "undecodable response frame";
  if (!r) return wire::ResponseMessage{wire::ErrorResponse{}};
  return std::move(*r);
}

/// True when \p f decodes to a non-error response.
bool is_success(const wire::Frame& f) {
  const wire::ResponseMessage resp = must_decode(f);
  return std::get_if<wire::ErrorResponse>(&resp) == nullptr;
}

/// The ErrorResponse inside \p f, which must carry \p code.
wire::ErrorResponse expect_error(const wire::Frame& f, wire::ErrorCode code) {
  const wire::ResponseMessage resp = must_decode(f);
  const auto* err = std::get_if<wire::ErrorResponse>(&resp);
  if (err == nullptr) {
    ADD_FAILURE() << "expected an error frame (code "
                  << static_cast<int>(code) << ")";
    return {};
  }
  EXPECT_EQ(err->code, code) << err->message;
  return *err;
}

/// Parks every pool worker on a gate until release(); lets tests fill
/// admission budgets deterministically (granted slots cannot finish while
/// the gate is closed).
class PoolBlocker {
 public:
  explicit PoolBlocker(sched::ThreadPool& pool) {
    for (int i = 0; i < pool.size(); ++i)
      pool.submit([this] {
        std::unique_lock<std::mutex> lk(mu_);
        ++held_;
        cv_.notify_all();
        while (!released_) cv_.wait(lk);
      });
    std::unique_lock<std::mutex> lk(mu_);
    const int want = pool.size();
    while (held_ != want) cv_.wait(lk);
  }

  void release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

  ~PoolBlocker() { release(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int held_ = 0;
  bool released_ = false;
};

// ---------------------------------------------------------------------------
// Clock / token bucket / backoff primitives

TEST(ManualClock, MovesOnlyWhenTold) {
  util::ManualClock clock;
  const auto t0 = clock.now();
  EXPECT_EQ(clock.now(), t0);
  clock.advance(milliseconds{250});
  EXPECT_EQ(clock.now() - t0, milliseconds{250});
  clock.set(t0);
  EXPECT_EQ(clock.now(), t0);
}

TEST(TokenBucket, RefillsContinuouslyAndReportsRetryAfter) {
  util::ManualClock clock;
  util::TokenBucket bucket(/*rate=*/10.0, /*burst=*/2.0, clock.now());
  EXPECT_TRUE(bucket.try_take(clock.now()));
  EXPECT_TRUE(bucket.try_take(clock.now()));
  EXPECT_FALSE(bucket.try_take(clock.now())) << "burst exhausted";
  // Dry: one token accrues in 100 ms at 10/s; the hint rounds up.
  const milliseconds hint = bucket.retry_after(clock.now());
  EXPECT_GE(hint, milliseconds{1});
  EXPECT_LE(hint, milliseconds{101});
  clock.advance(milliseconds{50});
  EXPECT_FALSE(bucket.try_take(clock.now())) << "half a token is not one";
  clock.advance(milliseconds{60});
  EXPECT_TRUE(bucket.try_take(clock.now()));
  // Refill never banks past burst.
  clock.advance(std::chrono::seconds{60});
  EXPECT_TRUE(bucket.try_take(clock.now()));
  EXPECT_TRUE(bucket.try_take(clock.now()));
  EXPECT_FALSE(bucket.try_take(clock.now()));
}

TEST(TokenBucket, NonPositiveRateDisablesTheLimiter) {
  util::ManualClock clock;
  util::TokenBucket bucket(/*rate=*/0.0, /*burst=*/1.0, clock.now());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_take(clock.now()));
  EXPECT_EQ(bucket.retry_after(clock.now()), milliseconds{0});
}

TEST(DecorrelatedBackoff, DeterministicBoundedAndResettable) {
  const milliseconds base{2};
  const milliseconds cap{64};
  util::DecorrelatedBackoff a(base, cap, /*seed=*/42);
  util::DecorrelatedBackoff b(base, cap, /*seed=*/42);
  std::vector<milliseconds> first_run;
  for (int i = 0; i < 20; ++i) {
    const milliseconds d = a.next();
    EXPECT_EQ(d, b.next()) << "same seed, same schedule";
    EXPECT_GE(d, base);
    EXPECT_LE(d, cap);
    first_run.push_back(d);
  }
  EXPECT_EQ(first_run.front(), base) << "first retry is eager";
  // reset() restarts the *pressure schedule* (eager base first, growth
  // re-capped), but deliberately not the RNG stream: two bursts from one
  // client must not jitter identically.
  a.reset();
  EXPECT_EQ(a.next(), base);
  for (int i = 0; i < 20; ++i) {
    const milliseconds d = a.next();
    EXPECT_GE(d, base);
    EXPECT_LE(d, cap);
  }
  // A different seed diverges somewhere in the schedule.
  util::DecorrelatedBackoff c(base, cap, /*seed=*/43);
  bool diverged = false;
  for (int i = 0; i < 20; ++i) diverged |= (c.next() != first_run[i]);
  EXPECT_TRUE(diverged);
}

// ---------------------------------------------------------------------------
// Cost classification

TEST(CostClass, ClassifiesEveryQueryFamily) {
  using serve::CostClass;
  EXPECT_EQ(serve::classify(wire::DensityAtQuery{{1, 2, 3}}),
            CostClass::kCheap);
  EXPECT_EQ(serve::classify(wire::HealthQuery{}), CostClass::kCheap);
  EXPECT_EQ(serve::classify(wire::SliceQuery{2}), CostClass::kMedium);
  EXPECT_EQ(serve::classify(
                wire::RegionQuery{Extent3{0, 4, 0, 4, 0, 4},
                                  wire::RegionOp::kSum}),
            CostClass::kMedium);
  EXPECT_EQ(serve::classify(wire::RegionGridQuery{Extent3{0, 4, 0, 4, 0, 4}}),
            CostClass::kExpensive);
  EXPECT_EQ(serve::classify(wire::HotspotsQuery{4, 0.9}),
            CostClass::kExpensive);
  // Cheap work preempts expensive work at the pool, never the reverse.
  EXPECT_EQ(serve::priority_of(CostClass::kCheap), sched::Priority::kHigh);
  EXPECT_EQ(serve::priority_of(CostClass::kMedium), sched::Priority::kNormal);
  EXPECT_EQ(serve::priority_of(CostClass::kExpensive), sched::Priority::kLow);
}

// ---------------------------------------------------------------------------
// AdmissionController policy (driven directly, ManualClock)

constexpr auto kNoDeadline = milliseconds::max();

TEST(Admission, BudgetsRunThenQueueThenShed) {
  using serve::CostClass;
  util::ManualClock clock;
  serve::AdmissionConfig cfg;
  cfg.budgets[0] = serve::ClassBudget{1, 1};
  serve::AdmissionController adm(cfg, &clock);

  const auto d1 = adm.offer(CostClass::kCheap, 0, kNoDeadline, false);
  EXPECT_EQ(d1.verdict, serve::AdmissionDecision::Verdict::kRun);
  EXPECT_EQ(adm.running(CostClass::kCheap), 1);

  const auto d2 = adm.offer(CostClass::kCheap, 0, kNoDeadline, false);
  EXPECT_EQ(d2.verdict, serve::AdmissionDecision::Verdict::kQueue);
  EXPECT_EQ(adm.queued(CostClass::kCheap), 1);

  const auto d3 = adm.offer(CostClass::kCheap, 0, kNoDeadline, false);
  EXPECT_EQ(d3.verdict, serve::AdmissionDecision::Verdict::kShed);
  EXPECT_GE(d3.retry_after, milliseconds{1}) << "never advise instant retry";
  EXPECT_STREQ(d3.reason, "class queue full");

  // The freed slot goes to the queued request; the books balance.
  adm.on_finish(CostClass::kCheap, 0.1);
  adm.on_dequeue_run(CostClass::kCheap);
  EXPECT_EQ(adm.running(CostClass::kCheap), 1);
  EXPECT_EQ(adm.queued(CostClass::kCheap), 0);
  adm.on_finish(CostClass::kCheap, 0.1);
  EXPECT_EQ(adm.running(CostClass::kCheap), 0);

  const serve::AdmissionStats& st = adm.stats();
  EXPECT_EQ(st.admitted_run, 1u);
  EXPECT_EQ(st.admitted_queue, 1u);
  EXPECT_EQ(st.shed_budget, 1u);
  EXPECT_EQ(st.shed_total(), 1u);
}

TEST(Admission, QueueWaitEstimateExceedingDeadlineShedsEarly) {
  using serve::CostClass;
  util::ManualClock clock;
  serve::AdmissionConfig cfg;
  cfg.budgets[2] = serve::ClassBudget{1, 8};
  cfg.initial_cost_ms[2] = 10.0;  // expensive EWMA prior: 10 ms
  serve::AdmissionController adm(cfg, &clock);

  ASSERT_EQ(adm.offer(CostClass::kExpensive, 0, kNoDeadline, false).verdict,
            serve::AdmissionDecision::Verdict::kRun);
  // Queueing would wait ~10 ms; a 2 ms budget cannot cover it — reject
  // *now*, not after the request dies in the queue.
  const auto d = adm.offer(CostClass::kExpensive, 0, milliseconds{2}, false);
  EXPECT_EQ(d.verdict, serve::AdmissionDecision::Verdict::kShed);
  EXPECT_STREQ(d.reason, "queue wait estimate exceeds request deadline");
  // A deadline that covers the wait queues fine.
  EXPECT_EQ(adm.offer(CostClass::kExpensive, 0, milliseconds{5000}, false)
                .verdict,
            serve::AdmissionDecision::Verdict::kQueue);
  EXPECT_EQ(adm.stats().shed_deadline, 1u);
}

TEST(Admission, PerSessionBucketMetersEachKeySeparately) {
  using serve::CostClass;
  util::ManualClock clock;
  serve::AdmissionConfig cfg;
  cfg.session_rate = 10.0;
  cfg.session_burst = 2.0;
  serve::AdmissionController adm(cfg, &clock);

  const auto kRun = serve::AdmissionDecision::Verdict::kRun;
  EXPECT_EQ(adm.offer(CostClass::kCheap, 7, kNoDeadline, false).verdict, kRun);
  EXPECT_EQ(adm.offer(CostClass::kCheap, 7, kNoDeadline, false).verdict, kRun);
  const auto dry = adm.offer(CostClass::kCheap, 7, kNoDeadline, false);
  EXPECT_EQ(dry.verdict, serve::AdmissionDecision::Verdict::kShed);
  EXPECT_STREQ(dry.reason, "session rate limit exceeded");
  EXPECT_GE(dry.retry_after, milliseconds{1});

  // A different key has its own bucket; key 0 is anonymous and unmetered.
  EXPECT_EQ(adm.offer(CostClass::kCheap, 8, kNoDeadline, false).verdict, kRun);
  EXPECT_EQ(adm.offer(CostClass::kCheap, 0, kNoDeadline, false).verdict, kRun);

  // The dry bucket refills with the (manual) clock. Free a slot first:
  // the four admits above hold the whole cheap concurrency budget.
  adm.on_finish(CostClass::kCheap, 0.1);
  clock.advance(milliseconds{150});
  EXPECT_EQ(adm.offer(CostClass::kCheap, 7, kNoDeadline, false).verdict, kRun);
  EXPECT_EQ(adm.stats().shed_session, 1u);
}

TEST(Admission, WriterStallShedsOnlyExpensiveClasses) {
  using serve::CostClass;
  util::ManualClock clock;
  serve::AdmissionConfig cfg;
  cfg.stall_after = milliseconds{100};
  serve::AdmissionController adm(cfg, &clock);

  const auto stalled =
      adm.offer(CostClass::kExpensive, 0, kNoDeadline, /*writer_stalled=*/true);
  EXPECT_EQ(stalled.verdict, serve::AdmissionDecision::Verdict::kShed);
  EXPECT_STREQ(stalled.reason, "writer stalled; expensive queries shed");
  // Cheap and medium reads keep serving from last-good pins.
  EXPECT_EQ(adm.offer(CostClass::kCheap, 0, kNoDeadline, true).verdict,
            serve::AdmissionDecision::Verdict::kRun);
  EXPECT_EQ(adm.offer(CostClass::kMedium, 0, kNoDeadline, true).verdict,
            serve::AdmissionDecision::Verdict::kRun);
  EXPECT_EQ(adm.stats().shed_stalled, 1u);
}

// ---------------------------------------------------------------------------
// Client retry policy

TEST(ClientRetry, HonorsServerHintAsAFloor) {
  serve::ClientRetry::Config cfg;
  cfg.base = milliseconds{1};
  cfg.cap = milliseconds{8};
  serve::ClientRetry retry{cfg};
  const auto d = retry.on_response(wire::ResponseMessage{
      wire::ErrorResponse{wire::ErrorCode::kOverloaded, 500, "shed"}});
  EXPECT_TRUE(d.retry);
  EXPECT_GE(d.delay, milliseconds{500}) << "server hint is the floor";
}

TEST(ClientRetry, OnlyBackpressureCodesAreRetryable) {
  serve::ClientRetry retry;
  EXPECT_TRUE(retry
                  .on_response(wire::ResponseMessage{wire::ErrorResponse{
                      wire::ErrorCode::kUnavailable, "not yet"}})
                  .retry);
  for (const wire::ErrorCode code :
       {wire::ErrorCode::kMalformed, wire::ErrorCode::kBadArgument,
        wire::ErrorCode::kInternal, wire::ErrorCode::kDeadlineExceeded,
        wire::ErrorCode::kShuttingDown}) {
    EXPECT_FALSE(
        retry.on_response(wire::ResponseMessage{wire::ErrorResponse{code, "x"}})
            .retry)
        << static_cast<int>(code);
  }
}

TEST(ClientRetry, GivesUpAfterMaxAttemptsAndResetsOnSuccess) {
  serve::ClientRetry::Config cfg;
  cfg.max_attempts = 3;
  serve::ClientRetry retry{cfg};
  const wire::ResponseMessage shed{
      wire::ErrorResponse{wire::ErrorCode::kOverloaded, 1, "shed"}};
  EXPECT_TRUE(retry.on_response(shed).retry);
  EXPECT_TRUE(retry.on_response(shed).retry);
  EXPECT_FALSE(retry.on_response(shed).retry) << "attempt budget spent";
  // A success resets the schedule: the next failure retries again.
  (void)retry.on_response(
      wire::ResponseMessage{wire::DensityAtResponse{1, 0.5f}});
  EXPECT_EQ(retry.attempts(), 0);
  EXPECT_TRUE(retry.on_response(shed).retry);
}

// ---------------------------------------------------------------------------
// RequestExecutor end to end

TEST(Executor, ServesEveryQueryFamilyWhenUnloaded) {
  const DomainSpec dom = small_domain();
  serve::SnapshotRegistry reg(dom);
  publish_uniform(reg, dom, 1);
  sched::ThreadPool pool(2);
  serve::RequestExecutor exec(reg, pool);

  const std::vector<wire::QueryMessage> queries = {
      wire::DensityAtQuery{{5, 5, 5}},
      wire::SliceQuery{2},
      wire::RegionQuery{Extent3{0, 8, 0, 8, 0, 4}, wire::RegionOp::kSum},
      wire::RegionGridQuery{Extent3{0, 8, 0, 8, 0, 4}},
      wire::HotspotsQuery{4, 0.9},
      wire::HealthQuery{},
  };
  for (const auto& q : queries) {
    const wire::Frame f = frame_of(q);
    const wire::Frame resp = exec.submit(f.data(), f.size()).get();
    const wire::ResponseMessage decoded = must_decode(resp);
    EXPECT_EQ(std::get_if<wire::ErrorResponse>(&decoded), nullptr)
        << "query family " << decoded.index();
  }
  exec.drain();  // counters land after the promise resolves; drain orders them
  const serve::ExecutorStats st = exec.stats();
  EXPECT_EQ(st.submitted, queries.size());
  EXPECT_EQ(st.health_inline, 1u);
  EXPECT_EQ(st.completed, queries.size() - 1);
  EXPECT_EQ(st.shed, 0u);
}

TEST(Executor, MalformedFramesAnswerWithoutTouchingAdmission) {
  const DomainSpec dom = small_domain();
  serve::SnapshotRegistry reg(dom);
  sched::ThreadPool pool(1);
  serve::RequestExecutor exec(reg, pool);

  const std::vector<std::uint8_t> junk = {0xDE, 0xAD, 0xBE, 0xEF, 0x00};
  const wire::Frame resp = exec.submit(junk.data(), junk.size()).get();
  (void)expect_error(resp, wire::ErrorCode::kMalformed);
  const serve::ExecutorStats st = exec.stats();
  EXPECT_EQ(st.malformed, 1u);
  EXPECT_EQ(st.admission.admitted_run + st.admission.admitted_queue +
                st.admission.shed_total(),
            0u);
}

TEST(Executor, UnavailableBeforeFirstPublishIsTyped) {
  const DomainSpec dom = small_domain();
  serve::SnapshotRegistry reg(dom);  // never published
  sched::ThreadPool pool(1);
  serve::RequestExecutor exec(reg, pool);
  const wire::Frame f = frame_of(wire::DensityAtQuery{{1, 1, 1}});
  (void)expect_error(exec.submit(f.data(), f.size()).get(),
                     wire::ErrorCode::kUnavailable);
}

TEST(Executor, ShedsAtBudgetWithRetryAfterHint) {
  const DomainSpec dom = small_domain();
  serve::SnapshotRegistry reg(dom);
  publish_uniform(reg, dom, 1);
  sched::ThreadPool pool(2);
  serve::ExecutorConfig cfg;
  cfg.admission.budgets[0] = serve::ClassBudget{1, 1};
  serve::RequestExecutor exec(reg, pool, cfg);

  PoolBlocker gate(pool);  // granted slots cannot finish while closed
  const wire::Frame f = frame_of(wire::DensityAtQuery{{5, 5, 5}});
  auto running = exec.submit(f.data(), f.size());   // fills concurrency 1
  auto queued = exec.submit(f.data(), f.size());    // fills queue depth 1
  auto rejected = exec.submit(f.data(), f.size());  // must shed NOW

  // The shed answer arrives while the budget-holders are still stuck: an
  // early typed rejection, not a queued death.
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds{10}),
            std::future_status::ready);
  const wire::ErrorResponse err =
      expect_error(rejected.get(), wire::ErrorCode::kOverloaded);
  EXPECT_GE(err.retry_after_ms, 1u);
  EXPECT_STREQ(err.message.c_str(), "class queue full");

  gate.release();
  EXPECT_TRUE(is_success(running.get()))
      << "the admitted request still completes";
  EXPECT_TRUE(is_success(queued.get()))
      << "the queued request is granted the freed slot";

  exec.drain();
  const serve::ExecutorStats st = exec.stats();
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.admission.shed_budget, 1u);
  EXPECT_EQ(st.queue_high_water, 1u);
}

TEST(Executor, DeadlineExpiredWhileQueuedNeverRuns) {
  const DomainSpec dom = small_domain();
  serve::SnapshotRegistry reg(dom);
  publish_uniform(reg, dom, 1);
  sched::ThreadPool pool(2);
  util::ManualClock clock;
  serve::ExecutorConfig cfg;
  cfg.admission.budgets[0] = serve::ClassBudget{1, 4};
  cfg.session.request_deadline = milliseconds{100};
  serve::RequestExecutor exec(reg, pool, cfg, &clock);

  PoolBlocker gate(pool);
  const wire::Frame f = frame_of(wire::DensityAtQuery{{5, 5, 5}});
  auto granted = exec.submit(f.data(), f.size());
  auto queued = exec.submit(f.data(), f.size());

  // Both requests sit behind the gate while their whole deadline elapses.
  clock.advance(milliseconds{200});
  gate.release();

  (void)expect_error(granted.get(), wire::ErrorCode::kDeadlineExceeded);
  (void)expect_error(queued.get(), wire::ErrorCode::kDeadlineExceeded);
  exec.drain();
  const serve::ExecutorStats st = exec.stats();
  EXPECT_EQ(st.expired_at_dequeue, 2u);
  EXPECT_EQ(st.completed, 0u) << "an expired request is never served";
}

/// A clock that advances a fixed step on every read: deadlines then expire
/// after a deterministic number of observations, which makes "the deadline
/// passed mid-execution" a reproducible event inside one region-grid scan.
class SteppingClock final : public util::Clock {
 public:
  explicit SteppingClock(duration step)
      : step_(step.count()),
        ns_{(time_point{} + std::chrono::hours{1}).time_since_epoch().count()} {
  }

  [[nodiscard]] time_point now() const override {
    return time_point{
        duration{ns_.fetch_add(step_, std::memory_order_acq_rel)}};
  }

 private:
  duration::rep step_;
  mutable std::atomic<duration::rep> ns_;
};

TEST(Executor, ExpensiveQueryIsCancelledBetweenGridRows) {
  const DomainSpec dom = small_domain(/*gx=*/320, /*gy=*/8, /*gt=*/4);
  serve::SnapshotRegistry reg(dom);
  publish_uniform(reg, dom, 1);
  sched::ThreadPool pool(1);
  SteppingClock clock(milliseconds{1});  // every look at the clock costs 1 ms
  serve::ExecutorConfig cfg;
  cfg.session.request_deadline = milliseconds{10};
  serve::RequestExecutor exec(reg, pool, cfg, &clock);

  // 40 slabs of 8 X-rows at 1 ms per cancellation poll exhaust the 10 ms
  // deadline mid-scan: the request must come back kDeadlineExceeded from
  // *inside* the grid loop, not run to completion.
  const wire::Frame f =
      frame_of(wire::RegionGridQuery{Extent3{0, 320, 0, 8, 0, 4}});
  (void)expect_error(exec.submit(f.data(), f.size()).get(),
                     wire::ErrorCode::kDeadlineExceeded);
  exec.drain();
  const serve::ExecutorStats st = exec.stats();
  EXPECT_EQ(st.cancelled_inflight, 1u);
  EXPECT_EQ(st.completed, 0u);
}

TEST(Executor, DrainFailsQueuedFinishesInflightRejectsNew) {
  const DomainSpec dom = small_domain();
  serve::SnapshotRegistry reg(dom);
  publish_uniform(reg, dom, 1);
  sched::ThreadPool pool(2);
  serve::ExecutorConfig cfg;
  cfg.admission.budgets[0] = serve::ClassBudget{1, 4};
  serve::RequestExecutor exec(reg, pool, cfg);

  PoolBlocker gate(pool);
  const wire::Frame f = frame_of(wire::DensityAtQuery{{5, 5, 5}});
  auto inflight = exec.submit(f.data(), f.size());  // holds the one slot
  auto queued = exec.submit(f.data(), f.size());

  std::thread drainer([&] { exec.drain(); });
  // drain's first phase is synchronous: queued requests fail immediately,
  // even while the in-flight one is still stuck behind the gate.
  (void)expect_error(queued.get(), wire::ErrorCode::kShuttingDown);
  EXPECT_TRUE(exec.draining());
  auto late = exec.submit(f.data(), f.size());
  (void)expect_error(late.get(), wire::ErrorCode::kShuttingDown);

  gate.release();
  drainer.join();
  EXPECT_TRUE(is_success(inflight.get()))
      << "in-flight work finishes cleanly through a drain";

  const serve::ExecutorStats st = exec.stats();
  EXPECT_EQ(st.rejected_shutdown, 2u);
  EXPECT_EQ(st.completed, 1u);
}

TEST(Executor, WriterStallBreakerShedsExpensiveKeepsCheap) {
  const DomainSpec dom = small_domain();
  serve::SnapshotRegistry reg(dom);
  publish_uniform(reg, dom, 1);
  sched::ThreadPool pool(2);
  serve::ExecutorConfig cfg;
  cfg.admission.stall_after = milliseconds{5};
  serve::RequestExecutor exec(reg, pool, cfg);

  // Let the publish age past the breaker threshold (real clock: the
  // registry timestamps publishes itself).
  std::this_thread::sleep_for(milliseconds{30});

  const wire::Frame expensive =
      frame_of(wire::RegionGridQuery{Extent3{0, 8, 0, 8, 0, 4}});
  const wire::ErrorResponse err = expect_error(
      exec.submit(expensive.data(), expensive.size()).get(),
      wire::ErrorCode::kOverloaded);
  EXPECT_STREQ(err.message.c_str(), "writer stalled; expensive queries shed");

  const wire::Frame cheap = frame_of(wire::DensityAtQuery{{5, 5, 5}});
  EXPECT_TRUE(is_success(exec.submit(cheap.data(), cheap.size()).get()))
      << "cheap pinned reads keep serving through a writer stall";

  // The writer comes back: expensive queries are admitted again.
  publish_uniform(reg, dom, 2);
  EXPECT_TRUE(
      is_success(exec.submit(expensive.data(), expensive.size()).get()));
  EXPECT_EQ(exec.stats().admission.shed_stalled, 1u);
}

TEST(Executor, PerSessionRateLimitIsEnforcedOnTheWire) {
  const DomainSpec dom = small_domain();
  serve::SnapshotRegistry reg(dom);
  publish_uniform(reg, dom, 1);
  sched::ThreadPool pool(2);
  util::ManualClock clock;
  serve::ExecutorConfig cfg;
  cfg.admission.session_rate = 10.0;
  cfg.admission.session_burst = 2.0;
  serve::RequestExecutor exec(reg, pool, cfg, &clock);

  const wire::Frame f = frame_of(wire::DensityAtQuery{{5, 5, 5}});
  auto a = exec.submit(f.data(), f.size(), /*session_key=*/7);
  auto b = exec.submit(f.data(), f.size(), 7);
  const wire::ErrorResponse err = expect_error(
      exec.submit(f.data(), f.size(), 7).get(), wire::ErrorCode::kOverloaded);
  EXPECT_STREQ(err.message.c_str(), "session rate limit exceeded");
  EXPECT_GE(err.retry_after_ms, 1u);

  // The bucket refills on the injected clock; anonymous key 0 never sheds.
  clock.advance(milliseconds{150});
  auto c = exec.submit(f.data(), f.size(), 7);
  auto anon = exec.submit(f.data(), f.size(), 0);
  for (auto* fut : {&a, &b, &c, &anon}) EXPECT_TRUE(is_success(fut->get()));
  EXPECT_EQ(exec.stats().admission.shed_session, 1u);
}

TEST(Executor, MixedConcurrentWorkloadAccountsForEveryFrame) {
  // The TSan target: four submitter threads race the writer and each
  // other through the full admission/execution/shed machinery, and the
  // disposition counters must balance to the exact submission count.
  const DomainSpec dom = small_domain();
  serve::SnapshotRegistry reg(dom);
  publish_uniform(reg, dom, 1);
  sched::ThreadPool pool(4);
  serve::ExecutorConfig cfg;
  cfg.admission.budgets = {serve::ClassBudget{2, 16}, serve::ClassBudget{1, 8},
                           serve::ClassBudget{1, 4}};
  serve::RequestExecutor exec(reg, pool, cfg);

  const std::vector<wire::Frame> mix = {
      frame_of(wire::DensityAtQuery{{5, 5, 5}}),
      frame_of(wire::SliceQuery{2}),
      frame_of(wire::RegionQuery{Extent3{0, 8, 0, 8, 0, 4},
                                 wire::RegionOp::kSum}),
      frame_of(wire::RegionGridQuery{Extent3{0, 8, 0, 8, 0, 4}}),
      frame_of(wire::HotspotsQuery{4, 0.9}),
      frame_of(wire::HealthQuery{}),
      {0xBA, 0xD0, 0xBA, 0xD0},  // malformed rides along
  };

  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    std::uint64_t version = 2;
    while (!stop_writer.load(std::memory_order_acquire)) {
      publish_uniform(reg, dom, version++);
      std::this_thread::sleep_for(milliseconds{2});
    }
  });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::vector<std::thread> submitters;
  std::mutex fut_mu;
  std::vector<std::future<wire::Frame>> futures;
  for (int t = 0; t < kThreads; ++t)
    submitters.emplace_back([&, t] {
      std::vector<std::future<wire::Frame>> local;
      for (int i = 0; i < kPerThread; ++i) {
        const wire::Frame& f = mix[static_cast<std::size_t>(t + i) %
                                   mix.size()];
        local.push_back(exec.submit(f.data(), f.size(),
                                    static_cast<std::uint64_t>(t + 1)));
      }
      std::lock_guard<std::mutex> lk(fut_mu);
      for (auto& fut : local) futures.push_back(std::move(fut));
    });
  for (auto& th : submitters) th.join();
  stop_writer.store(true, std::memory_order_release);
  writer.join();

  for (auto& fut : futures) {
    ASSERT_EQ(fut.wait_for(std::chrono::seconds{60}),
              std::future_status::ready);
    (void)must_decode(fut.get());
  }
  exec.drain();

  const serve::ExecutorStats st = exec.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  // Every submission lands in exactly one disposition bucket.
  EXPECT_EQ(st.submitted,
            st.malformed + st.health_inline + st.shed + st.rejected_shutdown +
                st.expired_at_dequeue + st.expired_result +
                st.cancelled_inflight + st.failed + st.completed);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_LE(st.queue_high_water, std::size_t{16 + 8 + 4});
}

// ---------------------------------------------------------------------------
// Chaos: the serve.admit / serve.execute / serve.shed failpoint sites
// (failpoint builds only)

class OverloadChaos : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fp::enabled()) GTEST_SKIP() << "requires -DSTKDE_FAILPOINTS=ON";
    fp::disarm_all();
  }
  void TearDown() override { fp::disarm_all(); }
};

TEST_F(OverloadChaos, AdmissionFaultDegradesToTypedBackpressure) {
  const DomainSpec dom = small_domain();
  serve::SnapshotRegistry reg(dom);
  publish_uniform(reg, dom, 1);
  sched::ThreadPool pool(2);
  serve::RequestExecutor exec(reg, pool);

  fp::Spec spec;
  spec.action = fp::Action::kError;
  spec.after_hits = 1;
  fp::arm("serve.admit", spec);
  const wire::Frame f = frame_of(wire::DensityAtQuery{{5, 5, 5}});
  const wire::ErrorResponse err = expect_error(
      exec.submit(f.data(), f.size()).get(), wire::ErrorCode::kOverloaded);
  EXPECT_STREQ(err.message.c_str(), "admission fault injected");
  EXPECT_GE(err.retry_after_ms, 1u);

  fp::disarm_all();
  EXPECT_TRUE(is_success(exec.submit(f.data(), f.size()).get()))
      << "a disarmed admission path admits again";
  EXPECT_EQ(exec.stats().shed, 1u);
}

TEST_F(OverloadChaos, ExecutionFaultAnswersInternalErrorFrame) {
  const DomainSpec dom = small_domain();
  serve::SnapshotRegistry reg(dom);
  publish_uniform(reg, dom, 1);
  sched::ThreadPool pool(2);
  serve::RequestExecutor exec(reg, pool);

  fp::Spec spec;
  spec.action = fp::Action::kError;
  spec.after_hits = 1;
  fp::arm("serve.execute", spec);
  const wire::Frame f = frame_of(wire::DensityAtQuery{{5, 5, 5}});
  (void)expect_error(exec.submit(f.data(), f.size()).get(),
                     wire::ErrorCode::kInternal);
  exec.drain();
  EXPECT_EQ(exec.stats().failed, 1u);
}

TEST_F(OverloadChaos, ShedProbeCountsEveryRejection) {
  const DomainSpec dom = small_domain();
  serve::SnapshotRegistry reg(dom);
  publish_uniform(reg, dom, 1);
  sched::ThreadPool pool(2);
  serve::ExecutorConfig cfg;
  cfg.admission.budgets[0] = serve::ClassBudget{1, 0};  // no queue at all
  serve::RequestExecutor exec(reg, pool, cfg);

  fp::arm("serve.shed", fp::Spec{});  // kOff: count traversals only
  PoolBlocker gate(pool);
  const wire::Frame f = frame_of(wire::DensityAtQuery{{5, 5, 5}});
  auto held = exec.submit(f.data(), f.size());
  auto shed1 = exec.submit(f.data(), f.size());
  auto shed2 = exec.submit(f.data(), f.size());
  (void)expect_error(shed1.get(), wire::ErrorCode::kOverloaded);
  (void)expect_error(shed2.get(), wire::ErrorCode::kOverloaded);
  EXPECT_EQ(fp::hits("serve.shed"), 2u);
  gate.release();
  (void)held.get();
}

}  // namespace
}  // namespace stkde
