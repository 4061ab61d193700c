// Fleet subsystem tests: registry liveness/backoff policy (injected time,
// no sleeping), shard assignment stability, net deadlines, the
// tunekit-fleet-v1 wire codec, and dispatcher + node-agent integration over
// real loopback sockets with injected synthetic backends.

#include "fleet/dispatcher.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "fleet/node_agent.hpp"
#include "fleet/registry.hpp"
#include "fleet/remote_worker.hpp"
#include "net/deadline.hpp"
#include "robust/eval_backend.hpp"
#include "service/scheduler.hpp"
#include "service/session.hpp"

namespace tunekit::fleet {
namespace {

using robust::EvalOutcome;

// --- NodeRegistry: liveness + re-admission policy, time injected. ---

TEST(NodeRegistry, AdmitHeartbeatExpire) {
  RegistryOptions opt;
  opt.heartbeat_timeout_s = 5.0;
  NodeRegistry reg(opt);

  EXPECT_TRUE(reg.admit("n1", 4, /*now=*/0.0).ok);
  EXPECT_TRUE(reg.alive("n1"));
  EXPECT_EQ(reg.nodes_alive(), 1u);
  EXPECT_EQ(reg.slots_total(), 4u);

  EXPECT_TRUE(reg.heartbeat("n1", /*busy=*/2, /*now=*/3.0));
  // Within the deadline of the last heartbeat: nothing expires.
  EXPECT_TRUE(reg.expire(/*now=*/7.0).empty());
  // Silent past the deadline: expired exactly once.
  const auto dead = reg.expire(/*now=*/8.5);
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], "n1");
  EXPECT_FALSE(reg.alive("n1"));
  EXPECT_EQ(reg.slots_total(), 0u);
  // A dead node's heartbeat is refused — the dispatcher drops that link.
  EXPECT_FALSE(reg.heartbeat("n1", 0, 9.0));
  EXPECT_FALSE(reg.heartbeat("never-registered", 0, 9.0));
  // expire() is idempotent.
  EXPECT_TRUE(reg.expire(10.0).empty());
}

TEST(NodeRegistry, ReadmissionBackoffDoublesAndResets) {
  RegistryOptions opt;
  opt.readmit_base_s = 1.0;
  opt.readmit_max_s = 60.0;
  NodeRegistry reg(opt);

  ASSERT_TRUE(reg.admit("n1", 2, 0.0).ok);
  reg.mark_dead("n1", 10.0);

  // First death: one base-length backoff window.
  auto refused = reg.admit("n1", 2, 10.5);
  EXPECT_FALSE(refused.ok);
  EXPECT_GT(refused.retry_after_s, 0.0);
  EXPECT_FALSE(refused.reason.empty());
  ASSERT_TRUE(reg.admit("n1", 2, 11.1).ok);

  // Second consecutive death: the window doubles.
  reg.mark_dead("n1", 20.0);
  EXPECT_FALSE(reg.admit("n1", 2, 21.1).ok);
  ASSERT_TRUE(reg.admit("n1", 2, 22.1).ok);

  // A delivered result clears the streak: the next backoff is base again.
  reg.record_eval("n1", /*ok=*/false);  // any result counts, even a failure
  reg.mark_dead("n1", 30.0);
  EXPECT_TRUE(reg.admit("n1", 2, 31.1).ok);
}

TEST(NodeRegistry, ReadmissionBackoffJitterIsDeterministicAndSubtractOnly) {
  RegistryOptions opt;
  opt.readmit_base_s = 10.0;
  opt.readmit_max_s = 60.0;

  // Same id, fresh registry: the jitter is a pure function of (id, deaths),
  // so a failing run can be replayed exactly.
  double retry[2] = {0.0, 0.0};
  for (int run = 0; run < 2; ++run) {
    NodeRegistry reg(opt);
    ASSERT_TRUE(reg.admit("jitter-node", 4, 0.0).ok);
    reg.mark_dead("jitter-node", 100.0);
    const auto refused = reg.admit("jitter-node", 4, 100.0);
    ASSERT_FALSE(refused.ok);
    retry[run] = refused.retry_after_s;
  }
  EXPECT_DOUBLE_EQ(retry[0], retry[1]);
  // Subtract-only: the window shrinks by at most 20% and never grows, so the
  // advertised exponential backoff stays an upper bound.
  EXPECT_GE(retry[0], 0.8 * opt.readmit_base_s);
  EXPECT_LE(retry[0], opt.readmit_base_s);

  // Different ids land at different points of the window — that spread is
  // the whole point (no re-admission stampede after a correlated outage).
  NodeRegistry reg(opt);
  ASSERT_TRUE(reg.admit("other-node", 4, 0.0).ok);
  reg.mark_dead("other-node", 100.0);
  const auto other = reg.admit("other-node", 4, 100.0);
  ASSERT_FALSE(other.ok);
  EXPECT_NE(other.retry_after_s, retry[0]);
}

// --- CircuitBreaker: the per-node trip/cool-down/probe state machine. ---

TEST(CircuitBreaker, TripsAtErrorRateAndRecoversThroughHalfOpenProbe) {
  BreakerOptions opt;
  opt.window = 8;
  opt.min_samples = 4;
  opt.error_rate_open = 0.5;
  opt.open_duration_s = 5.0;
  opt.half_open_probes = 1;
  CircuitBreaker cb(opt);
  double t = 100.0;

  EXPECT_TRUE(cb.allow(t));
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(cb.record(true, 0.01, t));
  EXPECT_EQ(cb.state(t), BreakerState::Closed);

  // Failures trip the breaker exactly when the window error rate reaches the
  // threshold (4 ok + 4 failed = 0.5) — not one record earlier.
  EXPECT_FALSE(cb.record(false, 0.01, t));
  EXPECT_FALSE(cb.record(false, 0.01, t));
  EXPECT_FALSE(cb.record(false, 0.01, t));
  EXPECT_TRUE(cb.record(false, 0.01, t));
  EXPECT_TRUE(cb.open_now(t));
  EXPECT_FALSE(cb.allow(t + 1.0)) << "open breaker must refuse work";

  // Cool-down elapsed: half-open admits exactly `half_open_probes` probes.
  EXPECT_TRUE(cb.allow(t + 5.5));
  EXPECT_EQ(cb.state(t + 5.5), BreakerState::HalfOpen);
  EXPECT_FALSE(cb.allow(t + 5.6)) << "only one probe may be in flight";

  // The probe succeeds: closed again, with the pre-trip history forgotten.
  EXPECT_FALSE(cb.record(true, 0.01, t + 5.7));
  EXPECT_EQ(cb.state(t + 5.8), BreakerState::Closed);
  EXPECT_FALSE(cb.open_now(t + 5.8));
  EXPECT_DOUBLE_EQ(cb.error_rate(), 0.0);
}

TEST(CircuitBreaker, FailedProbeReopensWithRestartedCoolDown) {
  BreakerOptions opt;
  opt.window = 4;
  opt.min_samples = 2;
  opt.error_rate_open = 0.5;
  opt.open_duration_s = 5.0;
  CircuitBreaker cb(opt);
  double t = 0.0;
  EXPECT_FALSE(cb.record(false, 0.0, t));
  EXPECT_TRUE(cb.record(false, 0.0, t));  // trips
  ASSERT_TRUE(cb.allow(t + 5.5));         // half-open probe
  EXPECT_TRUE(cb.record(false, 0.0, t + 5.6)) << "a failed probe re-opens";
  EXPECT_TRUE(cb.open_now(t + 5.7));
  EXPECT_FALSE(cb.allow(t + 9.0)) << "cool-down restarts from the re-open";
  EXPECT_TRUE(cb.allow(t + 11.0));
}

TEST(CircuitBreaker, MedianLatencyTripsEvenWhenEvalsSucceed) {
  BreakerOptions opt;
  opt.window = 8;
  opt.min_samples = 4;
  opt.error_rate_open = 1.1;  // error rate can never trip
  opt.latency_open_s = 0.5;
  CircuitBreaker cb(opt);
  // Successful but crawling evals: the node is useless even though nothing
  // "fails", and the latency median must catch that.
  EXPECT_FALSE(cb.record(true, 2.0, 0.0));
  EXPECT_FALSE(cb.record(true, 2.0, 0.0));
  EXPECT_FALSE(cb.record(true, 2.0, 0.0));
  EXPECT_TRUE(cb.record(true, 2.0, 0.0));
  EXPECT_TRUE(cb.open_now(0.0));
}

TEST(NodeRegistry, LiveDuplicateIdRefused) {
  NodeRegistry reg;
  ASSERT_TRUE(reg.admit("n1", 2, 0.0).ok);
  EXPECT_FALSE(reg.admit("n1", 2, 1.0).ok);
  // After death (and backoff) the id is reusable.
  reg.mark_dead("n1", 2.0);
  EXPECT_TRUE(reg.admit("n1", 8, 100.0).ok);
  EXPECT_EQ(reg.slots_total(), 8u);
}

TEST(NodeRegistry, SnapshotCarriesEvalCounts) {
  NodeRegistry reg;
  ASSERT_TRUE(reg.admit("n1", 2, 0.0).ok);
  reg.record_eval("n1", true);
  reg.record_eval("n1", true);
  reg.record_eval("n1", false);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].evals_ok, 2u);
  EXPECT_EQ(snap[0].evals_failed, 1u);
  const json::Value j = reg.to_json();
  ASSERT_TRUE(j.contains("nodes"));
  EXPECT_EQ(j.at("nodes").as_array().size(), 1u);
}

// --- Shard assignment: stable, in-range, and non-degenerate. ---

TEST(ShardOf, StableInRangeAndSpreads) {
  const std::size_t n = 8;
  std::set<std::size_t> used;
  for (int i = 0; i < 256; ++i) {
    const std::string id = std::string("s").append(std::to_string(i));
    const std::size_t shard = common::shard_of(id, n);
    EXPECT_LT(shard, n);
    // Deterministic: the same id always lands on the same shard.
    EXPECT_EQ(shard, common::shard_of(id, n));
    used.insert(shard);
  }
  // FNV-1a over 256 ids must touch every one of 8 shards.
  EXPECT_EQ(used.size(), n);
  // Degenerate shard counts collapse to shard 0.
  EXPECT_EQ(common::shard_of("anything", 1), 0u);
  EXPECT_EQ(common::shard_of("anything", 0), 0u);
}

// --- net::Deadline ---

TEST(Deadline, ExpiryAndRemaining) {
  const auto d = net::Deadline::after(0.05);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_seconds(), 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_seconds(), 0.0);

  const auto forever = net::Deadline::infinite();
  EXPECT_FALSE(forever.expired());
  EXPECT_LT(0.0, forever.remaining_seconds());
}

// --- Wire codec: eval/result round trips. ---

TEST(FleetWire, EvalMessageCarriesConfigAndDeadline) {
  const search::Config config = {1.5, -2.0, 8.0};
  const json::Value msg = eval_message(42, config, 12.5);
  EXPECT_EQ(msg.at("op").as_string(), "eval");
  EXPECT_EQ(static_cast<std::uint64_t>(msg.at("id").as_number()), 42u);
  EXPECT_DOUBLE_EQ(msg.at("deadline_s").as_number(), 12.5);
  const auto& arr = msg.at("config").as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_DOUBLE_EQ(arr[1].as_number(), -2.0);
  // An infinite deadline is simply absent from the wire.
  EXPECT_FALSE(eval_message(1, config, std::numeric_limits<double>::infinity())
                   .contains("deadline_s"));
}

TEST(FleetWire, ResultRoundTripOk) {
  robust::SandboxResult r;
  r.outcome = EvalOutcome::Ok;
  r.value = 3.25;
  r.cost_seconds = 0.5;
  r.dispersion = 0.01;
  r.worker_slot = 2;
  r.regions.total = 3.25;
  r.regions.regions["fft"] = 2.0;
  r.regions.regions["mix"] = 1.25;

  const json::Value wire = result_message(7, r);
  EXPECT_EQ(wire.at("op").as_string(), "result");
  const robust::SandboxResult back = result_from_wire(wire);
  EXPECT_EQ(back.outcome, EvalOutcome::Ok);
  EXPECT_DOUBLE_EQ(back.value, 3.25);
  EXPECT_DOUBLE_EQ(back.cost_seconds, 0.5);
  EXPECT_DOUBLE_EQ(back.dispersion, 0.01);
  EXPECT_EQ(back.worker_slot, 2);
  EXPECT_FALSE(back.worker_died);
  EXPECT_DOUBLE_EQ(back.regions.total, 3.25);
  ASSERT_EQ(back.regions.regions.size(), 2u);
  EXPECT_DOUBLE_EQ(back.regions.regions.at("fft"), 2.0);
}

TEST(FleetWire, ResultRoundTripFailureCarriesDeath) {
  robust::SandboxResult r;
  r.outcome = EvalOutcome::Crashed;
  r.error = "signal 11";
  r.worker_died = true;
  const robust::SandboxResult back = result_from_wire(result_message(9, r));
  EXPECT_EQ(back.outcome, EvalOutcome::Crashed);
  EXPECT_EQ(back.error, "signal 11");
  EXPECT_TRUE(back.worker_died);
}

TEST(FleetWire, MalformedResultsClassifyInvalidConfig) {
  // Unknown outcome string.
  json::Object bad;
  bad["op"] = json::Value(std::string("result"));
  bad["id"] = json::Value(1.0);
  bad["outcome"] = json::Value(std::string("exploded"));
  EXPECT_EQ(result_from_wire(json::Value(bad)).outcome, EvalOutcome::InvalidConfig);
  // "ok" without a value is unusable too.
  bad["outcome"] = json::Value(std::string("ok"));
  EXPECT_EQ(result_from_wire(json::Value(std::move(bad))).outcome,
            EvalOutcome::InvalidConfig);
}

// --- Dispatcher + agents over loopback, synthetic backends injected. ---

/// Thread-safe counting backend: value = sum of coordinates. A designated
/// "crash" first coordinate reports a worker death, which the dispatcher's
/// per-config quarantine must act on.
class SyntheticBackend final : public robust::EvalBackend {
 public:
  explicit SyntheticBackend(double delay_ms = 0.0, double crash_coord = NAN)
      : delay_ms_(delay_ms), crash_coord_(crash_coord) {}

  robust::SandboxResult evaluate(const search::Config& config,
                                 double /*deadline_seconds*/) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (delay_ms_ > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<long>(delay_ms_ * 1000.0)));
    }
    robust::SandboxResult r;
    if (!config.empty() && !std::isnan(crash_coord_) &&
        config[0] == crash_coord_) {
      r.outcome = EvalOutcome::Crashed;
      r.error = "synthetic crash";
      r.worker_died = true;
      return r;
    }
    double sum = 0.0;
    for (const double c : config) sum += c;
    r.outcome = EvalOutcome::Ok;
    r.value = sum;
    r.cost_seconds = delay_ms_ / 1e3;
    r.regions.total = sum;
    return r;
  }

  bool healthy() const override { return true; }
  std::size_t concurrency() const override { return 2; }
  std::size_t calls() const { return calls_.load(); }

 private:
  double delay_ms_;
  double crash_coord_;
  std::atomic<std::size_t> calls_{0};
};

struct AgentHandle {
  std::shared_ptr<SyntheticBackend> backend;
  std::unique_ptr<NodeAgent> agent;
  std::thread thread;

  void stop_join() {
    if (agent) agent->stop();
    if (thread.joinable()) thread.join();
  }
};

AgentHandle start_agent(std::uint16_t port, const std::string& id,
                        std::size_t slots, double delay_ms = 0.0,
                        double crash_coord = NAN) {
  AgentHandle h;
  h.backend = std::make_shared<SyntheticBackend>(delay_ms, crash_coord);
  NodeAgentOptions opt;
  opt.host = "127.0.0.1";
  opt.port = port;
  opt.node_id = id;
  opt.slots = slots;
  opt.backend = h.backend;
  opt.reconnect_base_s = 0.05;
  opt.reconnect_max_s = 0.2;
  h.agent = std::make_unique<NodeAgent>(opt);
  NodeAgent* raw = h.agent.get();
  h.thread = std::thread([raw] { raw->run(); });
  return h;
}

void wait_nodes(const FleetDispatcher& d, std::size_t n, double timeout_s = 10.0) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  while (d.registry().nodes_alive() < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(d.registry().nodes_alive(), n);
}

DispatcherOptions fast_dispatcher_options() {
  DispatcherOptions opt;
  opt.port = 0;
  opt.heartbeat_interval_s = 0.1;
  opt.registry.heartbeat_timeout_s = 1.0;
  opt.registry.readmit_base_s = 0.1;
  return opt;
}

TEST(FleetDispatcher, EvaluatesAcrossNodes) {
  FleetDispatcher dispatcher(fast_dispatcher_options());
  auto a = start_agent(dispatcher.port(), "node-a", 2);
  auto b = start_agent(dispatcher.port(), "node-b", 2);
  wait_nodes(dispatcher, 2);
  EXPECT_EQ(dispatcher.concurrency(), 4u);

  // Concurrent evaluations spread over both nodes and all come back right.
  std::vector<std::thread> threads;
  std::atomic<std::size_t> ok{0};
  for (int i = 0; i < 16; ++i) {
    threads.emplace_back([&dispatcher, &ok, i] {
      const search::Config config = {static_cast<double>(i), 1.0};
      const auto r = dispatcher.evaluate(config, 30.0);
      if (r.outcome == EvalOutcome::Ok &&
          r.value == static_cast<double>(i) + 1.0) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), 16u);
  EXPECT_EQ(a.backend->calls() + b.backend->calls(), 16u);
  // Both nodes did real work (16 evals over 2x2 slots cannot be one-sided:
  // the free-slot pump drains the queue onto whichever node is idle).
  EXPECT_GT(a.backend->calls(), 0u);
  EXPECT_GT(b.backend->calls(), 0u);

  const json::Value status = dispatcher.status_json();
  EXPECT_EQ(status.at("nodes").as_array().size(), 2u);

  a.stop_join();
  b.stop_join();
  dispatcher.stop();
}

TEST(FleetDispatcher, SchedulerRunsSessionThroughFleet) {
  auto dispatcher = std::make_shared<FleetDispatcher>(fast_dispatcher_options());
  auto a = start_agent(dispatcher->port(), "node-a", 2);
  wait_nodes(*dispatcher, 1);

  search::SearchSpace space;
  space.add(search::ParamSpec::real("x", -2.0, 2.0, 0.0));
  space.add(search::ParamSpec::real("y", -2.0, 2.0, 0.0));
  service::SessionOptions sopt;
  sopt.max_evals = 24;
  sopt.backend = service::SessionBackend::Random;
  sopt.seed = 7;
  service::TuningSession session(space, sopt);

  service::SchedulerOptions opt;
  opt.backend = dispatcher;
  const auto result = service::EvalScheduler(opt).run(session);
  EXPECT_EQ(result.evaluations, 24u);
  EXPECT_TRUE(std::isfinite(result.best_value));
  EXPECT_EQ(a.backend->calls(), 24u);

  a.stop_join();
  dispatcher->stop();
}

TEST(FleetDispatcher, BackendlessSchedulerRunThrows) {
  search::SearchSpace space;
  space.add(search::ParamSpec::real("x", 0.0, 1.0, 0.5));
  service::SessionOptions sopt;
  sopt.max_evals = 4;
  service::TuningSession session(space, sopt);
  service::EvalScheduler scheduler{service::SchedulerOptions{}};
  EXPECT_THROW(scheduler.run(session), std::invalid_argument);
}

TEST(FleetDispatcher, QuarantinesCrashingConfigFleetWide) {
  auto opt = fast_dispatcher_options();
  opt.quarantine_after = 2;
  FleetDispatcher dispatcher(opt);
  auto a = start_agent(dispatcher.port(), "node-a", 2, /*delay_ms=*/0.0,
                       /*crash_coord=*/13.0);
  wait_nodes(dispatcher, 1);

  const search::Config poison = {13.0, 0.0};
  EXPECT_EQ(dispatcher.evaluate(poison, 30.0).outcome, EvalOutcome::Crashed);
  EXPECT_EQ(dispatcher.evaluate(poison, 30.0).outcome, EvalOutcome::Crashed);
  const std::size_t served = a.backend->calls();
  // Third attempt is refused dispatcher-side: no node ever sees it.
  const auto refused = dispatcher.evaluate(poison, 30.0);
  EXPECT_EQ(refused.outcome, EvalOutcome::Crashed);
  EXPECT_NE(refused.error.find("quarantined"), std::string::npos);
  EXPECT_EQ(a.backend->calls(), served);
  // Healthy configs still flow.
  EXPECT_EQ(dispatcher.evaluate({1.0, 1.0}, 30.0).outcome, EvalOutcome::Ok);

  a.stop_join();
  dispatcher.stop();
}

TEST(FleetDispatcher, NoNodesFailsClassifiedAfterTimeout) {
  auto opt = fast_dispatcher_options();
  opt.no_nodes_timeout_s = 0.3;
  FleetDispatcher dispatcher(opt);
  const auto r = dispatcher.evaluate({1.0}, 5.0);
  EXPECT_EQ(r.outcome, EvalOutcome::Crashed);
  EXPECT_NE(r.error.find("no fleet nodes"), std::string::npos);
  // Empty fleet still reports one slot so schedulers keep a thread ready.
  EXPECT_EQ(dispatcher.concurrency(), 1u);
  dispatcher.stop();
}

TEST(FleetDispatcher, RedispatchesInflightWorkOfDeadNode) {
  auto opt = fast_dispatcher_options();
  opt.registry.heartbeat_timeout_s = 0.6;
  FleetDispatcher dispatcher(opt);
  // Victim is slow enough that work is reliably in flight when it dies.
  auto victim = start_agent(dispatcher.port(), "victim", 2, /*delay_ms=*/300.0);
  wait_nodes(dispatcher, 1);

  std::vector<std::thread> threads;
  std::atomic<std::size_t> ok{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&dispatcher, &ok, i] {
      const auto r = dispatcher.evaluate({static_cast<double>(i)}, 60.0);
      if (r.outcome == EvalOutcome::Ok) ok.fetch_add(1);
    });
  }
  // Let the victim pick work up, then drop it mid-eval and bring up a healthy
  // replacement to steal the re-queued tickets.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  victim.stop_join();
  auto rescue = start_agent(dispatcher.port(), "rescue", 2);
  for (auto& t : threads) t.join();

  EXPECT_EQ(ok.load(), 4u);
  EXPECT_GE(dispatcher.redispatches(), 1u);
  EXPECT_GT(rescue.backend->calls(), 0u);

  rescue.stop_join();
  dispatcher.stop();
}

}  // namespace
}  // namespace tunekit::fleet
