// serve-churn: 4 client threads (one per core of the reference host), each
// with one keep-alive net::Client, against an in-process HttpServer +
// RestApi + SessionManager at `tunekit_cli serve` defaults (2 handler
// threads, in-memory sessions). Each client loops: create a session (inline
// 10-dim real space, random backend, max_evals 100), 100 x (ask(1) -> cheap
// objective -> tell), report, close. Clients do not retry and do not honour
// Retry-After, so a shed request counts as a failure.
//
// Sessions are in memory because the journaled server crashes under
// concurrent requests (SessionManager::evict_excess sorts by last_used
// without the lock that guards its writes); see benchmark/BENCHMARK.md.

#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "net/client.hpp"
#include "net/rest_api.hpp"
#include "net/server.hpp"
#include "net/session_manager.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace tkbench {

namespace tk = tunekit;

namespace {

constexpr std::size_t kClients = 4;
constexpr std::size_t kDims = 10;
constexpr double kLo = -5.0;
constexpr double kHi = 5.0;
/// Sessions per client whose best values make up tuned_speedup.
constexpr std::size_t kQualitySessions = 10;

double optimum(std::size_t i) { return -4.0 + 0.8 * static_cast<double>(i); }

/// The client-side objective: a shifted bowl, positive everywhere.
double objective(const std::vector<double>& x) {
  double f = 1.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = (x[i] - optimum(i)) / (kHi - kLo);
    f += d * d;
  }
  return f;
}

std::string param_name(std::size_t i) { return "x" + std::to_string(i); }

std::string session_spec(std::size_t evals, std::uint64_t seed) {
  json::Array params;
  for (std::size_t i = 0; i < kDims; ++i) {
    params.emplace_back(json::Object{{"name", json::Value(param_name(i))},
                                     {"kind", json::Value("real")},
                                     {"lo", json::Value(kLo)},
                                     {"hi", json::Value(kHi)},
                                     {"default", json::Value(0.0)}});
  }
  return json::Value(json::Object{
                         {"space", json::Value(json::Object{{"params", json::Value(params)}})},
                         {"backend", json::Value("random")},
                         {"max_evals", json::Value(evals)},
                         {"seed", json::Value(static_cast<double>(seed))}})
      .dump();
}

/// In-process server at `tunekit_cli serve` defaults; every request is
/// handled under a net.handle span.
class Server {
 public:
  explicit Server(Tracer& tracer)
      : manager_(tk::net::SessionManagerOptions{}),
        api_(manager_, nullptr),
        http_(options(), [this, &tracer](const tk::net::HttpRequest& request) {
          auto span = tracer.root("net.handle");
          return api_.handle(request);
        }) {
    http_.start();
  }
  ~Server() { http_.shutdown(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const { return http_.port(); }

 private:
  static tk::net::ServerOptions options() {
    tk::net::ServerOptions o;
    o.host = "127.0.0.1";
    o.port = 0;
    o.worker_threads = 2;
    o.max_queue = 64;
    o.max_connections = 256;
    o.queue_delay_target_seconds = 0.25;
    o.request_timeout_seconds = 30.0;
    o.drain_timeout_seconds = 5.0;
    o.priority = &tk::net::RestApi::priority;
    return o;
  }

  tk::net::SessionManager manager_;
  tk::net::RestApi api_;
  tk::net::HttpServer http_;
};

std::unique_ptr<tk::net::Client> make_client(std::uint16_t port) {
  tk::net::ClientRetryOptions retry;
  retry.max_attempts = 1;
  retry.honor_retry_after = false;
  return std::make_unique<tk::net::Client>("127.0.0.1", port, 30.0, retry);
}

/// Latency samples in memory touched when the client is set up, so peak RSS
/// does not depend on how many requests a run completes. Samples past the
/// capacity are counted, not kept.
class Samples {
 public:
  Samples() : buf_(kCapacity) {}
  void add(double ms) {
    if (n_ < buf_.size()) {
      buf_[n_++] = static_cast<float>(ms);
    } else {
      ++dropped_;
    }
  }
  void append_to(std::vector<double>& out) const {
    out.insert(out.end(), buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n_));
  }
  std::size_t dropped() const { return dropped_; }

 private:
  static constexpr std::size_t kCapacity = std::size_t{1} << 18;
  std::vector<float> buf_;
  std::size_t n_ = 0;
  std::size_t dropped_ = 0;
};

struct ClientStats {
  Result tally;
  Samples ask_ms, tell_ms;
  std::vector<double> session_ms, speedups;
  std::size_t cycles = 0;
  double request_ms = 0.0;  ///< every request's round trip, summed
  std::size_t requests = 0;
};

class ChurnClient {
 public:
  ChurnClient(tk::net::Client& client, Tracer& tracer, std::uint64_t seed, std::size_t evals,
              ClientStats& stats)
      : client_(client), tracer_(tracer), seed_(seed), evals_(evals), stats_(stats) {}

  /// One untimed session.
  bool warm_up() { return session(0); }

  /// Sessions until `deadline_ms` has passed and the quality sessions are in.
  void run(double deadline_ms) {
    std::size_t failures = 0;
    for (std::size_t k = 0; now_ms() < deadline_ms || k < kQualitySessions; ++k) {
      bool ok = false;
      try {
        ok = session(k);
      } catch (const std::exception& e) {
        stats_.tally.fail(std::string("malformed reply: ") + e.what());
      }
      if (!ok) ++failures;
      if (failures > 100) break;  // the server is gone; stop hammering it
    }
  }

 private:
  /// One request; non-2xx replies and transport errors are failures.
  std::optional<json::Value> call(const char* span_name, const std::string& method,
                                  const std::string& target, const std::string& body,
                                  double* ms = nullptr) {
    stats_.tally.attempt();
    auto span = tracer_.span(span_name);
    try {
      const auto response = client_.request(method, target, body);
      auto parsed = response.ok() ? std::optional<json::Value>(response.json()) : std::nullopt;
      span.end();
      stats_.request_ms += span.ms();
      ++stats_.requests;
      if (ms != nullptr) *ms = span.ms();
      if (!parsed) {
        stats_.tally.fail(method + " " + target + " -> " + std::to_string(response.status));
      }
      return parsed;
    } catch (const std::exception& e) {
      stats_.tally.fail(method + " " + target + ": " + e.what());
      return std::nullopt;
    }
  }

  bool session(std::size_t k) {
    const double t0 = now_ms();
    const auto created = call("service.create", "POST", "/v1/sessions",
                              session_spec(evals_, derive_seed(seed_, k)));
    if (!created) return false;
    const std::string id = created->at("id").as_string();
    const std::string base = "/v1/sessions/" + id;
    double best = INFINITY;
    bool ok = true;
    for (std::size_t i = 0; i < evals_ && ok; ++i) ok = cycle(base, best);
    if (ok) {
      const auto report = call("service.report", "GET", base + "/report", "");
      if (!report) {
        ok = false;
      } else if (report->number_or("completed", -1.0) != static_cast<double>(evals_) ||
                 report->number_or("best_value", NAN) != best) {
        stats_.tally.fail("session " + id + " reports a different completed count or best");
        ok = false;
      }
    }
    if (!call("service.close", "DELETE", base, "")) ok = false;
    stats_.session_ms.push_back(now_ms() - t0);
    if (ok && k < kQualitySessions) {
      std::vector<double> defaults(kDims, 0.0);
      stats_.speedups.push_back(objective(defaults) / best);
    }
    return ok;
  }

  bool cycle(const std::string& base, double& best) {
    auto cycle = tracer_.root("cycle");
    double ms = 0.0;
    const auto asked = call("service.ask", "POST", base + "/ask", "{\"k\":1}", &ms);
    if (!asked) return false;
    stats_.ask_ms.add(ms);
    const auto& candidates = asked->at("candidates").as_array();
    if (candidates.size() != 1) {
      stats_.tally.fail("ask returned " + std::to_string(candidates.size()) + " candidates");
      return false;
    }
    const auto& candidate = candidates.front();
    std::vector<double> x(kDims);
    const auto& config = candidate.at("config");
    for (std::size_t i = 0; i < kDims; ++i) {
      x[i] = config.number_or(param_name(i), NAN);
      if (!(x[i] >= kLo && x[i] <= kHi)) {
        stats_.tally.fail("ask returned an out-of-range config");
        return false;
      }
    }
    auto eval = tracer_.span("eval");
    const double value = objective(x);
    eval.end();
    best = std::min(best, value);
    const std::string tell = json::Value(json::Object{{"id", candidate.at("id")},
                                                      {"value", json::Value(value)}})
                                 .dump();
    if (!call("service.tell", "POST", base + "/tell", tell, &ms)) return false;
    stats_.tell_ms.add(ms);
    ++stats_.cycles;
    return true;
  }

  tk::net::Client& client_;
  Tracer& tracer_;
  std::uint64_t seed_;
  std::size_t evals_;
  ClientStats& stats_;
};

struct Rig {
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<tk::net::Client>> clients;
};

/// Start the server, connect every client, and let each drive one session
/// so connections, allocators and caches are warm before timing.
Rig set_up(Tracer& tracer, std::size_t clients, std::size_t evals) {
  Rig rig;
  rig.server = std::make_unique<Server>(tracer);
  for (std::size_t c = 0; c < clients; ++c) {
    rig.clients.push_back(make_client(rig.server->port()));
    ClientStats warm;
    if (!ChurnClient(*rig.clients.back(), tracer, c, evals, warm).warm_up()) {
      throw std::runtime_error("warm-up session failed on a fresh server");
    }
  }
  return rig;
}

struct Phase {
  std::vector<ClientStats> stats;
  double wall_ms = 0.0;
};

/// All clients churn sessions until `seconds` have passed.
Phase churn(Rig& rig, Tracer& tracer, std::uint64_t seed, std::size_t evals, double seconds) {
  Phase phase;
  phase.stats.resize(rig.clients.size());
  const double start = now_ms();
  const double deadline = start + seconds * 1e3;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < rig.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      ChurnClient(*rig.clients[c], tracer, derive_seed(seed, c), evals, phase.stats[c])
          .run(deadline);
    });
  }
  for (auto& t : threads) t.join();
  phase.wall_ms = now_ms() - start;
  return phase;
}

double cycles_per_s(const std::vector<Phase>& phases) {
  std::size_t cycles = 0;
  double wall_ms = 0.0;
  for (const auto& phase : phases) {
    wall_ms += phase.wall_ms;
    for (const auto& s : phase.stats) cycles += s.cycles;
  }
  return wall_ms > 0.0 ? static_cast<double>(cycles) / (wall_ms / 1e3) : 0.0;
}

void probe_manager_client(tk::net::SessionManager& manager, Tracer& tracer, std::size_t evals,
                          double deadline, std::vector<double>& ask_us,
                          std::vector<double>& tell_us) {
  for (std::uint64_t k = 0; now_ms() < deadline; ++k) {
    const auto created = manager.create(json::parse(session_spec(evals, k)));
    const std::string id = created.at("id").as_string();
    for (std::size_t i = 0; i < evals; ++i) {
      auto ask = tracer.root("service.manager_ask");
      const auto reply = manager.ask(id, 1);
      ask.end();
      ask_us.push_back(ask.ms() * 1e3);
      const auto& candidate = reply.at("candidates").as_array().at(0);
      const json::Value body(
          json::Object{{"id", candidate.at("id")}, {"value", json::Value(1.0)}});
      auto tell = tracer.root("service.manager_tell");
      manager.tell(id, body);
      tell.end();
      tell_us.push_back(tell.ms() * 1e3);
    }
    manager.close(id);
  }
}

/// The same op mix straight on a SessionManager, from every client thread,
/// for service.manager_ask_us / service.manager_tell_us.
void probe_manager(Tracer& tracer, std::size_t clients, std::size_t evals, double seconds,
                   PerLayer& layers, Result& result) {
  tk::net::SessionManager manager(tk::net::SessionManagerOptions{});
  std::vector<std::vector<double>> ask_us(clients), tell_us(clients);
  std::vector<Result> tallies(clients);
  const double deadline = now_ms() + seconds * 1e3;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        probe_manager_client(manager, tracer, evals, deadline, ask_us[c], tell_us[c]);
      } catch (const std::exception& e) {
        tallies[c].fail(std::string("manager probe: ") + e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& t : tallies) result.absorb(t);
  std::vector<double> asks, tells;
  for (std::size_t c = 0; c < clients; ++c) {
    asks.insert(asks.end(), ask_us[c].begin(), ask_us[c].end());
    tells.insert(tells.end(), tell_us[c].begin(), tell_us[c].end());
  }
  layers.manager_ask_us = mean(asks);
  layers.manager_tell_us = mean(tells);
}
}  // namespace

void run_serve_churn(const Args& args, Tracer& tracer, Result& result) {
  const std::size_t clients = args.toy ? 2 : kClients;
  const std::size_t evals = 100;
  Tracer off(false);

  auto& rec = result.record();
  rec["config"] = json::Value(json::Object{
      {"clients", json::Value(clients)},
      {"handler_threads", json::Value(2)},
      {"evals_per_session", json::Value(evals)},
      {"dims", json::Value(kDims)},
      {"backend", json::Value("random")},
      {"journaled", json::Value(false)}});

  if (args.trace) {
    // Quarters untraced, traced, traced, untraced: the throughput ratio of
    // the untraced and traced halves is the tracing overhead.
    PerLayer layers;
    std::vector<Phase> plain, traced;
    for (std::uint64_t k = 0; k < 4; ++k) {
      const bool on = k == 1 || k == 2;
      Tracer& t = on ? tracer : off;
      Rig rig = set_up(t, clients, evals);
      (on ? traced : plain)
          .push_back(churn(rig, t, derive_seed(args.seed, k), evals, args.seconds / 4));
    }
    for (const auto* phases : {&plain, &traced}) {
      for (const auto& phase : *phases) {
        for (const auto& s : phase.stats) result.absorb(s.tally);
      }
    }
    layers.trace_overhead_pct = (cycles_per_s(plain) / cycles_per_s(traced) - 1.0) * 100.0;

    double request_ms = 0.0;
    std::size_t requests = 0;
    for (const auto& phase : traced) {
      for (const auto& s : phase.stats) {
        request_ms += s.request_ms;
        requests += s.requests;
      }
    }
    const auto spans = tracer.layers();
    auto mean_ms = [&](const char* name) {
      auto it = spans.find(name);
      return it == spans.end() || it->second.calls == 0
                 ? 0.0
                 : it->second.total_ms / static_cast<double>(it->second.calls);
    };
    layers.handle_us = mean_ms("net.handle") * 1e3;
    layers.server_us =
        requests > 0 ? (request_ms / static_cast<double>(requests)) * 1e3 - layers.handle_us : 0.0;
    layers.eval_ms = mean_ms("eval");
    probe_manager(tracer, clients, evals, args.toy ? 0.5 : 2.0, layers, result);
    layers.emit(result);
    return;
  }

  std::vector<double> setup_s;
  Rig rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig = Rig{};
    const double t0 = now_ms();
    rig = set_up(off, clients, evals);
    setup_s.push_back((now_ms() - t0) / 1e3);
  }
  const std::vector<Phase> phases = {churn(rig, off, args.seed, evals, args.seconds)};
  const Phase& phase = phases.front();
  const double rss_mb = peak_rss_mb();
  rig = Rig{};

  std::vector<double> asks, tells, sessions, speedups;
  std::size_t dropped = 0;
  for (const auto& s : phase.stats) {
    result.absorb(s.tally);
    s.ask_ms.append_to(asks);
    s.tell_ms.append_to(tells);
    dropped += s.ask_ms.dropped() + s.tell_ms.dropped();
    for (double ms : s.session_ms) sessions.push_back(ms / 1e3);
    speedups.insert(speedups.end(), s.speedups.begin(), s.speedups.end());
  }
  double speedup = 0.0;
  try {
    speedup = geomean(speedups);
  } catch (const std::exception& e) {
    result.fail(std::string("tuned_speedup: ") + e.what());
  }
  json::Object extra;
  if (auto p = percentile(tells, 0.5)) extra["tell_p50_ms"] = json::Value(*p);
  if (auto p = percentile(tells, 0.9)) extra["tell_p90_ms"] = json::Value(*p);
  extra["tell_samples"] = json::Value(tells.size());
  extra["samples_dropped"] = json::Value(dropped);
  rec["extra"] = json::Value(std::move(extra));
  rec["tuned_speedup"] = json::Value(speedup);

  result.metric("setup_s", median(setup_s), "s");
  result.samples("setup_s", setup_s.size());
  result.metric("campaign_s", mean(sessions), "s");
  result.samples("campaign_s", sessions.size());
  result.percentile_metric("ask_p50_ms", asks, 0.50);
  result.percentile_metric("ask_p90_ms", asks, 0.90);
  result.metric("evals_per_s", cycles_per_s(phases), "1/s");
  result.samples("evals_per_s", asks.size());
  result.metric("peak_rss_mb", rss_mb, "MB");
}

}  // namespace tkbench
