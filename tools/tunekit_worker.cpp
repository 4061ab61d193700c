// tunekit_worker: the out-of-process evaluation side of the sandbox.
//
// Speaks "tunekit-worker-v1" NDJSON over stdio (see
// src/robust/process_sandbox.hpp for the protocol): a ready handshake on
// start-up, periodic {"e":"hb"} heartbeats from a background thread, and one
// {"e":"result",...} line per {"op":"eval",...} request. The supervisor owns
// all deadline enforcement (SIGKILL) and resource caps (setrlimit, applied
// pre-exec), so this binary just evaluates and reports — if it dies doing so,
// that is precisely the event the sandbox exists to contain.
//
// --chaos-segv / --chaos-hang inject deterministic per-config faults (a real
// segfault / an uninterruptible busy-loop) for the fault-injection acceptance
// tests: the same config always misbehaves the same way, so crash quarantine
// and resume behave reproducibly.

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <unistd.h>
#endif

#include "common/json.hpp"
#include "core/app_registry.hpp"
#include "robust/outcome.hpp"

namespace {

using tunekit::robust::EvalOutcome;

struct WorkerArgs {
  std::string app;
  std::uint64_t seed = 12345;
  int heartbeat_ms = 250;
  double chaos_segv = 0.0;
  double chaos_hang = 0.0;
  std::uint64_t chaos_seed = 0;
};

int usage() {
  std::fprintf(stderr,
               "usage: tunekit_worker --app <name> [--seed N] [--heartbeat-ms M]\n"
               "                      [--chaos-segv P] [--chaos-hang P] [--chaos-seed N]\n"
               "apps: %s\n",
               tunekit::core::builtin_app_names());
  return 2;
}

bool parse_args(int argc, char** argv, WorkerArgs& out) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--app" && (v = next())) out.app = v;
    else if (flag == "--seed" && (v = next())) out.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--heartbeat-ms" && (v = next())) out.heartbeat_ms = std::atoi(v);
    else if (flag == "--chaos-segv" && (v = next())) out.chaos_segv = std::atof(v);
    else if (flag == "--chaos-hang" && (v = next())) out.chaos_hang = std::atof(v);
    else if (flag == "--chaos-seed" && (v = next())) out.chaos_seed = std::strtoull(v, nullptr, 10);
    else return false;
  }
  return !out.app.empty();
}

/// stdout is shared between the request loop and the heartbeat thread.
std::mutex g_stdout_mutex;

void emit_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(g_stdout_mutex);
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

/// Deterministic per-config uniform in [0,1): FNV-1a over the raw double
/// bits, finished with a splitmix64 avalanche of the chaos seed. The same
/// config always draws the same number — faults are reproducible.
double chaos_draw(const std::vector<double>& config, std::uint64_t chaos_seed) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double d : config) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  std::uint64_t z = h + chaos_seed + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

[[noreturn]] void chaos_segfault() {
  volatile int* p = nullptr;
  *p = 42;  // real SIGSEGV — the supervisor must see a signal death
  std::abort();
}

[[noreturn]] void chaos_hang() {
  // Uninterruptible from the evaluation's point of view: no cancellation
  // polling, heartbeats keep flowing, only the supervisor's SIGKILL ends it.
  volatile std::uint64_t sink = 0;
  for (;;) sink = sink + 1;
}

tunekit::json::Value handle_eval(tunekit::core::TunableApp& app,
                                 const WorkerArgs& args,
                                 const tunekit::json::Value& request) {
  // Trace propagation: a "span" id in the request asks for phase timings
  // (setup / objective / teardown) relative to request receipt. Old
  // supervisors never send it, and ignore the reply fields if they do.
  const bool traced = request.contains("span");
  const auto received = std::chrono::steady_clock::now();
  auto rel_ns = [&](std::chrono::steady_clock::time_point t) -> std::int64_t {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - received).count();
  };

  tunekit::json::Object reply;
  reply["e"] = "result";
  reply["id"] = request.at("id").as_int();
  if (traced) reply["span"] = request.at("span").as_number();

  std::vector<double> config;
  for (const auto& v : request.at("config").as_array()) {
    config.push_back(v.as_number());
  }

  if (config.size() != app.space().size()) {
    reply["outcome"] = "invalid-config";
    reply["error"] = "config has " + std::to_string(config.size()) +
                     " coordinates, space has " + std::to_string(app.space().size());
    return tunekit::json::Value(std::move(reply));
  }

  if (args.chaos_segv > 0.0 || args.chaos_hang > 0.0) {
    const double u = chaos_draw(config, args.chaos_seed);
    if (u < args.chaos_segv) chaos_segfault();
    if (u < args.chaos_segv + args.chaos_hang) chaos_hang();
  }

  EvalOutcome outcome = EvalOutcome::Ok;
  std::string error;
  tunekit::search::RegionTimes times;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    times = app.evaluate_regions(config);
    if (!std::isfinite(times.total)) {
      outcome = EvalOutcome::NonFinite;
      error = "evaluation returned a non-finite total";
    }
  } catch (const tunekit::robust::EvalFailure& f) {
    outcome = f.outcome();
    error = f.what();
  } catch (const std::invalid_argument& e) {
    outcome = EvalOutcome::InvalidConfig;
    error = e.what();
  } catch (const std::exception& e) {
    outcome = EvalOutcome::Crashed;
    error = e.what();
  } catch (...) {
    outcome = EvalOutcome::Crashed;
    error = "unknown exception";
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double cost = std::chrono::duration<double>(t1 - t0).count();

  reply["outcome"] = tunekit::robust::to_string(outcome);
  reply["cost"] = cost;
  if (outcome == EvalOutcome::Ok) {
    reply["value"] = times.total;
    reply["total"] = times.total;
    tunekit::json::Object regions;
    for (const auto& [name, seconds] : times.regions) regions[name] = seconds;
    reply["regions"] = tunekit::json::Value(std::move(regions));
  }
  if (!error.empty()) reply["error"] = error;

  if (traced) {
    auto make_span = [](const char* name, std::int64_t start_ns,
                        std::int64_t dur_ns) {
      tunekit::json::Object s;
      s["name"] = name;
      s["start_ns"] = static_cast<double>(start_ns < 0 ? 0 : start_ns);
      s["dur_ns"] = static_cast<double>(dur_ns < 0 ? 0 : dur_ns);
      return tunekit::json::Value(std::move(s));
    };
    const auto t2 = std::chrono::steady_clock::now();  // reply built
    tunekit::json::Array spans;
    spans.push_back(make_span("setup", 0, rel_ns(t0)));
    spans.push_back(make_span("objective", rel_ns(t0), rel_ns(t1) - rel_ns(t0)));
    spans.push_back(make_span("teardown", rel_ns(t1), rel_ns(t2) - rel_ns(t1)));
    reply["spans"] = tunekit::json::Value(std::move(spans));
  }
  return tunekit::json::Value(std::move(reply));
}

}  // namespace

int main(int argc, char** argv) {
  WorkerArgs args;
  if (!parse_args(argc, argv, args)) return usage();

#if defined(__unix__) || defined(__APPLE__)
  // A dying supervisor closes our stdout; fail the write, don't take a signal.
  std::signal(SIGPIPE, SIG_IGN);
#endif

  std::unique_ptr<tunekit::core::TunableApp> app;
  try {
    app = tunekit::core::make_builtin_app(args.app, args.seed).app;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tunekit_worker: %s\n", e.what());
    return 2;
  }

  {
    tunekit::json::Object ready;
    ready["e"] = "ready";
    ready["format"] = "tunekit-worker-v1";
    ready["app"] = args.app;
#if defined(__unix__) || defined(__APPLE__)
    ready["pid"] = static_cast<std::int64_t>(::getpid());
#endif
    emit_line(tunekit::json::Value(std::move(ready)).dump());
  }

  // Heartbeat thread: proves liveness to the supervisor while long
  // evaluations hold the request loop. A condition variable (instead of a
  // plain sleep) lets shutdown interrupt the wait immediately.
  std::atomic<bool> stop{false};
  std::mutex hb_mutex;
  std::condition_variable hb_cv;
  std::thread heartbeat;
  if (args.heartbeat_ms > 0) {
    heartbeat = std::thread([&] {
      std::unique_lock<std::mutex> lock(hb_mutex);
      while (!stop.load(std::memory_order_relaxed)) {
        if (hb_cv.wait_for(lock, std::chrono::milliseconds(args.heartbeat_ms),
                           [&] { return stop.load(std::memory_order_relaxed); })) {
          break;
        }
        emit_line("{\"e\":\"hb\"}");
      }
    });
  }

  int rc = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    try {
      const tunekit::json::Value request = tunekit::json::parse(line);
      const std::string op = request.at("op").as_string();
      if (op == "ping") {
        emit_line("{\"e\":\"pong\"}");
      } else if (op == "exit") {
        break;
      } else if (op == "eval") {
        emit_line(handle_eval(*app, args, request).dump());
      } else {
        std::fprintf(stderr, "tunekit_worker: unknown op '%s'\n", op.c_str());
        rc = 3;
        break;
      }
    } catch (const std::exception& e) {
      // A malformed request line means the channel itself is broken; bail
      // out with a nonzero code so the supervisor classifies InvalidConfig.
      std::fprintf(stderr, "tunekit_worker: bad request: %s\n", e.what());
      rc = 3;
      break;
    }
  }

  stop.store(true, std::memory_order_relaxed);
  hb_cv.notify_all();
  if (heartbeat.joinable()) heartbeat.join();
  return rc;
}
