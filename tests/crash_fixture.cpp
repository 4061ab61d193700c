// tunekit_crash_fixture: a tunekit-worker-v1 speaker whose behavior is
// selected by the request config, used by the sandbox tests to exercise every
// row of the wait-status → EvalOutcome classification matrix.
//
//   config[0]  behavior
//   ---------  --------
//       0      reply ok: value = config[1], regions {a, b}
//       1      die of SIGSEGV mid-evaluation
//       2      die of SIGABRT
//       3      exit with code config[1] without replying
//       4      hang forever but keep heartbeating (deadline SIGKILL → timed-out)
//       5      allocate-and-touch memory forever (RLIMIT_AS → death)
//       6      write a garbage non-JSON line instead of a result
//       7      hang forever silently, no heartbeats (liveness → crashed)
//
// Deliberately dependency-free (no tunekit headers beyond the C++ standard
// library): the fixture must stay trustworthy even when the library under
// test is broken, and its hand-rolled protocol strings double as an
// independent check of the wire format.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#endif

namespace {

std::mutex g_stdout_mutex;

void emit_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(g_stdout_mutex);
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

/// Extract `"key":<number>` from a flat JSON line. Good enough for the fixed
/// request shape the supervisor emits; no nesting in requests.
bool find_number(const std::string& line, const std::string& key, double& out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  out = std::strtod(line.c_str() + pos + needle.size(), nullptr);
  return true;
}

/// Extract the numbers of `"config":[...]`.
std::vector<double> find_config(const std::string& line) {
  std::vector<double> config;
  const std::string needle = "\"config\":[";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return config;
  pos += needle.size();
  while (pos < line.size() && line[pos] != ']') {
    char* end = nullptr;
    const double v = std::strtod(line.c_str() + pos, &end);
    if (end == line.c_str() + pos) break;
    config.push_back(v);
    pos = static_cast<std::size_t>(end - line.c_str());
    if (pos < line.size() && line[pos] == ',') ++pos;
  }
  return config;
}

[[noreturn]] void hang_forever() {
  volatile unsigned long long sink = 0;
  for (;;) sink = sink + 1;
}

[[noreturn]] void memory_hog() {
  // Touch every page so RLIMIT_AS (or the OOM killer) actually fires rather
  // than the allocation staying virtual.
  std::vector<char*> blocks;
  for (;;) {
    char* block = static_cast<char*>(std::malloc(16u << 20));
    if (!block) std::abort();  // allocation refused: die loudly instead
    std::memset(block, 0x5a, 16u << 20);
    blocks.push_back(block);
  }
}

}  // namespace

int main() {
#if defined(__unix__) || defined(__APPLE__)
  std::signal(SIGPIPE, SIG_IGN);
#endif

  emit_line("{\"e\":\"ready\",\"format\":\"tunekit-worker-v1\",\"app\":\"crash-fixture\"}");

  std::atomic<bool> stop{false};
  std::atomic<bool> heartbeats{true};
  std::mutex hb_mutex;
  std::condition_variable hb_cv;
  std::thread heartbeat([&] {
    std::unique_lock<std::mutex> lock(hb_mutex);
    while (!stop.load(std::memory_order_relaxed)) {
      if (hb_cv.wait_for(lock, std::chrono::milliseconds(100),
                         [&] { return stop.load(std::memory_order_relaxed); })) {
        break;
      }
      if (heartbeats.load(std::memory_order_relaxed)) emit_line("{\"e\":\"hb\"}");
    }
  });

  int rc = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line.find("\"op\":\"ping\"") != std::string::npos) {
      emit_line("{\"e\":\"pong\"}");
      continue;
    }
    if (line.find("\"op\":\"exit\"") != std::string::npos) break;
    if (line.find("\"op\":\"eval\"") == std::string::npos) {
      rc = 3;
      break;
    }

    double id = 0.0;
    find_number(line, "id", id);
    const std::vector<double> config = find_config(line);
    const int mode = config.empty() ? 0 : static_cast<int>(config[0]);
    const double operand = config.size() > 1 ? config[1] : 0.0;

    switch (mode) {
      case 1: {
        volatile int* p = nullptr;
        *p = 42;  // SIGSEGV
        std::abort();
      }
      case 2:
        std::abort();  // SIGABRT
      case 3:
        std::exit(static_cast<int>(operand));  // exit without replying
      case 4:
        hang_forever();  // heartbeats continue → deadline SIGKILL
      case 5:
        memory_hog();
      case 6:
        emit_line("this is not json {{{");
        continue;
      case 7:
        heartbeats.store(false, std::memory_order_relaxed);
        hang_forever();  // silent → liveness timeout
      default: {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"e\":\"result\",\"id\":%.0f,\"outcome\":\"ok\","
                      "\"value\":%.17g,\"total\":%.17g,\"cost\":0.001,"
                      "\"regions\":{\"a\":%.17g,\"b\":%.17g}}",
                      id, operand, operand, operand * 0.5, operand * 0.5);
        emit_line(buf);
        continue;
      }
    }
  }

  stop.store(true, std::memory_order_relaxed);
  hb_cv.notify_all();
  if (heartbeat.joinable()) heartbeat.join();
  return rc;
}
