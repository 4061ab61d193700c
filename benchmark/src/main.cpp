// tkbench: runs one workload of the repository benchmark.
//
//   tkbench --workload campaign|session-d10|serve-churn --seed N --seconds S
//           --trace 0|1 [--toy] [--out DIR]
//   tkbench --selftest
//
// Prints one JSON line per run as its last line of stdout:
// {"correct","attempted","failed","metrics"} with every end-to-end metric
// (--trace 0) or every per-layer metric (--trace 1). The line before it is
// the full record (configuration, sample counts, extra figures), also written
// to DIR/<workload>-seed<N>-trace<T>.json; a traced run writes its spans to
// DIR/<workload>.spans.csv. benchmark/run.py builds this binary and adds the
// source revision and host to the record.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"
#include "common/log.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using namespace tkbench;

int usage() {
  std::fprintf(stderr,
               "usage: tkbench --workload campaign|session-d10|serve-churn --seed N "
               "--seconds S --trace 0|1 [--toy] [--out DIR]\n"
               "       tkbench --selftest\n");
  return 2;
}

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool throws(const std::vector<double>& values) {
  try {
    geomean(values);
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

/// Unit checks of the helpers every metric rests on.
int selftest() {
  auto ramp = [](std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(n + 1 - i));
    return v;
  };
  expect(!percentile(ramp(19), 0.5), "p50 of 19 samples is refused (9 beyond)");
  expect(percentile(ramp(20), 0.5) == 10.5, "p50 of 20 samples is 10.5");
  expect(!percentile(ramp(91), 0.9), "p90 of 91 samples is refused (9 beyond)");
  expect(percentile(ramp(92), 0.9).has_value(), "p90 of 92 samples has 10 beyond");
  expect(std::fabs(*percentile(ramp(100), 0.9) - 90.1) < 1e-9, "p90 of 1..100 is 90.1");
  expect(!percentile({}, 0.5), "percentile of no samples is refused");

  expect(std::fabs(geomean({1.0, 4.0, 16.0}) - 4.0) < 1e-12, "geomean(1, 4, 16) = 4");
  expect(geomean({2.5}) == 2.5, "geomean of one value is that value");
  expect(throws({}), "geomean of nothing throws");
  expect(throws({1.0, 0.0}), "geomean with a zero throws");
  expect(throws({1.0, -2.0}), "geomean with a negative throws");
  expect(throws({1.0, NAN}), "geomean with a NaN throws");

  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
        return argv[++i];
      };
      if (flag == "--selftest") return selftest();
      if (flag == "--workload") {
        args.workload = next();
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(next());
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(next());
        have_seconds = true;
      } else if (flag == "--trace") {
        const std::string v = next();
        if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
        args.trace = v == "1";
        have_trace = true;
      } else if (flag == "--toy") {
        args.toy = true;
      } else if (flag == "--out") {
        args.out_dir = next();
      } else {
        throw std::invalid_argument("unknown option " + flag);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tkbench: %s\n", e.what());
    return usage();
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace || !(args.seconds > 0.0)) {
    return usage();
  }
  using Workload = void (*)(const Args&, Tracer&, Result&);
  const std::map<std::string, Workload> workloads = {{"campaign", &run_campaign},
                                                     {"session-d10", &run_session_d10},
                                                     {"serve-churn", &run_serve_churn}};
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "tkbench: unknown workload '%s'\n", args.workload.c_str());
    return usage();
  }

  tunekit::set_log_level(tunekit::LogLevel::Warn);
  Tracer tracer(args.trace);
  Result result;
  try {
    std::filesystem::create_directories(args.out_dir);
    it->second(args, tracer, result);

    const std::string stem = args.out_dir + "/" + args.workload;
    json::Value record = result.record_json(args);
    if (args.trace) {
      tracer.write(stem + ".spans.csv");
      json::Object layers;
      for (const auto& [name, t] : tracer.layers()) {
        layers[name] = json::Value(json::Object{{"calls", json::Value(t.calls)},
                                                {"total_ms", json::Value(t.total_ms)},
                                                {"self_ms", json::Value(t.self_ms)}});
      }
      record.as_object()["span_layers"] = json::Value(std::move(layers));
      record.as_object()["spans_dropped"] = json::Value(tracer.dropped());
    }
    const std::string path = stem + "-seed" + std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0") + ".json";
    std::ofstream(path) << record.dump(2) << '\n';
    std::cout << record.dump() << '\n' << result.final_line() << std::endl;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tkbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
