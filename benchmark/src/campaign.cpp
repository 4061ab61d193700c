// campaign: one client runs Methodology::run sequentially on RT-TDDFT CS1 and
// CS2 over a fixed list of seeds, with the options `tunekit_cli tune` passes
// by default. Single-threaded; no journal and no HTTP.
//
// The search loop is the blocking BayesOpt::run, so the client never sees an
// ask. The closest thing is the time the tuner holds the application idle
// between two evaluations of one BO search — record, refit, acquisition
// argmax — which is what ask_p50_ms / ask_p90_ms report here. An app wrapper
// logs every evaluation's interval; the search outcomes say which log entries
// belong to which search, and the first n_init gaps of each search (the
// initial design) are not decisions.

#include <cmath>
#include <memory>
#include <mutex>
#include <optional>

#include "core/app_registry.hpp"
#include "core/methodology.hpp"
#include "obs/telemetry.hpp"
#include "replay.hpp"
#include "search/objective.hpp"
#include "workloads.hpp"

namespace tkbench {

namespace tk = tunekit;

namespace {

constexpr std::size_t kInitDesign = 5;  // BoOptions::n_init
constexpr std::size_t kSeedsPerRound = 3;

/// Forwards every call to the wrapped app and logs each evaluation.
class LoggedApp final : public tk::core::TunableApp {
 public:
  struct Eval {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    tk::search::Config config;
    tk::search::RegionTimes times;
  };

  explicit LoggedApp(tk::core::TunableApp& inner) : inner_(inner) {}

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  const tk::search::SearchSpace& space() const override { return inner_.space(); }
  std::vector<tk::core::RoutineSpec> routines() const override { return inner_.routines(); }
  std::vector<std::string> outer_regions() const override { return inner_.outer_regions(); }
  std::vector<tk::graph::BoundGroup> bound_groups() const override {
    return inner_.bound_groups();
  }
  tk::search::Config baseline() const override { return inner_.baseline(); }
  std::map<std::string, std::vector<double>> expert_variations() const override {
    return inner_.expert_variations();
  }
  std::string name() const override { return inner_.name(); }
  bool thread_safe() const override { return inner_.thread_safe(); }

  tk::search::RegionTimes evaluate_regions(const tk::search::Config& config) override {
    return logged(config, [&] { return inner_.evaluate_regions(config); });
  }
  tk::search::RegionTimes evaluate_regions_cancellable(
      const tk::search::Config& config, const tk::search::CancelFlag& cancel) override {
    return logged(config, [&] { return inner_.evaluate_regions_cancellable(config, cancel); });
  }

  std::vector<Eval> take_log() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(log_, {});
  }

 private:
  template <class Evaluate>
  tk::search::RegionTimes logged(const tk::search::Config& config, Evaluate&& evaluate) {
    auto span = tracer_->span("eval");
    const std::int64_t start = steady_ns();
    auto times = evaluate();
    const std::int64_t end = steady_ns();
    span.end();
    std::lock_guard<std::mutex> lock(mutex_);
    log_.push_back({start, end, config, times});
    return times;
  }

  tk::core::TunableApp& inner_;
  Tracer* tracer_ = nullptr;
  std::mutex mutex_;
  std::vector<Eval> log_;
};

struct CaseStudy {
  std::string name;
  std::unique_ptr<tk::core::TunableApp> app;
  std::unique_ptr<LoggedApp> logged;
  double default_total = 0.0;
  double cutoff = 0.10;
  std::size_t variations = 5;
};

/// Table VII: the plan both case studies must produce.
const std::map<std::string, std::size_t> kTable7 = {
    {"Iterations", 2}, {"MPI Grid", 3}, {"Group1", 3}, {"Group2+Group3", 10}};

/// What `tunekit_cli tune` passes when only --app and --seed are given.
tk::core::MethodologyOptions tune_options(const CaseStudy& c, std::uint64_t seed, bool toy,
                                          tk::obs::Telemetry* telemetry) {
  tk::core::MethodologyOptions opt;
  opt.cutoff = c.cutoff;
  opt.max_dims = 10;
  opt.sensitivity.n_variations = c.variations;
  opt.importance_samples = 0;
  opt.executor.evals_per_param = toy ? 3 : 10;
  opt.executor.min_evals = toy ? 6 : 20;
  opt.executor.bo.seed = seed;
  opt.seed = seed;
  tk::robust::MeasureOptions measure;
  measure.repeats = 1;
  measure.mad_threshold = 3.5;
  measure.watchdog.timeout_seconds = std::numeric_limits<double>::infinity();
  measure.watchdog.max_retries = 0;
  measure.watchdog.backoff_seconds = 0.0;
  opt.sensitivity.measure = measure;
  opt.executor.measure = measure;
  opt.telemetry = telemetry;
  return opt;
}

/// Builds both case studies, measures their default runtime, and runs one
/// toy-budget campaign on each so lazy state and caches are warm.
std::vector<CaseStudy> set_up(Tracer& tracer) {
  std::vector<CaseStudy> cases;
  for (const char* name : {"tddft:cs1", "tddft:cs2"}) {
    CaseStudy c;
    c.name = name;
    auto bundle = tk::core::make_builtin_app(name, 42);
    c.cutoff = bundle.default_cutoff;
    c.variations = bundle.default_variations;
    c.app = std::move(bundle.app);
    c.logged = std::make_unique<LoggedApp>(*c.app);
    c.logged->set_tracer(&tracer);
    c.default_total = c.app->evaluate_regions(c.app->baseline()).total;
    cases.push_back(std::move(c));
  }
  for (auto& c : cases) {
    tk::core::Methodology(tune_options(c, 1, /*toy=*/true, nullptr)).run(*c.logged);
    c.logged->take_log();
  }
  return cases;
}

struct CampaignRun {
  double ms = 0.0;
  double speedup = 0.0;
  std::size_t evals = 0;
  std::vector<double> decisions_ms;
};

/// Output checks on one campaign; returns its decision gaps through `run`.
void check_campaign(const CaseStudy& c, const tk::core::InfluenceAnalysis& analysis,
                    const tk::graph::SearchPlan& plan, const tk::core::ExecutionResult& exec,
                    const std::vector<LoggedApp::Eval>& log, Result& result,
                    CampaignRun& run) {
  const std::string where = c.name + ": ";
  std::map<std::string, std::size_t> searches;
  for (const auto& s : plan.searches) searches[s.name] = s.params.size();
  if (searches != kTable7) result.fail(where + "plan differs from Table VII");
  for (const auto& o : exec.outcomes) {
    if (!o.result.found() || o.result.method != "bo") {
      result.fail(where + "search " + o.planned.name + " found nothing by BO");
    }
  }
  if (!c.app->space().is_valid(exec.final_config)) result.fail(where + "invalid tuned config");
  const double tuned = exec.final_times.total;
  if (!std::isfinite(tuned) || tuned <= 0.0) {
    result.fail(where + "tuned runtime not finite");
    return;
  }
  run.speedup = c.default_total / tuned;
  if (run.speedup < 1.0) result.fail(where + "tuned config is slower than the default");
  run.evals = log.size();
  if (log.size() != analysis.observations + exec.total_evaluations) {
    result.fail(where + "evaluation log does not match the reported counts");
    return;
  }
  std::size_t offset = analysis.observations;
  for (const auto& o : exec.outcomes) {
    const std::size_t n = o.result.evaluations;
    for (std::size_t j = std::min(kInitDesign, n); j < n; ++j) {
      if (j == 0) continue;
      const auto& prev = log[offset + j - 1];
      const auto& next = log[offset + j];
      run.decisions_ms.push_back(static_cast<double>(next.start_ns - prev.end_ns) / 1e6);
    }
    offset += n;
  }
}

/// Replay the surrogate on the data of the campaign's widest BO search;
/// nothing when the evaluation log does not line up with the outcomes.
std::optional<GpProbe> probe_widest_search(const CaseStudy& c,
                                           const tk::core::InfluenceAnalysis& analysis,
                                           const tk::core::ExecutionResult& exec,
                                           const std::vector<LoggedApp::Eval>& log,
                                           std::uint64_t seed, Tracer& tracer) {
  std::size_t offset = analysis.observations, best_offset = 0, best = exec.outcomes.size();
  for (std::size_t i = 0; i < exec.outcomes.size(); ++i) {
    const auto& o = exec.outcomes[i];
    if (best == exec.outcomes.size() ||
        o.planned.params.size() > exec.outcomes[best].planned.params.size()) {
      best = i;
      best_offset = offset;
    }
    offset += o.result.evaluations;
  }
  if (best == exec.outcomes.size() || log.size() != offset + 1) return std::nullopt;
  const auto& widest = exec.outcomes[best];
  tk::search::FunctionObjective unused([](const tk::search::Config&) { return 0.0; });
  tk::search::SubspaceObjective sub(unused, c.app->space(), widest.planned.params,
                                    exec.final_config);
  const std::size_t n = widest.result.evaluations;
  const auto& params = widest.planned.params;
  tk::linalg::Matrix x(n, params.size());
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& e = log[best_offset + i];
    tk::search::Config sub_config(params.size());
    for (std::size_t k = 0; k < params.size(); ++k) sub_config[k] = e.config[params[k]];
    const auto unit = sub.space().encode_unit(sub_config);
    for (std::size_t k = 0; k < params.size(); ++k) x(i, k) = unit[k];
    if (widest.planned.objective_regions.empty()) {
      y[i] = e.times.total;
    } else {
      for (const auto& r : widest.planned.objective_regions) y[i] += e.times.region_or_total(r);
    }
  }
  auto replay = tracer.root("replay");
  return probe_gp(x, y, seed, tracer);
}

}  // namespace

void run_campaign(const Args& args, Tracer& tracer, Result& result) {
  Tracer off(false);
  std::vector<double> setup_s;
  std::vector<CaseStudy> cases;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_ms();
    cases = set_up(off);
    setup_s.push_back((now_ms() - t0) / 1e3);
  }

  const std::size_t seeds_per_round = args.toy ? 2 : kSeedsPerRound;
  auto round_seeds = [&](std::size_t round) {
    std::vector<std::uint64_t> seeds;
    for (std::size_t j = 0; j < seeds_per_round; ++j) {
      seeds.push_back(derive_seed(args.seed, round * seeds_per_round + j));
    }
    return seeds;
  };

  // One campaign as a blocking Methodology::run (untraced), or as its three
  // phases under spans with the library's telemetry on (traced).
  tk::obs::Telemetry telemetry;
  PerLayer layers;
  std::vector<double> analyze_ms, plan_ms, execute_ms, sensitivity_evals;
  auto campaign = [&](CaseStudy& c, std::uint64_t seed, bool traced) {
    CampaignRun run;
    result.attempt();
    try {
      c.logged->set_tracer(traced ? &tracer : &off);
      const auto opt = tune_options(c, seed, args.toy, traced ? &telemetry : nullptr);
      tk::core::Methodology m(opt);
      if (!traced) {
        const double t0 = now_ms();
        const auto res = m.run(*c.logged);
        run.ms = now_ms() - t0;
        check_campaign(c, res.analysis, res.plan, res.execution, c.logged->take_log(), result,
                       run);
        return run;
      }
      auto span = tracer.root("campaign");
      auto s1 = tracer.span("core.analyze");
      const auto analysis = m.analyze(*c.logged);
      s1.end();
      auto s2 = tracer.span("graph.plan");
      const auto plan = m.make_plan(*c.logged, analysis);
      s2.end();
      auto s3 = tracer.span("core.execute");
      tk::core::ExecutorOptions exec_opts = opt.executor;
      exec_opts.telemetry = &telemetry;
      const auto exec = tk::core::PlanExecutor(exec_opts).execute(*c.logged, plan);
      s3.end();
      span.end();
      run.ms = span.ms();
      analyze_ms.push_back(s1.ms());
      plan_ms.push_back(s2.ms());
      execute_ms.push_back(s3.ms());
      sensitivity_evals.push_back(static_cast<double>(analysis.observations));
      const auto log = c.logged->take_log();
      check_campaign(c, analysis, plan, exec, log, result, run);
      if (auto probe = probe_widest_search(c, analysis, exec, log, seed, tracer)) {
        layers.gp.push_back(*probe);
      }
    } catch (const std::exception& e) {
      result.fail(c.name + ": " + e.what());
    }
    return run;
  };

  std::vector<CampaignRun> runs;
  std::vector<double> first_round_speedups;
  // Traced run: every round-0 campaign gets an untraced twin on the same
  // seed, run alternately before and after it, for the tracing overhead.
  double twin_ms = 0.0, traced_ms = 0.0;
  std::size_t pair = 0;
  if (args.trace) telemetry.enable(1 << 16);
  const double start = now_ms();
  for (std::size_t round = 0;; ++round) {
    for (auto seed : round_seeds(round)) {
      for (auto& c : cases) {
        const bool twin = args.trace && round == 0;
        if (twin && pair % 2 == 0) twin_ms += campaign(c, seed, false).ms;
        runs.push_back(campaign(c, seed, args.trace));
        if (twin) traced_ms += runs.back().ms;
        if (twin && pair++ % 2 == 1) twin_ms += campaign(c, seed, false).ms;
        if (round == 0) first_round_speedups.push_back(runs.back().speedup);
      }
    }
    if (now_ms() - start >= args.seconds * 1e3) break;
  }
  const double rss_mb = peak_rss_mb();
  if (args.trace) layers.trace_overhead_pct = (traced_ms / twin_ms - 1.0) * 100.0;

  std::vector<double> campaign_s, decisions;
  std::size_t evals = 0;
  for (const auto& r : runs) {
    campaign_s.push_back(r.ms / 1e3);
    evals += r.evals;
    decisions.insert(decisions.end(), r.decisions_ms.begin(), r.decisions_ms.end());
  }
  double speedup = 0.0;
  try {
    speedup = geomean(first_round_speedups);
  } catch (const std::exception& e) {
    result.fail(std::string("tuned_speedup: ") + e.what());
  }

  auto& rec = result.record();
  rec["config"] = json::Value(json::Object{
      {"apps", json::Value(json::Array{json::Value("tddft:cs1"), json::Value("tddft:cs2")})},
      {"seeds_per_round", json::Value(seeds_per_round)},
      {"options", json::Value("tunekit_cli tune defaults")},
      {"evals_per_param", json::Value(args.toy ? 3 : 10)},
      {"min_evals", json::Value(args.toy ? 6 : 20)}});
  json::Array speedups;
  for (double s : first_round_speedups) speedups.emplace_back(s);
  rec["first_round_speedups"] = json::Value(std::move(speedups));
  rec["tuned_speedup"] = json::Value(speedup);
  rec["campaigns"] = json::Value(runs.size());
  rec["evaluations"] = json::Value(evals);

  if (args.trace) {
    layers.analyze_ms = mean(analyze_ms);
    layers.plan_ms = mean(plan_ms);
    layers.execute_ms = mean(execute_ms);
    layers.sensitivity_evals = mean(sensitivity_evals);
    const auto spans = tracer.layers();
    if (auto it = spans.find("eval"); it != spans.end() && it->second.calls > 0) {
      layers.eval_ms = it->second.total_ms / static_cast<double>(it->second.calls);
    }
    layers.read_bo_histograms(telemetry.metrics(), static_cast<double>(runs.size()));
    layers.emit(result);
    return;
  }
  double total_s = 0.0;
  for (double s : campaign_s) total_s += s;
  result.metric("setup_s", median(setup_s), "s");
  result.samples("setup_s", setup_s.size());
  result.metric("campaign_s", mean(campaign_s), "s");
  result.samples("campaign_s", campaign_s.size());
  result.percentile_metric("ask_p50_ms", decisions, 0.50);
  result.percentile_metric("ask_p90_ms", decisions, 0.90);
  result.metric("evals_per_s", total_s > 0.0 ? static_cast<double>(evals) / total_s : 0.0,
                "1/s");
  result.samples("evals_per_s", evals);
  result.metric("peak_rss_mb", rss_mb, "MB");
}

}  // namespace tkbench
