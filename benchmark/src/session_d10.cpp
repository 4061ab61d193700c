// session-d10: one client drives a journaled in-process TuningSession (Bo
// backend, default options) over the 10-dim Group3+Group4 subspace of
// synthetic Case 5 — the merged search the methodology produces for Case 5,
// with Groups 1 and 2 frozen at the app baseline.
//
// Set-up loads 100 Latin-hypercube observations through observe() (10 x d,
// the paper's budget for a 10-dim search). Then 25 cycles of ask(1) ->
// evaluate -> tell run on that same session, so N grows from 100 to 125 and
// consecutive asks share all but one training point. A round is 4 such
// sessions, each from its own seed stream: one session's data moves the
// hyperparameter search's cost by more than run-to-run noise, so the run
// pools several. Rounds repeat until the run's time is used; every run
// measures the same range of N whatever the speed of the code.

#include <cmath>
#include <filesystem>
#include <memory>
#include <set>

#include "bo/bayes_opt.hpp"
#include "core/app_registry.hpp"
#include "obs/telemetry.hpp"
#include "replay.hpp"
#include "search/samplers.hpp"
#include "service/session.hpp"
#include "workloads.hpp"

namespace tkbench {

namespace tk = tunekit;

namespace {

constexpr std::size_t kSessionsPerRound = 4;
constexpr std::size_t kAsksPerSession = 25;
constexpr std::size_t kProbeEvery = 10;
constexpr std::size_t kOverheadCycles = 20;  // traced run: paired with a twin
constexpr std::uint64_t kSuggestRngSalt = 0xba7c4;  // BayesOpt::suggest_batch

struct Problem {
  std::unique_ptr<tk::core::TunableApp> app;
  std::unique_ptr<tk::core::RegionSumObjective> total;
  std::unique_ptr<tk::search::SubspaceObjective> sub;
  double default_value = 0.0;

  const tk::search::SearchSpace& space() const { return sub->space(); }
};

Problem make_problem() {
  Problem p;
  p.app = tk::core::make_builtin_app("synth:case5", 42).app;
  p.total = std::make_unique<tk::core::RegionSumObjective>(*p.app, std::vector<std::string>{});
  std::vector<std::size_t> params;
  for (const auto& r : p.app->routines()) {
    if (r.name == "Group3" || r.name == "Group4") {
      params.insert(params.end(), r.params.begin(), r.params.end());
    }
  }
  const auto base = p.app->baseline();
  p.sub = std::make_unique<tk::search::SubspaceObjective>(*p.total, p.app->space(), params, base);
  p.default_value = p.total->evaluate(base);
  return p;
}

/// One client of one journaled session at a time.
class SessionClient {
 public:
  SessionClient(const Args& args, Problem& problem, Tracer& tracer, Result& result,
                const std::string& name)
      : args_(args),
        problem_(problem),
        tracer_(tracer),
        result_(result),
        observations_(args.toy ? 20 : 100),
        dir_(args.out_dir + "/session-d10-" + name) {}

  /// Fresh journaled session `index`, loaded with its observations.
  double set_up(std::size_t index, tk::obs::Telemetry* telemetry) {
    const double t0 = now_ms();
    session_.reset();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    options_ = tk::service::SessionOptions{};
    options_.max_evals = observations_ + kAsksPerSession;
    options_.seed = derive_seed(args_.seed, 2 * index);
    options_.telemetry = telemetry;
    session_ = std::make_unique<tk::service::TuningSession>(problem_.space(), options_,
                                                            journal());
    tk::Rng rng(derive_seed(args_.seed, 2 * index + 1));
    issued_.clear();
    cycle_index_ = 0;
    for (auto& config :
         tk::search::sample_valid_configs(problem_.space(), observations_, rng, true)) {
      const double value = problem_.sub->evaluate(config);
      issued_.insert(config);
      session_->observe(std::move(config), value);
    }
    return (now_ms() - t0) / 1e3;
  }

  /// One ask/evaluate/tell cycle; its ms, or a negative value when the
  /// session stopped issuing candidates. Every kProbeEvery-th cycle of a
  /// traced session replays the surrogate layers afterwards.
  double cycle(Tracer& tracer, PerLayer* layers) {
    auto cycle = tracer.root("cycle");
    const bool probe = layers != nullptr && cycle_index_++ % kProbeEvery == 0;
    std::vector<tk::search::Evaluation> seen;
    if (probe) seen = session_->evaluations();

    result_.attempt();
    auto ask = tracer.span("service.ask");
    const auto candidates = session_->ask(1);
    ask.end();
    ask_ms_.push_back(ask.ms());
    if (candidates.size() != 1) {
      result_.fail("ask returned " + std::to_string(candidates.size()) + " candidates");
      return -1.0;
    }
    const auto& c = candidates.front();
    if (!problem_.space().is_valid(c.config)) result_.fail("ask returned an invalid config");
    if (!issued_.insert(c.config).second) result_.fail("ask repeated an issued config");

    auto eval = tracer.span("eval");
    const double value = problem_.sub->evaluate(c.config);
    eval.end();

    result_.attempt();
    auto tell = tracer.span("service.tell");
    const bool told = session_->tell(c.id, value);
    tell.end();
    tell_ms_.push_back(tell.ms());
    if (!told) result_.fail("tell returned false");
    cycle.end();

    if (probe) replay(seen, ask.ms(), *layers);
    return cycle.ms();
  }

  /// Output checks at the end of a session: the journal resumes to the same
  /// completed count and best value. Returns the session's best value.
  double finish_session() {
    result_.attempt();
    const std::size_t completed = session_->completed();
    const auto best = session_->best();
    session_.reset();
    if (!best) {
      result_.fail("session holds no best value");
      return NAN;
    }
    auto options = options_;
    options.telemetry = nullptr;
    const auto resumed = tk::service::TuningSession::resume(problem_.space(), options, journal());
    const auto resumed_best = resumed->best();
    if (resumed->completed() != completed || !resumed_best ||
        resumed_best->value != best->value) {
      result_.fail("resume restored a different completed count or best value");
    }
    return best->value;
  }

  void clean_up() {
    session_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::size_t observations() const { return observations_; }
  const std::vector<double>& ask_ms() const { return ask_ms_; }
  const std::vector<double>& tell_ms() const { return tell_ms_; }

 private:
  std::string journal() const { return dir_ + "/session.journal.jsonl"; }

  /// The surrogate layers on the data this ask saw (no pending candidates
  /// in a closed loop, so the liar set is the session's evaluations).
  void replay(const std::vector<tk::search::Evaluation>& seen, double ask_ms,
              PerLayer& layers) {
    auto span = tracer_.span("replay");
    tk::search::EvalDb db;
    std::size_t n = 0;
    for (const auto& e : seen) {
      db.record(e.config, e.value, e.cost_seconds);
      if (std::isfinite(e.value)) ++n;
    }
    tk::bo::BoOptions bo = options_.bo;
    bo.seed = options_.seed;
    bo.telemetry = nullptr;
    auto suggest = tracer_.span("bo.suggest");
    tk::bo::BayesOpt(bo).suggest_batch(db, problem_.space(), 1);
    suggest.end();
    suggest_ms_.push_back(suggest.ms());
    ask_self_ms_.push_back(ask_ms - suggest.ms());

    tk::linalg::Matrix x(n, problem_.space().size());
    std::vector<double> y;
    for (const auto& e : seen) {
      if (!std::isfinite(e.value)) continue;
      const auto unit = problem_.space().encode_unit(e.config);
      for (std::size_t k = 0; k < unit.size(); ++k) x(y.size(), k) = unit[k];
      y.push_back(e.value);
    }
    layers.gp.push_back(probe_gp(x, y, options_.seed ^ kSuggestRngSalt, tracer_));
    layers.suggest_ms = mean(suggest_ms_);
    layers.ask_self_ms = mean(ask_self_ms_);
  }

  const Args& args_;
  Problem& problem_;
  Tracer& tracer_;
  Result& result_;
  std::size_t observations_;
  std::string dir_;
  tk::service::SessionOptions options_;
  std::unique_ptr<tk::service::TuningSession> session_;
  std::set<tk::search::Config> issued_;
  std::size_t cycle_index_ = 0;
  std::vector<double> ask_ms_, tell_ms_, suggest_ms_, ask_self_ms_;
};

}  // namespace

void run_session_d10(const Args& args, Tracer& tracer, Result& result) {
  Problem problem = make_problem();
  SessionClient client(args, problem, tracer, result, "journal");
  Tracer off(false);
  tk::obs::Telemetry telemetry;
  if (args.trace) telemetry.enable(1 << 16);
  tk::obs::Telemetry* tel = args.trace ? &telemetry : nullptr;

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) setup_s.push_back(client.set_up(0, nullptr));

  // Traced run: an untraced twin of session 0 runs its first cycles
  // alternately with session 0's, for the tracing overhead.
  PerLayer layers;
  PerLayer* probes = args.trace ? &layers : nullptr;
  std::unique_ptr<SessionClient> twin;
  if (args.trace) {
    client.set_up(0, tel);
    twin = std::make_unique<SessionClient>(args, problem, off, result, "twin");
    twin->set_up(0, nullptr);
  }
  double twin_ms = 0.0, traced_ms = 0.0;

  std::vector<double> session_ms, bests;
  std::size_t index = 0;
  const double start = now_ms();
  for (bool first = true; first || now_ms() - start < args.seconds * 1e3; first = false) {
    for (std::size_t s = 0; s < kSessionsPerRound; ++s, ++index) {
      if (index > 0) setup_s.push_back(client.set_up(index, tel));
      double total_ms = 0.0;
      for (std::size_t i = 0; i < kAsksPerSession; ++i) {
        const bool paired = twin && index == 0 && i < kOverheadCycles;
        if (paired && i % 2 == 0) twin_ms += twin->cycle(off, nullptr);
        const double ms = client.cycle(tracer, probes);
        if (ms < 0.0) break;
        total_ms += ms;
        if (paired) traced_ms += ms;
        if (paired && i % 2 == 1) twin_ms += twin->cycle(off, nullptr);
      }
      session_ms.push_back(total_ms);
      bests.push_back(client.finish_session());
    }
  }
  const double rss_mb = peak_rss_mb();
  if (twin) {
    layers.trace_overhead_pct = (traced_ms / twin_ms - 1.0) * 100.0;
    twin->clean_up();
  }
  client.clean_up();

  const double session_best = bests.front();
  auto& rec = result.record();
  rec["config"] = json::Value(json::Object{
      {"app", json::Value("synth:case5")},
      {"subspace", json::Value("Group3+Group4")},
      {"dims", json::Value(problem.space().size())},
      {"observations", json::Value(client.observations())},
      {"asks_per_session", json::Value(kAsksPerSession)},
      {"sessions_per_round", json::Value(kSessionsPerRound)},
      {"backend", json::Value("bo")},
      {"journaled", json::Value(true)}});
  rec["sessions"] = json::Value(session_ms.size());
  rec["session_best"] = json::Value(session_best);
  rec["default_value"] = json::Value(problem.default_value);

  if (args.trace) {
    const auto spans = tracer.layers();
    if (auto it = spans.find("eval"); it != spans.end() && it->second.calls > 0) {
      layers.eval_ms = it->second.total_ms / static_cast<double>(it->second.calls);
    }
    layers.read_bo_histograms(telemetry.metrics(), static_cast<double>(session_ms.size()));
    layers.emit(result);
    return;
  }
  double total_ms = 0.0;
  for (double ms : session_ms) total_ms += ms;
  const auto& tells = client.tell_ms();
  json::Object extra;
  if (auto p = percentile(tells, 0.5)) extra["tell_p50_ms"] = json::Value(*p);
  if (auto p = percentile(tells, 0.9)) extra["tell_p90_ms"] = json::Value(*p);
  extra["tell_samples"] = json::Value(tells.size());
  rec["extra"] = json::Value(std::move(extra));

  result.metric("setup_s", median(setup_s), "s");
  result.samples("setup_s", setup_s.size());
  std::vector<double> session_s;
  for (double ms : session_ms) session_s.push_back(ms / 1e3);
  result.metric("campaign_s", mean(session_s), "s");
  result.samples("campaign_s", session_s.size());
  result.percentile_metric("ask_p50_ms", client.ask_ms(), 0.50);
  result.percentile_metric("ask_p90_ms", client.ask_ms(), 0.90);
  const std::size_t cycles = client.ask_ms().size();
  result.metric("evals_per_s",
                total_ms > 0.0 ? static_cast<double>(cycles) / (total_ms / 1e3) : 0.0, "1/s");
  result.samples("evals_per_s", cycles);
  result.metric("peak_rss_mb", rss_mb, "MB");
}

}  // namespace tkbench
