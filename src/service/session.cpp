#include "service/session.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/log.hpp"
#include "obs/telemetry.hpp"
#include "search/samplers.hpp"

namespace tunekit::service {

const char* to_string(SessionBackend backend) {
  switch (backend) {
    case SessionBackend::Bo: return "bo";
    case SessionBackend::Random: return "random";
    case SessionBackend::Grid: return "grid";
  }
  return "?";
}

SessionBackend backend_from_string(const std::string& name) {
  if (name == "bo") return SessionBackend::Bo;
  if (name == "random") return SessionBackend::Random;
  if (name == "grid") return SessionBackend::Grid;
  throw std::invalid_argument("unknown session backend '" + name +
                              "' (expected bo, random, or grid)");
}

const char* to_string(SessionState state) {
  switch (state) {
    case SessionState::Active: return "active";
    case SessionState::Exhausted: return "exhausted";
    case SessionState::Closed: return "closed";
  }
  return "?";
}

json::Value SessionMetrics::to_json() const {
  json::Object snap;
  snap["tells"] = json::Value(tells);
  snap["fails"] = json::Value(fails);
  snap["drops"] = json::Value(drops);
  snap["cost_seconds"] = json::Value(cost_seconds);
  snap["eval_duration_ms"] = json::Value(eval_duration_ms);
  snap["wall_seconds"] = json::Value(wall_seconds);
  if (!failure_outcomes.empty()) {
    json::Object outcomes;
    for (const auto& [why, n] : failure_outcomes) outcomes[why] = json::Value(n);
    snap["outcomes"] = json::Value(std::move(outcomes));
  }
  return json::Value(std::move(snap));
}

SessionMetrics SessionMetrics::from_json(const json::Value& snapshot) {
  SessionMetrics m;
  if (!snapshot.is_object()) return m;
  m.tells = static_cast<std::size_t>(snapshot.number_or("tells", 0.0));
  m.fails = static_cast<std::size_t>(snapshot.number_or("fails", 0.0));
  m.drops = static_cast<std::size_t>(snapshot.number_or("drops", 0.0));
  m.cost_seconds = snapshot.number_or("cost_seconds", 0.0);
  m.eval_duration_ms = snapshot.number_or("eval_duration_ms", 0.0);
  m.wall_seconds = snapshot.number_or("wall_seconds", 0.0);
  if (snapshot.contains("outcomes")) {
    for (const auto& [why, n] : snapshot.at("outcomes").as_object()) {
      m.failure_outcomes[why] = static_cast<std::size_t>(n.as_number());
    }
  }
  return m;
}

json::Value TuningSession::HeldGp::to_json() const {
  json::Array ls;
  for (double l : hp.lengthscales) ls.emplace_back(l);
  json::Object snap;
  snap["sv"] = json::Value(hp.signal_variance);
  snap["nv"] = json::Value(hp.noise_variance);
  snap["ls"] = json::Value(std::move(ls));
  snap["at"] = json::Value(at);
  return json::Value(std::move(snap));
}

std::optional<TuningSession::HeldGp> TuningSession::HeldGp::from_json(
    const json::Value& snapshot, std::size_t dim) {
  const auto usable = [](double v) { return std::isfinite(v) && v > 0.0; };
  HeldGp held;
  try {
    held.hp.signal_variance = snapshot.at("sv").as_number();
    held.hp.noise_variance = snapshot.at("nv").as_number();
    for (const auto& l : snapshot.at("ls").as_array()) {
      held.hp.lengthscales.push_back(l.as_number());
    }
    held.at = static_cast<std::size_t>(snapshot.at("at").as_number());
  } catch (const json::JsonError&) {
    return std::nullopt;
  }
  const auto& ls = held.hp.lengthscales;
  if (ls.size() != dim || !usable(held.hp.signal_variance) ||
      !usable(held.hp.noise_variance) || !std::all_of(ls.begin(), ls.end(), usable)) {
    return std::nullopt;
  }
  return held;
}

namespace {

bo::BoOptions surrogate_options(const SessionOptions& o) {
  bo::BoOptions b = o.bo;
  b.seed = o.seed;
  b.max_evals = o.max_evals;
  b.n_init = o.n_init;
  b.failure_penalty = o.failure_penalty;
  if (b.telemetry == nullptr) b.telemetry = o.telemetry;
  return b;
}

/// Deterministic per-candidate fallback sample: the same (seed, id) pair
/// always yields the same configuration, regardless of how asks and tells
/// interleaved before it — the property the resume determinism relies on.
search::Config random_candidate(const search::SearchSpace& space, std::uint64_t seed,
                                std::uint64_t id) {
  tunekit::Rng rng(seed ^ (0x7f4a7c15ull + id * 0x9e3779b97f4a7c15ull));
  return space.sample_valid(rng);
}

}  // namespace

TuningSession::TuningSession(const search::SearchSpace& space, SessionOptions options,
                             std::unique_ptr<SessionStore> store)
    : space_(space),
      options_(std::move(options)),
      store_(std::move(store)),
      quarantine_(options_.quarantine_after),
      bo_(surrogate_options(options_)),
      replay_(options_.replay_cache_capacity) {
  if (store_) {
    store_->set_telemetry(options_.telemetry);
    if (options_.event_hook) store_->set_event_hook(options_.event_hook);
  }
  if (options_.backend == SessionBackend::Bo && options_.n_init > 0) {
    const std::size_t n = std::min(options_.n_init, options_.max_evals);
    tunekit::Rng rng(options_.seed);
    init_design_ = bo::initial_design(space_, options_.bo.init_design, n, options_.seed, rng);
  }
  if (options_.backend == SessionBackend::Grid) {
    grid_ = search::grid_configs(space_, options_.grid_real_levels);
    if (options_.max_evals > 0 && grid_.size() > options_.max_evals) {
      // Deterministic stride subsample: the budget covers the grid evenly.
      std::vector<search::Config> kept;
      kept.reserve(options_.max_evals);
      const double step =
          static_cast<double>(grid_.size()) / static_cast<double>(options_.max_evals);
      for (std::size_t i = 0; i < options_.max_evals; ++i) {
        kept.push_back(grid_[static_cast<std::size_t>(static_cast<double>(i) * step)]);
      }
      grid_ = std::move(kept);
    }
  }
  if (options_.structure_online && space_.size() >= 2) {
    structure::OnlineLearnerOptions so;
    so.cadence = std::max<std::size_t>(1, options_.structure_cadence);
    so.min_observations = std::max(so.cadence, 2 * space_.size());
    so.affinity_threshold = options_.structure_threshold;
    so.policy.evidence_threshold = options_.structure_evidence;
    so.policy.hysteresis = options_.structure_hysteresis;
    so.policy.cooldown = options_.structure_cooldown;
    so.affinity.forest.seed = options_.seed ^ 0xa5a5a5a5ull;
    // Initial cut: every parameter independent — the least-committed prior;
    // the learner merges parameters as interaction evidence accumulates.
    structure_ = std::make_unique<structure::OnlineLearner>(
        space_.size(), structure::Partition{}, so);
  }
}

TuningSession::TuningSession(const search::SearchSpace& space, SessionOptions options,
                             const std::string& journal_path)
    : TuningSession(space, std::move(options), std::unique_ptr<SessionStore>()) {
  if (!journal_path.empty()) {
    store_ = SessionStore::create(journal_path, make_header(),
                                  {options_.io, options_.rotate_bytes});
    store_->set_telemetry(options_.telemetry);
    if (options_.event_hook) store_->set_event_hook(options_.event_hook);
    // Journal the initial cut immediately so `report` can show the partition
    // history even for a session killed before its first refit.
    if (structure_) store_->structure(structure_->snapshot());
  }
}

std::unique_ptr<TuningSession> TuningSession::resume(const search::SearchSpace& space,
                                                     SessionOptions options,
                                                     const std::string& journal_path) {
  // Repairing replay: a torn tail is truncated, corrupt segments are
  // quarantined to corrupt/ and rewritten with their salvageable records, so
  // the appends below never land after damage.
  auto replayed = SessionStore::replay(journal_path, space,
                                       {/*repair=*/true, options.telemetry});
  if (replayed.header.max_evals != options.max_evals) {
    log_warn("session: resuming '", journal_path, "' with max_evals=", options.max_evals,
             " (journal was created with ", replayed.header.max_evals, ")");
  }
  const SessionStore::Options store_options{options.io, options.rotate_bytes};
  auto session = std::unique_ptr<TuningSession>(new TuningSession(
      space, std::move(options), SessionStore::append(journal_path, store_options)));
  for (const auto& e : replayed.completed) session->db_.record(e);
  for (auto& c : replayed.in_flight) session->reissue_.push_back(std::move(c));
  // Session metrics continue from the journaled snapshot: the counters are
  // cumulative across kill + resume, like the evaluations they describe.
  if (!replayed.metrics.is_null()) {
    session->metrics_ = SessionMetrics::from_json(replayed.metrics);
    session->wall_base_seconds_ = session->metrics_.wall_seconds;
  }
  // Quarantine knowledge survives the crash: a configuration that earned its
  // "quar" record is refused immediately, not re-learned two crashes at a
  // time.
  for (const auto& q : replayed.quarantined) session->quarantine_.quarantine_now(q);
  // Replay-cache entries return oldest-first, so re-inserting in order
  // reproduces the live cache's eviction order exactly.
  for (auto& [key, resp] : replayed.rpc_cache) {
    session->replay_.put(key, std::move(resp));
  }
  session->next_id_ = std::max(session->next_id_, replayed.next_id);
  // The held GP hyperparameters come back as journaled, so the next
  // surrogate ask refits or searches exactly as the killed session's would
  // have. Without a usable gp record (legacy journal, no search yet) none
  // are held, and the first surrogate ask searches; with hyperopt_every 0
  // none are held either, so the GP keeps the isotropic defaults.
  if (session->options_.bo.hyperopt_every > 0 && !replayed.gp.is_null()) {
    session->gp_ = HeldGp::from_json(replayed.gp, space.size());
    if (!session->gp_) {
      log_warn("session: ignoring unusable gp record in '", journal_path, "'");
    }
  }
  if (session->structure_) {
    // Restore the learned structure exactly: the journaled snapshot carries
    // the affinity matrix, active partition, policy state, and adoption
    // history; the observation archive is rebuilt from the replayed
    // evaluations (the snapshot covers the first `observations()` finite
    // ones), and any evaluations told after the last snapshot are re-fed so
    // the learner ends up byte-for-byte where the killed session was.
    // Legacy journals without a struct record take the re-feed path from
    // zero — migration-safe, just a fresh learner over the same data.
    if (!replayed.structure.is_null()) {
      session->structure_->restore(replayed.structure);
    }
    const std::size_t seen = session->structure_->observations();
    const std::vector<search::Evaluation> all = session->db_.all();
    std::vector<std::vector<double>> units;
    std::vector<double> values;
    std::vector<const search::Evaluation*> tail;
    for (const auto& e : all) {
      if (!std::isfinite(e.value)) continue;
      if (units.size() < seen) {
        units.push_back(space.encode_unit(e.config));
        values.push_back(e.value);
      } else {
        tail.push_back(&e);
      }
    }
    session->structure_->seed_archive(units, values);
    for (const auto* e : tail) session->feed_structure_locked(e->config, e->value);
    if (replayed.structure.is_null() && session->store_) {
      session->store_->structure(session->structure_->snapshot());
    }
  }
  if (replayed.salvage.lost_records > 0 || replayed.salvage.corrupt_segments > 0) {
    // Resume provenance: the journal now explicitly records that this
    // incarnation continued from a salvaged store, and what the repair cost.
    session->store_->salvage_marker(replayed.salvage.lost_records,
                                    replayed.salvage.corrupt_segments);
    log_warn("session: resumed '", journal_path, "' after salvage: ",
             replayed.salvage.lost_records, " record(s) lost across ",
             replayed.salvage.corrupt_segments, " corrupt file(s)");
  }
  log_info("session: resumed ", session->db_.size(), " evaluations, ",
           session->reissue_.size(), " in-flight candidates, and ",
           replayed.quarantined.size(), " quarantined configs from ", journal_path);
  return session;
}

JournalHeader TuningSession::make_header() const {
  JournalHeader h;
  h.space_size = space_.size();
  h.max_evals = options_.max_evals;
  h.seed = options_.seed;
  h.backend = to_string(options_.backend);
  h.next_id = next_id_;
  return h;
}

std::vector<Candidate> TuningSession::ask(std::size_t k) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Candidate> out;
  if (closed_ || k == 0 || db_.size() >= options_.max_evals) return out;
  expire_overdue_locked();

  const auto now = std::chrono::steady_clock::now();

  // Re-issues drain first — and exclusively, so a resumed or retrying
  // session completes its in-flight work before new suggestions (which
  // would otherwise be conditioned on an incomplete evaluation set). A
  // queued candidate whose config has since been quarantined (e.g. restored
  // by resume) is dropped here instead of re-issued: it is still open in the
  // journal from its original ask, so the drop resolves it on replay.
  while (out.size() < k && !reissue_.empty()) {
    Candidate c = std::move(reissue_.front());
    reissue_.pop_front();
    if (quarantine_.quarantined(c.config)) {
      log_warn("session: candidate ", c.id, " is quarantined; dropping");
      if (store_) store_->drop(c.id, options_.failure_penalty,
                               robust::EvalOutcome::Crashed);
      ++metrics_.drops;
      record_locked(c.config, options_.failure_penalty, 0.0,
                    robust::EvalOutcome::Crashed);
      continue;
    }
    if (store_) store_->ask(c);
    pending_[c.id] = {c, now};
    out.push_back(std::move(c));
  }
  // Dropping quarantined re-issues consumes budget; recheck before
  // generating fresh suggestions (and never mix the two in one batch).
  if (!out.empty() || db_.size() >= options_.max_evals) return out;

  const std::size_t n_new = std::min(k, issuable_locked());
  if (n_new == 0) return out;
  auto configs = generate_locked(n_new);
  for (auto& cfg : configs) {
    Candidate c{next_id_++, 0, std::move(cfg)};
    if (quarantine_.quarantined(c.config)) {
      // A backend is free to re-suggest a quarantined point (discrete spaces
      // make collisions likely); record the refusal without dispatching.
      // Ask-then-drop keeps the journal replayable: drop resolves only an
      // open candidate.
      log_warn("session: suggestion ", c.id, " is quarantined; dropping");
      if (store_) {
        store_->ask(c);
        store_->drop(c.id, options_.failure_penalty, robust::EvalOutcome::Crashed);
      }
      ++metrics_.drops;
      record_locked(c.config, options_.failure_penalty, 0.0,
                    robust::EvalOutcome::Crashed);
      continue;
    }
    if (store_) store_->ask(c);
    pending_[c.id] = {c, now};
    out.push_back(std::move(c));
  }
  return out;
}

bool TuningSession::tell(std::uint64_t id, double value, double cost_seconds,
                         double dispersion, double duration_ms, int worker_slot,
                         const std::string& worker_node) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = pending_.find(id);
  if (it == pending_.end()) return false;
  if (store_) {
    store_->tell(id, value, cost_seconds, dispersion, duration_ms, worker_slot,
                 worker_node);
  }
  ++metrics_.tells;
  metrics_.cost_seconds += cost_seconds;
  metrics_.eval_duration_ms += duration_ms;
  // Erase before recording: record_locked may compact the journal, and a
  // compaction snapshot must not list this candidate as still in flight.
  const search::Config config = std::move(it->second.candidate.config);
  pending_.erase(it);
  record_locked(config, value, cost_seconds, robust::classify_value(value), dispersion,
                duration_ms, worker_slot);
  return true;
}

bool TuningSession::tell_failure(std::uint64_t id, robust::EvalOutcome why,
                                 const std::string& worker_node) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = pending_.find(id);
  if (it == pending_.end()) return false;
  Candidate c = std::move(it->second.candidate);
  pending_.erase(it);
  fail_attempt_locked(std::move(c), why, worker_node);
  return true;
}

void TuningSession::observe(search::Config config, double value, double cost_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  Candidate c{next_id_++, 0, std::move(config)};
  if (store_) {
    store_->ask(c);
    store_->tell(c.id, value, cost_seconds);
  }
  record_locked(c.config, value, cost_seconds, robust::classify_value(value));
}

void TuningSession::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  const bool flush = !closed_;
  closed_ = true;
  if (flush && store_) store_->metrics(metrics_snapshot_locked());
}

SessionMetrics TuningSession::metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SessionMetrics m = metrics_;
  m.wall_seconds = wall_base_seconds_ + watch_.seconds();
  return m;
}

void TuningSession::flush_metrics() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (store_) store_->metrics(metrics_snapshot_locked());
}

std::optional<std::string> TuningSession::replayed_rpc(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string* hit = replay_.find(key);
  if (hit == nullptr) return std::nullopt;
  return *hit;
}

void TuningSession::remember_rpc(const std::string& key, const std::string& response) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Journal before caching: a response the client might see on retry must
  // already be durable, or a kill between the two would let a post-restart
  // retry re-execute an operation whose first execution *was* journaled.
  if (store_) store_->rpc(key, response);
  replay_.put(key, response);
}

json::Value TuningSession::metrics_snapshot_locked() const {
  SessionMetrics m = metrics_;
  m.wall_seconds = wall_base_seconds_ + watch_.seconds();
  return m.to_json();
}

void TuningSession::expire_overdue_locked() {
  if (!std::isfinite(options_.deadline_seconds)) return;
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> overdue;
  for (const auto& [id, p] : pending_) {
    const double age = std::chrono::duration<double>(now - p.issued_at).count();
    if (age > options_.deadline_seconds) overdue.push_back(id);
  }
  for (std::uint64_t id : overdue) {
    auto it = pending_.find(id);
    Candidate c = std::move(it->second.candidate);
    pending_.erase(it);
    log_warn("session: candidate ", id, " missed its ", options_.deadline_seconds,
             "s deadline (attempt ", c.attempt + 1, "/", options_.max_attempts, ")");
    fail_attempt_locked(std::move(c), robust::EvalOutcome::TimedOut);
  }
}

void TuningSession::fail_attempt_locked(Candidate candidate, robust::EvalOutcome why,
                                        const std::string& worker_node) {
  if (store_) store_->fail(candidate.id, why, worker_node);
  ++metrics_.fails;
  ++metrics_.failure_outcomes[robust::to_string(why)];
  // Crash quarantine: a configuration that keeps killing its evaluator is
  // withdrawn from circulation even if the retry budget would allow another
  // attempt — retries are for transient failures, and a second crash of the
  // *same* config is evidence the crash is deterministic. The "quar" journal
  // record (written exactly once, at the threshold) makes the ban survive
  // kill + resume.
  if (why == robust::EvalOutcome::Crashed && quarantine_.enabled()) {
    const std::size_t crashes = quarantine_.record_crash(candidate.config);
    if (crashes == quarantine_.threshold()) {
      log_warn("session: configuration of candidate ", candidate.id,
               " quarantined after ", crashes, " crashes");
      if (store_) store_->quarantine(candidate.config);
    }
  }
  const bool banned = quarantine_.quarantined(candidate.config);
  if (!banned && candidate.attempt + 1 < options_.max_attempts) {
    ++candidate.attempt;
    reissue_.push_back(std::move(candidate));
  } else {
    if (store_) store_->drop(candidate.id, options_.failure_penalty, why);
    ++metrics_.drops;
    record_locked(candidate.config, options_.failure_penalty, 0.0, why);
  }
}

void TuningSession::record_locked(const search::Config& config, double value,
                                  double cost_seconds, robust::EvalOutcome outcome,
                                  double dispersion, double duration_ms,
                                  int worker_slot) {
  search::Evaluation e;
  e.config = config;
  e.value = value;
  e.cost_seconds = cost_seconds;
  e.outcome = outcome;
  e.dispersion = dispersion;
  e.duration_ms = duration_ms;
  e.worker_slot = worker_slot;
  db_.record(std::move(e));
  feed_structure_locked(config, value);
  ++completed_since_compact_;
  maybe_compact_locked();
  // A session that just consumed its budget journals its final counters, so
  // a report over the journal alone sees the complete picture.
  if (store_ && db_.size() == options_.max_evals) {
    store_->metrics(metrics_snapshot_locked());
  }
}

void TuningSession::maybe_compact_locked() {
  if (!store_ || options_.compact_every == 0 ||
      completed_since_compact_ < options_.compact_every) {
    return;
  }
  completed_since_compact_ = 0;
  std::vector<Candidate> in_flight;
  in_flight.reserve(pending_.size() + reissue_.size());
  for (const auto& [id, p] : pending_) in_flight.push_back(p.candidate);
  for (const auto& c : reissue_) in_flight.push_back(c);
  store_->compact(make_header(), db_.all(), in_flight, quarantine_.configs(),
                  metrics_snapshot_locked(), replay_.entries(),
                  structure_snapshot_locked(), gp_ ? gp_->to_json() : json::Value());
}

json::Value TuningSession::structure_snapshot_locked() const {
  return structure_ ? structure_->snapshot() : json::Value();
}

json::Value TuningSession::structure_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return structure_snapshot_locked();
}

void TuningSession::feed_structure_locked(const search::Config& config, double value) {
  if (!structure_ || !std::isfinite(value)) return;
  obs::Telemetry* telemetry = options_.telemetry;
  std::optional<obs::ScopedSpan> span;
  if (telemetry != nullptr && structure_->refit_due()) {
    span.emplace(telemetry, "structure.refit");
  }
  const structure::StructureEvent event =
      structure_->observe(space_.encode_unit(config), value);
  span.reset();
  if (!event.refit) return;
  // Durability before visibility, like metrics: the snapshot is journaled the
  // moment it changes, so a kill right after the refit loses nothing.
  if (store_) store_->structure(structure_->snapshot());
  if (event.repartitioned) {
    log_info("session: repartitioned into ", structure_->active_partition().size(),
             " blocks at eval ", structure_->observations(), " (evidence ",
             event.evidence, ")");
  }
  if (telemetry != nullptr) {
    auto& m = telemetry->metrics();
    m.counter(obs::metric::kStructureRefits).inc();
    if (event.repartitioned) m.counter(obs::metric::kStructureRepartitions).inc();
    m.histogram(obs::metric::kStructureRefitSeconds, obs::default_time_buckets())
        .observe(event.refit_seconds);
    m.gauge(obs::metric::kStructureBlocks)
        .set(static_cast<double>(structure_->active_partition().size()));
    m.gauge(obs::metric::kStructureLargestBlock)
        .set(static_cast<double>(structure_->largest_block()));
    m.gauge(obs::metric::kStructureEvalsSinceRepartition)
        .set(static_cast<double>(structure_->evals_since_repartition()));
  }
}

std::size_t TuningSession::issuable_locked() const {
  const std::size_t claimed = db_.size() + pending_.size() + reissue_.size();
  std::size_t left = options_.max_evals > claimed ? options_.max_evals - claimed : 0;
  if (options_.backend == SessionBackend::Grid) {
    const std::size_t supply = next_id_ < grid_.size() ? grid_.size() - next_id_ : 0;
    left = std::min(left, supply);
  }
  return left;
}

bool TuningSession::hyperopt_due_locked() const {
  const std::size_t every = options_.bo.hyperopt_every;
  return every > 0 && (!gp_ || db_.size() >= gp_->at + every);
}

std::vector<search::Config> TuningSession::generate_locked(std::size_t n) {
  std::vector<search::Config> out;
  out.reserve(n);
  switch (options_.backend) {
    case SessionBackend::Grid:
      for (std::size_t i = 0; i < n && next_id_ + i < grid_.size(); ++i) {
        out.push_back(grid_[next_id_ + i]);
      }
      return out;
    case SessionBackend::Random:
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(random_candidate(space_, options_.seed, next_id_ + i));
      }
      return out;
    case SessionBackend::Bo:
      break;
  }

  // Bo: serve the initial design first.
  while (out.size() < n && next_id_ + out.size() < init_design_.size()) {
    out.push_back(init_design_[next_id_ + out.size()]);
  }
  if (out.size() == n) return out;
  const std::size_t want = n - out.size();

  // Constant-liar batch: every unresolved candidate — pending, queued, and
  // the ones generated above — enters the surrogate at the incumbent best,
  // so repeated asks without tells still explore distinct regions.
  const auto evals = db_.all();
  double incumbent = std::numeric_limits<double>::infinity();
  for (const auto& e : evals) {
    if (std::isfinite(e.value) && e.value < incumbent) incumbent = e.value;
  }
  if (std::isfinite(incumbent)) {
    search::EvalDb liar_db;
    for (const auto& e : evals) liar_db.record(e.config, e.value, e.cost_seconds);
    for (const auto& [id, p] : pending_) liar_db.record(p.candidate.config, incumbent);
    for (const auto& c : reissue_) liar_db.record(c.config, incumbent);
    for (const auto& cfg : out) liar_db.record(cfg, incumbent);
    std::optional<bo::BayesOpt::Batch> batch;
    try {
      batch = bo_.suggest_batch(liar_db, space_, want,
                                gp_ ? std::optional(gp_->hp) : std::nullopt,
                                hyperopt_due_locked());
    } catch (const std::exception& e) {
      log_warn("session: suggest_batch failed (", e.what(), "); random fill");
    }
    if (batch) {
      if (batch->searched) {
        // Journaled before the asks it shaped: a kill in between resumes
        // holding these values, and the regenerated ask — a plain refit
        // with them — proposes what this one does.
        gp_ = HeldGp{std::move(*batch->searched), db_.size()};
        if (store_) store_->gp(gp_->to_json());
      }
      for (auto& cfg : batch->configs) out.push_back(std::move(cfg));
      return out;
    }
  }
  // No usable surrogate yet (everything failed so far, or it broke down):
  // deterministic per-id random exploration.
  while (out.size() < n) {
    out.push_back(random_candidate(space_, options_.seed, next_id_ + out.size()));
  }
  return out;
}

SessionStatus TuningSession::status_locked() const {
  SessionStatus s;
  s.completed = db_.size();
  s.outstanding = pending_.size();
  s.queued = reissue_.size();
  s.remaining = issuable_locked();
  s.best = db_.best();
  if (closed_) {
    s.state = SessionState::Closed;
  } else if (s.completed >= options_.max_evals ||
             (s.remaining == 0 && s.outstanding == 0 && s.queued == 0)) {
    s.state = SessionState::Exhausted;
  } else {
    s.state = SessionState::Active;
  }
  return s;
}

SessionStatus TuningSession::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return status_locked();
}

SessionState TuningSession::state() const { return status().state; }

std::size_t TuningSession::completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return db_.size();
}

std::size_t TuningSession::outstanding() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

std::optional<search::Evaluation> TuningSession::best() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return db_.best();
}

std::vector<search::Evaluation> TuningSession::evaluations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return db_.all();
}

search::SearchResult TuningSession::to_result() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return search::make_result(std::string("session-") + to_string(options_.backend), db_.all(),
                             watch_.seconds());
}

}  // namespace tunekit::service
