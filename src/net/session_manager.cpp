#include "net/session_manager.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <limits>
#include <vector>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "core/app_registry.hpp"
#include "obs/telemetry.hpp"
#include "robust/outcome.hpp"
#include "search/config.hpp"
#include "service/scheduler.hpp"
#include "service/space_codec.hpp"

namespace tunekit::net {

namespace {

bool valid_session_id(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  return std::all_of(id.begin(), id.end(), [](unsigned char c) {
    return std::isalnum(c) != 0 || c == '-' || c == '_';
  });
}

json::Value named_config(const search::SearchSpace& space,
                         const search::Config& config) {
  json::Object obj;
  for (const auto& [name, value] : search::to_named(space, config)) {
    obj[name] = json::Value(value);
  }
  return json::Value(std::move(obj));
}

service::SessionOptions options_from_spec(const json::Value& spec,
                                          obs::Telemetry* telemetry) {
  service::SessionOptions o;
  o.max_evals = static_cast<std::size_t>(spec.number_or("max_evals", 100.0));
  o.n_init = static_cast<std::size_t>(spec.number_or("n_init", 5.0));
  o.seed = static_cast<std::uint64_t>(spec.number_or("seed", 1.0));
  o.deadline_seconds =
      spec.number_or("deadline_seconds", std::numeric_limits<double>::infinity());
  o.max_attempts = static_cast<std::size_t>(spec.number_or("max_attempts", 3.0));
  o.quarantine_after =
      static_cast<std::size_t>(spec.number_or("quarantine_after", 0.0));
  o.grid_real_levels =
      static_cast<std::size_t>(spec.number_or("grid_real_levels", 4.0));
  o.compact_every =
      static_cast<std::size_t>(spec.number_or("compact_every", 64.0));
  o.replay_cache_capacity =
      static_cast<std::size_t>(spec.number_or("replay_cache_capacity", 128.0));
  if (spec.contains("structure_online")) {
    o.structure_online = spec.at("structure_online").as_bool();
  }
  o.structure_cadence = static_cast<std::size_t>(
      spec.number_or("structure_cadence", static_cast<double>(o.structure_cadence)));
  o.structure_threshold =
      spec.number_or("structure_threshold", o.structure_threshold);
  o.structure_evidence = spec.number_or("structure_evidence", o.structure_evidence);
  o.structure_hysteresis = static_cast<std::size_t>(spec.number_or(
      "structure_hysteresis", static_cast<double>(o.structure_hysteresis)));
  o.structure_cooldown = static_cast<std::size_t>(spec.number_or(
      "structure_cooldown", static_cast<double>(o.structure_cooldown)));
  if (spec.contains("backend")) {
    o.backend = service::backend_from_string(spec.at("backend").as_string());
  }
  if (o.max_evals == 0) throw ApiError(422, "max_evals must be positive");
  o.telemetry = telemetry;
  return o;
}

/// Retry-After advertised on storage-degraded 503s: long enough for an
/// operator (or the self-healing resume) to act, short enough that a healthy
/// retry loop picks the session back up promptly.
constexpr int kStorageRetryAfterSeconds = 5;

void put_status(json::Object& obj, const service::TuningSession& session,
                bool with_best_config) {
  const auto status = session.status();
  obj["state"] = json::Value(to_string(status.state));
  obj["completed"] = json::Value(status.completed);
  obj["outstanding"] = json::Value(status.outstanding);
  obj["queued"] = json::Value(status.queued);
  obj["remaining"] = json::Value(status.remaining);
  if (status.best) {
    obj["best_value"] = json::Value(status.best->value);
    if (with_best_config) {
      obj["best_config"] = named_config(session.space(), status.best->config);
    }
  }
}

}  // namespace

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(std::move(options)) {
  const std::size_t n = std::min<std::size_t>(
      256, std::max<std::size_t>(1, options_.shards));
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  if (!options_.journal_dir.empty()) {
    if (shards_.size() == 1) {
      std::filesystem::create_directories(options_.journal_dir);
    } else {
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        std::filesystem::create_directories(
            std::filesystem::path(options_.journal_dir) /
            ("shard-" + std::to_string(i)));
      }
    }
  }
}

SessionManager::Shard& SessionManager::shard_for(const std::string& id) {
  return *shards_[common::shard_of(id, shards_.size())];
}

const SessionManager::Shard& SessionManager::shard_for(const std::string& id) const {
  return *shards_[common::shard_of(id, shards_.size())];
}

std::string SessionManager::journal_dir(const std::string& id) const {
  if (shards_.size() == 1) return options_.journal_dir;
  return (std::filesystem::path(options_.journal_dir) /
          ("shard-" + std::to_string(common::shard_of(id, shards_.size()))))
      .string();
}

std::string SessionManager::journal_path(const std::string& id) const {
  return (std::filesystem::path(journal_dir(id)) / (id + ".journal.jsonl"))
      .string();
}

std::string SessionManager::spec_path(const std::string& id) const {
  return (std::filesystem::path(journal_dir(id)) / (id + ".spec.json")).string();
}

std::vector<std::shared_ptr<SessionManager::Entry>> SessionManager::all_entries()
    const {
  std::vector<std::shared_ptr<Entry>> entries;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [id, entry] : shard->map) entries.push_back(entry);
  }
  return entries;
}

void SessionManager::count(const char* name) {
  if (options_.telemetry != nullptr && options_.telemetry->enabled()) {
    options_.telemetry->metrics().counter(name).inc();
  }
}

// Build the entry's space + session from its spec. Entry mutex held by the
// caller. `resume_from_journal` distinguishes first creation from a
// re-materialization (after eviction or a server restart).
void SessionManager::materialize(Entry& entry, bool resume_from_journal) {
  const json::Value& spec = entry.spec;
  try {
    if (spec.contains("app")) {
      const auto seed = static_cast<std::uint64_t>(spec.number_or("seed", 1.0));
      entry.app = core::make_builtin_app(spec.at("app").as_string(), seed).app;
      entry.space = &entry.app->space();
    } else if (spec.contains("space")) {
      entry.owned_space = std::make_unique<search::SearchSpace>(
          service::space_from_json(spec.at("space")));
      entry.space = entry.owned_space.get();
    } else {
      throw ApiError(422, "session spec needs an \"app\" name or a \"space\" spec");
    }
    auto options = options_from_spec(spec, options_.telemetry);
    options.io = options_.io;
    options.rotate_bytes = options_.rotate_bytes;
    // Storage events (segment rotations) land in the entry's flight
    // recorder. The recorder is a member of the entry and the session (which
    // holds the hook) never outlives it.
    obs::FlightRecorder* recorder = &entry.recorder;
    options.event_hook = [recorder](std::string_view kind, std::string_view detail) {
      recorder->record(kind, detail);
    };
    const std::string journal =
        options_.journal_dir.empty() ? std::string() : journal_path(entry.id);
    if (resume_from_journal && !journal.empty()) {
      entry.session = service::TuningSession::resume(*entry.space, options, journal);
      entry.recorder.record("resume", "re-materialized from journal");
      count("tunekit_sessions_resumed_total");
    } else {
      entry.session =
          std::make_unique<service::TuningSession>(*entry.space, options, journal);
      entry.recorder.record("create", "session materialized");
    }
  } catch (const ApiError&) {
    throw;
  } catch (const json::JsonError& e) {
    throw ApiError(422, e.what());
  } catch (const std::invalid_argument& e) {
    throw ApiError(422, e.what());
  } catch (const std::exception& e) {
    // Unknown app names, unreadable journals, ...: the client can fix these.
    throw ApiError(resume_from_journal ? 500 : 422, e.what());
  }
}

void SessionManager::storage_degraded(Entry& entry, const std::exception& err) {
  entry.recorder.record("poison", err.what());
  log_error("SessionManager: storage poisoned for session '", entry.id,
            "': ", err.what());
  // The black box earns its keep here: dump everything that led up to the
  // poisoning while it is still in the ring.
  const std::string dump = entry.recorder.format_dump();
  if (!dump.empty()) {
    log_error("SessionManager: flight recorder for '", entry.id, "':\n", dump);
  }
  // Self-heal: the poisoned handle is useless, but the journal holds every
  // acked record up to the failed fsync — drop the in-memory session and let
  // the next touch resume from disk. Only this session degrades; the 503
  // tells the client exactly that.
  entry.session.reset();
  entry.app.reset();
  entry.owned_space.reset();
  entry.space = nullptr;
  count("tunekit_sessions_poisoned_total");
  throw ApiError(503,
                 "session '" + entry.id + "' storage degraded: " +
                     std::string(err.what()),
                 kStorageRetryAfterSeconds);
}

json::Value SessionManager::create(const json::Value& spec) {
  if (!spec.is_object()) throw ApiError(400, "session spec must be a JSON object");

  std::string id;
  if (spec.contains("id")) {
    if (!spec.at("id").is_string() || !valid_session_id(spec.at("id").as_string())) {
      throw ApiError(422,
                     "session id must be 1-64 characters of [A-Za-z0-9_-]");
    }
    id = spec.at("id").as_string();
  }

  if (known_.load(std::memory_order_relaxed) >= options_.max_sessions) {
    throw ApiError(429, "session limit reached (" +
                            std::to_string(options_.max_sessions) + ")");
  }

  auto entry = std::make_shared<Entry>();
  bool inserted = false;
  // Generated ids come from one atomic counter; each candidate id hashes to
  // its own shard, so only that shard's lock is taken per attempt.
  while (!inserted) {
    if (id.empty()) {
      // Not "s" + std::to_string(...), which GCC 12 at -O3 misreads as an
      // overlapping copy (-Wrestrict).
      id = std::string("s").append(
          std::to_string(next_id_.fetch_add(1, std::memory_order_relaxed)));
    }
    Shard& shard = shard_for(id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const bool taken = shard.map.count(id) > 0 ||
                       (!options_.journal_dir.empty() &&
                        std::filesystem::exists(spec_path(id)));
    if (taken) {
      if (spec.contains("id")) {
        throw ApiError(409, "session '" + id + "' already exists");
      }
      id.clear();  // collision with a generated id: draw the next one
      continue;
    }
    entry->id = id;
    entry->spec = spec;
    entry->spec.as_object()["id"] = json::Value(id);
    entry->last_used = std::chrono::steady_clock::now();
    shard.map[id] = entry;
    known_.fetch_add(1, std::memory_order_relaxed);
    inserted = true;
  }

  try {
    std::lock_guard<std::mutex> entry_lock(entry->mutex);
    materialize(*entry, /*resume_from_journal=*/false);
    if (!options_.journal_dir.empty()) {
      // The sidecar is what makes the id resumable after a restart: it holds
      // everything needed to rebuild the space and options.
      json::save_atomic(spec_path(id), entry->spec);
    }
  } catch (...) {
    Shard& shard = shard_for(id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.map.erase(id) > 0) {
      known_.fetch_sub(1, std::memory_order_relaxed);
    }
    throw;
  }

  count("tunekit_sessions_created_total");
  evict_excess();

  json::Object body;
  body["id"] = json::Value(id);
  body["backend"] = json::Value(
      std::string(to_string(entry->session->options().backend)));
  body["space_size"] = json::Value(entry->space->size());
  body["max_evals"] = json::Value(entry->session->options().max_evals);
  body["state"] = json::Value(to_string(entry->session->state()));
  return json::Value(std::move(body));
}

std::shared_ptr<SessionManager::Entry> SessionManager::find_or_load(
    const std::string& id) {
  if (!valid_session_id(id)) {
    throw ApiError(404, "no session '" + id + "'");
  }
  Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(id);
  if (it != shard.map.end()) {
    it->second->last_used = std::chrono::steady_clock::now();
    return it->second;
  }
  // Unknown in memory: resumable from a spec sidecar written before a
  // restart?
  if (options_.journal_dir.empty() || !std::filesystem::exists(spec_path(id))) {
    throw ApiError(404, "no session '" + id + "'");
  }
  auto entry = std::make_shared<Entry>();
  entry->id = id;
  try {
    entry->spec = json::load(spec_path(id));
  } catch (const std::exception& e) {
    throw ApiError(500, "session '" + id + "' spec unreadable: " + e.what());
  }
  entry->last_used = std::chrono::steady_clock::now();
  shard.map[id] = entry;
  known_.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

std::optional<json::Value> SessionManager::replayed_locked(Entry& entry,
                                                           const std::string& key) {
  if (key.empty()) return std::nullopt;
  const auto cached = entry.session->replayed_rpc(key);
  if (!cached) return std::nullopt;
  count(obs::metric::kReplayHits);
  // A replay must not look like a second execution in the trace: the
  // handler span gets a replayed=true event instead of a child span tree
  // (no session work runs), and the flight recorder notes the hit.
  if (options_.telemetry != nullptr && options_.telemetry->enabled()) {
    options_.telemetry->add_event(obs::Telemetry::current_span(), "replayed",
                                  "key=" + key);
  }
  entry.recorder.record("replay", "key=" + key);
  log_info("SessionManager: replayed response for idempotency key '", key,
           "' on session '", entry.id, "'");
  return json::parse(*cached);
}

void SessionManager::remember_locked(Entry& entry, const std::string& key,
                                     const json::Value& reply) {
  if (key.empty()) return;
  try {
    entry.session->remember_rpc(key, reply.dump());
  } catch (const service::StorePoisonedError& e) {
    // The operation this response describes is already durable (its own
    // records fsynced before we got here); degrading now would make the
    // client retry an rpc that *did* happen. A later retry of this key may
    // re-execute — the session's id-based idempotence absorbs that.
    log_error("SessionManager: rpc record for key '", key,
              "' lost to poisoned store on session '", entry.id, "': ", e.what());
  }
}

json::Value SessionManager::ask(const std::string& id, std::size_t k,
                                const std::string& idempotency_key) {
  auto entry = find_or_load(id);
  json::Value reply;
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (!entry->session) materialize(*entry, /*resume_from_journal=*/true);
    if (auto replayed = replayed_locked(*entry, idempotency_key)) return *replayed;
    std::vector<service::Candidate> batch;
    try {
      batch = entry->session->ask(k);
    } catch (const service::StorePoisonedError& e) {
      storage_degraded(*entry, e);
    }
    json::Array candidates;
    for (const auto& c : batch) {
      json::Object cand;
      cand["id"] = json::Value(static_cast<double>(c.id));
      cand["attempt"] = json::Value(c.attempt);
      cand["config"] = named_config(*entry->space, c.config);
      candidates.emplace_back(std::move(cand));
    }
    json::Object body;
    body["id"] = json::Value(id);
    body["candidates"] = json::Value(std::move(candidates));
    put_status(body, *entry->session, /*with_best_config=*/false);
    reply = json::Value(std::move(body));
    remember_locked(*entry, idempotency_key, reply);
    entry->recorder.record("ask", "k=" + std::to_string(k) + " issued=" +
                                      std::to_string(batch.size()));
  }
  count("tunekit_session_asks_total");
  evict_excess();
  return reply;
}

json::Value SessionManager::tell(const std::string& id, const json::Value& body,
                                 const std::string& idempotency_key) {
  if (!body.is_object()) throw ApiError(400, "tell body must be a JSON object");
  auto entry = find_or_load(id);
  json::Object reply;
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (!entry->session) materialize(*entry, /*resume_from_journal=*/true);
    if (auto replayed = replayed_locked(*entry, idempotency_key)) return *replayed;
    service::TuningSession& session = *entry->session;

    try {
      bool accepted = true;
      robust::EvalOutcome outcome = robust::EvalOutcome::Ok;
      if (body.contains("outcome")) {
        outcome = robust::outcome_from_string(body.at("outcome").as_string());
      }
      if (body.contains("config")) {
        // Unsolicited observation (warm-start point measured elsewhere).
        search::NamedConfig named;
        for (const auto& [name, v] : body.at("config").as_object()) {
          if (!entry->space->has(name)) {
            throw ApiError(422, "unknown parameter '" + name + "'");
          }
          named[name] = v.as_number();
        }
        if (!body.contains("value")) throw ApiError(422, "observation needs a value");
        session.observe(search::from_named(*entry->space, named),
                        body.at("value").as_number(),
                        body.number_or("cost_seconds", 0.0));
      } else if (body.contains("id")) {
        const auto eval_id = static_cast<std::uint64_t>(body.at("id").as_number());
        // Optional provenance: which fleet node/machine ran the evaluation.
        std::string node;
        if (body.contains("node") && body.at("node").is_string()) {
          node = body.at("node").as_string();
        }
        if (robust::is_failure(outcome)) {
          accepted = session.tell_failure(eval_id, outcome, node);
        } else {
          if (!body.contains("value")) throw ApiError(422, "tell needs a value");
          const double value = body.at("value").is_null()
                                   ? std::numeric_limits<double>::quiet_NaN()
                                   : body.at("value").as_number();
          accepted = session.tell(eval_id, value, body.number_or("cost_seconds", 0.0),
                                  body.number_or("noise", 0.0),
                                  body.number_or("duration_ms", 0.0),
                                  static_cast<int>(body.number_or("worker_slot", -1.0)),
                                  node);
        }
      } else {
        throw ApiError(422, "tell needs an \"id\" or a \"config\"");
      }
      reply["accepted"] = json::Value(accepted);
    } catch (const ApiError&) {
      throw;
    } catch (const service::StorePoisonedError& e) {
      storage_degraded(*entry, e);
    } catch (const json::JsonError& e) {
      throw ApiError(422, e.what());
    } catch (const std::invalid_argument& e) {
      throw ApiError(422, e.what());
    }
    reply["id"] = json::Value(id);
    put_status(reply, session, /*with_best_config=*/false);
    json::Value out(std::move(reply));
    remember_locked(*entry, idempotency_key, out);
    entry->recorder.record("tell", body.contains("outcome")
                                       ? "outcome=" + body.at("outcome").as_string()
                                       : std::string("outcome=ok"));
    count("tunekit_session_tells_total");
    return out;
  }
}

json::Value SessionManager::report(const std::string& id) {
  auto entry = find_or_load(id);
  json::Object body;
  std::lock_guard<std::mutex> lock(entry->mutex);
  if (!entry->session) materialize(*entry, /*resume_from_journal=*/true);
  body["id"] = json::Value(id);
  body["backend"] = json::Value(
      std::string(to_string(entry->session->options().backend)));
  body["max_evals"] = json::Value(entry->session->options().max_evals);
  body["space_size"] = json::Value(entry->space->size());
  put_status(body, *entry->session, /*with_best_config=*/true);
  body["metrics"] = entry->session->metrics().to_json();
  return json::Value(std::move(body));
}

json::Value SessionManager::structure(const std::string& id) {
  auto entry = find_or_load(id);
  json::Object body;
  std::lock_guard<std::mutex> lock(entry->mutex);
  if (!entry->session) materialize(*entry, /*resume_from_journal=*/true);
  body["id"] = json::Value(id);
  const json::Value snapshot = entry->session->structure_snapshot();
  body["enabled"] = json::Value(!snapshot.is_null());
  body["snapshot"] = snapshot;
  return json::Value(std::move(body));
}

json::Value SessionManager::drive(
    const std::string& id, const std::shared_ptr<robust::EvalBackend>& backend,
    const json::Value& body, const std::string& idempotency_key,
    double deadline_seconds) {
  if (!backend) throw ApiError(503, "no evaluation backend configured");
  if (!backend->healthy()) throw ApiError(503, "evaluation backend unavailable");
  // The budget is anchored *before* the entry lock: a drive that spends its
  // whole deadline waiting behind another drive must not then run unbounded.
  const auto deadline =
      std::isfinite(deadline_seconds)
          ? std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(deadline_seconds))
          : std::chrono::steady_clock::time_point::max();
  auto entry = find_or_load(id);
  json::Value out;
  {
    // The entry lock is held for the whole run: drive is a synchronous,
    // exclusive operation on the session (concurrent ask/tell on the same id
    // block until it finishes — same contract as any other request, just
    // longer).
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (!entry->session) materialize(*entry, /*resume_from_journal=*/true);
    if (auto replayed = replayed_locked(*entry, idempotency_key)) return *replayed;
    service::SchedulerOptions sched;
    sched.backend = backend;
    sched.n_threads =
        static_cast<std::size_t>(body.number_or("n_threads", 0.0));
    sched.batch_size =
        static_cast<std::size_t>(body.number_or("batch_size", 0.0));
    sched.telemetry = options_.telemetry;
    sched.deadline = deadline;
    entry->recorder.record("drive", "run started");
    try {
      service::EvalScheduler(sched).run(*entry->session);
    } catch (const service::StorePoisonedError& e) {
      storage_degraded(*entry, e);
    }
    entry->recorder.record("drive", "run finished");
    json::Object reply;
    reply["id"] = json::Value(id);
    put_status(reply, *entry->session, /*with_best_config=*/true);
    reply["metrics"] = entry->session->metrics().to_json();
    out = json::Value(std::move(reply));
    remember_locked(*entry, idempotency_key, out);
  }
  count("tunekit_sessions_driven_total");
  evict_excess();
  return out;
}

json::Value SessionManager::close(const std::string& id) {
  auto entry = find_or_load(id);
  json::Object body;
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (!entry->session) materialize(*entry, /*resume_from_journal=*/true);
    try {
      entry->session->close();
    } catch (const service::StorePoisonedError& e) {
      storage_degraded(*entry, e);
    }
    body["id"] = json::Value(id);
    put_status(body, *entry->session, /*with_best_config=*/true);
    entry->recorder.record("close", "graceful close");
    entry->session.reset();
    entry->app.reset();
    entry->owned_space.reset();
    entry->space = nullptr;
  }
  {
    Shard& shard = shard_for(id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.map.erase(id) > 0) {
      known_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  count("tunekit_sessions_closed_total");
  return json::Value(std::move(body));
}

json::Value SessionManager::list() const {
  const auto entries = all_entries();
  json::Array sessions;
  for (const auto& entry : entries) {
    std::lock_guard<std::mutex> lock(entry->mutex);
    json::Object obj;
    obj["id"] = json::Value(entry->id);
    obj["resident"] = json::Value(entry->session != nullptr);
    if (entry->session) {
      obj["state"] = json::Value(to_string(entry->session->state()));
      obj["completed"] = json::Value(entry->session->completed());
    }
    sessions.emplace_back(std::move(obj));
  }
  json::Object body;
  body["sessions"] = json::Value(std::move(sessions));
  return json::Value(std::move(body));
}

json::Value SessionManager::debug(const std::string& id) {
  auto entry = find_or_load(id);
  json::Object body;
  std::lock_guard<std::mutex> lock(entry->mutex);
  body["id"] = json::Value(id);
  body["resident"] = json::Value(entry->session != nullptr);
  if (entry->session) {
    put_status(body, *entry->session, /*with_best_config=*/false);
  }
  body["flight_recorder"] = entry->recorder.to_json();
  return json::Value(std::move(body));
}

void SessionManager::note(const std::string& id, std::string_view kind,
                          std::string_view detail) {
  try {
    auto entry = find_or_load(id);
    std::lock_guard<std::mutex> lock(entry->mutex);
    entry->recorder.record(kind, detail);
  } catch (const ApiError&) {
    // Unknown session: nothing to annotate.
  }
}

void SessionManager::flush_all() {
  for (const auto& entry : all_entries()) {
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (!entry->session) continue;
    try {
      entry->session->flush_metrics();
    } catch (const service::StorePoisonedError& e) {
      // Drain must keep draining: note the poisoned store and move on.
      log_error("SessionManager: flush skipped for poisoned session '",
                entry->id, "': ", e.what());
    }
  }
}

std::size_t SessionManager::resident() const {
  std::size_t n = 0;
  for (const auto& entry : all_entries()) {
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->session) ++n;
  }
  return n;
}

// LRU-evict idle journaled sessions down to max_resident: flush the metrics
// snapshot, destroy the session (its journal is the durable state), and let
// the next touch resume it. Busy entries (mutex held by a live request) are
// skipped — eviction must never block or deadlock a request — and so are
// sessions with candidates out for evaluation: resume treats those as
// crash-interrupted and re-issues them, which would hand a candidate to a
// second client and reject the first client's tell.
void SessionManager::evict_excess() {
  if (options_.journal_dir.empty()) return;
  // Snapshot each entry's last_used under its shard lock, then sort the
  // snapshot: find_or_load rewrites last_used under that lock, so sorting
  // the live entries would race it (and hand std::sort an inconsistent
  // order, which is undefined behaviour).
  std::vector<std::pair<std::chrono::steady_clock::time_point, std::shared_ptr<Entry>>>
      lru;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [id, entry] : shard->map) lru.emplace_back(entry->last_used, entry);
  }
  std::sort(lru.begin(), lru.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Count residents with a non-blocking pass; stale counts only make
  // eviction slightly late, never wrong.
  std::size_t live = 0;
  for (const auto& [used, entry] : lru) {
    std::unique_lock<std::mutex> lock(entry->mutex, std::try_to_lock);
    if (!lock.owns_lock() || entry->session) ++live;
  }
  if (live <= options_.max_resident) return;
  for (const auto& [used, entry] : lru) {
    if (live <= options_.max_resident) break;
    std::unique_lock<std::mutex> lock(entry->mutex, std::try_to_lock);
    if (!lock.owns_lock() || !entry->session || entry->session->outstanding() > 0) {
      continue;
    }
    entry->session->flush_metrics();
    entry->session.reset();
    entry->app.reset();
    entry->owned_space.reset();
    entry->space = nullptr;
    --live;
    entry->recorder.record("evict", "idle LRU eviction");
    count("tunekit_sessions_evicted_total");
    log_debug("SessionManager: evicted idle session '", entry->id, "'");
  }
}

}  // namespace tunekit::net
