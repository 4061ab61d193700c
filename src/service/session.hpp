#pragma once
// TuningSession: an ask/tell state machine decoupling suggestion from
// evaluation (the GPTune/BoGraph "tuner as a service" shape).
//
// Where BayesOpt::run() owns the evaluation loop, a session only *suggests*:
// ask(k) issues up to k candidate configurations, the caller evaluates them
// however it likes (in-process, over MPI, on another machine) and reports
// results back with tell() — out of order and partially is fine. Failed or
// deadline-expired candidates are retried a bounded number of times and then
// recorded at `failure_penalty` (the same semantics BayesOpt applies to
// crashing evaluations). Once `max_evals` results are recorded the session
// is exhausted and ask() returns nothing.
//
// Backends: Bo (initial design, then BayesOpt::suggest_batch constant-liar
// batches; pending candidates act as liars so repeated asks don't duplicate;
// the GP hyperparameters are held between asks and searched again, warm-
// started, only every `bo.hyperopt_every` completed evaluations), Random
// (each candidate id maps to a deterministic valid sample — the sequence is
// identical no matter how asks and tells interleave), and Grid (a
// stride-subsampled factorial enumeration, for the executor's exhaustive
// searches).
//
// With a SessionStore attached every event is journaled durably, and
// resume() reconstructs a killed session: completed evaluations are
// restored, in-flight candidates are re-issued (before any new suggestion),
// the held GP hyperparameters come back from their {"e":"gp"} record, and
// the remaining budget is exactly what it was — so the resumed session asks
// exactly what the killed one would have.

#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "bo/bayes_opt.hpp"
#include "common/stopwatch.hpp"
#include "robust/quarantine.hpp"
#include "search/eval_db.hpp"
#include "search/result.hpp"
#include "search/space.hpp"
#include "service/replay_cache.hpp"
#include "service/session_store.hpp"
#include "structure/online_learner.hpp"

namespace tunekit::obs {
class Telemetry;
}

namespace tunekit::service {

enum class SessionBackend { Bo, Random, Grid };
const char* to_string(SessionBackend backend);
SessionBackend backend_from_string(const std::string& name);

enum class SessionState { Active, Exhausted, Closed };
const char* to_string(SessionState state);

struct SessionOptions {
  /// Total recorded evaluations (tells plus dropped failures) before the
  /// session is exhausted.
  std::size_t max_evals = 100;
  /// Initial-design candidates issued before the surrogate takes over
  /// (Bo backend only).
  std::size_t n_init = 5;

  SessionBackend backend = SessionBackend::Bo;
  /// Surrogate/acquisition settings for the Bo backend. Its budget, seed
  /// and warm_start fields are ignored — the session's own fields govern
  /// the first two, and a warm-start point is told through observe().
  /// `hyperopt_every` counts completed evaluations: the held hyperparameters
  /// are searched again once that many have completed since the last search
  /// (0 = never search; the GP keeps the isotropic defaults).
  bo::BoOptions bo;

  /// A candidate not told within this many seconds of issue is treated as a
  /// failed attempt at the next ask()/status() and re-issued. infinity
  /// disables deadlines.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  /// Total issue attempts per candidate before it is dropped.
  std::size_t max_attempts = 3;
  /// Value recorded for a dropped candidate (NaN keeps it out of the
  /// surrogate but still consumes budget; mirrors BoOptions::failure_penalty).
  double failure_penalty = std::numeric_limits<double>::quiet_NaN();

  /// Levels used to discretize Real parameters (Grid backend).
  std::size_t grid_real_levels = 4;

  /// Crashed attempts of one configuration before it is quarantined: dropped
  /// at failure_penalty immediately, journaled as a "quar" record, and never
  /// issued again — not by retry, not by re-suggestion, not after a resume.
  /// 0 disables quarantine (the retry policy alone governs, old behavior).
  std::size_t quarantine_after = 0;

  /// Compact the journal (snapshot + rewrite) every this many completed
  /// evaluations; 0 disables compaction.
  std::size_t compact_every = 64;

  /// Entries kept in the idempotency-key replay cache (remember_rpc /
  /// replayed_rpc). Bounds per-session memory and journal growth; evicted
  /// keys mean a very late retry re-executes, which the session's own
  /// id-based idempotence then absorbs.
  std::size_t replay_cache_capacity = 128;

  std::uint64_t seed = 1;

  /// Learn the parameter dependency structure online: every tell feeds a
  /// structure::OnlineLearner whose affinity matrix and active partition are
  /// journaled as {"e":"struct"} records (restored exactly on resume) and
  /// served at GET /v1/sessions/{id}/structure.
  bool structure_online = false;
  /// Affinity refit cadence in observations (structure_online only).
  std::size_t structure_cadence = 20;
  /// Affinity threshold above which a parameter pair is united in the
  /// proposed cut.
  double structure_threshold = 0.25;
  /// Minimum evidence (recovered affinity-mass fraction) for a repartition.
  double structure_evidence = 0.10;
  /// Consecutive confirming refits before a repartition is adopted.
  std::size_t structure_hysteresis = 2;
  /// Minimum observations between repartitions.
  std::size_t structure_cooldown = 20;

  /// Telemetry for journal fsync latency and the per-session metrics
  /// snapshot record (null = disabled, the default).
  obs::Telemetry* telemetry = nullptr;

  /// Structured-event hook forwarded to the journal store (segment
  /// rotations …); feeds the per-session flight recorder. Empty disables.
  std::function<void(std::string_view, std::string_view)> event_hook;

  /// File-IO seam for the journal and its snapshots (null = the real
  /// filesystem). Tests inject a common::FaultIo here to script disk faults.
  common::Io* io = nullptr;
  /// Journal segment rotation threshold in bytes (0 disables rotation);
  /// forwarded to SessionStore::Options::rotate_bytes.
  std::size_t rotate_bytes = 256 * 1024;
};

/// Session-level counters journaled as the {"e":"metrics"} snapshot record.
/// They survive compaction (the record is rewritten) and resume (a restored
/// session keeps accumulating from the replayed values).
struct SessionMetrics {
  std::size_t tells = 0;  ///< successful value reports
  std::size_t fails = 0;  ///< failed attempts (incl. deadline expiries)
  std::size_t drops = 0;  ///< candidates recorded at failure_penalty
  /// Failed attempts by EvalOutcome string ("crashed", "timed-out", ...).
  std::map<std::string, std::size_t> failure_outcomes;
  /// Sum of application-reported evaluation costs (seconds).
  double cost_seconds = 0.0;
  /// Sum of wall-clock evaluation round trips (milliseconds).
  double eval_duration_ms = 0.0;
  /// Session wall-clock seconds (cumulative across resumes).
  double wall_seconds = 0.0;

  json::Value to_json() const;
  static SessionMetrics from_json(const json::Value& snapshot);
};

struct SessionStatus {
  SessionState state = SessionState::Active;
  /// Evaluations recorded (tells + drops).
  std::size_t completed = 0;
  /// Candidates issued and awaiting their tell.
  std::size_t outstanding = 0;
  /// Failed/expired candidates queued for re-issue.
  std::size_t queued = 0;
  /// New candidates ask() can still issue.
  std::size_t remaining = 0;
  std::optional<search::Evaluation> best;
};

class TuningSession {
 public:
  /// `space` must outlive the session. Pass a store to journal durably.
  TuningSession(const search::SearchSpace& space, SessionOptions options,
                std::unique_ptr<SessionStore> store = nullptr);

  /// Convenience: journal to `journal_path` (empty = in-memory only).
  TuningSession(const search::SearchSpace& space, SessionOptions options,
                const std::string& journal_path);

  /// Rebuild a session from its journal: completed evaluations restored in
  /// order, in-flight candidates queued for re-issue, budget unchanged.
  static std::unique_ptr<TuningSession> resume(const search::SearchSpace& space,
                                               SessionOptions options,
                                               const std::string& journal_path);

  TuningSession(const TuningSession&) = delete;
  TuningSession& operator=(const TuningSession&) = delete;

  /// Up to `k` candidates to evaluate. Re-issues (failed, expired, or
  /// crash-restored candidates) are served before any new suggestion is
  /// generated. Returns fewer than `k` — possibly none — when the remaining
  /// budget or the backend's supply is smaller. Thread-safe.
  std::vector<Candidate> ask(std::size_t k);

  /// Report an evaluation result. Unknown or already-resolved ids return
  /// false (harmless: duplicate tells after a retry are expected). Late
  /// tells for candidates still outstanding past exhaustion are accepted.
  /// `dispersion` is the robust sigma of a repeated measurement (0 = single
  /// measurement); it is journaled and fed to the evaluation record.
  /// `duration_ms` (wall-clock round trip) and `worker_slot` (pool slot that
  /// ran it, -1 unknown) are provenance for reports; both are journaled and
  /// recorded when provided.
  /// `worker_node` is the fleet node that served the evaluation ("" = local);
  /// journaled so reports can attribute evals and latency per machine.
  bool tell(std::uint64_t id, double value, double cost_seconds = 0.0,
            double dispersion = 0.0, double duration_ms = 0.0,
            int worker_slot = -1, const std::string& worker_node = {});

  /// Report that an evaluation failed, with its classified outcome (defaults
  /// to Crashed, the seed-era semantics). Consumes one attempt: the candidate
  /// is queued for re-issue, or dropped at failure_penalty when attempts are
  /// exhausted. Returns false for unknown ids.
  bool tell_failure(std::uint64_t id,
                    robust::EvalOutcome why = robust::EvalOutcome::Crashed,
                    const std::string& worker_node = {});

  /// Record an externally-measured observation (e.g. a warm-start point).
  /// Consumes budget like any other evaluation.
  void observe(search::Config config, double value, double cost_seconds = 0.0);

  /// No further asks; pending candidates are abandoned (still journaled, so
  /// a resume would re-issue them). Journals a final metrics snapshot.
  void close();

  /// Current session metrics (cumulative across resumes).
  SessionMetrics metrics() const;
  /// Journal a metrics snapshot record now (no-op without a store). Drivers
  /// call this when a batch completes so a kill loses at most one batch of
  /// counter updates.
  void flush_metrics();

  /// The response previously remembered under `key`, if the cache still
  /// holds it — the retried request should be answered with these exact
  /// bytes instead of re-executing. Thread-safe.
  std::optional<std::string> replayed_rpc(const std::string& key) const;

  /// Remember `response` as the canonical answer for idempotency key `key`.
  /// Journaled as an {"e":"rpc"} record (survives kill + resume and
  /// compaction) before entering the in-memory cache, so durability is never
  /// behind visibility. Thread-safe.
  void remember_rpc(const std::string& key, const std::string& response);

  SessionStatus status() const;
  SessionState state() const;
  std::size_t completed() const;
  std::size_t outstanding() const;
  std::optional<search::Evaluation> best() const;
  std::vector<search::Evaluation> evaluations() const;
  const search::SearchSpace& space() const { return space_; }
  const SessionOptions& options() const { return options_; }

  /// Package the session as a SearchResult (method "session-<backend>").
  search::SearchResult to_result() const;

  /// Latest learned dependency-structure snapshot (null Value when
  /// structure_online is off). Thread-safe.
  json::Value structure_snapshot() const;

 private:
  struct Pending {
    Candidate candidate;
    std::chrono::steady_clock::time_point issued_at;
  };

  /// GP hyperparameters the Bo backend holds between asks, and the number of
  /// completed evaluations when the search that found them ran. Journaled as
  /// the {"e":"gp"} snapshot record.
  struct HeldGp {
    bo::GpHyperparams hp;
    std::size_t at = 0;

    json::Value to_json() const;
    /// nullopt unless `snapshot` holds `dim` lengthscales and positive,
    /// finite values.
    static std::optional<HeldGp> from_json(const json::Value& snapshot, std::size_t dim);
  };

  JournalHeader make_header() const;
  json::Value metrics_snapshot_locked() const;
  /// Feed one completed observation to the structure learner; journals a
  /// {"e":"struct"} snapshot after every refit and updates the
  /// tunekit_structure_* metrics. No-op when structure learning is off.
  void feed_structure_locked(const search::Config& config, double value);
  json::Value structure_snapshot_locked() const;
  void expire_overdue_locked();
  /// Retry-or-drop a candidate whose attempt failed for reason `why`.
  void fail_attempt_locked(Candidate candidate, robust::EvalOutcome why,
                           const std::string& worker_node = {});
  void record_locked(const search::Config& config, double value, double cost_seconds,
                     robust::EvalOutcome outcome, double dispersion = 0.0,
                     double duration_ms = 0.0, int worker_slot = -1);
  void maybe_compact_locked();
  std::size_t issuable_locked() const;
  /// The next surrogate ask searches the hyperparameters: none are held yet,
  /// or bo.hyperopt_every evaluations have completed since the last search.
  bool hyperopt_due_locked() const;
  std::vector<search::Config> generate_locked(std::size_t n);
  SessionStatus status_locked() const;

  const search::SearchSpace& space_;
  SessionOptions options_;
  std::unique_ptr<SessionStore> store_;
  robust::CrashQuarantine quarantine_;
  bo::BayesOpt bo_;
  std::optional<HeldGp> gp_;
  std::vector<search::Config> init_design_;
  std::vector<search::Config> grid_;
  search::EvalDb db_;
  std::map<std::uint64_t, Pending> pending_;
  std::deque<Candidate> reissue_;
  std::uint64_t next_id_ = 0;
  bool closed_ = false;
  std::size_t completed_since_compact_ = 0;
  /// Online dependency-structure learner (null unless structure_online).
  std::unique_ptr<structure::OnlineLearner> structure_;
  SessionMetrics metrics_;
  ReplayCache replay_;
  /// Wall seconds accumulated by previous incarnations (restored on resume);
  /// the live watch_ reading is added on top.
  double wall_base_seconds_ = 0.0;
  Stopwatch watch_;
  mutable std::mutex mutex_;
};

}  // namespace tunekit::service
