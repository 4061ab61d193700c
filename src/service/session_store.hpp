#pragma once
// SessionStore: durable journal behind a TuningSession.
//
// Every ask/tell event of a session is appended as one compact JSON line and
// fsync'd, so a session killed mid-batch loses nothing: replaying the journal
// reconstructs the completed evaluations *and* the in-flight candidates that
// were issued but never resolved.
//
// Record framing (format "tunekit-session-v2"): every journal line is
//
//   <8 lowercase hex chars: CRC32C of the JSON payload><space><JSON>\n
//
// so bit rot is *detected*, not silently replayed into the model. Journals
// whose first line starts with '{' are legacy "tunekit-session-v1" (unframed);
// they replay — and keep being appended to — with the v1 rules unchanged.
//
// JSON payload grammar (shared by v1 and v2):
//   {"e":"open","format":...,"space":N,"max_evals":M,"seed":S,
//    "backend":"bo","next_id":K[,"snapshot":PATH][,"seq":Q]}  header, first line
//   {"e":"cont","format":...,"seq":Q}                   first line of a
//                                                       post-rotation segment
//   {"e":"ask","id":I,"attempt":A,"config":[...]}       candidate issued
//   {"e":"tell","id":I,"value":V,"cost":C[,"noise":D]
//    [,"dur_ms":T][,"slot":S][,"node":ID]}              evaluation reported
//   {"e":"fail","id":I[,"why":W]}                       attempt failed; will retry
//   {"e":"drop","id":I,"value":V[,"why":W]}             retries exhausted; V recorded
//   {"e":"quar","config":[...]}                         config quarantined: crashed
//                                                       its way past the threshold;
//                                                       never re-issued, even after
//                                                       resume
//   {"e":"metrics","snap":{...}}                        session metrics snapshot
//                                                       (latest wins; rewritten by
//                                                       compaction so it survives)
//   {"e":"struct","snap":{...}}                         learned dependency-structure
//                                                       snapshot (affinity matrix,
//                                                       active partition, policy
//                                                       state, adoption history):
//                                                       latest wins on replay,
//                                                       rewritten by compaction, so
//                                                       resume restores the living
//                                                       partition exactly
//   {"e":"gp","snap":{"sv":S,"nv":N,"ls":[...],"at":C}} GP hyperparameters a Bo
//                                                       session holds between
//                                                       asks (signal variance,
//                                                       noise variance, one
//                                                       lengthscale per dim) and
//                                                       the completed count when
//                                                       the search that found them
//                                                       ran: latest wins on replay,
//                                                       rewritten by compaction
//   {"e":"rpc","key":K,"resp":R}                        idempotency-key replay
//                                                       entry: the serialized
//                                                       response already sent for
//                                                       request key K; a retried
//                                                       request replays R instead
//                                                       of re-executing (rewritten
//                                                       by compaction, oldest
//                                                       first)
//   {"e":"seal","seq":Q,"n":N}                          segment footer: the segment
//                                                       is complete and holds N
//                                                       records before the seal
//   {"e":"salvage","lost":N,"segments":M}               resume provenance: a repair
//                                                       pass dropped N corrupt
//                                                       records / quarantined M
//                                                       segments before this point
//
// "why" is an EvalOutcome string ("crashed", "timed-out", "invalid-config",
// "non-finite"; absent = crashed, the seed-era assumption), "noise" the robust
// dispersion of a repeated measurement, "dur_ms" the wall-clock round-trip
// milliseconds of the evaluation, and "slot" the worker-pool slot that ran it.
// All are optional, so seed-era journals replay unchanged.
//
// Segment rotation: once the active file exceeds `rotate_bytes` it is sealed
// (framed seal footer, fsync, rename to `<stem>.NNNNNN.jsonl`, directory
// fsync) and a fresh active file opens with a "cont" record. Replay stitches
// sealed segments in sequence order before the active file. Compaction folds
// completed evaluations into an EvalDb-format snapshot beside the journal
// (snapshot_path(), atomic rename), rewrites the active file to header +
// in-flight asks (atomic rename), and retires sealed segments — the rewritten
// header records its segment sequence so a crash between rename and retire
// can never double-replay a stale one.
//
// Recovery distinguishes three kinds of damage:
//   torn tail      an unparseable/CRC-invalid *final* line of the active file:
//                  the classic crash-mid-append; skipped (and physically
//                  truncated in repair mode) with a warning.
//   corruption     a CRC-invalid line anywhere else: real damage. Repair mode
//                  quarantines a copy of the file under `corrupt/`, rewrites
//                  the file with only the valid lines (atomic rename), counts
//                  what was lost, and the resumed session journals an
//                  {"e":"salvage"} marker so provenance is explicit.
//   poisoning      a failed append fsync: per fsyncgate semantics the dirty
//                  page is gone and retrying would falsely succeed, so the
//                  store turns read-only — every later append throws
//                  StorePoisonedError immediately.

#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/io.hpp"
#include "common/json.hpp"
#include "robust/outcome.hpp"
#include "search/eval_db.hpp"
#include "search/space.hpp"

namespace tunekit::obs {
class Telemetry;
}

namespace tunekit::service {

/// A configuration issued by ask() and awaiting its tell().
struct Candidate {
  std::uint64_t id = 0;
  /// 0-based issue attempt; incremented when a failed or expired candidate
  /// is re-issued.
  std::size_t attempt = 0;
  search::Config config;
};

struct JournalHeader {
  std::string format = "tunekit-session-v2";
  std::size_t space_size = 0;
  std::size_t max_evals = 0;
  std::uint64_t seed = 0;
  std::string backend;
  /// First candidate id not yet allocated (advanced by compaction so ids
  /// stay unique after evaluations are folded into the snapshot).
  std::uint64_t next_id = 0;
  /// Where compaction wrote the EvalDb-format snapshot of the evaluations it
  /// folded out of the journal (empty = none). Readers use only its
  /// presence: the snapshot is always snapshot_path(<journal>), so a moved or
  /// copied journal directory still finds its own.
  std::string snapshot;
  /// Segment sequence of the file this header opens (v2): sealed segments
  /// with a lower sequence predate the snapshot and are ignored on replay.
  std::uint64_t seq = 1;
};

/// Thrown by appends after a failed journal fsync: the store is read-only
/// because the page the kernel dropped cannot be recovered by retrying
/// (fsyncgate). The session's journaled state up to the *previous* ack is
/// intact; everything since is gone and callers must treat it that way.
class StorePoisonedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// SessionStore construction knobs; defaults match production. (Namespace
/// scope so the member initializers are usable in SessionStore's own default
/// arguments — nested-class initializers are parsed too late for that.)
struct StoreOptions {
  /// File-IO seam (null = real_io()). Tests inject a common::FaultIo here.
  common::Io* io = nullptr;
  /// Seal + rotate the active file past this many bytes (0 disables).
  std::size_t rotate_bytes = 256 * 1024;
};

struct StoreReplayOptions {
  /// Repair while replaying: quarantine+rewrite corrupt files, truncate the
  /// torn tail. False = read-only (damage is only counted and skipped).
  bool repair = false;
  /// Count salvage/storage metrics here (null disables).
  obs::Telemetry* telemetry = nullptr;
};

class SessionStore {
 public:
  using Options = StoreOptions;
  using ReplayOptions = StoreReplayOptions;

  /// What a recovery/verification pass found (and, in repair mode, fixed).
  struct SalvageReport {
    /// CRC-invalid or unparseable non-tail lines dropped.
    std::size_t lost_records = 0;
    /// Segment files found damaged (quarantined to corrupt/ in repair mode).
    std::size_t corrupt_segments = 0;
    /// 1 if the active file ended in a torn line (truncated in repair mode).
    std::size_t torn_tails = 0;
    /// Human-readable per-file findings, deterministic order.
    std::vector<std::string> notes;
    bool clean() const {
      return lost_records == 0 && corrupt_segments == 0 && torn_tails == 0;
    }
  };

  /// Journal state reconstructed by replay().
  struct Replay {
    JournalHeader header;
    /// Completed evaluations in journal (= tell) order.
    std::vector<search::Evaluation> completed;
    /// Candidates issued but never resolved, ascending by id: these are the
    /// in-flight evaluations a resumed session must re-issue.
    std::vector<Candidate> in_flight;
    /// Configurations quarantined for repeated crashes; a resumed session
    /// must never issue them again.
    std::vector<search::Config> quarantined;
    /// Latest metrics snapshot in the journal (null Value when none): the
    /// session-level counters a resumed session continues from, and what
    /// `tunekit_cli report` aggregates without replaying the evaluations.
    json::Value metrics;
    /// Latest dependency-structure snapshot (null Value when none, e.g. a
    /// legacy journal or a session without online structure learning): the
    /// learned affinity matrix + active partition a resumed session's
    /// structure::OnlineLearner restores byte-for-byte.
    json::Value structure;
    /// Latest held GP hyperparameter snapshot (null Value when none: a
    /// legacy journal, a non-Bo backend, or no search has run yet).
    json::Value gp;
    /// Idempotency-key replay entries in journal order (oldest first, later
    /// records for the same key superseding earlier ones): the responses a
    /// resumed session must keep answering retried requests with.
    std::vector<std::pair<std::string, std::string>> rpc_cache;
    std::uint64_t next_id = 0;
    /// Damage found by this pass (all zeros for a healthy journal).
    SalvageReport salvage;
  };

  /// A journal's header and records as read from disk, before any search
  /// space is applied: what replay, fsck and `tunekit_cli report` parse.
  struct Scan {
    JournalHeader header;
    /// Valid records in order — live sealed segments by sequence, then the
    /// active file — structural ones (open/cont/seal/salvage) included.
    std::vector<json::Value> records;
    bool legacy_v1 = false;    ///< unframed v1 journal: no CRCs to check
    std::size_t segments = 0;  ///< live sealed segments read
    /// Damage skipped (v2), or a torn final line (v1).
    SalvageReport salvage;
  };

  /// Offline structural verification (`tunekit_cli fsck`): framing, CRCs,
  /// segment seals and sequence — everything that does not need the search
  /// space. With `repair`, damage is quarantined/rewritten as in replay.
  struct FsckReport {
    bool ok = false;          ///< journal readable (possibly after repair)
    bool legacy_v1 = false;   ///< unframed v1 journal: CRC checks not possible
    std::size_t segments = 0; ///< sealed segments examined
    std::size_t records = 0;  ///< valid records seen (including header)
    SalvageReport salvage;
    std::string error;        ///< non-empty when !ok
  };

  /// Start a fresh journal at `path` (truncating any previous one) and write
  /// the header line.
  static std::unique_ptr<SessionStore> create(const std::string& path,
                                              const JournalHeader& header,
                                              const Options& options = Options());

  /// Reopen an existing journal for appending (resume); the header is left
  /// untouched. The journal's own format (v1/v2) decides how new records are
  /// framed.
  static std::unique_ptr<SessionStore> append(const std::string& path,
                                              const Options& options = Options());

  /// Parse a journal — sealed segments in sequence order, then the active
  /// file — following its snapshot reference, if any. Throws
  /// std::runtime_error on a missing/corrupt header or a config arity
  /// mismatch against `space`. Damage handling depends on the journal
  /// format: v2 skips (or, in repair mode, salvages) CRC-invalid records and
  /// reports them in `Replay::salvage`; legacy v1 keeps the seed-era rules —
  /// a torn final line is skipped with a warning, corruption anywhere else
  /// throws.
  static Replay replay(const std::string& path, const search::SearchSpace& space,
                       const ReplayOptions& options = ReplayOptions());

  /// Structure-only verification/repair of one journal (no search space
  /// needed). Never throws: problems land in the report.
  static FsckReport fsck(const std::string& path, bool repair = false);

  /// Read-only scan of one journal (no search space needed): damage is
  /// skipped and counted, never repaired. Throws std::runtime_error where
  /// replay would: a missing or header-less journal, or v1 corruption
  /// before the final line.
  static Scan scan(const std::string& path);

  /// The compaction snapshot of the journal at `path`.
  static std::string snapshot_path(const std::string& path) {
    return path + ".snapshot.json";
  }

  ~SessionStore();
  SessionStore(const SessionStore&) = delete;
  SessionStore& operator=(const SessionStore&) = delete;

  const std::string& path() const { return path_; }

  /// True once an append failed: the store is read-only and every append
  /// throws StorePoisonedError (see class comment).
  bool poisoned() const { return poisoned_; }

  /// Observe journal fsync latency into `telemetry` (null disables; safe to
  /// leave unset — the default costs nothing).
  void set_telemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Structured-event hook for storage lifecycle events the layers above
  /// cannot see (today: "rotate" when a segment is sealed). Feeds the
  /// per-session flight recorder; empty disables.
  void set_event_hook(std::function<void(std::string_view, std::string_view)> hook) {
    event_hook_ = std::move(hook);
  }

  void ask(const Candidate& candidate);
  /// Non-empty `worker_node` journals a "node" key: the fleet machine that
  /// served this evaluation, for per-node attribution in reports.
  void tell(std::uint64_t id, double value, double cost_seconds, double noise = 0.0,
            double duration_ms = 0.0, int worker_slot = -1,
            const std::string& worker_node = {});
  void fail(std::uint64_t id,
            robust::EvalOutcome why = robust::EvalOutcome::Crashed,
            const std::string& worker_node = {});
  void drop(std::uint64_t id, double value,
            robust::EvalOutcome why = robust::EvalOutcome::Crashed);
  /// Record that `config` crashed past the quarantine threshold and must
  /// never be issued again (survives compaction and resume).
  void quarantine(const search::Config& config);
  /// Journal a metrics snapshot (any JSON object; latest record wins on
  /// replay). Pass the same snapshot to compact() so it survives rewrites.
  void metrics(const json::Value& snapshot);
  /// Journal a learned dependency-structure snapshot (latest wins on
  /// replay). Pass the same snapshot to compact() so it survives rewrites.
  void structure(const json::Value& snapshot);
  /// Journal the GP hyperparameters a session holds (latest wins on replay).
  /// Pass the same snapshot to compact() so it survives rewrites.
  void gp(const json::Value& snapshot);
  /// Journal an idempotency-key replay entry: `response` is what was (or is
  /// about to be) answered for request key `key`; after a crash the resumed
  /// session replays it for a retried request instead of re-executing.
  void rpc(const std::string& key, const std::string& response);
  /// Journal resume provenance after a repairing replay dropped records.
  void salvage_marker(std::size_t lost_records, std::size_t corrupt_segments);

  /// Fold `completed` into an EvalDb snapshot (atomic rename) and rewrite
  /// the journal to header + in-flight asks + quarantine and replay records
  /// + the latest metrics, structure and GP snapshots (atomic rename);
  /// sealed segments older than the rewritten header are retired.
  void compact(JournalHeader header, const std::vector<search::Evaluation>& completed,
               const std::vector<Candidate>& in_flight,
               const std::vector<search::Config>& quarantined = {},
               const json::Value& metrics_snapshot = json::Value(),
               const std::vector<std::pair<std::string, std::string>>& rpc_cache = {},
               const json::Value& structure_snapshot = json::Value(),
               const json::Value& gp_snapshot = json::Value());

 private:
  SessionStore(std::FILE* file, std::string path, const Options& options,
               bool framed, std::uint64_t seq);

  /// Serialize + frame (v2) one record, append it, and rotate the segment
  /// afterwards if the active file outgrew rotate_bytes.
  void append_record(const json::Value& value, bool allow_rotation = true);
  /// Append one raw line and fsync it to disk; poisons the store on failure.
  void append_line(const std::string& line);
  /// Seal the active file into a numbered segment and start a fresh one.
  void rotate();

  std::FILE* file_ = nullptr;
  std::string path_;
  common::Io* io_ = nullptr;
  std::size_t rotate_bytes_ = 0;
  /// v2 journals frame records with a CRC; legacy v1 appends stay raw.
  bool framed_ = true;
  bool poisoned_ = false;
  /// Sequence number of the active segment (v2).
  std::uint64_t seq_ = 1;
  /// Bytes and records appended to the active file by this store.
  std::size_t active_bytes_ = 0;
  std::size_t active_records_ = 0;
  obs::Telemetry* telemetry_ = nullptr;
  std::function<void(std::string_view, std::string_view)> event_hook_;
};

}  // namespace tunekit::service
