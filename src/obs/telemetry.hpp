#pragma once
// Telemetry: nested tracing spans plus a metrics registry behind one facade.
//
// A span is a named interval with an explicit parent id, forming the tree
//
//   methodology.run
//     ├─ phase.sensitivity ── eval ── worker.rpc ── worker.objective
//     ├─ phase.importance  ── eval ...
//     ├─ phase.partition
//     └─ phase.execution ── search.<name> ── scheduler.batch ── eval ── ...
//
// Parents propagate two ways:
//   * implicitly — each thread carries a "current span" (set by ScopedSpan /
//     CurrentSpanScope), and begin_span() defaults its parent to it; or
//   * explicitly — cross-thread and cross-process work passes the parent id
//     by hand (the scheduler hands its batch span to pool threads, the
//     worker protocol carries the rpc span id over the pipe).
//
// Telemetry is DISABLED by default and every layer takes it as a nullable
// pointer: the disabled/null hot path is one branch (guarded by a test to
// cost < 1 µs per evaluation). When enabled, finished spans are moved into a
// bounded in-memory buffer; once full, new spans are counted as dropped
// rather than growing memory during a long tuning run.
//
// Spans measured in another process (the worker reports setup/objective/
// teardown timings relative to its own request handling) are stitched in via
// record_span() with supervisor-side anchoring — see WorkerPool::evaluate.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"

namespace tunekit::obs {

/// Span identifier; 0 means "no span".
using SpanId = std::uint64_t;

/// 128-bit trace identifier (W3C trace-context shape); hi == lo == 0 means
/// "no trace". Every root span mints a fresh random one; children inherit.
struct TraceId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool valid() const { return (hi | lo) != 0; }
  friend bool operator==(const TraceId& a, const TraceId& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const TraceId& a, const TraceId& b) { return !(a == b); }
};

/// What crosses a process boundary: which trace, and which remote span the
/// next local span should hang from. The wire form is a W3C-style
/// traceparent header: "00-<32 hex trace id>-<16 hex parent span id>-01".
struct TraceContext {
  TraceId trace;
  SpanId parent = 0;

  bool valid() const { return trace.valid(); }
};

/// "00-<32 hex>-<16 hex>-01" (lower-case hex, zero-padded).
std::string to_traceparent(const TraceContext& context);
/// Parse a traceparent header. Returns nullopt on malformed input, an
/// all-zero trace id, or an unknown version prefix.
std::optional<TraceContext> parse_traceparent(std::string_view header);
/// 32 lower-case hex chars (the Prometheus-exemplar / JSON wire form).
std::string trace_id_hex(const TraceId& trace);
/// 16 lower-case hex chars. Span ids are full 64-bit values, so JSON
/// exports carry them as hex strings — a double-typed JSON number silently
/// collides distinct ids past 2^53.
std::string span_id_hex(SpanId id);

struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;
  /// Trace this span belongs to (inherited from the parent, adopted from a
  /// remote TraceContext, or freshly minted for roots).
  TraceId trace;
  /// Nanoseconds since the Telemetry instance's (steady-clock) epoch.
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  /// Dense per-process thread index (stable across Telemetry instances).
  std::uint32_t tid = 0;
  /// 0 = this process; a worker's OS pid for imported worker-side spans.
  std::int64_t pid = 0;
  std::string name;
  std::string category;
};

/// A point annotation attached to a span ("replayed=true", shed decisions…).
/// Events are bounded by the same buffer cap as spans.
struct SpanEvent {
  SpanId span = 0;
  TraceId trace;
  std::uint64_t t_ns = 0;
  std::string name;
  std::string detail;
};

class Telemetry {
 public:
  /// Sentinel parent meaning "use the calling thread's current span".
  static constexpr SpanId kInheritParent = ~SpanId{0};

  Telemetry() = default;  // disabled until enable()
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  void enable(std::size_t max_spans = 1 << 20);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Steady-clock nanoseconds since this instance's epoch.
  std::uint64_t now_ns() const;

  /// Open a span. Returns 0 (and records nothing) when disabled. The trace
  /// id is inherited from the resolved parent when it is open locally, then
  /// from the thread's ambient trace; a parentless span mints a fresh one.
  SpanId begin_span(std::string_view name, SpanId parent = kInheritParent,
                    std::string_view category = {});
  /// Open a span adopted into a remote trace (the parent span lives in
  /// another process — e.g. the client span named by a traceparent header).
  SpanId begin_span(std::string_view name, const TraceContext& context,
                    std::string_view category = {});
  /// Close a span opened by begin_span(); unknown/zero ids are ignored.
  void end_span(SpanId id);

  /// Record a complete span measured elsewhere (worker-side timings). Returns
  /// the id assigned to it, 0 when disabled. Trace inheritance follows
  /// begin_span(); pass `trace` to pin it explicitly.
  SpanId record_span(std::string_view name, SpanId parent, std::uint64_t start_ns,
                     std::uint64_t dur_ns, std::int64_t pid = 0,
                     std::string_view category = {}, TraceId trace = {});

  /// Attach a point annotation to a span (no-op when disabled or span == 0).
  void add_event(SpanId span, std::string_view name, std::string_view detail = {});

  /// The trace/parent pair to stamp on outgoing requests for `span` (looks
  /// up the open span; falls back to the ambient trace). Invalid when the
  /// span is unknown and no ambient trace is set.
  TraceContext context_of(SpanId span) const;

  /// The calling thread's ambient span (0 if none). Static so cross-layer
  /// code can read/seed it without holding a Telemetry reference.
  static SpanId current_span();
  static SpanId exchange_current_span(SpanId id);
  /// The calling thread's ambient trace (maintained by ScopedSpan; seeded
  /// manually at process-boundary adoption points).
  static TraceId current_trace();
  static TraceId exchange_current_trace(TraceId trace);

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Snapshot of finished spans (open spans are not included).
  std::vector<SpanRecord> spans() const;
  /// Snapshot of span events recorded via add_event().
  std::vector<SpanEvent> events() const;
  std::uint64_t dropped_spans() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  struct OpenSpan {
    SpanRecord record;
  };

  void finish(SpanRecord&& record);
  /// Trace for a new span: open parent's trace → ambient trace → fresh.
  /// Caller must hold mutex_.
  TraceId resolve_trace_locked(SpanId parent) const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> dropped_{0};
  std::uint64_t epoch_ns_ = 0;
  std::size_t max_spans_ = 0;
  mutable std::mutex mutex_;
  std::unordered_map<SpanId, OpenSpan> open_;
  std::vector<SpanRecord> done_;
  std::vector<SpanEvent> events_;
  MetricsRegistry metrics_;
};

/// RAII span. Safe with a null or disabled Telemetry (then a no-op). While
/// alive it is the calling thread's current span, so nested spans inherit it.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Telemetry* telemetry, std::string_view name,
             SpanId parent = Telemetry::kInheritParent, std::string_view category = {});
  /// Adopt a remote trace (traceparent from a request header / wire message).
  ScopedSpan(Telemetry* telemetry, std::string_view name, const TraceContext& context,
             std::string_view category = {});
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanId id() const { return id_; }
  /// The trace/span pair to propagate downstream from this span (invalid
  /// when the span recorded nothing — disabled or null telemetry).
  TraceContext context() const { return TraceContext{trace_, id_}; }
  /// Close early (idempotent); also restores the previous current span.
  void end();

 private:
  Telemetry* telemetry_ = nullptr;
  SpanId id_ = 0;
  SpanId saved_ = 0;
  TraceId trace_;
  TraceId saved_trace_;
};

/// Seeds the calling thread's current span (for work handed to another
/// thread: capture the parent id, then open one of these in the worker).
/// Pass the trace too when the parent span may have closed by the time the
/// child opens; while the parent is still open its trace is found directly.
class CurrentSpanScope {
 public:
  explicit CurrentSpanScope(SpanId id) : saved_(Telemetry::exchange_current_span(id)) {}
  CurrentSpanScope(SpanId id, TraceId trace)
      : saved_(Telemetry::exchange_current_span(id)),
        saved_trace_(Telemetry::exchange_current_trace(trace)),
        restore_trace_(true) {}
  ~CurrentSpanScope() {
    Telemetry::exchange_current_span(saved_);
    if (restore_trace_) Telemetry::exchange_current_trace(saved_trace_);
  }
  CurrentSpanScope(const CurrentSpanScope&) = delete;
  CurrentSpanScope& operator=(const CurrentSpanScope&) = delete;

 private:
  SpanId saved_;
  TraceId saved_trace_;
  bool restore_trace_ = false;
};

// Canonical metric names (Prometheus conventions: *_total counters, *_seconds
// histograms, plain gauges). Shared by the instrumented layers and exporters.
namespace metric {
inline constexpr const char* kEvalsStarted = "tunekit_evals_started_total";
inline constexpr const char* kWorkerRestarts = "tunekit_worker_restarts_total";
inline constexpr const char* kEvalsQuarantined = "tunekit_evals_quarantined_total";
inline constexpr const char* kQueueDepth = "tunekit_queue_depth";
inline constexpr const char* kEvalSeconds = "tunekit_eval_seconds";
inline constexpr const char* kGpFitSeconds = "tunekit_gp_fit_seconds";
inline constexpr const char* kAcqArgmaxSeconds = "tunekit_acq_argmax_seconds";
inline constexpr const char* kJournalFsyncSeconds = "tunekit_journal_fsync_seconds";
inline constexpr const char* kFleetNodesUp = "tunekit_fleet_nodes_up";
inline constexpr const char* kFleetSlotsBusy = "tunekit_fleet_slots_busy";
inline constexpr const char* kFleetSteals = "tunekit_fleet_steals_total";
inline constexpr const char* kFleetRedispatches = "tunekit_fleet_redispatches_total";
/// Queue-to-result dispatch latency; per-node variants append "_node_<id>".
inline constexpr const char* kFleetEvalSeconds = "tunekit_fleet_eval_seconds";
// Storage integrity: journal poisoning, segment rotation, salvage.
inline constexpr const char* kStoragePoisoned = "tunekit_storage_poisoned_total";
inline constexpr const char* kStorageSegmentsSealed =
    "tunekit_storage_segments_sealed_total";
inline constexpr const char* kStorageCorruptSegments =
    "tunekit_storage_corrupt_segments_total";
inline constexpr const char* kStorageSalvagedRecords =
    "tunekit_storage_salvaged_records_total";
inline constexpr const char* kStorageLostRecords =
    "tunekit_storage_lost_records_total";
// Fleet circuit breaker: open transitions, currently-open gauge, shed load.
inline constexpr const char* kBreakerOpens = "tunekit_breaker_open_total";
inline constexpr const char* kBreakerNodesOpen = "tunekit_breaker_nodes_open";
inline constexpr const char* kBreakerShed = "tunekit_breaker_shed_total";
// Exactly-once retries: replay-cache hits (a retried request answered from
// the journaled response), client-side retry attempts/exhaustions.
inline constexpr const char* kReplayHits = "tunekit_retry_replayed_total";
inline constexpr const char* kRetryAttempts = "tunekit_retry_attempts_total";
inline constexpr const char* kRetryExhausted = "tunekit_retry_exhausted_total";
// Adaptive admission control: requests shed (by cap or queue delay) and the
// queue-delay / advertised-Retry-After distributions behind those decisions.
inline constexpr const char* kShedRequests = "tunekit_shed_requests_total";
inline constexpr const char* kShedQueueDelay = "tunekit_shed_queue_delay_seconds";
inline constexpr const char* kShedRetryAfter = "tunekit_shed_retry_after_seconds";
// Deadline propagation: budgets rejected before dispatch, expired while
// queued, scheduler loops stopped by budget, and the budget distribution.
inline constexpr const char* kDeadlineRejected = "tunekit_deadline_rejected_total";
inline constexpr const char* kDeadlineExpiredInQueue =
    "tunekit_deadline_expired_queue_total";
inline constexpr const char* kDeadlineStopped = "tunekit_deadline_stopped_total";
inline constexpr const char* kDeadlineBudgetSeconds =
    "tunekit_deadline_budget_seconds";
// Tracing plumbing: spans dropped by the bounded buffer (also surfaced in
// the Chrome export), HTTP request latency (carries trace-id exemplars).
inline constexpr const char* kDroppedSpans = "tunekit_dropped_spans_total";
inline constexpr const char* kHttpRequestSeconds = "tunekit_http_request_seconds";
// Fleet clock sync: |estimated offset| per node is exported as a gauge with
// the "tunekit_fleet_clock_offset_seconds_node_<id>" suffix convention.
inline constexpr const char* kFleetClockOffsetSeconds =
    "tunekit_fleet_clock_offset_seconds";
// Online structure learning: affinity refits, adopted repartitions, refit
// latency, and the active-partition shape (block count / largest block /
// observations since the last repartition) surfaced by `tunekit_cli top`.
inline constexpr const char* kStructureRefits = "tunekit_structure_refits_total";
inline constexpr const char* kStructureRepartitions =
    "tunekit_structure_repartitions_total";
inline constexpr const char* kStructureRefitSeconds =
    "tunekit_structure_refit_seconds";
inline constexpr const char* kStructureBlocks = "tunekit_structure_blocks";
inline constexpr const char* kStructureLargestBlock =
    "tunekit_structure_largest_block";
inline constexpr const char* kStructureEvalsSinceRepartition =
    "tunekit_structure_evals_since_repartition";
}  // namespace metric

/// Counter for a classified evaluation outcome: "ok" → tunekit_evals_ok_total,
/// "timed-out" → tunekit_evals_timed_out_total, etc. (non-alnum → '_').
Counter& outcome_counter(MetricsRegistry& metrics, std::string_view outcome);

}  // namespace tunekit::obs
