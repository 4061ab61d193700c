#include "obs/telemetry.hpp"

#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <random>

namespace tunekit::obs {

namespace {

thread_local SpanId t_current_span = 0;
thread_local TraceId t_current_trace = {};

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Dense thread index for trace readability (0 = first thread seen).
std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local std::uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Process-unique nonzero random 64-bit values. Span ids live in trace trees
// that merge records from several processes (client, server, fleet nodes),
// so sequential-from-1 ids would collide across processes; a random base
// plus a random trace-id generator makes cross-process collisions
// negligible.
std::uint64_t random_u64() {
  static std::atomic<std::uint64_t> state = [] {
    std::random_device rd;
    std::uint64_t seed = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    seed ^= static_cast<std::uint64_t>(::getpid()) << 17;
    seed ^= steady_now_ns();
    return seed;
  }();
  std::uint64_t s = state.fetch_add(0x9e3779b97f4a7c15ull, std::memory_order_relaxed);
  return splitmix64(s);
}

TraceId fresh_trace_id() {
  TraceId trace;
  while (!trace.valid()) {
    trace.hi = random_u64();
    trace.lo = random_u64();
  }
  return trace;
}

void append_hex16(std::string& out, std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  out.append(buf, 16);
}

bool parse_hex(std::string_view hex, std::uint64_t& out) {
  out = 0;
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    out = (out << 4) | static_cast<std::uint64_t>(digit);
  }
  return true;
}

}  // namespace

std::string to_traceparent(const TraceContext& context) {
  std::string out = "00-";
  append_hex16(out, context.trace.hi);
  append_hex16(out, context.trace.lo);
  out += '-';
  append_hex16(out, context.parent);
  out += "-01";
  return out;
}

std::optional<TraceContext> parse_traceparent(std::string_view header) {
  // "00-" + 32 hex + "-" + 16 hex + "-" + 2 hex flags = 55 chars.
  if (header.size() != 55) return std::nullopt;
  if (header.substr(0, 3) != "00-" || header[35] != '-' || header[52] != '-') {
    return std::nullopt;
  }
  TraceContext context;
  std::uint64_t flags = 0;
  if (!parse_hex(header.substr(3, 16), context.trace.hi) ||
      !parse_hex(header.substr(19, 16), context.trace.lo) ||
      !parse_hex(header.substr(36, 16), context.parent) ||
      !parse_hex(header.substr(53, 2), flags)) {
    return std::nullopt;
  }
  if (!context.trace.valid()) return std::nullopt;
  return context;
}

std::string trace_id_hex(const TraceId& trace) {
  std::string out;
  out.reserve(32);
  append_hex16(out, trace.hi);
  append_hex16(out, trace.lo);
  return out;
}

std::string span_id_hex(SpanId id) {
  std::string out;
  out.reserve(16);
  append_hex16(out, id);
  return out;
}

void Telemetry::enable(std::size_t max_spans) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) {
    epoch_ns_ = steady_now_ns();
    done_.reserve(std::min<std::size_t>(max_spans, 4096));
    // Random id base: ids from different processes land in the same trace
    // tree, so they must not all count up from 1. Clear the top bit so a
    // long run can never wrap into the kInheritParent sentinel.
    next_id_.store((random_u64() & 0x7fffffffffffffffull) | 1,
                   std::memory_order_relaxed);
  }
  max_spans_ = max_spans;
  enabled_.store(true, std::memory_order_relaxed);
}

std::uint64_t Telemetry::now_ns() const {
  const std::uint64_t now = steady_now_ns();
  return now >= epoch_ns_ ? now - epoch_ns_ : 0;
}

TraceId Telemetry::resolve_trace_locked(SpanId parent) const {
  if (parent != 0) {
    const auto it = open_.find(parent);
    if (it != open_.end()) return it->second.record.trace;
  }
  if (t_current_trace.valid()) return t_current_trace;
  return parent != 0 ? TraceId{} : fresh_trace_id();
}

SpanId Telemetry::begin_span(std::string_view name, SpanId parent,
                             std::string_view category) {
  if (!enabled()) return 0;
  SpanRecord record;
  record.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  record.parent = (parent == kInheritParent) ? t_current_span : parent;
  record.start_ns = now_ns();
  record.tid = this_thread_index();
  record.name.assign(name.data(), name.size());
  record.category.assign(category.data(), category.size());
  const SpanId id = record.id;
  std::lock_guard<std::mutex> lock(mutex_);
  record.trace = resolve_trace_locked(record.parent);
  if (!record.trace.valid()) record.trace = fresh_trace_id();
  open_.emplace(id, OpenSpan{std::move(record)});
  return id;
}

SpanId Telemetry::begin_span(std::string_view name, const TraceContext& context,
                             std::string_view category) {
  if (!enabled()) return 0;
  if (!context.valid()) return begin_span(name, context.parent, category);
  SpanRecord record;
  record.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  record.parent = context.parent;
  record.trace = context.trace;
  record.start_ns = now_ns();
  record.tid = this_thread_index();
  record.name.assign(name.data(), name.size());
  record.category.assign(category.data(), category.size());
  const SpanId id = record.id;
  std::lock_guard<std::mutex> lock(mutex_);
  open_.emplace(id, OpenSpan{std::move(record)});
  return id;
}

void Telemetry::end_span(SpanId id) {
  if (id == 0 || !enabled()) return;
  const std::uint64_t end_ns = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  SpanRecord record = std::move(it->second.record);
  open_.erase(it);
  record.dur_ns = end_ns >= record.start_ns ? end_ns - record.start_ns : 0;
  if (done_.size() >= max_spans_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  done_.push_back(std::move(record));
}

SpanId Telemetry::record_span(std::string_view name, SpanId parent,
                              std::uint64_t start_ns, std::uint64_t dur_ns,
                              std::int64_t pid, std::string_view category,
                              TraceId trace) {
  if (!enabled()) return 0;
  SpanRecord record;
  record.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  record.parent = (parent == kInheritParent) ? t_current_span : parent;
  record.start_ns = start_ns;
  record.dur_ns = dur_ns;
  record.tid = this_thread_index();
  record.pid = pid;
  record.name.assign(name.data(), name.size());
  record.category.assign(category.data(), category.size());
  std::lock_guard<std::mutex> lock(mutex_);
  record.trace = trace.valid() ? trace : resolve_trace_locked(record.parent);
  if (!record.trace.valid()) record.trace = fresh_trace_id();
  if (done_.size() >= max_spans_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  const SpanId id = record.id;
  done_.push_back(std::move(record));
  return id;
}

void Telemetry::add_event(SpanId span, std::string_view name,
                          std::string_view detail) {
  if (span == 0 || !enabled()) return;
  SpanEvent event;
  event.span = span;
  event.t_ns = now_ns();
  event.name.assign(name.data(), name.size());
  event.detail.assign(detail.data(), detail.size());
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = open_.find(span);
  event.trace = it != open_.end() ? it->second.record.trace : t_current_trace;
  if (events_.size() >= max_spans_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(std::move(event));
}

TraceContext Telemetry::context_of(SpanId span) const {
  TraceContext context;
  context.parent = span;
  if (span != 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = open_.find(span);
    if (it != open_.end()) {
      context.trace = it->second.record.trace;
      return context;
    }
  }
  context.trace = t_current_trace;
  return context;
}

SpanId Telemetry::current_span() { return t_current_span; }

SpanId Telemetry::exchange_current_span(SpanId id) {
  const SpanId previous = t_current_span;
  t_current_span = id;
  return previous;
}

TraceId Telemetry::current_trace() { return t_current_trace; }

TraceId Telemetry::exchange_current_trace(TraceId trace) {
  const TraceId previous = t_current_trace;
  t_current_trace = trace;
  return previous;
}

std::vector<SpanRecord> Telemetry::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

std::vector<SpanEvent> Telemetry::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

ScopedSpan::ScopedSpan(Telemetry* telemetry, std::string_view name, SpanId parent,
                       std::string_view category) {
  if (telemetry == nullptr || !telemetry->enabled()) return;
  telemetry_ = telemetry;
  id_ = telemetry->begin_span(name, parent, category);
  trace_ = telemetry->context_of(id_).trace;
  saved_ = Telemetry::exchange_current_span(id_);
  saved_trace_ = Telemetry::exchange_current_trace(trace_);
}

ScopedSpan::ScopedSpan(Telemetry* telemetry, std::string_view name,
                       const TraceContext& context, std::string_view category) {
  if (telemetry == nullptr || !telemetry->enabled()) return;
  telemetry_ = telemetry;
  id_ = telemetry->begin_span(name, context, category);
  trace_ = telemetry->context_of(id_).trace;
  saved_ = Telemetry::exchange_current_span(id_);
  saved_trace_ = Telemetry::exchange_current_trace(trace_);
}

void ScopedSpan::end() {
  if (telemetry_ == nullptr) return;
  Telemetry::exchange_current_span(saved_);
  Telemetry::exchange_current_trace(saved_trace_);
  telemetry_->end_span(id_);
  telemetry_ = nullptr;
  id_ = 0;
}

Counter& outcome_counter(MetricsRegistry& metrics, std::string_view outcome) {
  std::string name = "tunekit_evals_";
  for (char c : outcome) {
    name.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  name += "_total";
  return metrics.counter(name);
}

}  // namespace tunekit::obs
