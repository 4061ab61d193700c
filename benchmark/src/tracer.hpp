#pragma once
// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code, one around each call into a
// layer of the library; nothing inside the library is instrumented. A span
// holds its name, start, end and parent; all spans of one campaign or of one
// ask/tell cycle share a trace id. Each thread appends to its own buffer, and
// the spans are written out once, when the run ends.
//
// A Scope always reads the clock, so the untraced run times its operations
// with the same code; it records a span only when the tracer is enabled.
// Memory is bounded: past kMaxSpans, spans are counted as dropped, and the
// per-layer means come from the spans that were kept.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tkbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root
  std::uint64_t trace = 0;
  const char* name = "";  ///< string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
};

/// Per span name: calls, total time, and self time (the part of each span's
/// interval that none of its child spans covers).
struct LayerTime {
  std::size_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { end(); }
    /// Close the span (idempotent) and restore the thread's parent span.
    void end();
    /// Duration in ms; the running time while still open.
    double ms() const;

   private:
    friend class Tracer;
    Scope(Tracer* tracer, const char* name, bool new_trace);

    Tracer* tracer_;
    Span span_;
    std::uint64_t saved_id_ = 0;
    std::uint64_t saved_trace_ = 0;
    bool open_ = true;
  };

  static constexpr std::size_t kMaxSpans = std::size_t{1} << 18;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A child of the calling thread's open span; a root with a fresh trace id
  /// when none is open.
  Scope span(const char* name) { return Scope(this, name, false); }
  /// A root span that starts a fresh trace.
  Scope root(const char* name) { return Scope(this, name, true); }

  std::vector<Span> spans() const;
  std::size_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  std::map<std::string, LayerTime> layers() const;
  /// One CSV line per span: trace,id,parent,name,start_ns,dur_ns,tid.
  void write(const std::string& path) const;

 private:
  void record(const Span& span);
  std::vector<Span>& thread_buffer();

  bool enabled_;
  std::atomic<std::size_t> kept_{0};
  std::atomic<std::size_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

std::int64_t steady_ns();

}  // namespace tkbench
