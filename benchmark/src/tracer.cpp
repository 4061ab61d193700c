#include "tracer.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace tkbench {

namespace {

std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{0};

thread_local std::uint64_t t_current_id = 0;
thread_local std::uint64_t t_current_trace = 0;
thread_local std::vector<Span>* t_buffer = nullptr;
thread_local std::uint32_t t_tid = g_next_tid.fetch_add(1);

}  // namespace

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, bool new_trace) : tracer_(tracer) {
  span_.name = name;
  if (tracer_->enabled()) {
    span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    const bool root = new_trace || t_current_id == 0;
    span_.parent = root ? 0 : t_current_id;
    span_.trace = root ? span_.id : t_current_trace;
    span_.tid = t_tid;
    saved_id_ = t_current_id;
    saved_trace_ = t_current_trace;
    t_current_id = span_.id;
    t_current_trace = span_.trace;
  }
  span_.start_ns = steady_ns();
}

void Tracer::Scope::end() {
  if (!open_) return;
  open_ = false;
  span_.end_ns = steady_ns();
  if (tracer_->enabled()) {
    t_current_id = saved_id_;
    t_current_trace = saved_trace_;
    tracer_->record(span_);
  }
}

double Tracer::Scope::ms() const {
  const std::int64_t end = open_ ? steady_ns() : span_.end_ns;
  return static_cast<double>(end - span_.start_ns) / 1e6;
}

std::vector<Span>& Tracer::thread_buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffers_.back()->reserve(1 << 14);
    t_buffer = buffers_.back().get();
  }
  return *t_buffer;
}

void Tracer::record(const Span& span) {
  if (kept_.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  thread_buffer().push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& b : buffers_) out.insert(out.end(), b->begin(), b->end());
  return out;
}

std::map<std::string, LayerTime> Tracer::layers() const {
  const auto all = spans();
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  child_ns.reserve(all.size());
  for (const auto& s : all) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, LayerTime> out;
  for (const auto& s : all) {
    const std::int64_t dur = s.end_ns - s.start_ns;
    std::int64_t self = dur;
    if (auto it = child_ns.find(s.id); it != child_ns.end()) self -= it->second;
    if (self < 0) self = 0;
    LayerTime& l = out[s.name];
    ++l.calls;
    l.total_ms += static_cast<double>(dur) / 1e6;
    l.self_ms += static_cast<double>(self) / 1e6;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "trace,id,parent,name,start_ns,dur_ns,tid\n";
  for (const auto& s : spans()) {
    out << s.trace << ',' << s.id << ',' << s.parent << ',' << s.name << ',' << s.start_ns
        << ',' << (s.end_ns - s.start_ns) << ',' << s.tid << '\n';
  }
  if (!out) throw std::runtime_error("short write of spans to " + path);
}

}  // namespace tkbench
