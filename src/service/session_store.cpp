#include "service/session_store.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "common/crc32c.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "obs/telemetry.hpp"

namespace tunekit::service {

namespace {

namespace fs = std::filesystem;

constexpr const char* kFormatV1 = "tunekit-session-v1";
constexpr const char* kFormatV2 = "tunekit-session-v2";

json::Value header_value(const JournalHeader& h) {
  json::Object obj;
  obj["e"] = json::Value("open");
  obj["format"] = json::Value(h.format);
  obj["space"] = json::Value(h.space_size);
  obj["max_evals"] = json::Value(h.max_evals);
  obj["seed"] = json::Value(static_cast<double>(h.seed));
  obj["backend"] = json::Value(h.backend);
  obj["next_id"] = json::Value(static_cast<double>(h.next_id));
  if (!h.snapshot.empty()) obj["snapshot"] = json::Value(h.snapshot);
  if (h.format == kFormatV2) obj["seq"] = json::Value(static_cast<double>(h.seq));
  return json::Value(std::move(obj));
}

JournalHeader parse_header(const json::Value& v, const std::string& path) {
  if (!v.is_object() || !v.contains("e") || v.at("e").as_string() != "open" ||
      !v.contains("format") ||
      (v.at("format").as_string() != kFormatV1 &&
       v.at("format").as_string() != kFormatV2)) {
    throw std::runtime_error("SessionStore: '" + path +
                             "' does not start with a tunekit-session header");
  }
  JournalHeader h;
  h.format = v.at("format").as_string();
  h.space_size = static_cast<std::size_t>(v.at("space").as_number());
  h.max_evals = static_cast<std::size_t>(v.at("max_evals").as_number());
  h.seed = static_cast<std::uint64_t>(v.at("seed").as_number());
  h.backend = v.at("backend").as_string();
  h.next_id = static_cast<std::uint64_t>(v.number_or("next_id", 0.0));
  if (v.contains("snapshot")) h.snapshot = v.at("snapshot").as_string();
  h.seq = static_cast<std::uint64_t>(v.number_or("seq", 1.0));
  return h;
}

json::Value ask_value(const Candidate& c) {
  json::Array cfg;
  for (double x : c.config) cfg.emplace_back(x);
  json::Object obj;
  obj["e"] = json::Value("ask");
  obj["id"] = json::Value(static_cast<double>(c.id));
  obj["attempt"] = json::Value(c.attempt);
  obj["config"] = json::Value(std::move(cfg));
  return json::Value(std::move(obj));
}

/// A "latest wins" record: {"e":kind,"snap":snapshot}.
json::Value snapshot_value(const char* kind, const json::Value& snapshot) {
  json::Object obj;
  obj["e"] = json::Value(kind);
  obj["snap"] = snapshot;
  return json::Value(std::move(obj));
}

json::Value cont_value(std::uint64_t seq) {
  json::Object obj;
  obj["e"] = json::Value("cont");
  obj["format"] = json::Value(kFormatV2);
  obj["seq"] = json::Value(static_cast<double>(seq));
  return json::Value(std::move(obj));
}

json::Value seal_value(std::uint64_t seq, std::size_t n) {
  json::Object obj;
  obj["e"] = json::Value("seal");
  obj["seq"] = json::Value(static_cast<double>(seq));
  obj["n"] = json::Value(n);
  return json::Value(std::move(obj));
}

/// v2 record framing: 8 lowercase hex chars of CRC32C(payload), space, payload.
std::string frame_line(const std::string& payload) {
  return common::crc32c_hex(payload) + " " + payload;
}

/// Validate one framed line; on success fills `out` with the parsed payload.
/// A valid record is an object with a string "e" — anything else (bad frame,
/// CRC mismatch, malformed JSON) is damage, not a record.
bool unframe(const std::string& line, json::Value* out) {
  if (line.size() < 10 || line[8] != ' ') return false;
  for (std::size_t i = 0; i < 8; ++i) {
    const char c = line[i];
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return false;
  }
  const std::string payload = line.substr(9);
  if (common::crc32c_hex(payload) != line.substr(0, 8)) return false;
  try {
    json::Value v = json::parse(payload);
    if (!v.is_object() || !v.contains("e")) return false;
    v.at("e").as_string();
    *out = std::move(v);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

/// Sealed-segment path for sequence `seq`: "<stem>.NNNNNN.jsonl" when the
/// journal ends in ".jsonl", "<path>.NNNNNN" otherwise.
std::string segment_path(const std::string& path, std::uint64_t seq) {
  char num[32];
  std::snprintf(num, sizeof num, "%06llu", static_cast<unsigned long long>(seq));
  const std::string suffix = ".jsonl";
  if (path.size() > suffix.size() &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return path.substr(0, path.size() - suffix.size()) + "." + num + suffix;
  }
  return path + "." + num;
}

/// Sealed segments next to `path`, ascending by sequence number.
std::vector<std::pair<std::uint64_t, std::string>> list_segments(
    const std::string& path) {
  const fs::path p(path);
  const fs::path dir = p.parent_path().empty() ? fs::path(".") : p.parent_path();
  const std::string fname = p.filename().string();
  const std::string jsonl = ".jsonl";
  std::string stem;
  std::string suffix;
  if (fname.size() > jsonl.size() &&
      fname.compare(fname.size() - jsonl.size(), jsonl.size(), jsonl) == 0) {
    stem = fname.substr(0, fname.size() - jsonl.size()) + ".";
    suffix = jsonl;
  } else {
    stem = fname + ".";
  }
  std::vector<std::pair<std::uint64_t, std::string>> out;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string n = it->path().filename().string();
    if (n.size() <= stem.size() + suffix.size()) continue;
    if (n.compare(0, stem.size(), stem) != 0) continue;
    if (!suffix.empty() &&
        n.compare(n.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string mid =
        n.substr(stem.size(), n.size() - stem.size() - suffix.size());
    if (mid.empty() ||
        !std::all_of(mid.begin(), mid.end(),
                     [](unsigned char c) { return std::isdigit(c) != 0; })) {
      continue;
    }
    out.emplace_back(std::stoull(mid), (dir / n).string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// One framed file, scanned line by line.
struct FileScan {
  std::vector<json::Value> records;      ///< valid records, in order
  std::vector<std::string> valid_lines;  ///< their raw framed lines
  std::size_t invalid_lines = 0;         ///< invalid lines *followed by* a valid one
  std::size_t trailing_invalid = 0;      ///< invalid lines at the very end
  std::size_t valid_bytes = 0;           ///< offset just past the last valid line
};

FileScan scan_framed(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    throw std::runtime_error("SessionStore: cannot read '" + file + "'");
  }
  FileScan s;
  std::size_t offset = 0;
  std::size_t pending = 0;  // invalid run not yet known to be mid-file
  std::string line;
  while (std::getline(in, line)) {
    // getline consumed the bytes of `line` plus the newline, except possibly
    // at EOF where the final line may lack one.
    const bool had_newline = !in.eof();
    const std::size_t consumed = line.size() + (had_newline ? 1 : 0);
    json::Value v;
    if (!line.empty() && unframe(line, &v)) {
      s.invalid_lines += pending;
      pending = 0;
      s.records.push_back(std::move(v));
      s.valid_lines.push_back(line);
      s.valid_bytes = offset + consumed;
    } else if (!line.empty() || had_newline) {
      ++pending;
    }
    offset += consumed;
  }
  s.trailing_invalid = pending;
  return s;
}

bool is_seal(const json::Value& v) {
  return v.at("e").as_string() == "seal";
}

void fsync_dir_or_throw(common::Io& io, const std::string& dir,
                        const std::string& what) {
  // A rename is atomic but not durable until the directory entry itself is
  // synced; an ignored failure here would quietly void the durability
  // contract the rename exists for — surface it exactly like a file fsync.
  if (io.fsync_dir(dir) != 0) {
    const std::string err = std::strerror(errno);
    log_error("SessionStore: directory fsync failed after ", what, " in '", dir,
              "': ", err);
    throw std::runtime_error("SessionStore: directory fsync failed after " +
                             what + " in '" + dir + "': " + err);
  }
}

std::string parent_dir(const std::string& path) {
  const auto dir = fs::path(path).parent_path();
  return dir.empty() ? std::string(".") : dir.string();
}

/// Quarantine a damaged file: copy it under `<dir>/corrupt/` (deterministic
/// name, overwriting any previous quarantine of the same file).
void quarantine_copy(const std::string& file) {
  const fs::path src(file);
  const fs::path dir = fs::path(parent_dir(file)) / "corrupt";
  std::error_code ec;
  fs::create_directories(dir, ec);
  fs::copy_file(src, dir / src.filename(), fs::copy_options::overwrite_existing,
                ec);
  if (ec) {
    log_warn("SessionStore: could not quarantine '", file, "' to '",
             (dir / src.filename()).string(), "': ", ec.message());
  }
}

/// Atomically rewrite `file` to exactly `lines` (used by salvage).
void rewrite_file(const std::string& file, const std::vector<std::string>& lines) {
  const std::string tmp = file + ".repair.tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("SessionStore: cannot write '" + tmp + "'");
    }
    for (const auto& l : lines) out << l << '\n';
    out.flush();
    if (!out) {
      throw std::runtime_error("SessionStore: write failed for '" + tmp + "'");
    }
  }
  std::error_code ec;
  fs::rename(tmp, file, ec);
  if (ec) {
    throw std::runtime_error("SessionStore: repair rename failed for '" + file +
                             "': " + ec.message());
  }
  fsync_dir_or_throw(common::real_io(), parent_dir(file), "repair");
}

std::string basename_of(const std::string& path) {
  return fs::path(path).filename().string();
}

/// Everything structural about a v2 journal: header discovery across
/// segments, CRC validation, seal/sequence checks, and (optionally) repair.
struct JournalScan {
  JournalHeader header;
  /// Valid records from live sealed segments then the active file, in order
  /// (structural records — open/cont/seal/salvage — included).
  std::vector<json::Value> records;
  SessionStore::SalvageReport salvage;
  std::size_t live_segments = 0;
};

JournalScan scan_v2(const std::string& path, bool repair,
                    obs::Telemetry* telemetry) {
  JournalScan out;
  FileScan active = scan_framed(path);
  if (active.records.empty()) {
    throw std::runtime_error("SessionStore: '" + path +
                             "' does not start with a tunekit-session header");
  }
  const std::string e0 = active.records.front().at("e").as_string();
  bool have_header = false;
  std::uint64_t active_seq = 1;
  if (e0 == "open") {
    out.header = parse_header(active.records.front(), path);
    active_seq = out.header.seq;
    have_header = true;
  } else if (e0 == "cont") {
    active_seq = static_cast<std::uint64_t>(
        active.records.front().number_or("seq", 1.0));
  } else {
    throw std::runtime_error("SessionStore: '" + path +
                             "' does not start with a tunekit-session header");
  }

  // Live sealed segments: walk backwards from the active sequence to the
  // segment holding the "open" header. Anything older predates the last
  // compaction (whose snapshot supersedes it) and is stale.
  const auto segments = list_segments(path);
  std::vector<std::tuple<std::uint64_t, std::string, FileScan>> live;
  std::uint64_t first_live_seq = active_seq;
  if (!have_header) {
    for (auto it = segments.rbegin(); it != segments.rend(); ++it) {
      if (it->first >= active_seq) continue;
      FileScan s = scan_framed(it->second);
      const bool opens = !s.records.empty() &&
                         s.records.front().at("e").as_string() == "open";
      if (opens) out.header = parse_header(s.records.front(), it->second);
      live.emplace_back(it->first, it->second, std::move(s));
      if (opens) {
        have_header = true;
        first_live_seq = it->first;
        break;
      }
    }
    if (!have_header) {
      throw std::runtime_error("SessionStore: no segment of '" + path +
                               "' holds a tunekit-session header");
    }
    std::reverse(live.begin(), live.end());
  }

  for (const auto& seg : segments) {
    const std::uint64_t seq = seg.first;
    const std::string& file = seg.second;
    if (seq < first_live_seq) {
      out.salvage.notes.push_back("stale segment " + basename_of(file) +
                                  " superseded by snapshot" +
                                  std::string(repair ? " (retired)" : ""));
      if (repair) {
        std::error_code ec;
        fs::remove(file, ec);
      }
    } else if (seq >= active_seq) {
      out.salvage.notes.push_back("unexpected segment " + basename_of(file) +
                                  " at/after the active sequence (ignored)");
    }
  }

  // Validate and ingest live sealed segments.
  std::uint64_t expect_seq = first_live_seq;
  for (auto& [seq, file, scan] : live) {
    if (seq != expect_seq) {
      out.salvage.notes.push_back("segment sequence gap: expected " +
                                  std::to_string(expect_seq) + ", found " +
                                  basename_of(file));
    }
    expect_seq = seq + 1;
    const std::size_t bad = scan.invalid_lines + scan.trailing_invalid;
    bool seal_ok = false;
    if (!scan.records.empty() && is_seal(scan.records.back())) {
      const auto& seal = scan.records.back();
      const auto seal_seq =
          static_cast<std::uint64_t>(seal.number_or("seq", 0.0));
      const auto n = static_cast<std::size_t>(seal.number_or("n", 0.0));
      seal_ok = seal_seq == seq && n == scan.records.size() - 1;
    }
    if (bad > 0 || !seal_ok) {
      ++out.salvage.corrupt_segments;
      out.salvage.lost_records += bad;
      out.salvage.notes.push_back(
          basename_of(file) + ": " + std::to_string(bad) +
          " corrupt line(s), " + std::to_string(scan.records.size()) +
          " record(s) salvaged" + (seal_ok ? "" : ", seal missing/mismatched"));
      if (repair) {
        quarantine_copy(file);
        std::vector<std::string> lines = scan.valid_lines;
        std::vector<json::Value>& records = scan.records;
        if (!records.empty() && is_seal(records.back())) {
          lines.pop_back();
          records.pop_back();
        }
        lines.push_back(frame_line(seal_value(seq, lines.size()).dump()));
        rewrite_file(file, lines);
      } else if (!scan.records.empty() && is_seal(scan.records.back())) {
        scan.records.pop_back();
      }
    }
    for (auto& r : scan.records) out.records.push_back(std::move(r));
    ++out.live_segments;
  }

  // The active file: mid-file damage is corruption (salvage), a trailing
  // invalid run is the classic torn tail (truncate in repair mode).
  if (active.invalid_lines > 0) {
    ++out.salvage.corrupt_segments;
    out.salvage.lost_records += active.invalid_lines;
    out.salvage.notes.push_back(
        basename_of(path) + ": " + std::to_string(active.invalid_lines) +
        " corrupt line(s), " + std::to_string(active.records.size()) +
        " record(s) salvaged");
    if (repair) {
      quarantine_copy(path);
      rewrite_file(path, active.valid_lines);
    }
  }
  if (active.trailing_invalid > 0) {
    ++out.salvage.torn_tails;
    out.salvage.notes.push_back(
        basename_of(path) + ": torn tail at byte " +
        std::to_string(active.valid_bytes) + " (" +
        std::to_string(active.trailing_invalid) + " line(s))" +
        std::string(repair ? ", truncated" : ""));
    log_warn("SessionStore: torn trailing record(s) in '", path, "' at byte ",
             active.valid_bytes);
    if (repair && active.invalid_lines == 0) {
      // (A mid-file rewrite above already dropped the tail too.)
      std::error_code ec;
      fs::resize_file(path, active.valid_bytes, ec);
      if (ec) {
        throw std::runtime_error("SessionStore: torn-tail truncation failed for '" +
                                 path + "': " + ec.message());
      }
    }
  }
  for (auto& r : active.records) out.records.push_back(std::move(r));

  if (telemetry != nullptr && telemetry->enabled() && !out.salvage.clean()) {
    auto& m = telemetry->metrics();
    m.counter(obs::metric::kStorageCorruptSegments)
        .inc(out.salvage.corrupt_segments);
    m.counter(obs::metric::kStorageLostRecords).inc(out.salvage.lost_records);
    if (out.salvage.corrupt_segments > 0) {
      m.counter(obs::metric::kStorageSalvagedRecords).inc(out.records.size());
    }
  }
  return out;
}

std::FILE* open_or_throw(common::Io& io, const std::string& path,
                         const char* mode) {
  std::FILE* f = io.open(path, mode);
  if (!f) {
    throw std::runtime_error("SessionStore: cannot open '" + path +
                             "': " + std::strerror(errno));
  }
  return f;
}

/// First line of `path` (no newline); empty when unreadable/empty.
std::string sniff_first_line(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string first;
  if (in) std::getline(in, first);
  return first;
}

}  // namespace

SessionStore::SessionStore(std::FILE* file, std::string path,
                           const Options& options, bool framed,
                           std::uint64_t seq)
    : file_(file),
      path_(std::move(path)),
      io_(options.io != nullptr ? options.io : &common::real_io()),
      rotate_bytes_(options.rotate_bytes),
      framed_(framed),
      seq_(seq) {}

SessionStore::~SessionStore() {
  if (file_) io_->close(file_);
}

std::unique_ptr<SessionStore> SessionStore::create(const std::string& path,
                                                   const JournalHeader& header,
                                                   const Options& options) {
  const auto dir = fs::path(path).parent_path();
  if (!dir.empty()) fs::create_directories(dir);
  common::Io& io = options.io != nullptr ? *options.io : common::real_io();
  const bool framed = header.format != kFormatV1;
  std::FILE* f = open_or_throw(io, path, "wb");
  auto store = std::unique_ptr<SessionStore>(
      new SessionStore(f, path, options, framed, header.seq));
  store->append_record(header_value(header), /*allow_rotation=*/false);
  return store;
}

std::unique_ptr<SessionStore> SessionStore::append(const std::string& path,
                                                   const Options& options) {
  if (!fs::exists(path)) {
    throw std::runtime_error("SessionStore: no journal at '" + path + "'");
  }
  common::Io& io = options.io != nullptr ? *options.io : common::real_io();
  const std::string first = sniff_first_line(path);
  if (!first.empty() && first.front() == '{') {
    // Legacy v1 journal: keep appending unframed records to it.
    std::FILE* f = open_or_throw(io, path, "ab");
    return std::unique_ptr<SessionStore>(
        new SessionStore(f, path, options, /*framed=*/false, 1));
  }

  FileScan scan = scan_framed(path);
  std::uint64_t seq = 1;
  if (!scan.records.empty()) {
    const std::string& e0 = scan.records.front().at("e").as_string();
    if (e0 == "open") {
      seq = static_cast<std::uint64_t>(scan.records.front().number_or("seq", 1.0));
    } else if (e0 == "cont") {
      seq = static_cast<std::uint64_t>(scan.records.front().number_or("seq", 1.0));
    }
  }
  if (scan.trailing_invalid > 0) {
    // Appending after a torn tail would bury it mid-file and turn a benign
    // crash artifact into corruption at the *next* replay — truncate first.
    log_warn("SessionStore: truncating torn tail of '", path, "' at byte ",
             scan.valid_bytes, " before resuming appends");
    std::error_code ec;
    fs::resize_file(path, scan.valid_bytes, ec);
    if (ec) {
      throw std::runtime_error("SessionStore: torn-tail truncation failed for '" +
                               path + "': " + ec.message());
    }
  }

  if (!scan.records.empty() && is_seal(scan.records.back())) {
    // A crash landed between sealing and renaming: finish the rotation now
    // so the seal stays where replay expects it (end of a sealed segment).
    std::error_code ec;
    if (!io.rename(path, segment_path(path, seq), ec)) {
      throw std::runtime_error("SessionStore: rotation rename failed for '" +
                               path + "': " + ec.message());
    }
    fsync_dir_or_throw(io, parent_dir(path), "rotation");
    std::FILE* f = open_or_throw(io, path, "wb");
    auto store = std::unique_ptr<SessionStore>(
        new SessionStore(f, path, options, /*framed=*/true, seq + 1));
    store->append_record(cont_value(seq + 1), /*allow_rotation=*/false);
    return store;
  }

  std::FILE* f = open_or_throw(io, path, "ab");
  auto store = std::unique_ptr<SessionStore>(
      new SessionStore(f, path, options, /*framed=*/true, seq));
  store->active_records_ = scan.records.size();
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  store->active_bytes_ = ec ? scan.valid_bytes : static_cast<std::size_t>(size);
  return store;
}

void SessionStore::append_record(const json::Value& value, bool allow_rotation) {
  const std::string payload = value.dump();
  append_line(framed_ ? frame_line(payload) : payload);
  ++active_records_;
  if (allow_rotation && framed_ && rotate_bytes_ > 0 &&
      active_bytes_ >= rotate_bytes_) {
    rotate();
  }
}

void SessionStore::append_line(const std::string& line) {
  if (poisoned_) {
    throw StorePoisonedError(
        "SessionStore: store for '" + path_ +
        "' is poisoned after an earlier append failure; reopen the session to "
        "resume from the journal");
  }
  const auto poison = [this](const std::string& what) {
    // fsyncgate: after a failed fsync the kernel has dropped the dirty pages
    // and a *retried* fsync reports success without persisting anything. The
    // only honest reaction is to stop acking appends on this handle.
    poisoned_ = true;
    if (telemetry_ != nullptr && telemetry_->enabled()) {
      telemetry_->metrics().counter(obs::metric::kStoragePoisoned).inc();
    }
    log_error("SessionStore: ", what, " for '", path_, "': ",
              std::strerror(errno), " — store is now read-only");
    throw StorePoisonedError("SessionStore: " + what + " for '" + path_ +
                             "': " + std::strerror(errno));
  };
  if (io_->write(file_, line.data(), line.size()) != line.size() ||
      io_->write(file_, "\n", 1) != 1 || io_->flush(file_) != 0) {
    poison("write failed");
  }
  // The durability contract — "an acked tell survives a kill" — holds only
  // if the fsync actually succeeded; a silently-ignored EIO here would turn
  // into lost evaluations at the next resume.
  const bool timing = telemetry_ != nullptr && telemetry_->enabled();
  Stopwatch fsync_watch;
  const int rc = io_->fsync_file(file_);
  if (timing) {
    telemetry_->metrics()
        .histogram(obs::metric::kJournalFsyncSeconds)
        .observe(fsync_watch.seconds());
  }
  if (rc != 0) poison("fsync failed");
  active_bytes_ += line.size() + 1;
}

void SessionStore::rotate() {
  // Seal footer (fsync'd by append_line), rename to the numbered segment,
  // sync the directory, then start a fresh active file with a "cont" record.
  // A crash anywhere in between is recovered by append(): a trailing seal in
  // the active file means "rename never happened — finish it".
  const std::size_t sealed_records = active_records_;
  append_record(seal_value(seq_, sealed_records), /*allow_rotation=*/false);
  io_->close(file_);
  file_ = nullptr;
  std::error_code ec;
  if (!io_->rename(path_, segment_path(path_, seq_), ec)) {
    throw std::runtime_error("SessionStore: rotation rename failed for '" +
                             path_ + "': " + ec.message());
  }
  fsync_dir_or_throw(*io_, parent_dir(path_), "rotation");
  if (telemetry_ != nullptr && telemetry_->enabled()) {
    telemetry_->metrics().counter(obs::metric::kStorageSegmentsSealed).inc();
  }
  if (event_hook_) {
    event_hook_("rotate", "segment " + std::to_string(seq_) + " sealed (" +
                              std::to_string(sealed_records) + " records)");
  }
  file_ = open_or_throw(*io_, path_, "wb");
  ++seq_;
  active_bytes_ = 0;
  active_records_ = 0;
  append_record(cont_value(seq_), /*allow_rotation=*/false);
}

void SessionStore::ask(const Candidate& candidate) {
  append_record(ask_value(candidate));
}

void SessionStore::tell(std::uint64_t id, double value, double cost_seconds,
                        double noise, double duration_ms, int worker_slot,
                        const std::string& worker_node) {
  json::Object obj;
  obj["e"] = json::Value("tell");
  obj["id"] = json::Value(static_cast<double>(id));
  obj["value"] = json::Value(value);
  obj["cost"] = json::Value(cost_seconds);
  if (noise != 0.0) obj["noise"] = json::Value(noise);
  if (duration_ms > 0.0) obj["dur_ms"] = json::Value(duration_ms);
  if (worker_slot >= 0) obj["slot"] = json::Value(worker_slot);
  if (!worker_node.empty()) obj["node"] = json::Value(worker_node);
  append_record(json::Value(std::move(obj)));
}

void SessionStore::fail(std::uint64_t id, robust::EvalOutcome why,
                        const std::string& worker_node) {
  json::Object obj;
  obj["e"] = json::Value("fail");
  obj["id"] = json::Value(static_cast<double>(id));
  obj["why"] = json::Value(std::string(robust::to_string(why)));
  if (!worker_node.empty()) obj["node"] = json::Value(worker_node);
  append_record(json::Value(std::move(obj)));
}

void SessionStore::drop(std::uint64_t id, double value, robust::EvalOutcome why) {
  json::Object obj;
  obj["e"] = json::Value("drop");
  obj["id"] = json::Value(static_cast<double>(id));
  obj["value"] = json::Value(value);
  obj["why"] = json::Value(std::string(robust::to_string(why)));
  append_record(json::Value(std::move(obj)));
}

void SessionStore::quarantine(const search::Config& config) {
  json::Array cfg;
  for (double x : config) cfg.emplace_back(x);
  json::Object obj;
  obj["e"] = json::Value("quar");
  obj["config"] = json::Value(std::move(cfg));
  append_record(json::Value(std::move(obj)));
}

void SessionStore::metrics(const json::Value& snapshot) {
  append_record(snapshot_value("metrics", snapshot));
}

void SessionStore::structure(const json::Value& snapshot) {
  append_record(snapshot_value("struct", snapshot));
}

void SessionStore::gp(const json::Value& snapshot) {
  append_record(snapshot_value("gp", snapshot));
}

void SessionStore::rpc(const std::string& key, const std::string& response) {
  json::Object obj;
  obj["e"] = json::Value("rpc");
  obj["key"] = json::Value(key);
  obj["resp"] = json::Value(response);
  append_record(json::Value(std::move(obj)));
}

void SessionStore::salvage_marker(std::size_t lost_records,
                                  std::size_t corrupt_segments) {
  json::Object obj;
  obj["e"] = json::Value("salvage");
  obj["lost"] = json::Value(lost_records);
  obj["segments"] = json::Value(corrupt_segments);
  append_record(json::Value(std::move(obj)));
}

void SessionStore::compact(
    JournalHeader header, const std::vector<search::Evaluation>& completed,
    const std::vector<Candidate>& in_flight,
    const std::vector<search::Config>& quarantined,
    const json::Value& metrics_snapshot,
    const std::vector<std::pair<std::string, std::string>>& rpc_cache,
    const json::Value& structure_snapshot, const json::Value& gp_snapshot) {
  if (poisoned_) {
    throw StorePoisonedError("SessionStore: store for '" + path_ +
                             "' is poisoned; refusing to compact");
  }
  // The rewritten journal must describe itself: same framing as the store,
  // and the current segment sequence so sealed segments older than this
  // rewrite can never be double-replayed even if retiring them fails.
  header.format = framed_ ? kFormatV2 : kFormatV1;
  header.seq = seq_;

  // 1. Completed evaluations become an EvalDb checkpoint (atomic rename
  //    inside EvalDb::save), referenced from the rewritten header.
  const std::string snapshot = path_ + ".snapshot.json";
  search::EvalDb db;
  for (const auto& e : completed) db.record(e);
  db.save(snapshot, io_);
  header.snapshot = snapshot;

  // 2. Rewrite the journal as header + in-flight asks (+ quarantine, replay
  //    and latest-wins snapshot records, so they survive the rewrite),
  //    atomically.
  const std::string tmp = path_ + ".tmp";
  const std::size_t saved_bytes = active_bytes_;
  const std::size_t saved_records = active_records_;
  {
    std::FILE* old = file_;
    file_ = open_or_throw(*io_, tmp, "wb");
    active_bytes_ = 0;
    active_records_ = 0;
    try {
      append_record(header_value(header), /*allow_rotation=*/false);
      for (const auto& c : in_flight) {
        append_record(ask_value(c), /*allow_rotation=*/false);
      }
      for (const auto& q : quarantined) {
        json::Array cfg;
        for (double x : q) cfg.emplace_back(x);
        json::Object obj;
        obj["e"] = json::Value("quar");
        obj["config"] = json::Value(std::move(cfg));
        append_record(json::Value(std::move(obj)), /*allow_rotation=*/false);
      }
      for (const auto& [key, resp] : rpc_cache) {
        // Replay entries are rewritten oldest-first so the resumed cache
        // evicts in the same order the live one would have.
        json::Object obj;
        obj["e"] = json::Value("rpc");
        obj["key"] = json::Value(key);
        obj["resp"] = json::Value(resp);
        append_record(json::Value(std::move(obj)), /*allow_rotation=*/false);
      }
      const std::pair<const char*, const json::Value*> latest[] = {
          {"metrics", &metrics_snapshot},
          {"struct", &structure_snapshot},
          {"gp", &gp_snapshot}};
      for (const auto& [kind, snapshot] : latest) {
        if (snapshot->is_null()) continue;
        append_record(snapshot_value(kind, *snapshot), /*allow_rotation=*/false);
      }
    } catch (...) {
      io_->close(file_);
      file_ = old;
      active_bytes_ = saved_bytes;
      active_records_ = saved_records;
      fs::remove(tmp);
      throw;
    }
    io_->close(old);
  }
  std::error_code ec;
  if (!io_->rename(tmp, path_, ec)) {
    throw std::runtime_error("SessionStore: compaction rename failed for '" +
                             path_ + "': " + ec.message());
  }
  // The rename is atomic but not durable until the directory entry itself
  // is synced; without this a power cut can resurrect the pre-compaction
  // journal while the snapshot file it references already exists.
  fsync_dir_or_throw(*io_, parent_dir(path_), "compaction");

  // 3. Retire sealed segments: the snapshot supersedes them, and the header
  //    just written records seq_, so even a crash right here cannot replay
  //    them twice.
  for (const auto& [seq, file] : list_segments(path_)) {
    if (seq < seq_) {
      std::error_code rm;
      fs::remove(file, rm);
    }
  }
}

namespace {

/// Apply journal event records to a Replay (shared by v1 and v2). Structural
/// records (open/cont/seal/salvage) are skipped. `tolerate_final` preserves
/// the v1 rule that a malformed *final* record is a torn tail, not an error.
void apply_events(const std::vector<json::Value>& events,
                  const search::SearchSpace& space, const std::string& path,
                  bool tolerate_final, SessionStore::Replay& out) {
  const auto parse_config = [&](const json::Value& entry) {
    const auto& arr = entry.at("config").as_array();
    if (arr.size() != space.size()) {
      throw std::runtime_error("SessionStore: config arity mismatch in " + path);
    }
    search::Config cfg(arr.size());
    for (std::size_t i = 0; i < arr.size(); ++i) {
      cfg[i] = arr[i].is_null() ? std::numeric_limits<double>::quiet_NaN()
                                : arr[i].as_number();
    }
    return cfg;
  };

  // Pending candidates by id; `fail` keeps them around at attempt + 1 (the
  // live session queues them for re-issue), `tell`/`drop` resolve them.
  std::map<std::uint64_t, Candidate> open;
  std::uint64_t max_id_seen = 0;
  bool any_id = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const bool final_line = i + 1 == events.size();
    const json::Value& v = events[i];
    try {
      const std::string& e = v.at("e").as_string();
      if (e == "open" || e == "cont" || e == "seal" || e == "salvage") continue;
      if (e == "quar") {
        // Quarantine records carry a config, not a candidate id.
        out.quarantined.push_back(parse_config(v));
        continue;
      }
      if (e == "metrics") {
        // Latest snapshot wins; absent "snap" (foreign writer) is tolerated.
        if (v.contains("snap")) out.metrics = v.at("snap");
        continue;
      }
      if (e == "struct") {
        // Learned dependency structure: latest snapshot wins, same contract
        // as metrics. Journals without any struct record (legacy sessions,
        // structure learning off) simply leave Replay::structure null.
        if (v.contains("snap")) out.structure = v.at("snap");
        continue;
      }
      if (e == "gp") {
        // Held GP hyperparameters: latest wins, as for metrics and struct.
        if (v.contains("snap")) out.gp = v.at("snap");
        continue;
      }
      if (e == "rpc") {
        // Idempotency replay entry: keep journal order, later records for
        // the same key supersede earlier ones at the cache layer.
        out.rpc_cache.emplace_back(v.at("key").as_string(),
                                   v.at("resp").as_string());
        continue;
      }
      const auto id = static_cast<std::uint64_t>(v.at("id").as_number());
      max_id_seen = std::max(max_id_seen, id);
      any_id = true;
      if (e == "ask") {
        Candidate c;
        c.id = id;
        c.attempt = static_cast<std::size_t>(v.number_or("attempt", 0.0));
        c.config = parse_config(v);
        open[id] = std::move(c);
      } else if (e == "tell") {
        auto it = open.find(id);
        if (it == open.end()) continue;  // duplicate/out-of-order tell
        const double value = v.at("value").is_null()
                                 ? std::numeric_limits<double>::quiet_NaN()
                                 : v.at("value").as_number();
        search::Evaluation done;
        done.config = it->second.config;
        done.value = value;
        done.cost_seconds = v.number_or("cost", 0.0);
        done.outcome = robust::classify_value(value);
        done.dispersion = v.number_or("noise", 0.0);
        done.duration_ms = v.number_or("dur_ms", 0.0);
        done.worker_slot = static_cast<int>(v.number_or("slot", -1.0));
        out.completed.push_back(std::move(done));
        open.erase(it);
      } else if (e == "fail") {
        auto it = open.find(id);
        if (it != open.end()) ++it->second.attempt;
      } else if (e == "drop") {
        auto it = open.find(id);
        if (it == open.end()) continue;
        const double value = v.at("value").is_null()
                                 ? std::numeric_limits<double>::quiet_NaN()
                                 : v.at("value").as_number();
        // Seed-era drops carried no "why": assume a crash, the old semantics.
        const robust::EvalOutcome why =
            v.contains("why") ? robust::outcome_from_string(v.at("why").as_string())
                              : robust::EvalOutcome::Crashed;
        out.completed.push_back({it->second.config, value, 0.0, why, 0.0});
        open.erase(it);
      } else {
        throw std::runtime_error("SessionStore: unknown journal event '" + e +
                                 "' in " + path);
      }
    } catch (const std::exception& err) {
      if (!(tolerate_final && final_line)) throw;
      log_warn("SessionStore: ignoring malformed trailing record in '", path,
               "': ", err.what());
    }
  }

  for (auto& [id, c] : open) out.in_flight.push_back(std::move(c));
  out.next_id = std::max(out.header.next_id, any_id ? max_id_seen + 1 : 0);
}

/// Legacy unframed journals: the seed-era rules, unchanged — a torn final
/// line is skipped with a warning, corruption anywhere else throws.
SessionStore::Replay replay_v1(const std::string& path,
                               const search::SearchSpace& space) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("SessionStore: cannot read '" + path + "'");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(std::move(line));
  }
  if (lines.empty()) {
    throw std::runtime_error("SessionStore: empty journal '" + path + "'");
  }

  SessionStore::Replay out;
  out.header = parse_header(json::parse(lines.front()), path);
  if (out.header.space_size != space.size()) {
    throw std::runtime_error("SessionStore: journal space size mismatch in " + path);
  }
  if (!out.header.snapshot.empty()) {
    const auto db = search::EvalDb::load(out.header.snapshot, space);
    out.completed = db.all();
  }

  std::vector<json::Value> events;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    // A crash mid-append leaves the *final* line partially written: usually
    // unparseable JSON, but possibly a parseable fragment missing keys. Any
    // failure on that line means "the last record never fully landed" —
    // recover with a warning instead of failing the whole resume. Earlier
    // lines stay strict: corruption there is real damage, not a torn tail.
    try {
      events.push_back(json::parse(lines[i]));
    } catch (const json::JsonError& err) {
      if (i + 1 == lines.size()) {
        log_warn("SessionStore: ignoring torn trailing record in '", path,
                 "': ", err.what());
        break;
      }
      throw std::runtime_error("SessionStore: corrupt journal line in " + path);
    }
  }
  apply_events(events, space, path, /*tolerate_final=*/true, out);
  return out;
}

}  // namespace

SessionStore::Replay SessionStore::replay(const std::string& path,
                                          const search::SearchSpace& space,
                                          const ReplayOptions& options) {
  const std::string first = sniff_first_line(path);
  if (!fs::exists(path)) {
    throw std::runtime_error("SessionStore: cannot read '" + path + "'");
  }
  if (!first.empty() && first.front() == '{') return replay_v1(path, space);

  JournalScan scan = scan_v2(path, options.repair, options.telemetry);
  Replay out;
  out.header = scan.header;
  out.salvage = std::move(scan.salvage);
  if (out.header.space_size != space.size()) {
    throw std::runtime_error("SessionStore: journal space size mismatch in " + path);
  }
  if (!out.header.snapshot.empty()) {
    const auto db = search::EvalDb::load(out.header.snapshot, space);
    out.completed = db.all();
  }
  // CRC-valid records cannot be torn — a semantic failure in one is a writer
  // bug and stays fatal everywhere, including the final line.
  apply_events(scan.records, space, path, /*tolerate_final=*/false, out);
  return out;
}

SessionStore::FsckReport SessionStore::fsck(const std::string& path,
                                            bool repair) {
  FsckReport report;
  try {
    const std::string first = sniff_first_line(path);
    if (!fs::exists(path)) {
      throw std::runtime_error("SessionStore: cannot read '" + path + "'");
    }
    if (!first.empty() && first.front() == '{') {
      // Legacy v1: no CRCs to check — verify every line parses, tolerating
      // only the torn-tail position.
      report.legacy_v1 = true;
      std::ifstream in(path);
      std::vector<std::string> lines;
      for (std::string line; std::getline(in, line);) {
        if (!line.empty()) lines.push_back(std::move(line));
      }
      if (lines.empty()) {
        throw std::runtime_error("SessionStore: empty journal '" + path + "'");
      }
      parse_header(json::parse(lines.front()), path);
      for (std::size_t i = 0; i < lines.size(); ++i) {
        try {
          json::parse(lines[i]);
          ++report.records;
        } catch (const json::JsonError&) {
          if (i + 1 != lines.size()) {
            throw std::runtime_error(
                "SessionStore: corrupt journal line in " + path);
          }
          ++report.salvage.torn_tails;
          report.salvage.notes.push_back(basename_of(path) +
                                         ": torn trailing record");
        }
      }
      report.ok = true;
      return report;
    }

    JournalScan scan = scan_v2(path, repair, nullptr);
    report.segments = scan.live_segments;
    report.records = scan.records.size();
    report.salvage = std::move(scan.salvage);
    report.ok = true;
  } catch (const std::exception& err) {
    report.ok = false;
    report.error = err.what();
  }
  return report;
}

}  // namespace tunekit::service
