#include "search/eval_db.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/io.hpp"
#include "common/json.hpp"

namespace tunekit::search {

EvalDb::EvalDb(EvalDb&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mutex_);
  evals_ = std::move(other.evals_);
}

EvalDb& EvalDb::operator=(EvalDb&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mutex_, other.mutex_);
    evals_ = std::move(other.evals_);
  }
  return *this;
}

void EvalDb::record(Config config, double value, double cost_seconds) {
  record(std::move(config), value, cost_seconds, robust::classify_value(value));
}

void EvalDb::record(Config config, double value, double cost_seconds,
                    robust::EvalOutcome outcome, double dispersion) {
  Evaluation e;
  e.config = std::move(config);
  e.value = value;
  e.cost_seconds = cost_seconds;
  e.outcome = outcome;
  e.dispersion = dispersion;
  record(std::move(e));
}

void EvalDb::record(Evaluation evaluation) {
  std::lock_guard<std::mutex> lock(mutex_);
  evals_.push_back(std::move(evaluation));
}

std::size_t EvalDb::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evals_.size();
}

std::vector<Evaluation> EvalDb::all() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evals_;
}

std::optional<Evaluation> EvalDb::best() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::optional<Evaluation> best;
  for (const auto& e : evals_) {
    // Non-finite covers +inf failure sentinels too, not just NaN.
    if (!std::isfinite(e.value)) continue;
    if (!best || e.value < best->value) best = e;
  }
  return best;
}

std::vector<Evaluation> EvalDb::best_k(std::size_t k) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Evaluation> sorted;
  sorted.reserve(evals_.size());
  for (const auto& e : evals_) {
    if (std::isfinite(e.value)) sorted.push_back(e);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Evaluation& a, const Evaluation& b) { return a.value < b.value; });
  if (sorted.size() > k) sorted.resize(k);
  return sorted;
}

void EvalDb::save(const std::string& path, common::Io* io) const {
  json::Array entries;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& e : evals_) {
      json::Array cfg;
      for (double v : e.config) cfg.emplace_back(v);
      json::Object obj;
      obj["config"] = json::Value(std::move(cfg));
      obj["value"] = json::Value(e.value);
      obj["cost_seconds"] = json::Value(e.cost_seconds);
      // Optional fields (absent in seed-era checkpoints): keep the format id
      // stable so old readers/writers interoperate.
      if (e.outcome != robust::EvalOutcome::Ok) {
        obj["outcome"] = json::Value(std::string(robust::to_string(e.outcome)));
      }
      if (e.dispersion != 0.0) obj["dispersion"] = json::Value(e.dispersion);
      if (e.duration_ms > 0.0) obj["duration_ms"] = json::Value(e.duration_ms);
      if (e.worker_slot >= 0) obj["worker_slot"] = json::Value(e.worker_slot);
      entries.emplace_back(std::move(obj));
    }
  }
  json::Object root;
  root["format"] = json::Value("tunekit-evaldb-v1");
  root["evaluations"] = json::Value(std::move(entries));
  // Atomic replace: a crash mid-save must never corrupt an existing
  // checkpoint, or the crash recovery it exists for would be lost.
  json::save_atomic(path, json::Value(std::move(root)), 2,
                    io != nullptr ? *io : common::real_io());
}

EvalDb EvalDb::load(const std::string& path, const SearchSpace& space) {
  EvalDb db = load(path);
  for (const auto& e : db.evals_) {
    if (e.config.size() != space.size()) {
      throw std::runtime_error("EvalDb::load: config arity mismatch in " + path);
    }
  }
  return db;
}

EvalDb EvalDb::load(const std::string& path) {
  const json::Value root = json::load(path);
  if (!root.contains("format") || root.at("format").as_string() != "tunekit-evaldb-v1") {
    throw std::runtime_error("EvalDb::load: unrecognized checkpoint format in " + path);
  }
  EvalDb db;
  for (const auto& entry : root.at("evaluations").as_array()) {
    const auto& cfg_json = entry.at("config").as_array();
    Config cfg(cfg_json.size());
    for (std::size_t i = 0; i < cfg_json.size(); ++i) {
      cfg[i] = cfg_json[i].is_null() ? std::numeric_limits<double>::quiet_NaN()
                                     : cfg_json[i].as_number();
    }
    const double value = entry.at("value").is_null()
                             ? std::numeric_limits<double>::quiet_NaN()
                             : entry.at("value").as_number();
    robust::EvalOutcome outcome = robust::classify_value(value);
    if (entry.contains("outcome")) {
      outcome = robust::outcome_from_string(entry.at("outcome").as_string());
    }
    Evaluation e;
    e.config = std::move(cfg);
    e.value = value;
    e.cost_seconds = entry.number_or("cost_seconds", 0.0);
    e.outcome = outcome;
    e.dispersion = entry.number_or("dispersion", 0.0);
    // Absent in checkpoints written before the telemetry era; keep defaults.
    e.duration_ms = entry.number_or("duration_ms", 0.0);
    e.worker_slot = static_cast<int>(entry.number_or("worker_slot", -1.0));
    db.record(std::move(e));
  }
  return db;
}

}  // namespace tunekit::search
