// SessionManager tests: lifecycle over the JSON API surface, client-error
// mapping (404/409/422), restart resume from spec sidecars, LRU eviction of
// idle sessions, and — the critical property for a multi-client server —
// that concurrent ask/tell on one session never double-issues a candidate.

#include "net/session_manager.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"

namespace tunekit::net {
namespace {

json::Value inline_space_spec(const std::string& id, std::size_t max_evals,
                              const std::string& backend = "random") {
  json::Object spec;
  if (!id.empty()) spec["id"] = json::Value(id);
  spec["backend"] = json::Value(backend);
  spec["max_evals"] = json::Value(max_evals);
  spec["seed"] = json::Value(7);
  spec["space"] = json::parse(
      "{\"params\": ["
      "{\"name\":\"x\",\"kind\":\"real\",\"lo\":-5,\"hi\":5,\"default\":0},"
      "{\"name\":\"y\",\"kind\":\"integer\",\"lo\":0,\"hi\":10,\"default\":5}"
      "]}");
  return json::Value(std::move(spec));
}

std::string fresh_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

int status_of(const std::function<void()>& op) {
  try {
    op();
  } catch (const ApiError& e) {
    return e.status();
  }
  return 0;
}

TEST(SessionManager, FullLifecycleOverJson) {
  SessionManager manager(SessionManagerOptions{});
  const json::Value created = manager.create(inline_space_spec("life", 4));
  EXPECT_EQ(created.at("id").as_string(), "life");
  EXPECT_EQ(created.at("backend").as_string(), "random");
  EXPECT_DOUBLE_EQ(created.at("space_size").as_number(), 2.0);

  const json::Value batch = manager.ask("life", 4);
  const auto& candidates = batch.at("candidates").as_array();
  ASSERT_EQ(candidates.size(), 4u);
  // Configs come back *named*, ready for an external evaluator.
  EXPECT_TRUE(candidates[0].at("config").contains("x"));
  EXPECT_TRUE(candidates[0].at("config").contains("y"));

  for (const auto& cand : candidates) {
    json::Object tell;
    tell["id"] = cand.at("id");
    tell["value"] = json::Value(cand.at("config").at("x").as_number());
    const json::Value reply = manager.tell("life", json::Value(std::move(tell)));
    EXPECT_TRUE(reply.at("accepted").as_bool());
  }

  const json::Value report = manager.report("life");
  EXPECT_EQ(report.at("state").as_string(), "exhausted");
  EXPECT_DOUBLE_EQ(report.at("completed").as_number(), 4.0);
  EXPECT_TRUE(report.contains("best_value"));
  EXPECT_TRUE(report.at("best_config").contains("x"));
  EXPECT_DOUBLE_EQ(report.at("metrics").at("tells").as_number(), 4.0);

  manager.close("life");
  EXPECT_EQ(status_of([&] { manager.report("life"); }), 404);
}

TEST(SessionManager, AppSpecsBuildBuiltinSpaces) {
  SessionManager manager(SessionManagerOptions{});
  json::Object spec;
  spec["app"] = json::Value(std::string("synth:case1"));
  spec["backend"] = json::Value(std::string("random"));
  spec["max_evals"] = json::Value(3);
  const json::Value created = manager.create(json::Value(std::move(spec)));
  EXPECT_DOUBLE_EQ(created.at("space_size").as_number(), 20.0);
}

TEST(SessionManager, ClientErrorsCarryHttpStatuses) {
  SessionManager manager(SessionManagerOptions{});
  // Unknown id -> 404 (also for ids that could never be valid).
  EXPECT_EQ(status_of([&] { manager.ask("ghost", 1); }), 404);
  EXPECT_EQ(status_of([&] { manager.ask("../etc/passwd", 1); }), 404);

  // Bad specs -> 422.
  EXPECT_EQ(status_of([&] { manager.create(json::parse("{}")); }), 422);
  EXPECT_EQ(status_of([&] {
              manager.create(json::parse("{\"app\":\"no-such-app\"}"));
            }),
            422);
  EXPECT_EQ(status_of([&] {
              manager.create(json::parse(
                  "{\"space\":{\"params\":[{\"name\":\"x\",\"kind\":\"warp\"}]}}"));
            }),
            422);
  EXPECT_EQ(status_of([&] {
              manager.create(json::parse("{\"id\":\"bad/slash\",\"space\":{}}"));
            }),
            422);

  // Duplicate id -> 409.
  manager.create(inline_space_spec("dup", 2));
  EXPECT_EQ(status_of([&] { manager.create(inline_space_spec("dup", 2)); }), 409);

  // Tell without id or config -> 422; unknown parameter names -> 422.
  EXPECT_EQ(status_of([&] { manager.tell("dup", json::parse("{}")); }), 422);
  EXPECT_EQ(status_of([&] {
              manager.tell("dup", json::parse("{\"config\":{\"zz\":1},\"value\":1}"));
            }),
            422);
}

TEST(SessionManager, SessionCapIs429) {
  SessionManagerOptions options;
  options.max_sessions = 2;
  SessionManager manager(options);
  manager.create(inline_space_spec("a", 2));
  manager.create(inline_space_spec("b", 2));
  EXPECT_EQ(status_of([&] { manager.create(inline_space_spec("c", 2)); }), 429);
}

TEST(SessionManager, ResumesByIdAfterRestart) {
  const std::string dir = fresh_dir("tunekit_sm_restart");
  std::uint64_t first_eval_id = 0;
  {
    SessionManagerOptions options;
    options.journal_dir = dir;
    SessionManager manager(options);
    manager.create(inline_space_spec("surv", 6));
    const json::Value batch = manager.ask("surv", 2);
    const auto& cands = batch.at("candidates").as_array();
    ASSERT_EQ(cands.size(), 2u);
    first_eval_id = static_cast<std::uint64_t>(cands[0].at("id").as_number());
    json::Object tell;
    tell["id"] = cands[0].at("id");
    tell["value"] = json::Value(1.5);
    manager.tell("surv", json::Value(std::move(tell)));
    // cands[1] stays in flight across the "restart".
  }
  // A brand-new manager on the same journal dir has never seen "surv": the
  // spec sidecar + journal must fully rebuild it on first touch.
  SessionManagerOptions options;
  options.journal_dir = dir;
  SessionManager manager(options);
  const json::Value report = manager.report("surv");
  EXPECT_DOUBLE_EQ(report.at("completed").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(report.at("best_value").as_number(), 1.5);

  // The in-flight candidate is re-issued before anything new.
  const json::Value batch = manager.ask("surv", 4);
  const auto& cands = batch.at("candidates").as_array();
  ASSERT_FALSE(cands.empty());
  EXPECT_NE(static_cast<std::uint64_t>(cands[0].at("id").as_number()), first_eval_id);
  std::filesystem::remove_all(dir);
}

TEST(SessionManager, EvictsIdleSessionsAndResumesThemOnTouch) {
  const std::string dir = fresh_dir("tunekit_sm_evict");
  SessionManagerOptions options;
  options.journal_dir = dir;
  options.max_resident = 2;
  SessionManager manager(options);
  for (const char* id : {"e1", "e2", "e3", "e4"}) {
    manager.create(inline_space_spec(id, 4));
    json::Object tell;
    const json::Value batch = manager.ask(id, 1);
    tell["id"] = batch.at("candidates").as_array().at(0).at("id");
    tell["value"] = json::Value(2.0);
    manager.tell(id, json::Value(std::move(tell)));
  }
  EXPECT_LE(manager.resident(), 2u) << "idle sessions past the cap must be evicted";

  // Touching an evicted session transparently resumes it from its journal.
  const json::Value report = manager.report("e1");
  EXPECT_DOUBLE_EQ(report.at("completed").as_number(), 1.0);
  const json::Value list = manager.list();
  EXPECT_EQ(list.at("sessions").as_array().size(), 4u);
  std::filesystem::remove_all(dir);
}

TEST(SessionManager, InMemorySessionsAreNeverEvicted) {
  SessionManagerOptions options;
  options.max_resident = 1;  // no journal_dir: eviction would lose state
  SessionManager manager(options);
  manager.create(inline_space_spec("m1", 2));
  manager.create(inline_space_spec("m2", 2));
  EXPECT_EQ(manager.resident(), 2u);
}

// Satellite requirement: two clients interleaving ask/tell on one session
// must serialize correctly — every (candidate id, attempt) pair is issued to
// exactly one client, and the session runs to completion.
TEST(SessionManager, ConcurrentAskTellNeverDoubleIssues) {
  constexpr std::size_t kMaxEvals = 60;
  SessionManager manager(SessionManagerOptions{});
  manager.create(inline_space_spec("conc", kMaxEvals));

  std::mutex issued_mutex;
  std::set<std::pair<std::uint64_t, std::size_t>> issued;
  std::size_t duplicates = 0;

  auto client = [&]() {
    for (;;) {
      const json::Value batch = manager.ask("conc", 2);
      const auto& cands = batch.at("candidates").as_array();
      if (cands.empty()) {
        if (batch.at("state").as_string() != "active") return;
        std::this_thread::yield();
        continue;
      }
      for (const auto& cand : cands) {
        const auto key = std::make_pair(
            static_cast<std::uint64_t>(cand.at("id").as_number()),
            static_cast<std::size_t>(cand.at("attempt").as_number()));
        {
          std::lock_guard<std::mutex> lock(issued_mutex);
          if (!issued.insert(key).second) ++duplicates;
        }
        json::Object tell;
        tell["id"] = cand.at("id");
        tell["value"] = json::Value(cand.at("config").at("x").as_number());
        manager.tell("conc", json::Value(std::move(tell)));
      }
    }
  };

  std::thread a(client);
  std::thread b(client);
  a.join();
  b.join();

  EXPECT_EQ(duplicates, 0u) << "a candidate was issued to two clients";
  const json::Value report = manager.report("conc");
  EXPECT_EQ(report.at("state").as_string(), "exhausted");
  EXPECT_DOUBLE_EQ(report.at("completed").as_number(),
                   static_cast<double>(kMaxEvals));
  EXPECT_EQ(issued.size(), kMaxEvals);
}

// Eviction under concurrency: with journals on, every ask sweeps the LRU
// order while other threads touch sessions (which rewrites their last-used
// stamps). Three clients round-robin over more sessions than may stay
// resident, so sessions are evicted and resumed all the time; none may lose
// a tell or issue a candidate twice.
TEST(SessionManager, ConcurrentJournaledEvictionLosesNothing) {
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kMaxEvals = 12;
  const std::string dir = fresh_dir("tunekit_sm_evict_concurrent");
  obs::Telemetry telemetry;
  telemetry.enable(1024);
  SessionManagerOptions options;
  options.journal_dir = dir;
  options.max_resident = 2;
  options.shards = 2;
  options.telemetry = &telemetry;
  SessionManager manager(options);
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < kSessions; ++i) {
    ids.push_back("ev" + std::to_string(i));
    manager.create(inline_space_spec(ids.back(), kMaxEvals));
  }

  std::mutex issued_mutex;
  std::set<std::pair<std::string, std::uint64_t>> issued;
  std::size_t duplicates = 0;
  std::size_t rejected = 0;

  auto client = [&](std::size_t offset) {
    for (bool active = true; active;) {
      active = false;
      for (std::size_t s = 0; s < kSessions; ++s) {
        const std::string& id = ids[(s + offset) % kSessions];
        const json::Value batch = manager.ask(id, 1);
        if (batch.at("state").as_string() == "active") active = true;
        for (const auto& cand : batch.at("candidates").as_array()) {
          {
            std::lock_guard<std::mutex> lock(issued_mutex);
            const auto key =
                std::make_pair(id, static_cast<std::uint64_t>(cand.at("id").as_number()));
            if (!issued.insert(key).second) ++duplicates;
          }
          json::Object tell;
          tell["id"] = cand.at("id");
          tell["value"] = json::Value(cand.at("config").at("x").as_number());
          if (!manager.tell(id, json::Value(std::move(tell))).at("accepted").as_bool()) {
            std::lock_guard<std::mutex> lock(issued_mutex);
            ++rejected;
          }
        }
      }
    }
  };

  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < 3; ++t) clients.emplace_back(client, 2 * t);
  for (auto& t : clients) t.join();

  EXPECT_EQ(duplicates, 0u) << "a candidate was issued to two clients";
  EXPECT_EQ(rejected, 0u) << "a tell for an issued candidate was rejected";
  EXPECT_EQ(issued.size(), kSessions * kMaxEvals);
  EXPECT_GT(telemetry.metrics().counter("tunekit_sessions_evicted_total").value(), 0u);
  for (const auto& id : ids) {
    const json::Value report = manager.report(id);
    EXPECT_EQ(report.at("state").as_string(), "exhausted") << id;
    EXPECT_DOUBLE_EQ(report.at("completed").as_number(), static_cast<double>(kMaxEvals))
        << id;
  }
  std::filesystem::remove_all(dir);
}

// An evicted Bo session resumes with its held GP hyperparameters, so
// eviction never changes what it asks: two sessions driven alternately
// through a manager that may keep only one resident propose exactly what
// they propose in memory, never evicted.
TEST(SessionManager, EvictedBoSessionsAskWhatResidentOnesAsk) {
  const auto drive = [](SessionManager& manager) {
    std::vector<std::string> asked;
    for (const char* id : {"bo1", "bo2"}) {
      json::Value spec = inline_space_spec(id, 16, "bo");
      spec.as_object()["n_init"] = json::Value(4);
      manager.create(spec);
    }
    for (std::size_t round = 0; round < 16; ++round) {
      for (const char* id : {"bo1", "bo2"}) {
        const json::Value batch = manager.ask(id, 1);
        const auto& cand = batch.at("candidates").as_array().at(0);
        asked.push_back(cand.dump());
        const double x = cand.at("config").at("x").as_number();
        const double y = cand.at("config").at("y").as_number();
        json::Object tell;
        tell["id"] = cand.at("id");
        tell["value"] = json::Value((x - 1.0) * (x - 1.0) + (y - 3.0) * (y - 3.0));
        manager.tell(id, json::Value(std::move(tell)));
      }
    }
    return asked;
  };

  SessionManager resident(SessionManagerOptions{});
  const std::vector<std::string> expected = drive(resident);

  const std::string dir = fresh_dir("tunekit_sm_evict_bo");
  obs::Telemetry telemetry;
  telemetry.enable(1024);
  SessionManagerOptions options;
  options.journal_dir = dir;
  options.max_resident = 1;
  options.telemetry = &telemetry;
  SessionManager evicting(options);
  EXPECT_EQ(drive(evicting), expected);
  EXPECT_GT(telemetry.metrics().counter("tunekit_sessions_evicted_total").value(), 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tunekit::net
