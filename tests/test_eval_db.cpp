#include "search/eval_db.hpp"
#include "search/result.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace tunekit::search {
namespace {

SearchSpace two_dim_space() {
  SearchSpace s;
  s.add(ParamSpec::real("a", 0, 1, 0));
  s.add(ParamSpec::real("b", 0, 1, 0));
  return s;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(EvalDb, RecordAndBest) {
  EvalDb db;
  EXPECT_TRUE(db.empty());
  EXPECT_FALSE(db.best().has_value());
  db.record({0.1, 0.2}, 5.0);
  db.record({0.3, 0.4}, 2.0, 1.5);
  db.record({0.5, 0.6}, 9.0);
  EXPECT_EQ(db.size(), 3u);
  const auto best = db.best();
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->value, 2.0);
  EXPECT_DOUBLE_EQ(best->cost_seconds, 1.5);
  EXPECT_EQ(best->config, (Config{0.3, 0.4}));
}

TEST(EvalDb, BestIgnoresNaN) {
  EvalDb db;
  db.record({0.0, 0.0}, std::nan(""));
  EXPECT_FALSE(db.best().has_value());
  db.record({0.1, 0.1}, 7.0);
  EXPECT_DOUBLE_EQ(db.best()->value, 7.0);
}

TEST(EvalDb, BestKSortedAscending) {
  EvalDb db;
  db.record({0.1, 0.1}, 5.0);
  db.record({0.2, 0.2}, 1.0);
  db.record({0.3, 0.3}, std::nan(""));
  db.record({0.4, 0.4}, 3.0);
  const auto top2 = db.best_k(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_DOUBLE_EQ(top2[0].value, 1.0);
  EXPECT_DOUBLE_EQ(top2[1].value, 3.0);
  // Requesting more than available returns all non-NaN, sorted.
  EXPECT_EQ(db.best_k(10).size(), 3u);
  EXPECT_TRUE(db.best_k(0).empty());
}

TEST(EvalDb, SaveLoadRoundTrip) {
  const auto space = two_dim_space();
  const std::string path = temp_path("tunekit_evaldb_roundtrip.json");
  EvalDb db;
  db.record({0.25, 0.75}, 1.25, 0.5);
  db.record({1.0, 0.0}, -3.5);
  db.save(path);

  const EvalDb loaded = EvalDb::load(path, space);
  EXPECT_EQ(loaded.size(), 2u);
  const auto all = loaded.all();
  EXPECT_EQ(all[0].config, (Config{0.25, 0.75}));
  EXPECT_DOUBLE_EQ(all[0].value, 1.25);
  EXPECT_DOUBLE_EQ(all[0].cost_seconds, 0.5);
  EXPECT_DOUBLE_EQ(all[1].value, -3.5);
  std::remove(path.c_str());
}

TEST(EvalDb, LoadRejectsArityMismatch) {
  const std::string path = temp_path("tunekit_evaldb_arity.json");
  EvalDb db;
  db.record({0.1, 0.2}, 1.0);
  db.save(path);

  SearchSpace three;
  three.add(ParamSpec::real("a", 0, 1, 0));
  three.add(ParamSpec::real("b", 0, 1, 0));
  three.add(ParamSpec::real("c", 0, 1, 0));
  EXPECT_THROW(EvalDb::load(path, three), std::runtime_error);
  std::remove(path.c_str());
}

TEST(EvalDb, LoadRejectsWrongFormat) {
  const std::string path = temp_path("tunekit_evaldb_badformat.json");
  {
    std::ofstream out(path);
    out << "{\"format\": \"other\", \"evaluations\": []}";
  }
  EXPECT_THROW(EvalDb::load(path, two_dim_space()), std::runtime_error);
  std::remove(path.c_str());
}

TEST(EvalDb, LoadMissingFileThrows) {
  EXPECT_THROW(EvalDb::load("/no/such/file.json", two_dim_space()), std::exception);
}

TEST(EvalDb, NaNValueSurvivesRoundTrip) {
  const std::string path = temp_path("tunekit_evaldb_nan.json");
  EvalDb db;
  db.record({0.0, 0.0}, std::numeric_limits<double>::quiet_NaN());
  db.save(path);
  const EvalDb loaded = EvalDb::load(path, two_dim_space());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(std::isnan(loaded.all()[0].value));
  std::remove(path.c_str());
}

TEST(EvalDb, SaveIsAtomicNoTempFileLeftBehind) {
  const std::string path = temp_path("tunekit_evaldb_atomic.json");
  EvalDb db;
  db.record({0.1, 0.2}, 1.0);
  db.save(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(EvalDb, SaveOverwritesExistingCheckpointSafely) {
  const auto space = two_dim_space();
  const std::string path = temp_path("tunekit_evaldb_overwrite.json");
  {
    EvalDb first;
    first.record({0.1, 0.2}, 1.0);
    first.save(path);
  }
  // A second save replaces the checkpoint wholesale — never a partial mix.
  EvalDb second;
  second.record({0.3, 0.4}, 2.0);
  second.record({0.5, 0.6}, 3.0);
  second.save(path);

  const EvalDb loaded = EvalDb::load(path, space);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.all()[0].value, 2.0);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(EvalDb, BestIgnoresInfinitySentinels) {
  EvalDb db;
  db.record({0.0, 0.0}, std::numeric_limits<double>::infinity());
  db.record({0.1, 0.1}, -std::numeric_limits<double>::infinity());
  EXPECT_FALSE(db.best().has_value());
  EXPECT_TRUE(db.best_k(5).empty());
  db.record({0.2, 0.2}, 4.0);
  ASSERT_TRUE(db.best().has_value());
  EXPECT_DOUBLE_EQ(db.best()->value, 4.0);
}

TEST(MakeResult, TrajectoryIsBestSoFarIgnoringInfinities) {
  EvalDb db;
  db.record({0.0, 0.0}, std::numeric_limits<double>::infinity());
  db.record({0.1, 0.1}, -std::numeric_limits<double>::infinity());
  db.record({0.2, 0.2}, 5.0);
  db.record({0.3, 0.3}, 7.0);
  db.record({0.4, 0.4}, 3.0);
  db.record({0.5, 0.5}, 4.0);
  const SearchResult result = make_result("test", db.all(), 0.0);
  // -inf must not become the incumbent; the trajectory stays at +inf until a
  // finite value lands, then never rises.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(result.trajectory, (std::vector<double>{inf, inf, 5.0, 5.0, 3.0, 3.0}));
  EXPECT_DOUBLE_EQ(result.best_value, 3.0);
  EXPECT_EQ(result.best_config, (Config{0.4, 0.4}));
  EXPECT_EQ(result.evaluations, 6u);
}

TEST(EvalDb, RecordClassifiesValueByDefault) {
  EvalDb db;
  db.record({0.0, 0.0}, 1.0);
  db.record({0.1, 0.1}, std::nan(""));
  db.record({0.2, 0.2}, std::numeric_limits<double>::infinity());
  const auto all = db.all();
  EXPECT_EQ(all[0].outcome, robust::EvalOutcome::Ok);
  EXPECT_EQ(all[1].outcome, robust::EvalOutcome::NonFinite);
  EXPECT_EQ(all[2].outcome, robust::EvalOutcome::NonFinite);
}

TEST(EvalDb, OutcomeAndDispersionSurviveRoundTrip) {
  const auto space = two_dim_space();
  const std::string path = temp_path("tunekit_evaldb_outcome.json");
  EvalDb db;
  db.record({0.25, 0.75}, 1.25, 0.5, robust::EvalOutcome::Ok, 0.125);
  db.record({0.5, 0.5}, std::nan(""), 2.0, robust::EvalOutcome::TimedOut);
  db.record({0.0, 1.0}, std::nan(""), 0.0, robust::EvalOutcome::InvalidConfig);
  db.save(path);

  const EvalDb loaded = EvalDb::load(path, space);
  ASSERT_EQ(loaded.size(), 3u);
  const auto all = loaded.all();
  EXPECT_EQ(all[0].outcome, robust::EvalOutcome::Ok);
  EXPECT_DOUBLE_EQ(all[0].dispersion, 0.125);
  EXPECT_EQ(all[1].outcome, robust::EvalOutcome::TimedOut);
  EXPECT_TRUE(std::isnan(all[1].value));
  EXPECT_EQ(all[2].outcome, robust::EvalOutcome::InvalidConfig);
  EXPECT_DOUBLE_EQ(all[2].dispersion, 0.0);
  std::remove(path.c_str());
}

TEST(EvalDb, LegacyCheckpointWithoutOutcomeClassifiesFromValue) {
  // A seed-era checkpoint has no outcome/dispersion fields: finite values
  // load as Ok, null (NaN) values as NonFinite.
  const std::string path = temp_path("tunekit_evaldb_legacy.json");
  {
    std::ofstream out(path);
    out << R"({"format": "tunekit-evaldb-v1", "evaluations": [)"
        << R"({"config": [0.1, 0.2], "value": 3.5, "cost_seconds": 1.0},)"
        << R"({"config": [0.3, 0.4], "value": null}]})";
  }
  const EvalDb loaded = EvalDb::load(path, two_dim_space());
  ASSERT_EQ(loaded.size(), 2u);
  const auto all = loaded.all();
  EXPECT_EQ(all[0].outcome, robust::EvalOutcome::Ok);
  EXPECT_DOUBLE_EQ(all[0].dispersion, 0.0);
  EXPECT_EQ(all[1].outcome, robust::EvalOutcome::NonFinite);
  std::remove(path.c_str());
}

TEST(EvalDb, MoveTransfersContents) {
  EvalDb db;
  db.record({0.0, 0.0}, 1.0);
  EvalDb moved = std::move(db);
  EXPECT_EQ(moved.size(), 1u);
}

}  // namespace
}  // namespace tunekit::search
