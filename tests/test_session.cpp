#include "service/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <utility>

namespace tunekit::service {
namespace {

search::SearchSpace two_dim_space() {
  search::SearchSpace s;
  s.add(search::ParamSpec::real("x", -5.0, 5.0, 0.0));
  s.add(search::ParamSpec::real("y", -5.0, 5.0, 0.0));
  return s;
}

double sphere(const search::Config& c) { return c[0] * c[0] + c[1] * c[1]; }

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

SessionOptions fast_bo_options(std::size_t max_evals, std::uint64_t seed = 11) {
  SessionOptions opt;
  opt.max_evals = max_evals;
  opt.n_init = 4;
  opt.backend = SessionBackend::Bo;
  opt.bo.hyperopt_restarts = 1;
  opt.bo.hyperopt_max_iters = 20;
  opt.seed = seed;
  return opt;
}

TEST(TuningSession, AskHonorsBudgetAndExhausts) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 6;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);

  auto batch = session.ask(10);
  EXPECT_EQ(batch.size(), 6u);          // capped by budget
  EXPECT_TRUE(session.ask(4).empty());  // everything outstanding
  for (const auto& c : batch) {
    EXPECT_TRUE(space.is_valid(c.config));
    EXPECT_TRUE(session.tell(c.id, sphere(c.config)));
  }
  EXPECT_EQ(session.completed(), 6u);
  EXPECT_EQ(session.state(), SessionState::Exhausted);
  EXPECT_TRUE(session.ask(1).empty());
  ASSERT_TRUE(session.best().has_value());
}

TEST(TuningSession, TellOutOfOrderAndPartial) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 8;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);

  auto batch = session.ask(4);
  ASSERT_EQ(batch.size(), 4u);
  // Reverse order, and only half of them.
  EXPECT_TRUE(session.tell(batch[3].id, 3.0));
  EXPECT_TRUE(session.tell(batch[1].id, 1.0));
  EXPECT_EQ(session.completed(), 2u);
  EXPECT_EQ(session.outstanding(), 2u);
  // Unknown and duplicate tells are rejected, not fatal.
  EXPECT_FALSE(session.tell(9999, 1.0));
  EXPECT_FALSE(session.tell(batch[1].id, 1.0));
  EXPECT_EQ(session.completed(), 2u);
}

TEST(TuningSession, FailureRetriedThenDroppedAtPenalty) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 4;
  opt.max_attempts = 2;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);

  auto first = session.ask(1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(session.tell_failure(first[0].id));
  EXPECT_EQ(session.completed(), 0u);  // queued for retry, not consumed

  auto retry = session.ask(1);
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_EQ(retry[0].id, first[0].id);
  EXPECT_EQ(retry[0].attempt, 1u);
  EXPECT_EQ(retry[0].config, first[0].config);

  EXPECT_TRUE(session.tell_failure(retry[0].id));  // attempts exhausted
  EXPECT_EQ(session.completed(), 1u);              // dropped: budget consumed
  const auto evals = session.evaluations();
  EXPECT_TRUE(std::isnan(evals[0].value));  // default failure_penalty
}

TEST(TuningSession, DeadlineExpiryRequeues) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 4;
  opt.deadline_seconds = 0.02;
  opt.max_attempts = 3;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);

  auto first = session.ask(1);
  ASSERT_EQ(first.size(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  auto second = session.ask(1);  // expiry detected here
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, first[0].id);
  EXPECT_EQ(second[0].attempt, 1u);
  // A (very) late tell for the expired issue is rejected — the candidate was
  // re-issued under the same id, so only the new issue can resolve it once.
  EXPECT_TRUE(session.tell(second[0].id, 1.0));
  EXPECT_FALSE(session.tell(second[0].id, 1.0));
}

TEST(TuningSession, ReissuesDrainBeforeNewSuggestions) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 8;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);

  auto batch = session.ask(2);
  ASSERT_EQ(batch.size(), 2u);
  session.tell_failure(batch[0].id);
  const auto next = session.ask(4);  // only the retry until it resolves
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].id, batch[0].id);
}

TEST(TuningSession, RandomBackendDeterministicAcrossInterleaving) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 6;
  opt.backend = SessionBackend::Random;
  opt.seed = 77;
  TuningSession a(space, opt);
  TuningSession b(space, opt);

  const auto batch_a = a.ask(6);
  // b interleaves asks and tells; candidate ids must map to the same configs.
  std::vector<Candidate> batch_b = b.ask(2);
  for (const auto& c : batch_b) b.tell(c.id, sphere(c.config));
  for (const auto& c : b.ask(4)) batch_b.push_back(c);
  ASSERT_EQ(batch_a.size(), batch_b.size());
  for (std::size_t i = 0; i < batch_a.size(); ++i) {
    EXPECT_EQ(batch_a[i].id, batch_b[i].id);
    EXPECT_EQ(batch_a[i].config, batch_b[i].config);
  }
}

TEST(TuningSession, GridBackendEnumeratesDiscreteSpace) {
  search::SearchSpace space;
  space.add(search::ParamSpec::ordinal("a", {1, 2, 4}, 1));
  space.add(search::ParamSpec::integer("b", 0, 1, 0));
  SessionOptions opt;
  opt.max_evals = 10;  // more than the 6 grid points
  opt.backend = SessionBackend::Grid;
  TuningSession session(space, opt);

  auto batch = session.ask(10);
  EXPECT_EQ(batch.size(), 6u);  // supply-limited
  std::set<std::pair<double, double>> seen;
  for (const auto& c : batch) {
    session.tell(c.id, c.config[0] + c.config[1]);
    seen.insert({c.config[0], c.config[1]});
  }
  EXPECT_EQ(seen.size(), 6u);  // every grid point exactly once
  EXPECT_EQ(session.state(), SessionState::Exhausted);
}

TEST(TuningSession, GridBackendStridesThroughAGridLargerThanItsBudget) {
  search::SearchSpace space;
  space.add(search::ParamSpec::integer("a", 0, 99, 0));
  SessionOptions opt;
  opt.max_evals = 10;
  opt.backend = SessionBackend::Grid;
  TuningSession session(space, opt);

  std::vector<double> asked;
  for (const auto& c : session.ask(20)) {
    asked.push_back(c.config[0]);
    session.tell(c.id, c.config[0]);
  }
  std::sort(asked.begin(), asked.end());
  EXPECT_EQ(asked, (std::vector<double>{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}));
  EXPECT_EQ(session.state(), SessionState::Exhausted);
}

TEST(TuningSession, GridRealLevelsSetTheResolution) {
  search::SearchSpace space;
  space.add(search::ParamSpec::real("x", 0.0, 1.0, 0.0));
  SessionOptions opt;
  opt.max_evals = 100;
  opt.backend = SessionBackend::Grid;
  opt.grid_real_levels = 11;
  TuningSession session(space, opt);

  const auto batch = session.ask(100);
  EXPECT_EQ(batch.size(), 11u);
  const auto near_half = std::count_if(batch.begin(), batch.end(), [](const Candidate& c) {
    return std::abs(c.config[0] - 0.5) <= 1e-12;
  });
  EXPECT_EQ(near_half, 1);
}

TEST(TuningSession, BoBackendAvoidsDuplicatesAcrossPendingAsks) {
  const auto space = two_dim_space();
  auto opt = fast_bo_options(12);
  TuningSession session(space, opt);

  // Initial design, told immediately so the surrogate has data.
  for (const auto& c : session.ask(4)) session.tell(c.id, sphere(c.config));
  // Two asks with NO tell in between: constant-liar pending candidates must
  // steer the second ask elsewhere.
  auto first = session.ask(2);
  auto second = session.ask(2);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  for (const auto& a : first) {
    for (const auto& b : second) EXPECT_NE(a.config, b.config);
  }
}

TEST(TuningSession, ObserveConsumesBudget) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 3;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);
  session.observe({1.0, 1.0}, 2.0);
  session.observe({0.5, 0.5}, 0.5);
  EXPECT_EQ(session.completed(), 2u);
  EXPECT_EQ(session.ask(5).size(), 1u);
  EXPECT_DOUBLE_EQ(session.best()->value, 0.5);
}

TEST(TuningSession, ClosedSessionIssuesNothing) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 6;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);
  session.close();
  EXPECT_EQ(session.state(), SessionState::Closed);
  EXPECT_TRUE(session.ask(3).empty());
}

// The acceptance scenario: a journaled session killed after ask(4) + 2 tells
// resumes with the same remaining budget, re-issues the 2 untold candidates,
// and finishes with exactly the result of an uninterrupted run.
TEST(TuningSession, JournalResumeMatchesUninterruptedRun) {
  const auto space = two_dim_space();
  const std::string path_a = temp_path("tunekit_session_uninterrupted.jsonl");
  const std::string path_b = temp_path("tunekit_session_interrupted.jsonl");

  const auto drive_to_exhaustion = [&](TuningSession& s) {
    while (true) {
      const auto batch = s.ask(4);
      if (batch.empty()) break;
      for (const auto& c : batch) s.tell(c.id, sphere(c.config));
    }
  };

  // Uninterrupted reference run.
  auto opt = fast_bo_options(12, /*seed=*/21);
  TuningSession reference(space, opt, path_a);
  drive_to_exhaustion(reference);
  const auto ref_result = reference.to_result();
  ASSERT_EQ(ref_result.evaluations, 12u);

  std::vector<Candidate> untold;
  {
    // Interrupted run: ask(4), tell 2, then the process "dies" (the session
    // goes out of scope without any closing write).
    TuningSession victim(space, opt, path_b);
    auto batch = victim.ask(4);
    ASSERT_EQ(batch.size(), 4u);
    victim.tell(batch[0].id, sphere(batch[0].config));
    victim.tell(batch[1].id, sphere(batch[1].config));
    untold = {batch[2], batch[3]};
  }

  auto resumed = TuningSession::resume(space, opt, path_b);
  const auto status = resumed->status();
  EXPECT_EQ(status.completed, 2u);
  EXPECT_EQ(status.queued, 2u);
  EXPECT_EQ(status.remaining, 8u);  // identical remaining budget: 12 - 2 - 2

  // The two untold candidates come back first, unchanged.
  const auto reissued = resumed->ask(4);
  ASSERT_EQ(reissued.size(), 2u);
  EXPECT_EQ(reissued[0].id, untold[0].id);
  EXPECT_EQ(reissued[0].config, untold[0].config);
  EXPECT_EQ(reissued[1].id, untold[1].id);
  EXPECT_EQ(reissued[1].config, untold[1].config);
  for (const auto& c : reissued) resumed->tell(c.id, sphere(c.config));

  drive_to_exhaustion(*resumed);
  const auto res_result = resumed->to_result();
  EXPECT_EQ(res_result.evaluations, ref_result.evaluations);
  EXPECT_DOUBLE_EQ(res_result.best_value, ref_result.best_value);
  EXPECT_EQ(res_result.best_config, ref_result.best_config);
  EXPECT_EQ(res_result.values, ref_result.values);

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  std::filesystem::remove(path_a + ".snapshot.json");
  std::filesystem::remove(path_b + ".snapshot.json");
}

// Failed and dropped candidates survive a crash-resume round trip: the
// classified failure outcomes, the NaN failure_penalty records, the measured
// dispersions, and the per-candidate retry budget all come back.
TEST(TuningSession, FailureRecordsSurviveResume) {
  const auto space = two_dim_space();
  const std::string path = temp_path("tunekit_session_failures.jsonl");
  SessionOptions opt;
  opt.max_evals = 6;
  opt.max_attempts = 2;
  opt.backend = SessionBackend::Random;

  std::uint64_t midretry_id = 0;
  {
    TuningSession session(space, opt, path);
    auto batch = session.ask(3);
    ASSERT_EQ(batch.size(), 3u);
    // Candidate 0 times out twice — attempts exhausted, dropped at penalty.
    session.tell_failure(batch[0].id, robust::EvalOutcome::TimedOut);
    auto retry = session.ask(1);
    ASSERT_EQ(retry.size(), 1u);
    ASSERT_EQ(retry[0].id, batch[0].id);
    session.tell_failure(retry[0].id, robust::EvalOutcome::TimedOut);
    // Candidate 1 crashes once and is awaiting its retry when the process
    // "dies".
    session.tell_failure(batch[1].id, robust::EvalOutcome::Crashed);
    // Candidate 2 succeeds, with a repeat-measurement dispersion.
    session.tell(batch[2].id, 4.0, /*cost_seconds=*/0.5, /*dispersion=*/0.25);
    midretry_id = batch[1].id;
  }

  auto resumed = TuningSession::resume(space, opt, path);
  EXPECT_EQ(resumed->completed(), 2u);
  const auto evals = resumed->evaluations();
  ASSERT_EQ(evals.size(), 2u);
  // The drop kept its classified outcome, not a generic crash.
  EXPECT_EQ(evals[0].outcome, robust::EvalOutcome::TimedOut);
  EXPECT_TRUE(std::isnan(evals[0].value));  // default failure_penalty
  EXPECT_EQ(evals[1].outcome, robust::EvalOutcome::Ok);
  EXPECT_DOUBLE_EQ(evals[1].value, 4.0);
  EXPECT_DOUBLE_EQ(evals[1].dispersion, 0.25);

  // The mid-retry candidate is re-issued with its attempt count intact, so
  // one more failure exhausts the budget exactly as it would have pre-kill.
  auto reissued = resumed->ask(1);
  ASSERT_EQ(reissued.size(), 1u);
  EXPECT_EQ(reissued[0].id, midretry_id);
  EXPECT_EQ(reissued[0].attempt, 1u);
  resumed->tell_failure(reissued[0].id, robust::EvalOutcome::Crashed);
  EXPECT_EQ(resumed->completed(), 3u);
  const auto after = resumed->evaluations();
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[2].outcome, robust::EvalOutcome::Crashed);
  EXPECT_TRUE(std::isnan(after[2].value));

  std::remove(path.c_str());
  std::filesystem::remove(path + ".snapshot.json");
}

TEST(TuningSession, CompactionBoundsJournalAndPreservesState) {
  const auto space = two_dim_space();
  const std::string path = temp_path("tunekit_session_compact.jsonl");
  SessionOptions opt;
  opt.max_evals = 20;
  opt.backend = SessionBackend::Random;
  opt.compact_every = 4;
  opt.seed = 5;
  std::vector<Candidate> untold;
  {
    TuningSession session(space, opt, path);
    for (int round = 0; round < 4; ++round) {
      const auto batch = session.ask(4);
      for (const auto& c : batch) session.tell(c.id, sphere(c.config));
    }
    untold = session.ask(2);  // left in flight across the "crash"
    ASSERT_EQ(untold.size(), 2u);
  }
  EXPECT_TRUE(std::filesystem::exists(path + ".snapshot.json"));
  // The compacted journal holds the header plus only in-flight asks.
  std::ifstream in(path);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_LE(lines, 1u + 2u + 4u);  // header + in-flight (+ at most one round)

  auto resumed = TuningSession::resume(space, opt, path);
  EXPECT_EQ(resumed->completed(), 16u);
  const auto reissued = resumed->ask(4);
  ASSERT_EQ(reissued.size(), 2u);
  EXPECT_EQ(reissued[0].config, untold[0].config);
  EXPECT_EQ(reissued[1].config, untold[1].config);

  std::remove(path.c_str());
  std::filesystem::remove(path + ".snapshot.json");
}

TEST(TuningSession, TornFinalJournalLineIsIgnored) {
  const auto space = two_dim_space();
  const std::string path = temp_path("tunekit_session_torn.jsonl");
  SessionOptions opt;
  opt.max_evals = 6;
  opt.backend = SessionBackend::Random;
  {
    TuningSession session(space, opt, path);
    const auto batch = session.ask(2);
    session.tell(batch[0].id, 1.0);
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"e\":\"tel";  // torn write: the crash hit mid-line
  }
  auto resumed = TuningSession::resume(space, opt, path);
  EXPECT_EQ(resumed->completed(), 1u);
  EXPECT_EQ(resumed->status().queued, 1u);
  std::remove(path.c_str());
}

TEST(TuningSession, ResumeRejectsSpaceMismatch) {
  const auto space = two_dim_space();
  const std::string path = temp_path("tunekit_session_mismatch.jsonl");
  SessionOptions opt;
  opt.max_evals = 4;
  opt.backend = SessionBackend::Random;
  { TuningSession session(space, opt, path); }
  search::SearchSpace other;
  other.add(search::ParamSpec::real("only", 0.0, 1.0, 0.5));
  EXPECT_THROW(TuningSession::resume(other, opt, path), std::runtime_error);
  std::remove(path.c_str());
}

// Held GP hyperparameters. With n_init 4 and hyperopt_every 3, driven by
// ask(1)/tell, the surrogate asks at 4..13 completed evaluations search at
// 4, 7, 10 and 13 and refit with the held values in between.
SessionOptions held_gp_options(std::size_t compact_every) {
  SessionOptions opt;
  opt.max_evals = 14;
  opt.n_init = 4;
  opt.backend = SessionBackend::Bo;
  opt.bo.hyperopt_every = 3;
  opt.compact_every = compact_every;
  opt.seed = 31;
  return opt;
}

/// ask(1) -> tell until `stop_at` evaluations have completed.
void drive_until(TuningSession& session, std::size_t stop_at) {
  while (session.completed() < stop_at) {
    const auto batch = session.ask(1);
    ASSERT_EQ(batch.size(), 1u);
    ASSERT_TRUE(session.tell(batch[0].id, sphere(batch[0].config)));
  }
}

void remove_journal(const std::string& path) {
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".snapshot.json");
}

std::vector<std::string> journal_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void write_lines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& line : lines) out << line << '\n';
}

bool is_gp_record(const std::string& line) {
  return line.find("\"e\":\"gp\"") != std::string::npos;
}

/// The "at" field of every gp record, in journal order (framed v2 lines:
/// the JSON payload follows the CRC and a space).
std::vector<std::size_t> gp_record_ats(const std::string& path) {
  std::vector<std::size_t> ats;
  for (const auto& line : journal_lines(path)) {
    if (!is_gp_record(line)) continue;
    const json::Value snap = json::parse(line.substr(line.find(' ') + 1)).at("snap");
    EXPECT_EQ(snap.at("ls").as_array().size(), 2u);
    ats.push_back(static_cast<std::size_t>(snap.at("at").as_number()));
  }
  return ats;
}

// A kill between a tell and the next ask, mid-cadence (the held values came
// from an earlier search), must resume holding those values: the resumed
// session then refits and searches exactly when the killed one would have.
// compact_every 3 puts a compaction right before the kill at 6, so the gp
// record must also survive the journal rewrite.
TEST(TuningSession, HeldHyperparamsResumeExactlyMidCadence) {
  const auto space = two_dim_space();
  for (std::size_t compact_every : {0u, 3u}) {
    const SessionOptions opt = held_gp_options(compact_every);
    TuningSession reference(space, opt);
    drive_until(reference, opt.max_evals);
    const std::vector<double> expected = reference.to_result().values;
    for (std::size_t kill_at : {6u, 8u, 11u}) {
      const std::string path = temp_path("tunekit_session_gp_kill.jsonl");
      remove_journal(path);
      {
        TuningSession victim(space, opt, path);
        drive_until(victim, kill_at);
      }
      auto resumed = TuningSession::resume(space, opt, path);
      EXPECT_EQ(resumed->completed(), kill_at);
      drive_until(*resumed, opt.max_evals);
      EXPECT_EQ(resumed->to_result().values, expected)
          << "killed after " << kill_at << " evaluations, compact_every "
          << compact_every;
      remove_journal(path);
    }
  }
}

// The gp record is journaled before the ask it shaped. A kill between the
// two resumes holding the searched values, and the regenerated ask — a
// plain refit with them — proposes what the searching ask did.
TEST(TuningSession, KillBetweenGpRecordAndItsAskResumesExactly) {
  const auto space = two_dim_space();
  SessionOptions opt = held_gp_options(/*compact_every=*/0);
  // A coarse argmax (few candidates, no refinement) makes each proposal
  // depend on the acquisition's random draws, so any shift in them shows.
  opt.bo.maximizer.n_candidates = 32;
  opt.bo.maximizer.refine_iters = 0;
  const std::string path = temp_path("tunekit_session_gp_cut.jsonl");
  remove_journal(path);
  std::vector<double> expected;
  {
    TuningSession reference(space, opt, path);
    drive_until(reference, opt.max_evals);
    expected = reference.to_result().values;
  }
  const std::vector<std::string> lines = journal_lines(path);
  std::size_t cuts = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!is_gp_record(lines[i])) continue;
    ++cuts;
    write_lines(path, std::vector<std::string>(
                          lines.begin(), lines.begin() + static_cast<std::ptrdiff_t>(i + 1)));
    auto resumed = TuningSession::resume(space, opt, path);
    drive_until(*resumed, opt.max_evals);
    EXPECT_EQ(resumed->to_result().values, expected) << "cut after journal line " << i;
  }
  EXPECT_EQ(cuts, 4u);
  remove_journal(path);
}

// One gp record per search the cadence implies; hyperopt_every 0 never
// searches, so it journals none.
TEST(TuningSession, JournalHoldsOneGpRecordPerCadenceSearch) {
  const auto space = two_dim_space();
  const std::pair<std::size_t, std::vector<std::size_t>> cases[] = {
      {3, {4, 7, 10, 13}}, {0, {}}};
  for (const auto& [every, searched_at] : cases) {
    SessionOptions opt = held_gp_options(/*compact_every=*/0);
    opt.bo.hyperopt_every = every;
    const std::string path = temp_path("tunekit_session_gp_cadence.jsonl");
    remove_journal(path);
    {
      TuningSession session(space, opt, path);
      drive_until(session, opt.max_evals);
    }
    EXPECT_EQ(gp_record_ats(path), searched_at) << "hyperopt_every " << every;
    remove_journal(path);
  }
}

// A journal written before gp records existed (or with every gp record
// lost) resumes cleanly, holds nothing, and searches on its first
// surrogate ask.
TEST(TuningSession, JournalWithoutGpRecordSearchesOnFirstSurrogateAsk) {
  const auto space = two_dim_space();
  const SessionOptions opt = held_gp_options(/*compact_every=*/0);
  const std::string path = temp_path("tunekit_session_gp_legacy.jsonl");
  remove_journal(path);
  {
    TuningSession victim(space, opt, path);
    drive_until(victim, 8);
  }
  std::vector<std::string> lines = journal_lines(path);
  std::erase_if(lines, is_gp_record);
  write_lines(path, lines);

  auto resumed = TuningSession::resume(space, opt, path);
  EXPECT_EQ(resumed->completed(), 8u);
  drive_until(*resumed, 9);
  // Searched at 8 (nothing held), then on the cadence from there.
  EXPECT_EQ(gp_record_ats(path), (std::vector<std::size_t>{8}));
  drive_until(*resumed, opt.max_evals);
  EXPECT_EQ(gp_record_ats(path), (std::vector<std::size_t>{8, 11}));
  remove_journal(path);
}

TEST(SessionBackendNames, RoundTrip) {
  EXPECT_EQ(backend_from_string("bo"), SessionBackend::Bo);
  EXPECT_EQ(backend_from_string("random"), SessionBackend::Random);
  EXPECT_EQ(backend_from_string("grid"), SessionBackend::Grid);
  EXPECT_THROW(backend_from_string("annealing"), std::invalid_argument);
  EXPECT_STREQ(to_string(SessionState::Exhausted), "exhausted");
}

}  // namespace
}  // namespace tunekit::service
