// Durability regression tests for the session journal (SessionStore).
//
// The contract under test: once tell() has returned true, that evaluation
// survives a SIGKILL of the whole process — the journal line was fsync'd
// before the ack. The kill is simulated with fork() + _exit(), which skips
// every destructor and stdio flush exactly like a kill would; the only bytes
// on disk are the ones append_line() pushed through fsync.

#include "common/io.hpp"
#include "service/session.hpp"
#include "service/session_store.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define TUNEKIT_HAVE_FORK 1
#endif

namespace tunekit::service {
namespace {

search::SearchSpace two_dim_space() {
  search::SearchSpace s;
  s.add(search::ParamSpec::real("x", -5.0, 5.0, 0.0));
  s.add(search::ParamSpec::real("y", -5.0, 5.0, 0.0));
  return s;
}

/// A space with exactly one valid configuration: every backend suggestion
/// collides with it, which makes quarantine behavior deterministic.
search::SearchSpace singleton_space() {
  search::SearchSpace s;
  s.add(search::ParamSpec::ordinal("mode", {3}, 3));
  return s;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

SessionOptions random_options(std::size_t max_evals) {
  SessionOptions opt;
  opt.max_evals = max_evals;
  opt.backend = SessionBackend::Random;
  opt.seed = 17;
  return opt;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

#ifdef TUNEKIT_HAVE_FORK
TEST(SessionDurability, AckedTellsSurviveKill) {
  const auto space = two_dim_space();
  const std::string journal = temp_path("tunekit_durability_kill.jsonl");
  std::filesystem::remove(journal);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: issue four candidates, tell three, then die without cleanup.
    // _exit() runs no destructors and flushes nothing — any acked tell that
    // was still sitting in a stdio buffer would be lost here.
    TuningSession session(space, random_options(8), journal);
    auto batch = session.ask(4);
    if (batch.size() != 4) _exit(3);
    if (!session.tell(batch[0].id, 10.0, 0.5)) _exit(4);
    if (!session.tell(batch[1].id, 20.0)) _exit(4);
    if (!session.tell(batch[2].id, 30.0)) _exit(4);
    // Simulate the kill landing mid-append: a torn, unterminated line is
    // exactly what a crash during a later write leaves behind.
    if (std::FILE* f = std::fopen(journal.c_str(), "ab")) {
      std::fputs("{\"e\":\"tell\",\"id\":3,\"val", f);
      std::fflush(f);
    }
    _exit(0);
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died abnormally";
  ASSERT_EQ(WEXITSTATUS(status), 0) << "child setup failed";

  const auto replay = SessionStore::replay(journal, space);
  ASSERT_EQ(replay.completed.size(), 3u) << "an acked tell was lost";
  EXPECT_DOUBLE_EQ(replay.completed[0].value, 10.0);
  EXPECT_DOUBLE_EQ(replay.completed[0].cost_seconds, 0.5);
  EXPECT_DOUBLE_EQ(replay.completed[1].value, 20.0);
  EXPECT_DOUBLE_EQ(replay.completed[2].value, 30.0);
  // The un-told fourth candidate is still in flight and must be re-issued.
  ASSERT_EQ(replay.in_flight.size(), 1u);

  auto resumed = TuningSession::resume(space, random_options(8), journal);
  EXPECT_EQ(resumed->completed(), 3u);
  auto reissued = resumed->ask(4);
  ASSERT_EQ(reissued.size(), 1u) << "re-issue must drain before new asks";
  EXPECT_EQ(reissued[0].id, replay.in_flight[0].id);
  std::filesystem::remove(journal);
}
#endif  // TUNEKIT_HAVE_FORK

TEST(SessionDurability, TornTailToleratedMidJournalCorruptionSalvaged) {
  const auto space = two_dim_space();
  const std::string journal = temp_path("tunekit_durability_torn.jsonl");
  const std::string quarantined =
      (std::filesystem::temp_directory_path() / "corrupt" /
       "tunekit_durability_torn.jsonl")
          .string();
  std::filesystem::remove(journal);
  std::filesystem::remove(quarantined);
  {
    TuningSession session(space, random_options(8), journal);
    auto batch = session.ask(2);
    ASSERT_EQ(batch.size(), 2u);
    ASSERT_TRUE(session.tell(batch[0].id, 1.0));
    ASSERT_TRUE(session.tell(batch[1].id, 2.0));
  }
  const std::string clean = slurp(journal);

  // A torn final line (no newline, half a record) is a normal crash artifact
  // and must be tolerated — reported as a torn tail, not as corruption.
  {
    std::ofstream out(journal, std::ios::app);
    out << "{\"e\":\"ask\",\"id\":9,\"conf";
  }
  {
    const auto replay = SessionStore::replay(journal, space);
    EXPECT_EQ(replay.completed.size(), 2u);
    EXPECT_TRUE(replay.in_flight.empty());
    EXPECT_EQ(replay.salvage.torn_tails, 1u);
    EXPECT_EQ(replay.salvage.lost_records, 0u);
    EXPECT_EQ(replay.salvage.corrupt_segments, 0u);
  }

  // Garbage in the *middle* of the journal is real corruption. The CRC
  // framing pins the damage to the exact record: replay drops it, keeps
  // every valid record on both sides, and reports what was lost instead of
  // aborting the whole journal.
  spew(journal, clean);
  std::string bytes = clean;
  const auto tell_pos = bytes.find("\"e\":\"tell\"");
  ASSERT_NE(tell_pos, std::string::npos);
  bytes[tell_pos] ^= 0x01;  // one flipped bit: the line's CRC no longer matches
  spew(journal, bytes);
  {
    const auto replay = SessionStore::replay(journal, space);  // read-only
    EXPECT_EQ(replay.salvage.lost_records, 1u);
    EXPECT_EQ(replay.salvage.corrupt_segments, 1u);
    EXPECT_EQ(replay.salvage.torn_tails, 0u);
    // The damaged tell is gone, so its candidate is back in flight; the
    // *later* valid tell still replays.
    ASSERT_EQ(replay.completed.size(), 1u);
    EXPECT_DOUBLE_EQ(replay.completed[0].value, 2.0);
    ASSERT_EQ(replay.in_flight.size(), 1u);
    // Read-only mode must not touch the file.
    EXPECT_EQ(slurp(journal), bytes);
    EXPECT_FALSE(std::filesystem::exists(quarantined));
  }
  // Repair mode quarantines the damaged bytes under corrupt/ and rewrites
  // the journal with the salvageable records.
  {
    StoreReplayOptions repair_opt;
    repair_opt.repair = true;
    const auto repaired = SessionStore::replay(journal, space, repair_opt);
    EXPECT_EQ(repaired.salvage.lost_records, 1u);
    ASSERT_EQ(repaired.completed.size(), 1u);
    ASSERT_TRUE(std::filesystem::exists(quarantined));
    EXPECT_EQ(slurp(quarantined), bytes)
        << "the quarantine copy must preserve the damaged bytes for forensics";
  }
  // After repair the journal replays clean, with the same state.
  {
    const auto replay = SessionStore::replay(journal, space);
    EXPECT_TRUE(replay.salvage.clean());
    EXPECT_EQ(replay.completed.size(), 1u);
    ASSERT_EQ(replay.in_flight.size(), 1u);
  }
  std::filesystem::remove(journal);
  std::filesystem::remove(quarantined);
}

TEST(SessionDurability, EnospcMidAppendPoisonsStoreAndKeepsAckedRecords) {
  const auto space = two_dim_space();
  const std::string journal = temp_path("tunekit_durability_enospc.jsonl");
  std::filesystem::remove(journal);

  common::FaultScript script;
  script.enospc_after_bytes = 2048;  // the "disk" fills a few records in
  script.path_contains = "tunekit_durability_enospc";
  common::FaultIo io(script);

  SessionOptions opt = random_options(64);
  opt.compact_every = 0;  // keep every record in the active file
  opt.io = &io;
  TuningSession session(space, opt, journal);
  std::size_t acked = 0;
  try {
    while (acked < 64) {
      auto batch = session.ask(1);
      ASSERT_EQ(batch.size(), 1u);
      session.tell(batch[0].id, static_cast<double>(acked));
      ++acked;  // only counted once tell() returned (= the record was acked)
    }
  } catch (const StorePoisonedError&) {
  }
  ASSERT_GT(acked, 0u) << "the disk filled before anything was journaled";
  ASSERT_LT(acked, 64u) << "ENOSPC never fired";
  EXPECT_GE(io.faults_injected(), 1u);
  // A failed append poisons the store: later appends fail fast with the same
  // error instead of pretending the journal still accepts records.
  EXPECT_THROW(session.flush_metrics(), StorePoisonedError);

  // ENOSPC rejects the whole line, so the journal ends at a record boundary:
  // every acked tell replays, nothing more, no damage.
  const auto replay = SessionStore::replay(journal, space);
  EXPECT_TRUE(replay.salvage.clean());
  ASSERT_EQ(replay.completed.size(), acked);
  for (std::size_t i = 0; i < replay.completed.size(); ++i) {
    EXPECT_DOUBLE_EQ(replay.completed[i].value, static_cast<double>(i));
  }
  std::filesystem::remove(journal);
}

TEST(SessionDurability, FsyncFailurePoisonsTheStore) {
  const auto space = two_dim_space();
  const std::string journal = temp_path("tunekit_durability_fsync.jsonl");
  std::filesystem::remove(journal);

  common::FaultScript script;
  script.fail_fsync_at = 3;  // header = 1, first ask = 2, second ask = 3
  script.path_contains = "tunekit_durability_fsync";
  common::FaultIo io(script);

  SessionStore::Options store_opt;
  store_opt.io = &io;
  JournalHeader header;
  header.space_size = 2;
  header.max_evals = 8;
  header.backend = "random";
  auto store = SessionStore::create(journal, header, store_opt);
  Candidate first;
  first.id = 1;
  first.config = {0.5, 0.5};
  store->ask(first);
  EXPECT_FALSE(store->poisoned());

  Candidate second;
  second.id = 2;
  second.config = {1.5, -0.5};
  EXPECT_THROW(store->ask(second), StorePoisonedError);
  EXPECT_TRUE(store->poisoned());
  // fsyncgate: the kernel dropped the dirty page and a retried fsync would
  // falsely succeed, so the store is read-only from here on — every append
  // fails fast without touching the disk.
  EXPECT_THROW(store->tell(1, 1.0, 0.0), StorePoisonedError);
  EXPECT_EQ(io.faults_injected(), 1u);
  store.reset();

  // Everything acked before the failed fsync is intact.
  const auto replay = SessionStore::replay(journal, space);
  EXPECT_TRUE(replay.completed.empty());
  ASSERT_GE(replay.in_flight.size(), 1u);
  EXPECT_EQ(replay.in_flight[0].id, 1u);
  std::filesystem::remove(journal);
}

TEST(SessionDurability, SealedSegmentByteFlipIsSalvagedOnResume) {
  const auto space = two_dim_space();
  const std::string journal = temp_path("tunekit_durability_rotate.jsonl");
  const std::string segment1 = temp_path("tunekit_durability_rotate.000001.jsonl");
  const auto corrupt_dir = std::filesystem::temp_directory_path() / "corrupt";
  std::filesystem::remove(journal);
  for (int i = 1; i <= 9; ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "tunekit_durability_rotate.%06d.jsonl", i);
    std::filesystem::remove(temp_path(name));
    std::filesystem::remove(corrupt_dir / name);
  }

  SessionOptions opt = random_options(32);
  opt.compact_every = 0;
  opt.rotate_bytes = 512;  // a handful of records per segment
  const std::size_t told = 16;
  {
    TuningSession session(space, opt, journal);
    for (std::size_t i = 0; i < told; ++i) {
      auto batch = session.ask(1);
      ASSERT_EQ(batch.size(), 1u);
      ASSERT_TRUE(session.tell(batch[0].id, static_cast<double>(i)));
    }
  }
  ASSERT_TRUE(std::filesystem::exists(segment1))
      << "rotation never sealed a segment";
  // Replay stitches sealed segments + active file losslessly before damage.
  {
    const auto replay = SessionStore::replay(journal, space);
    EXPECT_TRUE(replay.salvage.clean());
    EXPECT_EQ(replay.completed.size(), told);
  }

  // Flip one byte inside a record of the sealed segment.
  std::string bytes = slurp(segment1);
  const auto tell_pos = bytes.find("\"e\":\"tell\"");
  ASSERT_NE(tell_pos, std::string::npos);
  bytes[tell_pos] ^= 0x01;
  spew(segment1, bytes);

  // Read-only replay pins the damage to exactly one record.
  {
    const auto replay = SessionStore::replay(journal, space);
    EXPECT_EQ(replay.salvage.corrupt_segments, 1u);
    EXPECT_EQ(replay.salvage.lost_records, 1u);
    EXPECT_EQ(replay.completed.size(), told - 1);
    ASSERT_EQ(replay.in_flight.size(), 1u);
  }

  // Resume repairs: the segment is quarantined + rewritten, the lost tell's
  // candidate is re-issued, and the journal records salvage provenance.
  {
    auto resumed = TuningSession::resume(space, opt, journal);
    EXPECT_EQ(resumed->completed(), told - 1);
    auto batch = resumed->ask(1);
    ASSERT_EQ(batch.size(), 1u);
    ASSERT_TRUE(resumed->tell(batch[0].id, 99.0));
  }
  EXPECT_TRUE(std::filesystem::exists(
      corrupt_dir / "tunekit_durability_rotate.000001.jsonl"))
      << "repair must quarantine the damaged segment";
  // The provenance marker lives somewhere in the journal chain (rotation may
  // have sealed it into a segment already).
  std::string chain = slurp(journal);
  for (int i = 1; i <= 9; ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "tunekit_durability_rotate.%06d.jsonl", i);
    chain += slurp(temp_path(name));
  }
  EXPECT_NE(chain.find("\"e\":\"salvage\""), std::string::npos)
      << "resume after salvage must journal a provenance marker";
  // The repaired chain replays clean and whole.
  {
    const auto replay = SessionStore::replay(journal, space);
    EXPECT_TRUE(replay.salvage.clean());
    EXPECT_EQ(replay.completed.size(), told);
  }

  std::filesystem::remove(journal);
  for (int i = 1; i <= 9; ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "tunekit_durability_rotate.%06d.jsonl", i);
    std::filesystem::remove(temp_path(name));
    std::filesystem::remove(corrupt_dir / name);
  }
}

// Crash-consistency sweep: replay every byte prefix of the whole write
// stream (not just cuts inside the final record). Every prefix is a state a
// real crash could leave behind, so none may abort the replay, and the
// recovered tell count must grow monotonically with the prefix.
TEST(SessionDurability, EveryPrefixOfTheWriteStreamReplays) {
  const auto space = two_dim_space();
  const std::string journal = temp_path("tunekit_durability_prefix.jsonl");
  std::filesystem::remove(journal);
  SessionOptions opt = random_options(8);
  opt.compact_every = 0;
  {
    TuningSession session(space, opt, journal);
    auto batch = session.ask(3);
    ASSERT_EQ(batch.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(session.tell(batch[i].id, static_cast<double>(i + 1)));
    }
  }
  const std::string bytes = slurp(journal);
  const auto header_end = bytes.find('\n');
  ASSERT_NE(header_end, std::string::npos);

  std::size_t prev_completed = 0;
  for (std::size_t cut = header_end + 1; cut <= bytes.size(); ++cut) {
    spew(journal, bytes.substr(0, cut));
    SessionStore::Replay replay;
    ASSERT_NO_THROW(replay = SessionStore::replay(journal, space))
        << "cut at byte " << cut;
    EXPECT_LE(replay.completed.size(), 3u) << "cut at byte " << cut;
    EXPECT_GE(replay.completed.size(), prev_completed)
        << "cut at byte " << cut << ": a longer prefix lost an acked tell";
    prev_completed = replay.completed.size();
  }
  EXPECT_EQ(prev_completed, 3u);
  std::filesystem::remove(journal);
}

// The satellite case the torn-line test above does not cover: the file is cut
// at an arbitrary *byte* offset inside the final record — the exact artifact
// of a crash (or full disk) partway through a write. Every truncation point
// within the last record must replay the prior records and resume cleanly.
TEST(SessionDurability, TruncationAtEveryByteOfTheLastRecordIsTolerated) {
  const auto space = two_dim_space();
  const std::string journal = temp_path("tunekit_durability_truncate.jsonl");
  std::filesystem::remove(journal);
  {
    TuningSession session(space, random_options(8), journal);
    auto batch = session.ask(3);
    ASSERT_EQ(batch.size(), 3u);
    ASSERT_TRUE(session.tell(batch[0].id, 1.0));
    ASSERT_TRUE(session.tell(batch[1].id, 2.0));
    ASSERT_TRUE(session.tell(batch[2].id, 3.0));
  }
  const auto full_size = std::filesystem::file_size(journal);
  // Locate the start of the final record (the byte after the second-to-last
  // newline; the file ends with a newline).
  std::string bytes(full_size, '\0');
  {
    std::ifstream in(journal, std::ios::binary);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(in) << "could not read the journal back";
  }
  ASSERT_EQ(bytes.back(), '\n');
  const auto last_start = bytes.rfind('\n', bytes.size() - 2) + 1;

  const std::string backup = bytes;
  const auto restore = [&] {
    std::ofstream out(journal, std::ios::binary | std::ios::trunc);
    out.write(backup.data(), static_cast<std::streamsize>(full_size));
  };
  // Cuts strictly inside the record leave unparseable JSON: the third tell is
  // gone and its candidate must come back in flight for re-issue.
  for (std::uintmax_t cut = last_start; cut + 1 < full_size; ++cut) {
    restore();
    std::filesystem::resize_file(journal, cut);
    const auto replay = SessionStore::replay(journal, space);
    EXPECT_EQ(replay.completed.size(), 2u) << "cut at byte " << cut;
    ASSERT_EQ(replay.in_flight.size(), 1u) << "cut at byte " << cut;
    auto resumed = TuningSession::resume(space, random_options(8), journal);
    EXPECT_EQ(resumed->completed(), 2u) << "cut at byte " << cut;
  }
  // Losing only the trailing newline leaves the record's JSON complete: the
  // acked tell must NOT be dropped in that case.
  restore();
  std::filesystem::resize_file(journal, full_size - 1);
  EXPECT_EQ(SessionStore::replay(journal, space).completed.size(), 3u);
  std::filesystem::remove(journal);
}

TEST(SessionDurability, QuarantineBanSurvivesResume) {
  const auto space = singleton_space();
  const std::string journal = temp_path("tunekit_durability_quar.jsonl");
  std::filesystem::remove(journal);

  SessionOptions opt;
  opt.max_evals = 6;
  opt.backend = SessionBackend::Random;
  opt.max_attempts = 5;  // retries alone would keep re-issuing
  opt.quarantine_after = 2;
  opt.seed = 17;
  {
    TuningSession session(space, opt, journal);
    auto first = session.ask(1);
    ASSERT_EQ(first.size(), 1u);
    ASSERT_TRUE(session.tell_failure(first[0].id, robust::EvalOutcome::Crashed));
    // Crash #1: below threshold, the candidate is queued for retry.
    auto retry = session.ask(1);
    ASSERT_EQ(retry.size(), 1u);
    EXPECT_EQ(retry[0].id, first[0].id);
    ASSERT_TRUE(session.tell_failure(retry[0].id, robust::EvalOutcome::Crashed));
    // Crash #2: quarantined — dropped at penalty despite remaining attempts.
    EXPECT_EQ(session.completed(), 1u);
    // The only configuration in the space is banned: asks cannot issue it
    // again (each refused re-suggestion is recorded and consumes budget).
    const std::size_t before = session.completed();
    EXPECT_TRUE(session.ask(1).empty());
    EXPECT_GT(session.completed(), before);
  }

  // The "quar" record must be on disk in the journal.
  bool has_quar = false;
  {
    std::ifstream in(journal);
    for (std::string line; std::getline(in, line);) {
      if (line.find("\"quar\"") != std::string::npos) has_quar = true;
    }
  }
  EXPECT_TRUE(has_quar) << "quarantine event was not journaled";

  // A resumed session inherits the ban: it never issues the quarantined
  // configuration, burning the remaining budget on refused suggestions
  // instead of dispatching a config known to crash its evaluator.
  auto resumed = TuningSession::resume(space, opt, journal);
  while (resumed->state() == SessionState::Active) {
    ASSERT_TRUE(resumed->ask(1).empty())
        << "resumed session re-issued a quarantined config";
  }
  EXPECT_EQ(resumed->completed(), opt.max_evals);
  std::filesystem::remove(journal);
}

TEST(SessionDurability, QuarantineSurvivesCompaction) {
  const auto space = singleton_space();
  const std::string journal = temp_path("tunekit_durability_quar_compact.jsonl");
  std::filesystem::remove(journal);

  SessionOptions opt;
  opt.max_evals = 8;
  opt.backend = SessionBackend::Random;
  opt.max_attempts = 5;
  opt.quarantine_after = 2;
  opt.compact_every = 1;  // compact after every recorded evaluation
  opt.seed = 17;
  {
    TuningSession session(space, opt, journal);
    for (int crash = 0; crash < 2; ++crash) {
      auto batch = session.ask(1);
      ASSERT_EQ(batch.size(), 1u);
      ASSERT_TRUE(session.tell_failure(batch[0].id, robust::EvalOutcome::Crashed));
    }
    // The drop at the quarantine threshold triggered a compaction: the
    // journal was rewritten. The quarantine record must have survived it.
    EXPECT_TRUE(session.ask(1).empty());
  }
  const auto replay = SessionStore::replay(journal, space);
  ASSERT_EQ(replay.quarantined.size(), 1u);
  EXPECT_DOUBLE_EQ(replay.quarantined[0][0], 3.0);

  auto resumed = TuningSession::resume(space, opt, journal);
  EXPECT_TRUE(resumed->ask(1).empty())
      << "compaction dropped the quarantine record";
  std::filesystem::remove(journal);
}

TEST(SessionDurability, CompactedJournalResumesAfterItsDirectoryMoves) {
  // The header names the snapshot by the path the journal was opened with;
  // replay must find it beside the journal wherever the directory now is.
  const auto space = two_dim_space();
  const std::filesystem::path dir = temp_path("tunekit_durability_move_from");
  const std::filesystem::path moved = temp_path("tunekit_durability_move_to");
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(moved);
  std::filesystem::create_directories(dir);
  const std::string journal = (dir / "search.journal.jsonl").string();

  SessionOptions opt;
  opt.max_evals = 12;
  opt.backend = SessionBackend::Bo;
  opt.n_init = 4;
  opt.bo.hyperopt_restarts = 1;
  opt.bo.hyperopt_max_iters = 20;
  opt.seed = 17;
  opt.compact_every = 4;  // six tells: four compacted, two still records
  {
    TuningSession session(space, opt, journal);
    for (int i = 0; i < 6; ++i) {
      const auto batch = session.ask(1);
      ASSERT_EQ(batch.size(), 1u);
      const auto& c = batch[0].config;
      ASSERT_TRUE(session.tell(batch[0].id, c[0] * c[0] + c[1] * c[1]));
    }
  }
  ASSERT_TRUE(std::filesystem::exists(SessionStore::snapshot_path(journal)));
  std::filesystem::copy(dir, moved, std::filesystem::copy_options::recursive);

  // What a resume in place restores and asks next...
  auto in_place = TuningSession::resume(space, opt, journal);
  const auto expected = in_place->evaluations();
  const auto expected_next = in_place->ask(1);
  in_place.reset();
  std::filesystem::remove_all(dir);

  // ...the moved copy must restore and ask, with the original gone.
  auto resumed =
      TuningSession::resume(space, opt, (moved / "search.journal.jsonl").string());
  const auto restored = resumed->evaluations();
  ASSERT_EQ(restored.size(), 6u);
  ASSERT_EQ(restored.size(), expected.size());
  for (std::size_t i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(restored[i].config, expected[i].config);
    EXPECT_EQ(restored[i].value, expected[i].value);
  }
  const auto next = resumed->ask(1);
  ASSERT_EQ(next.size(), 1u);
  ASSERT_EQ(expected_next.size(), 1u);
  EXPECT_EQ(next[0].id, expected_next[0].id);
  EXPECT_EQ(next[0].config, expected_next[0].config);
  resumed.reset();
  std::filesystem::remove_all(moved);
}

}  // namespace
}  // namespace tunekit::service
