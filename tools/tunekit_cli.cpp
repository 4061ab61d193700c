// tunekit_cli — command-line front end for the methodology.
//
//   tunekit_cli info    --app <name>                  parameter table
//   tunekit_cli analyze --app <name> [options]        sensitivity + DAG
//   tunekit_cli plan    --app <name> [options]        the suggested search set
//   tunekit_cli tune    --app <name> [options]        full methodology run
//   tunekit_cli session --app <name> [options]        NDJSON ask/tell server
//   tunekit_cli report  --session <dir>               time/failure breakdown
//                                                     from session journals
//   tunekit_cli fsck    --journal-dir <dir> [--repair] offline journal
//                                                     verification/repair
//   tunekit_cli serve   [options]                     HTTP/JSON tuning server
//                                                     (--fleet adds a TCP
//                                                     evaluation dispatcher)
//   tunekit_cli fleet-node   --server host:port --app <name> [options]
//                                                     evaluation node: dials
//                                                     the dispatcher, hosts
//                                                     worker slots
//   tunekit_cli fleet-status --server host:port       fleet registry snapshot
//   tunekit_cli fleet-drive  --server host:port --session-id ID
//                                                     run a session on the
//                                                     fleet, synchronously
//   tunekit_cli remote-create|remote-ask|remote-tell|remote-report|
//               remote-close|remote-drive --server host:port [options]
//                                                     HTTP client commands
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error (unknown flag or
// command, missing/conflicting options).
//
// Built-in apps: synth:case1..synth:case5, tddft:cs1, tddft:cs2, minislater.
// Common options:
//   --cutoff <frac>          influence cut-off (default 0.10; synthetic: 0.25)
//   --max-dims <n>           per-search dimension cap (default 10)
//   --variations <n>         sensitivity variations per parameter
//   --importance-samples <n> random-forest dataset size (0 disables)
//   --evals-per-param <n>    search budget rule (default 10)
//   --min-evals <n>          search budget floor (default 20)
//   --seed <n>               RNG seed
//   --checkpoint-dir <path>  per-search crash-recovery journals (tune)
//   --dot                    also print the pruned influence DAG as Graphviz
//
// Observability:
//   --trace-out <file>       write a Chrome trace_event JSON of the run
//                            (open in chrome://tracing or ui.perfetto.dev)
//   --metrics-out <file>     write Prometheus text exposition at exit
//   --log-file <file>        tee log lines (with wall-clock timestamp and
//                            thread id) to a file
//
// Session options (see docs/SERVICE.md for the NDJSON protocol):
//   --max-evals <n>          session evaluation budget (default 100)
//   --backend <bo|random|grid>  suggestion backend (default bo)
//   --journal <path>         durable ask/tell journal (JSON lines)
//   --resume                 resume the session from --journal, or tune's
//                            searches from the journals in --checkpoint-dir

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/log.hpp"
#include "common/table.hpp"
#include "core/app_registry.hpp"
#include "core/methodology.hpp"
#include "fleet/dispatcher.hpp"
#include "fleet/node_agent.hpp"
#include "net/client.hpp"
#include "net/rest_api.hpp"
#include "net/server.hpp"
#include "net/session_manager.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "robust/measure.hpp"
#include "robust/worker_pool.hpp"
#include "core/report.hpp"
#include "search/config.hpp"
#include "search/eval_db.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/session_store.hpp"

using namespace tunekit;

namespace {

/// A mistake in how the tool was invoked (exit code 2), as opposed to a
/// failure while doing the work (exit code 1). Scripts and CI key off the
/// distinction.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

int usage(const char* argv0) {
  std::printf(
      "usage: %s <info|analyze|plan|tune|session|report|fsck|serve|remote-*> [options]\n"
      "apps:  synth:case1..case5 | tddft:cs1 | tddft:cs2 | minislater\n"
      "options: --cutoff F --max-dims N --variations N --importance-samples N\n"
      "         --evals-per-param N --min-evals N --seed N --dot\n"
      "tune:    --checkpoint-dir P (each search writes a crash-proof journal\n"
      "           that `report` aggregates) --resume (continue the searches\n"
      "           journaled in P; without it a P holding search journals is\n"
      "           refused)\n"
      "robust:  --repeats N (measurements per config, MAD-trimmed)\n"
      "         --eval-timeout S (watchdog deadline per measurement)\n"
      "         --eval-retries N (re-attempts after a transient crash)\n"
      "         --mad-threshold F (outlier cut in scaled MADs; 0 disables)\n"
      "sandbox: --isolate thread|process (default thread; process runs every\n"
      "           evaluation in a supervised tunekit_worker with SIGKILL\n"
      "           deadlines and crash quarantine)\n"
      "         --worker-bin P (worker binary; default: tunekit_worker next\n"
      "           to this executable; requires --isolate process)\n"
      "         --mem-limit-mb N (RLIMIT_AS cap per worker; requires\n"
      "           --isolate process)\n"
      "session: speaks NDJSON ask/tell on stdin/stdout (docs/SERVICE.md)\n"
      "         --max-evals N --backend bo|random|grid --journal P --resume\n"
      "structure (session, remote-create; docs/METHODOLOGY.md \"Online\n"
      "         structure learning\"):\n"
      "         --structure-online (learn the parameter dependency structure\n"
      "           from the observation stream; journaled, resumes exactly)\n"
      "         --structure-cadence N (affinity refit every N evals)\n"
      "         --structure-threshold F (pair-merge affinity cut)\n"
      "         --structure-evidence F (min evidence to repartition)\n"
      "         --structure-hysteresis N (confirming refits required)\n"
      "         --structure-cooldown N (min evals between repartitions)\n"
      "observability (docs/OBSERVABILITY.md):\n"
      "         --trace-out P (Chrome trace_event JSON of the run)\n"
      "         --metrics-out P (Prometheus text exposition at exit)\n"
      "         --log-file P (tee timestamped log lines to a file)\n"
      "report:  per-phase/per-search time and failure breakdown from the\n"
      "         journals in a checkpoint dir: report --session DIR\n"
      "fsck:    verify (or repair) session journals offline: CRC framing,\n"
      "         segment seals/sequence, torn tails (docs/SERVICE.md\n"
      "         \"Durability & recovery\"): fsck --journal-dir DIR\n"
      "         [--repair] [--session-id ID]; exit 0 = clean or repaired,\n"
      "         1 = damage found (or left, without --repair)\n"
      "serve:   HTTP/JSON tuning server (docs/SERVICE.md \"Remote service\")\n"
      "         --host A --port N (0 = ephemeral) --journal-dir P\n"
      "         --max-sessions N --max-resident N --max-connections N\n"
      "         --threads N --max-queue N --request-timeout S --drain-timeout S\n"
      "         --shards N (session lock/journal shards, default 1)\n"
      "         --queue-delay-target S (shed 503 when smoothed queue wait\n"
      "           exceeds this; 0 disables; default 0.25)\n"
      "         --header-timeout S --body-timeout S (slow-request 408 cutoffs\n"
      "           anchored at the first request byte; 0 disables)\n"
      "         --fleet (accept TCP evaluation nodes) --fleet-port N\n"
      "           (default 8078; 0 = ephemeral)\n"
      "fleet-node: evaluation node for a serve --fleet dispatcher\n"
      "         --server H:P --app NAME [--slots N --node-id ID\n"
      "         --worker-bin P --mem-limit-mb N --seed N]\n"
      "fleet-status: --server H:P (GET /v1/fleet snapshot)\n"
      "fleet-drive:  --server H:P --session-id ID (run the session on the\n"
      "         fleet; synchronous, see docs/SERVICE.md \"Distributed fleet\")\n"
      "top:     live polling view of a serve instance: sessions, queue depth,\n"
      "         fleet nodes/breakers/clock sync, p50/p99 request latency\n"
      "         --server H:P [--interval S (default 2) --iterations N\n"
      "           (default 0 = until interrupted)]\n"
      "remote-create: --server H:P --app NAME [--session-id ID --backend B\n"
      "         --max-evals N --seed N]\n"
      "remote-ask:    --server H:P --session-id ID [--k N]\n"
      "remote-tell:   --server H:P --session-id ID --eval-id N\n"
      "         (--value V | --outcome crashed|timed-out|invalid-config|non-finite)\n"
      "remote-report / remote-close: --server H:P --session-id ID\n"
      "remote-drive:  full remote tune, evaluating --app locally:\n"
      "         --server H:P --app NAME [--session-id ID --backend B\n"
      "         --max-evals N --seed N]\n"
      "remote/fleet client options (all remote-* and fleet-drive):\n"
      "         --retries N (exactly-once retries via Idempotency-Key;\n"
      "           default 0) --deadline-s S (end-to-end X-Tunekit-Deadline\n"
      "           budget, retries included; default none)\n",
      argv0);
  return 2;
}

struct CliArgs {
  std::string command;
  std::string app;
  double cutoff = -1.0;  // negative = per-app default
  std::size_t max_dims = 10;
  std::size_t variations = 0;  // 0 = per-app default
  std::size_t importance_samples = 0;
  std::size_t evals_per_param = 10;
  std::size_t min_evals = 20;
  std::uint64_t seed = 42;
  std::string checkpoint_dir;
  bool dot = false;
  // hardened evaluation (applies to sensitivity and search evaluations)
  std::size_t repeats = 1;
  double eval_timeout = std::numeric_limits<double>::infinity();
  std::size_t eval_retries = 0;
  double mad_threshold = 3.5;
  // session command
  std::size_t max_evals = 100;
  std::string backend = "bo";
  std::string journal;
  bool resume = false;  // session --journal, or tune --checkpoint-dir
  // online structure learning (session + remote-create specs)
  bool structure_online = false;
  std::size_t structure_cadence = 20;
  double structure_threshold = 0.25;
  double structure_evidence = 0.10;
  std::size_t structure_hysteresis = 2;
  std::size_t structure_cooldown = 20;
  // process isolation
  std::string isolate;  // "" = default (thread), else "thread"/"process"
  std::string worker_bin;
  double mem_limit_mb = -1.0;  // negative = unset
  // observability
  std::string trace_out;
  std::string metrics_out;
  std::string log_file;
  std::string session_dir;  // report command
  // serve command
  std::string host = "127.0.0.1";
  std::uint16_t port = 8077;
  std::string journal_dir;
  std::size_t max_sessions = 1024;
  std::size_t max_resident = 64;
  std::size_t max_connections = 256;
  std::size_t threads = 2;
  std::size_t max_queue = 64;
  double request_timeout = 30.0;
  double drain_timeout = 5.0;
  std::size_t shards = 1;
  // fleet (serve --fleet dispatcher + fleet-node command)
  bool fleet = false;
  std::uint16_t fleet_port = 8078;
  std::size_t slots = 2;
  std::string node_id;
  double chaos_mute_s = 0.0;
  double spin_ms = 0.0;
  // serve admission control (overload shedding + slow-loris hardening)
  double queue_delay_target = 0.25;
  double header_timeout = 10.0;
  double body_timeout = 20.0;
  // remote-* commands
  std::string server;      // host:port
  std::string session_id;  // remote session id
  std::uint64_t eval_id = 0;
  bool has_eval_id = false;
  std::string value;  // kept as text so "absent" is distinguishable
  std::string outcome;
  std::size_t k = 1;
  /// Client retry budget beyond the first attempt (0 = no retries, the
  /// old behavior). Retries stamp Idempotency-Key so they are exactly-once.
  std::size_t retries = 0;
  /// End-to-end deadline stamped as X-Tunekit-Deadline (retries and
  /// backoff included); infinity = none.
  double deadline_s = std::numeric_limits<double>::infinity();
  // top command
  double interval_s = 2.0;
  std::size_t iterations = 0;  // 0 = poll until interrupted
  // fsck command
  bool repair = false;
};

bool parse_args(int argc, char** argv, CliArgs& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    // Accept both "--flag value" and "--flag=value".
    std::string inline_value;
    bool has_inline = false;
    if (flag.rfind("--", 0) == 0) {
      const auto eq = flag.find('=');
      if (eq != std::string::npos) {
        inline_value = flag.substr(eq + 1);
        flag.erase(eq);
        has_inline = true;
      }
    }
    auto next = [&]() -> std::string {
      if (has_inline) return inline_value;
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--app") args.app = next();
      else if (flag == "--cutoff") args.cutoff = std::stod(next());
      else if (flag == "--max-dims") args.max_dims = std::stoul(next());
      else if (flag == "--variations") args.variations = std::stoul(next());
      else if (flag == "--importance-samples") args.importance_samples = std::stoul(next());
      else if (flag == "--evals-per-param") args.evals_per_param = std::stoul(next());
      else if (flag == "--min-evals") args.min_evals = std::stoul(next());
      else if (flag == "--seed") args.seed = std::stoull(next());
      else if (flag == "--checkpoint-dir") args.checkpoint_dir = next();
      else if (flag == "--dot") args.dot = true;
      else if (flag == "--repeats") args.repeats = std::stoul(next());
      else if (flag == "--eval-timeout") args.eval_timeout = std::stod(next());
      else if (flag == "--eval-retries") args.eval_retries = std::stoul(next());
      else if (flag == "--mad-threshold") args.mad_threshold = std::stod(next());
      else if (flag == "--max-evals") args.max_evals = std::stoul(next());
      else if (flag == "--backend") args.backend = next();
      else if (flag == "--journal") args.journal = next();
      else if (flag == "--resume") args.resume = true;
      else if (flag == "--structure-online") args.structure_online = true;
      else if (flag == "--structure-cadence") args.structure_cadence = std::stoul(next());
      else if (flag == "--structure-threshold") args.structure_threshold = std::stod(next());
      else if (flag == "--structure-evidence") args.structure_evidence = std::stod(next());
      else if (flag == "--structure-hysteresis") args.structure_hysteresis = std::stoul(next());
      else if (flag == "--structure-cooldown") args.structure_cooldown = std::stoul(next());
      else if (flag == "--isolate") args.isolate = next();
      else if (flag == "--worker-bin") args.worker_bin = next();
      else if (flag == "--mem-limit-mb") args.mem_limit_mb = std::stod(next());
      else if (flag == "--trace-out") args.trace_out = next();
      else if (flag == "--metrics-out") args.metrics_out = next();
      else if (flag == "--log-file") args.log_file = next();
      else if (flag == "--session") args.session_dir = next();
      else if (flag == "--host") args.host = next();
      else if (flag == "--port") args.port = static_cast<std::uint16_t>(std::stoul(next()));
      else if (flag == "--journal-dir") args.journal_dir = next();
      else if (flag == "--max-sessions") args.max_sessions = std::stoul(next());
      else if (flag == "--max-resident") args.max_resident = std::stoul(next());
      else if (flag == "--max-connections") args.max_connections = std::stoul(next());
      else if (flag == "--threads") args.threads = std::stoul(next());
      else if (flag == "--max-queue") args.max_queue = std::stoul(next());
      else if (flag == "--request-timeout") args.request_timeout = std::stod(next());
      else if (flag == "--drain-timeout") args.drain_timeout = std::stod(next());
      else if (flag == "--queue-delay-target") args.queue_delay_target = std::stod(next());
      else if (flag == "--header-timeout") args.header_timeout = std::stod(next());
      else if (flag == "--body-timeout") args.body_timeout = std::stod(next());
      else if (flag == "--retries") args.retries = std::stoul(next());
      else if (flag == "--deadline-s") args.deadline_s = std::stod(next());
      else if (flag == "--interval") args.interval_s = std::stod(next());
      else if (flag == "--iterations") args.iterations = std::stoul(next());
      else if (flag == "--shards") args.shards = std::stoul(next());
      else if (flag == "--fleet") args.fleet = true;
      else if (flag == "--fleet-port") args.fleet_port = static_cast<std::uint16_t>(std::stoul(next()));
      else if (flag == "--slots") args.slots = std::stoul(next());
      else if (flag == "--node-id") args.node_id = next();
      else if (flag == "--chaos-mute-s") args.chaos_mute_s = std::stod(next());
      else if (flag == "--spin-ms") args.spin_ms = std::stod(next());
      else if (flag == "--server") args.server = next();
      else if (flag == "--session-id") args.session_id = next();
      else if (flag == "--eval-id") { args.eval_id = std::stoull(next()); args.has_eval_id = true; }
      else if (flag == "--value") args.value = next();
      else if (flag == "--outcome") args.outcome = next();
      else if (flag == "--k") args.k = std::stoul(next());
      else if (flag == "--repair") args.repair = true;
      else {
        std::fprintf(stderr, "unknown option: %s\n", flag.c_str());
        return false;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad argument for %s: %s\n", flag.c_str(), e.what());
      return false;
    }
  }
  return true;
}

// Validate the isolation flag combination (before any work happens) and
// translate it into IsolationOptions. Conflicting flags are hard errors, not
// warnings: a user who passed --mem-limit-mb expects the cap to be enforced,
// and silently ignoring it under thread isolation would be worse than
// refusing to run.
robust::IsolationOptions make_isolation(const CliArgs& args, const char* argv0) {
  robust::IsolationOptions iso;
  if (!args.isolate.empty()) {
    try {
      iso.mode = robust::isolation_from_string(args.isolate);
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
  }
  if (iso.mode != robust::IsolationMode::Process) {
    if (!args.worker_bin.empty()) {
      throw UsageError(
          "--worker-bin requires --isolate process (worker binaries are only "
          "used by the process sandbox)");
    }
    if (args.mem_limit_mb >= 0.0) {
      throw UsageError(
          "--mem-limit-mb requires --isolate process (thread isolation cannot "
          "enforce a per-evaluation memory cap)");
    }
    return iso;
  }
  if (args.mem_limit_mb >= 0.0) iso.sandbox.mem_limit_mb = args.mem_limit_mb;
  std::string bin = args.worker_bin;
  if (bin.empty()) {
    // Default: the tunekit_worker built next to this executable.
    bin = (std::filesystem::path(argv0).parent_path() / "tunekit_worker").string();
  }
  iso.sandbox.argv = {bin, "--app", args.app, "--seed", std::to_string(args.seed)};
  return iso;
}

core::MethodologyOptions make_options(const CliArgs& args, const core::AppBundle& bundle,
                                      const robust::IsolationOptions& iso,
                                      obs::Telemetry* telemetry) {
  core::MethodologyOptions opt;
  opt.cutoff = args.cutoff >= 0.0 ? args.cutoff : bundle.default_cutoff;
  opt.max_dims = args.max_dims;
  opt.sensitivity.n_variations =
      args.variations > 0 ? args.variations : bundle.default_variations;
  opt.importance_samples = args.importance_samples;
  opt.executor.evals_per_param = args.evals_per_param;
  opt.executor.min_evals = args.min_evals;
  opt.executor.bo.seed = args.seed;
  opt.executor.checkpoint_dir = args.checkpoint_dir;
  opt.seed = args.seed;
  // One hardened-measurement policy for the whole pipeline: the sensitivity
  // analysis and every search evaluation measure under the same rules.
  robust::MeasureOptions measure;
  measure.repeats = args.repeats;
  measure.mad_threshold = args.mad_threshold;
  measure.watchdog.timeout_seconds = args.eval_timeout;
  measure.watchdog.max_retries = args.eval_retries;
  measure.watchdog.backoff_seconds = args.eval_retries > 0 ? 0.05 : 0.0;
  opt.sensitivity.measure = measure;
  opt.executor.measure = measure;
  opt.sensitivity.isolation = iso;
  opt.executor.isolation = iso;
  opt.telemetry = telemetry;
  return opt;
}

int cmd_info(core::TunableApp& app) {
  std::cout << "App: " << app.name() << "\n";
  Table table({"#", "Parameter", "Kind", "Default", "Cardinality"});
  const auto& space = app.space();
  for (std::size_t i = 0; i < space.size(); ++i) {
    const auto& p = space.param(i);
    table.add_row({std::to_string(i), p.name(), search::to_string(p.kind()),
                   Table::fmt(p.default_value(), 2),
                   p.cardinality() ? std::to_string(p.cardinality()) : "inf"});
  }
  std::cout << table.str();
  std::cout << "Constraints: " << space.constraints().size()
            << " | log10(#configs) = " << Table::fmt(space.log10_cardinality(), 2)
            << "\n";
  std::cout << "Routines:";
  for (const auto& r : app.routines()) std::cout << " " << r.name;
  const auto outer = app.outer_regions();
  if (!outer.empty()) {
    std::cout << " | outer:";
    for (const auto& o : outer) std::cout << " " << o;
  }
  std::cout << "\n";
  return 0;
}

int cmd_analyze(core::TunableApp& app, const core::MethodologyOptions& opt, bool dot) {
  core::Methodology m(opt);
  const auto analysis = m.analyze(app);
  std::cout << "Observations: " << analysis.observations << "\n\n";
  std::cout << core::sensitivity_tables(analysis.sensitivity,
                                        analysis.sensitivity.regions(),
                                        std::min<std::size_t>(10, app.space().size()));
  std::cout << "\nCross edges above the " << Table::pct(opt.cutoff, 0) << " cut-off:\n";
  const auto pruned = analysis.graph.pruned(opt.cutoff);
  for (const auto& e : pruned.cross_edges()) {
    std::cout << "  " << analysis.graph.param_name(e.param) << " ("
              << analysis.graph.routine_name(e.from_routine) << ") -> "
              << analysis.graph.routine_name(e.to_routine) << " ["
              << Table::pct(e.weight, 0) << "]\n";
  }
  if (dot) std::cout << "\n" << pruned.to_dot();
  return 0;
}

int cmd_plan(core::TunableApp& app, const core::MethodologyOptions& opt) {
  core::Methodology m(opt);
  const auto analysis = m.analyze(app);
  const auto plan = m.make_plan(app, analysis);
  std::cout << core::plan_table(plan, analysis.graph);
  return 0;
}

// tune journals each search to <checkpoint dir>/search_<id>.journal.jsonl and
// resumes a search whose journal exists. A journal header checks only the
// space size, so resuming is opt-in: without --resume, a directory that
// already holds search journals is refused rather than silently continuing
// another campaign's searches.
int cmd_tune(core::TunableApp& app, const core::MethodologyOptions& opt, bool resume) {
  const std::string& dir = opt.executor.checkpoint_dir;
  if (dir.empty()) {
    if (resume) throw UsageError("--resume requires --checkpoint-dir for tune");
  } else if (!resume && std::filesystem::is_directory(dir)) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.starts_with("search_") && name.ends_with(".journal.jsonl")) {
        throw UsageError("'" + dir +
                         "' already holds search journals; pass --resume to continue "
                         "them, or use an empty --checkpoint-dir");
      }
    }
  }
  core::Methodology m(opt);
  const auto result = m.run(app);
  std::cout << core::full_report(app, result);
  return 0;
}

// Serve the app's search space as an NDJSON ask/tell session: the client (an
// external, non-linked application) evaluates the suggested configurations
// itself and reports results back on stdin.
int cmd_session(core::TunableApp& app, const CliArgs& args, obs::Telemetry* telemetry) {
  service::SessionOptions opt;
  opt.max_evals = args.max_evals;
  opt.backend = service::backend_from_string(args.backend);
  opt.seed = args.seed;
  opt.telemetry = telemetry;
  opt.structure_online = args.structure_online;
  opt.structure_cadence = args.structure_cadence;
  opt.structure_threshold = args.structure_threshold;
  opt.structure_evidence = args.structure_evidence;
  opt.structure_hysteresis = args.structure_hysteresis;
  opt.structure_cooldown = args.structure_cooldown;

  std::unique_ptr<service::TuningSession> session;
  if (args.resume) {
    if (args.journal.empty()) {
      std::fprintf(stderr, "error: --resume requires --journal\n");
      return 2;
    }
    session = service::TuningSession::resume(app.space(), opt, args.journal);
  } else {
    session = std::make_unique<service::TuningSession>(app.space(), opt, args.journal);
  }
  service::SessionServer server(*session);
  server.serve(std::cin, std::cout);
  return 0;
}

// --- report: offline breakdown from the journals in a checkpoint dir. ---

/// Active session journals under `dir` and its shard-*/ subdirectories
/// (sealed rotation segments belong to their active journal; every
/// SessionStore read walks them itself). Sorted, so output and exit codes
/// are deterministic. Shared by report and fsck.
std::vector<std::filesystem::path> find_journals(const std::string& dir,
                                                 const std::string& only_id) {
  std::vector<std::filesystem::path> journals;
  auto collect = [&](const std::filesystem::path& d) {
    if (!std::filesystem::is_directory(d)) return;
    for (const auto& entry : std::filesystem::directory_iterator(d)) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      if (name.size() <= 14 || name.substr(name.size() - 14) != ".journal.jsonl") {
        continue;
      }
      if (!only_id.empty() && name != only_id + ".journal.jsonl") continue;
      journals.push_back(entry.path());
    }
  };
  collect(dir);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("shard-", 0) == 0) {
      collect(entry.path());
    }
  }
  std::sort(journals.begin(), journals.end());
  return journals;
}

/// Per-fleet-node attribution, rebuilt from the "node" key that tell/fail
/// records carry when the evaluation ran on a remote fleet node. Durations
/// are kept raw so the report can interpolate a p99 across searches.
struct NodeStats {
  std::size_t tells = 0;
  std::size_t fails = 0;
  std::vector<double> durations_ms;
};

struct JournalSummary {
  std::string name;
  std::string backend;
  std::size_t tells = 0;
  std::size_t fails = 0;
  std::size_t drops = 0;
  double cost_seconds = 0.0;
  double duration_ms = 0.0;
  std::map<std::string, std::size_t> failure_outcomes;  // from "fail" records
  std::map<int, std::size_t> slot_tells;                // tells per worker slot
  std::map<std::string, NodeStats> node_stats;          // keyed by fleet node id
  json::Value metrics;    // latest {"e":"metrics"} snapshot (null = none)
  json::Value structure;  // latest {"e":"struct"} snapshot (null = none)
};

/// Linearly interpolated percentile (q in [0,1]); sorts `values` in place.
double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

/// One journal's aggregate: SessionStore::scan reads its records (sealed
/// segments included, damaged lines skipped) and the compaction snapshot
/// adds the evaluations compaction folded out of them — a compacted
/// evaluation counts as a tell when its outcome is ok and as a drop
/// otherwise. Compaction keeps no `fail` records, so Fails and the failed
/// attempts by outcome are the cumulative `fails` / `outcomes` of the latest
/// {"e":"metrics"} record plus the `fail` records after it (the `fail`
/// records alone when there is no metrics record). The snapshot keeps no
/// fleet nodes either, and no record counts them, so the per-node table
/// counts only what compaction has not folded yet. Configs are never
/// decoded: the searches of one checkpoint dir have different arities.
JournalSummary summarize_journal(const std::filesystem::path& path, std::string name) {
  const std::string file = path.string();
  const auto scan = service::SessionStore::scan(file);
  if (!scan.salvage.clean()) {
    std::fprintf(stderr, "warning: '%s' has damaged records; run fsck\n", file.c_str());
  }
  JournalSummary s;
  s.name = std::move(name);
  s.backend = scan.header.backend;
  const auto add_tell = [&s](double cost, double duration_ms, int slot) {
    ++s.tells;
    s.cost_seconds += cost;
    s.duration_ms += duration_ms;
    if (slot >= 0) ++s.slot_tells[slot];
  };
  if (!scan.header.snapshot.empty()) {
    const auto compacted =
        search::EvalDb::load(service::SessionStore::snapshot_path(file)).all();
    for (const auto& e : compacted) {
      if (e.outcome == robust::EvalOutcome::Ok) {
        add_tell(e.cost_seconds, e.duration_ms, e.worker_slot);
      } else {
        ++s.drops;
      }
    }
  }
  for (const auto& rec : scan.records) {
    const std::string& e = rec.at("e").as_string();
    if (e == "tell") {
      add_tell(rec.number_or("cost", 0.0), rec.number_or("dur_ms", 0.0),
               static_cast<int>(rec.number_or("slot", -1.0)));
      if (rec.contains("node")) {
        NodeStats& node = s.node_stats[rec.at("node").as_string()];
        ++node.tells;
        node.durations_ms.push_back(rec.number_or("dur_ms", 0.0));
      }
    } else if (e == "fail") {
      ++s.fails;
      const std::string why =
          rec.contains("why") ? rec.at("why").as_string() : "crashed";
      ++s.failure_outcomes[why];
      if (rec.contains("node")) ++s.node_stats[rec.at("node").as_string()].fails;
    } else if (e == "drop") {
      ++s.drops;
    } else if (e == "metrics") {
      if (rec.contains("snap")) {
        // Counts every failed attempt so far; later fail records add to it.
        s.metrics = rec.at("snap");
        const auto m = service::SessionMetrics::from_json(s.metrics);
        s.fails = m.fails;
        s.failure_outcomes = m.failure_outcomes;
      }
    } else if (e == "struct") {
      // Latest dependency-structure snapshot wins, same contract as metrics;
      // its embedded adoption history covers every earlier repartition, so
      // compaction never loses the partition trail.
      if (rec.contains("snap")) s.structure = rec.at("snap");
    }
  }
  return s;
}

/// "[0 1][2 3][4]" from a snapshot's partition array.
std::string format_partition(const json::Value& partition) {
  std::string out;
  if (!partition.is_array()) return out;
  for (const auto& block : partition.as_array()) {
    out += '[';
    bool first = true;
    for (const auto& idx : block.as_array()) {
      if (!first) out += ' ';
      first = false;
      out += std::to_string(static_cast<std::size_t>(idx.as_number()));
    }
    out += ']';
  }
  return out;
}

int cmd_report(const std::string& dir) {
  if (!std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "error: --session '%s' is not a directory\n", dir.c_str());
    return 1;
  }
  std::vector<JournalSummary> sessions;
  json::Value telemetry_snap;  // from the telemetry journal, if present
  for (const auto& path : find_journals(dir, "")) {
    // "search_2", or "shard-1/<id>" for a sharded server's journal dir.
    std::string name = std::filesystem::relative(path, dir).string();
    name.resize(name.size() - std::string_view(".journal.jsonl").size());
    JournalSummary s;
    try {
      s = summarize_journal(path, std::move(name));
    } catch (const std::exception& e) {
      // One unreadable journal (no header, a lost snapshot) must not hide
      // the others; fsck says what is wrong with it.
      std::fprintf(stderr, "warning: skipping '%s': %s\n", path.c_str(), e.what());
      continue;
    }
    if (s.backend == "telemetry") {
      telemetry_snap = s.metrics;
    } else {
      sessions.push_back(std::move(s));
    }
  }
  if (sessions.empty() && telemetry_snap.is_null()) {
    std::fprintf(stderr, "error: no readable *.journal.jsonl files under '%s'\n",
                 dir.c_str());
    return 1;
  }

  // Per-search breakdown. "fails" are attempts (a candidate retried twice
  // counts two fails); "drops" are candidates that consumed budget at the
  // failure penalty.
  if (!sessions.empty()) {
    Table table({"Search", "Backend", "Tells", "Fails", "Drops", "Cost s",
                 "Eval ms (mean)", "Wall s"});
    JournalSummary total;
    double total_wall = 0.0;
    for (const auto& s : sessions) {
      const double wall =
          s.metrics.is_null() ? 0.0 : s.metrics.number_or("wall_seconds", 0.0);
      table.add_row({s.name, s.backend, std::to_string(s.tells),
                     std::to_string(s.fails), std::to_string(s.drops),
                     Table::fmt(s.cost_seconds, 3),
                     s.tells > 0
                         ? Table::fmt(s.duration_ms / static_cast<double>(s.tells), 3)
                         : "-",
                     wall > 0.0 ? Table::fmt(wall, 3) : "-"});
      total.tells += s.tells;
      total.fails += s.fails;
      total.drops += s.drops;
      total.cost_seconds += s.cost_seconds;
      total.duration_ms += s.duration_ms;
      total_wall += wall;
      for (const auto& [why, n] : s.failure_outcomes) total.failure_outcomes[why] += n;
      for (const auto& [slot, n] : s.slot_tells) total.slot_tells[slot] += n;
      for (const auto& [node, ns] : s.node_stats) {
        NodeStats& dst = total.node_stats[node];
        dst.tells += ns.tells;
        dst.fails += ns.fails;
        dst.durations_ms.insert(dst.durations_ms.end(), ns.durations_ms.begin(),
                                ns.durations_ms.end());
      }
    }
    if (sessions.size() > 1) {
      table.add_row({"total", "", std::to_string(total.tells),
                     std::to_string(total.fails), std::to_string(total.drops),
                     Table::fmt(total.cost_seconds, 3),
                     total.tells > 0
                         ? Table::fmt(total.duration_ms /
                                          static_cast<double>(total.tells), 3)
                         : "-",
                     total_wall > 0.0 ? Table::fmt(total_wall, 3) : "-"});
    }
    std::cout << "Searches (" << dir << "):\n" << table.str();

    if (!total.failure_outcomes.empty()) {
      std::cout << "\nFailed attempts by outcome:\n";
      for (const auto& [why, n] : total.failure_outcomes) {
        std::cout << "  " << why << ": " << n << "\n";
      }
    }
    if (!total.slot_tells.empty()) {
      std::cout << "\nEvaluations by worker slot:\n";
      for (const auto& [slot, n] : total.slot_tells) {
        std::cout << "  slot " << slot << ": " << n << "\n";
      }
    }
    // Partition history: the living partition's trail — initial cut, then
    // every adopted repartition with its evidence score and eval index —
    // reconstructed from the {"e":"struct"} journal records alone.
    for (const auto& s : sessions) {
      if (s.structure.is_null() || !s.structure.contains("history")) continue;
      std::cout << "\nPartition history (" << s.name << "):\n";
      for (const auto& entry : s.structure.at("history").as_array()) {
        const std::string kind =
            entry.contains("kind") ? entry.at("kind").as_string() : "?";
        const auto eval = static_cast<std::size_t>(entry.number_or("eval", 0.0));
        std::cout << "  " << kind;
        for (std::size_t pad = kind.size(); pad < 12; ++pad) std::cout << ' ';
        std::cout << "eval " << eval;
        if (kind != "init") {
          std::cout << "  evidence " << Table::fmt(entry.number_or("evidence", 0.0), 3);
        }
        std::cout << "  " << static_cast<std::size_t>(entry.number_or("blocks", 0.0))
                  << " blocks  " << format_partition(entry.contains("partition")
                                                         ? entry.at("partition")
                                                         : json::Value())
                  << "\n";
      }
      const auto since = static_cast<std::size_t>(
          s.structure.number_or("observations", 0.0) -
          s.structure.number_or("last_repartition_eval", 0.0));
      std::cout << "  active: " << format_partition(s.structure.at("partition"))
                << "  (" << since << " evals since last repartition)\n";
    }
    // Per-fleet-node attribution, reconstructed from journals alone — no
    // server, no telemetry endpoint; works on any checkpoint dir copied off
    // a dead machine.
    if (!total.node_stats.empty()) {
      Table node_table({"Node", "Evals", "Failures", "p99 ms"});
      for (auto& [node, ns] : total.node_stats) {
        node_table.add_row(
            {node, std::to_string(ns.tells), std::to_string(ns.fails),
             ns.durations_ms.empty() ? "-"
                                     : Table::fmt(percentile(ns.durations_ms, 0.99), 3)});
      }
      std::cout << "\nEvaluations by fleet node:\n" << node_table.str();
    }
  }

  // Phase breakdown: the tunekit_phase_<name>_seconds gauges journaled by a
  // traced `tune` run (telemetry.journal.jsonl). These are measured by
  // stopwatches co-located with the phase spans, so the totals here match
  // the trace within a millisecond.
  if (telemetry_snap.is_object() && telemetry_snap.contains("gauges")) {
    const auto& gauges = telemetry_snap.at("gauges").as_object();
    Table table({"Phase", "Time ms"});
    const std::string prefix = "tunekit_phase_";
    const std::string suffix = "_seconds";
    for (const auto& [name, value] : gauges) {
      if (name.size() <= prefix.size() + suffix.size()) continue;
      if (name.compare(0, prefix.size(), prefix) != 0) continue;
      if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) continue;
      const std::string phase =
          name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
      table.add_row({phase, Table::fmt(value.as_number() * 1e3, 3)});
    }
    std::cout << "\nPhases:\n" << table.str();
    if (telemetry_snap.contains("counters")) {
      const auto& counters = telemetry_snap.at("counters").as_object();
      std::cout << "\nCounters:\n";
      for (const auto& [name, value] : counters) {
        std::cout << "  " << name << ": "
                  << static_cast<std::uint64_t>(value.as_number()) << "\n";
      }
    }
  }
  return 0;
}

// --- fsck: offline journal verification/repair (docs/SERVICE.md). ---

int cmd_fsck(const CliArgs& args) {
  if (!std::filesystem::is_directory(args.journal_dir)) {
    std::fprintf(stderr, "error: --journal-dir '%s' is not a directory\n",
                 args.journal_dir.c_str());
    return 1;
  }
  const auto journals = find_journals(args.journal_dir, args.session_id);
  if (journals.empty()) {
    std::fprintf(stderr, "error: no *.journal.jsonl files under '%s'\n",
                 args.journal_dir.c_str());
    return 1;
  }
  bool damage_left = false;
  for (const auto& path : journals) {
    const auto report = service::SessionStore::fsck(path.string(), args.repair);
    std::cout << path.string() << ": ";
    if (!report.ok) {
      std::cout << "UNREADABLE (" << report.error << ")\n";
      damage_left = true;
      continue;
    }
    std::cout << (report.legacy_v1 ? "v1" : "v2") << ", " << report.records
              << " records, " << report.segments << " sealed segment(s)";
    if (report.salvage.clean()) {
      std::cout << ": clean\n";
      continue;
    }
    std::cout << ": " << report.salvage.lost_records << " lost record(s), "
              << report.salvage.corrupt_segments << " corrupt file(s), "
              << report.salvage.torn_tails << " torn tail(s)"
              << (args.repair ? " [repaired]" : "") << "\n";
    for (const std::string& note : report.salvage.notes) {
      std::cout << "  " << note << "\n";
    }
    // Read-only mode leaves the damage in place; repair mode fixed it.
    if (!args.repair) damage_left = true;
  }
  return damage_left ? 1 : 0;
}

// --- serve: the HTTP/JSON remote tuning server (docs/SERVICE.md). ---

net::HttpServer* g_server = nullptr;

void handle_shutdown_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();  // async-signal-safe
}

int cmd_serve(const CliArgs& args, obs::Telemetry* telemetry) {
  net::SessionManagerOptions mopt;
  mopt.journal_dir = args.journal_dir;
  mopt.max_resident = args.max_resident;
  mopt.max_sessions = args.max_sessions;
  mopt.shards = args.shards;
  mopt.telemetry = telemetry;
  net::SessionManager manager(mopt);

  std::shared_ptr<fleet::FleetDispatcher> dispatcher;
  if (args.fleet) {
    fleet::DispatcherOptions fopt;
    fopt.host = args.host;
    fopt.port = args.fleet_port;
    fopt.telemetry = telemetry;
    dispatcher = std::make_shared<fleet::FleetDispatcher>(fopt);
  }

  net::RestApi api(manager, telemetry, dispatcher);
  net::ServerOptions sopt;
  sopt.host = args.host;
  sopt.port = args.port;
  sopt.max_connections = args.max_connections;
  sopt.worker_threads = args.threads;
  sopt.max_queue = args.max_queue;
  sopt.request_timeout_seconds = args.request_timeout;
  sopt.drain_timeout_seconds = args.drain_timeout;
  sopt.queue_delay_target_seconds = args.queue_delay_target;
  sopt.header_timeout_seconds = args.header_timeout;
  sopt.body_timeout_seconds = args.body_timeout;
  // Shed drives before asks before tells: a tell carries a measurement the
  // fleet already paid for, so it is the last thing admission control drops.
  sopt.priority = net::RestApi::priority;
  sopt.telemetry = telemetry;
  net::HttpServer server(sopt,
                         [&api](const net::HttpRequest& r) { return api.handle(r); });
  server.start();

  g_server = &server;
  struct sigaction sa {};
  sa.sa_handler = handle_shutdown_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  // Scripts parse this line to learn the bound port (--port 0 is ephemeral).
  std::printf("tunekit_cli: listening on http://%s:%u\n", args.host.c_str(),
              static_cast<unsigned>(server.port()));
  if (dispatcher) {
    // Same contract for the fleet port: node scripts parse this line.
    std::printf("tunekit_cli: fleet dispatcher on %s:%u\n", args.host.c_str(),
                static_cast<unsigned>(dispatcher->port()));
  }
  std::fflush(stdout);

  server.wait();
  g_server = nullptr;
  if (dispatcher) dispatcher->stop();
  // Drain: every resident session journals a final metrics snapshot, so a
  // restart resumes with nothing lost but what was never told.
  manager.flush_all();
  std::printf("tunekit_cli: drained, journals flushed\n");
  return 0;
}

// --- fleet-*: evaluation fleet commands (docs/SERVICE.md "Distributed
// fleet"). fleet-node runs in the foreground until SIGTERM/SIGINT. ---

fleet::NodeAgent* g_node_agent = nullptr;

void handle_node_signal(int) {
  if (g_node_agent != nullptr) g_node_agent->stop();  // async-signal-compatible
}

std::pair<std::string, std::uint16_t> parse_server(const std::string& server);
net::ClientRetryOptions make_retry(const CliArgs& args,
                                   obs::Telemetry* telemetry = nullptr);

int cmd_fleet_node(const CliArgs& args, const char* argv0,
                   obs::Telemetry* telemetry) {
  if (args.server.empty()) {
    throw UsageError("fleet-node requires --server host:port (the dispatcher)");
  }
  if (args.app.empty()) throw UsageError("fleet-node requires --app");
  auto [host, port] = parse_server(args.server);

  fleet::NodeAgentOptions opt;
  opt.host = host;
  opt.port = port;
  opt.node_id = args.node_id;
  opt.slots = std::max<std::size_t>(1, args.slots);
  opt.chaos_mute_after_s = args.chaos_mute_s;
  opt.spin_ms = args.spin_ms;
  opt.telemetry = telemetry;
  std::string bin = args.worker_bin;
  if (bin.empty()) {
    bin = (std::filesystem::path(argv0).parent_path() / "tunekit_worker").string();
  }
  opt.sandbox.argv = {bin, "--app", args.app, "--seed", std::to_string(args.seed)};
  if (args.mem_limit_mb >= 0.0) opt.sandbox.mem_limit_mb = args.mem_limit_mb;

  fleet::NodeAgent agent(opt);
  g_node_agent = &agent;
  struct sigaction sa {};
  sa.sa_handler = handle_node_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  // Scripts parse this line (same contract as serve's listening line).
  std::printf("tunekit_cli: fleet node '%s' serving %zu slots for %s\n",
              agent.node_id().c_str(), opt.slots, args.server.c_str());
  std::fflush(stdout);
  const bool ok = agent.run();
  g_node_agent = nullptr;
  std::printf("tunekit_cli: fleet node '%s' stopped after %llu evals\n",
              agent.node_id().c_str(),
              static_cast<unsigned long long>(agent.evals_served()));
  return ok ? 0 : 1;
}

int cmd_fleet_status(const CliArgs& args) {
  if (args.server.empty()) throw UsageError("fleet-status requires --server host:port");
  auto [host, port] = parse_server(args.server);
  net::Client client(host, port);
  std::cout << client.fleet_status().dump(2) << "\n";
  return 0;
}

int cmd_fleet_drive(const CliArgs& args, obs::Telemetry* telemetry) {
  if (args.server.empty()) throw UsageError("fleet-drive requires --server host:port");
  if (args.session_id.empty()) throw UsageError("fleet-drive requires --session-id");
  auto [host, port] = parse_server(args.server);
  // A drive holds the connection for the whole run; give it a long leash.
  net::Client client(host, port, /*timeout_seconds=*/3600.0,
                     make_retry(args, telemetry));
  json::Object body;
  if (args.k > 1) body["batch_size"] = json::Value(args.k);
  std::cout << client.drive_session(args.session_id, json::Value(std::move(body))).dump(2)
            << "\n";
  return 0;
}

// --- top: polling live view of a serve instance. ---

/// One Prometheus histogram scraped from /metrics text: cumulative bucket
/// counts by upper bound, plus _count/_sum. Tolerant of exemplar suffixes
/// ("... # {trace_id=\"...\"} v") — std::stod stops at the first space.
struct HistogramSnapshot {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative count)
  double count = 0.0;
  double sum = 0.0;

  /// Standard histogram_quantile() estimate: linear interpolation inside the
  /// winning bucket; the +Inf bucket reports the last finite bound. 0 when
  /// the histogram is empty.
  double quantile(double q) const {
    if (buckets.empty() || count <= 0.0) return 0.0;
    const double target = q * count;
    double prev_bound = 0.0;
    double prev_cum = 0.0;
    for (const auto& [bound, cum] : buckets) {
      if (cum >= target) {
        if (std::isinf(bound)) return prev_bound;
        const double width = cum - prev_cum;
        if (width <= 0.0) return bound;
        return prev_bound + (bound - prev_bound) * (target - prev_cum) / width;
      }
      prev_bound = bound;
      prev_cum = cum;
    }
    return prev_bound;
  }
};

HistogramSnapshot parse_histogram(const std::string& text, const std::string& name) {
  HistogramSnapshot h;
  const std::string bucket_prefix = name + "_bucket{le=\"";
  const std::string count_prefix = name + "_count ";
  const std::string sum_prefix = name + "_sum ";
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    try {
      if (line.rfind(bucket_prefix, 0) == 0) {
        const std::size_t close = line.find('"', bucket_prefix.size());
        if (close == std::string::npos) continue;
        const std::string le =
            line.substr(bucket_prefix.size(), close - bucket_prefix.size());
        const std::size_t space = line.find(' ', close);
        if (space == std::string::npos) continue;
        const double bound = (le == "+Inf")
                                 ? std::numeric_limits<double>::infinity()
                                 : std::stod(le);
        h.buckets.emplace_back(bound, std::stod(line.substr(space + 1)));
      } else if (line.rfind(count_prefix, 0) == 0) {
        h.count = std::stod(line.substr(count_prefix.size()));
      } else if (line.rfind(sum_prefix, 0) == 0) {
        h.sum = std::stod(line.substr(sum_prefix.size()));
      }
    } catch (const std::exception&) {
      continue;  // malformed line; skip rather than kill the whole poll
    }
  }
  return h;
}

/// One unlabelled gauge/counter sample from /metrics text. Returns NaN when
/// the metric is absent (e.g. structure learning off — no gauge exported).
double parse_gauge(const std::string& text, const std::string& name) {
  const std::string prefix = name + " ";
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    try {
      return std::stod(line.substr(prefix.size()));
    } catch (const std::exception&) {
      continue;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

void render_latency_line(const std::string& label, const HistogramSnapshot& h) {
  if (h.count <= 0.0) {
    std::printf("  %-14s (no samples)\n", label.c_str());
    return;
  }
  std::printf("  %-14s n=%-8.0f p50=%8.3f ms  p99=%8.3f ms  mean=%8.3f ms\n",
              label.c_str(), h.count, h.quantile(0.5) * 1e3,
              h.quantile(0.99) * 1e3, h.sum / h.count * 1e3);
}

int cmd_top(const CliArgs& args) {
  if (args.server.empty()) throw UsageError("top requires --server host:port");
  auto [host, port] = parse_server(args.server);
  net::Client client(host, port, /*timeout_seconds=*/10.0);
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  for (std::size_t iter = 0; args.iterations == 0 || iter < args.iterations; ++iter) {
    if (iter > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::max(0.1, args.interval_s)));
    }
    json::Value sessions;
    json::Value fleet;
    std::string metrics_text;
    try {
      sessions = client.request("GET", "/v1/sessions").json();
      metrics_text = client.metrics();
      // No fleet dispatcher is a normal deployment, not an error: serve
      // without --fleet answers 503 here and top simply omits the section.
      const net::ClientResponse fleet_resp = client.request("GET", "/v1/fleet");
      if (fleet_resp.status == 200) fleet = fleet_resp.json();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "top: %s (retrying)\n", e.what());
      continue;
    }

    if (tty) std::fputs("\x1b[H\x1b[2J", stdout);
    std::printf("tunekit top — %s   (sample %zu%s)\n", args.server.c_str(),
                iter + 1,
                args.iterations > 0
                    ? ("/" + std::to_string(args.iterations)).c_str()
                    : "");

    const auto& session_list = sessions.at("sessions").as_array();
    std::printf("\nSessions (%zu):\n", session_list.size());
    for (const auto& s : session_list) {
      std::printf("  %-24s %-10s completed=%-6.0f %s\n",
                  s.at("id").as_string().c_str(), s.at("state").as_string().c_str(),
                  s.number_or("completed", 0.0),
                  s.contains("resident") && s.at("resident").as_bool() ? "resident"
                                                                      : "evicted");
    }
    if (session_list.empty()) std::printf("  (none)\n");

    if (fleet.is_object()) {
      std::printf("\nFleet: queue_depth=%.0f steals=%.0f redispatches=%.0f%s\n",
                  fleet.number_or("queue_depth", 0.0), fleet.number_or("steals", 0.0),
                  fleet.number_or("redispatches", 0.0),
                  fleet.contains("degraded") && fleet.at("degraded").as_bool()
                      ? "  DEGRADED (all breakers open)"
                      : "");
      for (const auto& n : fleet.at("nodes").as_array()) {
        const std::string id = n.at("id").as_string();
        std::string breaker = "-";
        if (fleet.contains("breakers") &&
            fleet.at("breakers").as_object().count(id) != 0u) {
          breaker =
              fleet.at("breakers").as_object().at(id).at("state").as_string();
        }
        std::string clock = "unsynced";
        if (fleet.contains("clocks") &&
            fleet.at("clocks").as_object().count(id) != 0u) {
          const json::Value& c = fleet.at("clocks").as_object().at(id);
          if (c.contains("synced") && c.at("synced").as_bool()) {
            clock = "offset=" +
                    Table::fmt(c.number_or("offset_ns", 0.0) / 1e6, 3) + " ms";
          }
        }
        std::printf("  %-20s %-5s busy=%2.0f/%-2.0f ok=%-6.0f failed=%-4.0f "
                    "breaker=%-9s clock=%s\n",
                    id.c_str(), n.at("alive").as_bool() ? "up" : "down",
                    n.number_or("busy", 0.0), n.number_or("slots", 0.0),
                    n.number_or("evals_ok", 0.0), n.number_or("evals_failed", 0.0),
                    breaker.c_str(), clock.c_str());
      }
    }

    // Active learned partition, when any session runs --structure-online.
    // The gauges track the most recent refit fleet-wide; absent metrics
    // (structure learning off everywhere) hide the panel entirely.
    {
      const double blocks = parse_gauge(metrics_text, obs::metric::kStructureBlocks);
      if (!std::isnan(blocks)) {
        const double largest =
            parse_gauge(metrics_text, obs::metric::kStructureLargestBlock);
        const double since = parse_gauge(
            metrics_text, obs::metric::kStructureEvalsSinceRepartition);
        const double repartitions =
            parse_gauge(metrics_text, obs::metric::kStructureRepartitions);
        std::printf("\nStructure: blocks=%.0f largest=%.0f "
                    "evals_since_repartition=%.0f repartitions=%.0f\n",
                    blocks, std::isnan(largest) ? 0.0 : largest,
                    std::isnan(since) ? 0.0 : since,
                    std::isnan(repartitions) ? 0.0 : repartitions);
      }
    }

    std::printf("\nLatency:\n");
    render_latency_line("http request",
                        parse_histogram(metrics_text, obs::metric::kHttpRequestSeconds));
    render_latency_line("fleet eval",
                        parse_histogram(metrics_text, obs::metric::kFleetEvalSeconds));
    render_latency_line("local eval",
                        parse_histogram(metrics_text, obs::metric::kEvalSeconds));
    std::fflush(stdout);
  }
  return 0;
}

// --- remote-*: client commands against a running serve instance. ---

std::pair<std::string, std::uint16_t> parse_server(const std::string& server) {
  const std::size_t colon = server.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= server.size()) {
    throw UsageError("--server must be host:port (e.g. 127.0.0.1:8077)");
  }
  unsigned long port = 0;
  try {
    port = std::stoul(server.substr(colon + 1));
  } catch (const std::exception&) {
    throw UsageError("bad port in --server '" + server + "'");
  }
  if (port == 0 || port > 65535) {
    throw UsageError("bad port in --server '" + server + "'");
  }
  return {server.substr(0, colon), static_cast<std::uint16_t>(port)};
}

net::ClientRetryOptions make_retry(const CliArgs& args,
                                   obs::Telemetry* telemetry) {
  net::ClientRetryOptions retry;
  retry.max_attempts = 1 + static_cast<int>(args.retries);
  retry.default_deadline_seconds = args.deadline_s;
  // A traced client (--trace-out/--metrics-out) opens a span per request and
  // sends its traceparent, so the server-side subtree — and, through the
  // fleet, the node-side spans — root under this process's trace.
  retry.telemetry = telemetry;
  return retry;
}

net::Client make_client(const CliArgs& args, double timeout_seconds = 30.0,
                        obs::Telemetry* telemetry = nullptr) {
  if (args.server.empty()) throw UsageError("remote commands require --server host:port");
  auto [host, port] = parse_server(args.server);
  return net::Client(host, port, timeout_seconds, make_retry(args, telemetry));
}

json::Value make_session_spec(const CliArgs& args) {
  if (args.app.empty()) throw UsageError("remote session creation requires --app");
  json::Object spec;
  spec["app"] = json::Value(args.app);
  spec["backend"] = json::Value(args.backend);
  spec["max_evals"] = json::Value(args.max_evals);
  spec["seed"] = json::Value(args.seed);
  if (!args.session_id.empty()) spec["id"] = json::Value(args.session_id);
  if (args.structure_online) {
    spec["structure_online"] = json::Value(true);
    spec["structure_cadence"] = json::Value(args.structure_cadence);
    spec["structure_threshold"] = json::Value(args.structure_threshold);
    spec["structure_evidence"] = json::Value(args.structure_evidence);
    spec["structure_hysteresis"] = json::Value(args.structure_hysteresis);
    spec["structure_cooldown"] = json::Value(args.structure_cooldown);
  }
  return json::Value(std::move(spec));
}

std::string require_session_id(const CliArgs& args) {
  if (args.session_id.empty()) throw UsageError("this command requires --session-id");
  return args.session_id;
}

int cmd_remote_create(const CliArgs& args, obs::Telemetry* telemetry) {
  net::Client client = make_client(args, /*timeout_seconds=*/30.0, telemetry);
  std::cout << client.create_session(make_session_spec(args)).dump(2) << "\n";
  return 0;
}

int cmd_remote_ask(const CliArgs& args, obs::Telemetry* telemetry) {
  net::Client client = make_client(args, /*timeout_seconds=*/30.0, telemetry);
  std::cout << client.ask(require_session_id(args), args.k).dump(2) << "\n";
  return 0;
}

int cmd_remote_tell(const CliArgs& args, obs::Telemetry* telemetry) {
  if (!args.has_eval_id) throw UsageError("remote-tell requires --eval-id");
  if (args.value.empty() == args.outcome.empty()) {
    throw UsageError("remote-tell needs exactly one of --value or --outcome");
  }
  json::Object body;
  body["id"] = json::Value(args.eval_id);
  if (!args.value.empty()) {
    try {
      body["value"] = json::Value(std::stod(args.value));
    } catch (const std::exception&) {
      throw UsageError("--value must be a number");
    }
  } else {
    body["outcome"] = json::Value(args.outcome);
  }
  net::Client client = make_client(args, /*timeout_seconds=*/30.0, telemetry);
  std::cout << client.tell(require_session_id(args), json::Value(std::move(body))).dump(2)
            << "\n";
  return 0;
}

int cmd_remote_report(const CliArgs& args, obs::Telemetry* telemetry) {
  net::Client client = make_client(args, /*timeout_seconds=*/30.0, telemetry);
  std::cout << client.report(require_session_id(args)).dump(2) << "\n";
  return 0;
}

int cmd_remote_close(const CliArgs& args, obs::Telemetry* telemetry) {
  net::Client client = make_client(args, /*timeout_seconds=*/30.0, telemetry);
  std::cout << client.close_session(require_session_id(args)).dump(2) << "\n";
  return 0;
}

// A full remote tune in one command: create (or attach to) a server-side
// session for --app, then loop ask -> evaluate locally -> tell until the
// budget is exhausted. This is the CI smoke path and the reference client
// implementation for external integrations.
int cmd_remote_drive(const CliArgs& args, obs::Telemetry* telemetry) {
  if (args.app.empty()) throw UsageError("remote-drive requires --app");
  net::Client client = make_client(args, /*timeout_seconds=*/30.0, telemetry);

  std::string id = args.session_id;
  try {
    const json::Value created = client.create_session(make_session_spec(args));
    id = created.at("id").as_string();
    log_info("remote-drive: created session '", id, "'");
  } catch (const std::exception& e) {
    // With an explicit --session-id a conflict means "resume it".
    if (id.empty() || std::string(e.what()).find("HTTP 409") == std::string::npos) {
      throw;
    }
    log_info("remote-drive: attaching to existing session '", id, "'");
  }

  core::AppBundle bundle = core::make_builtin_app(args.app, args.seed);
  core::RegionSumObjective objective(*bundle.app, {});
  const search::SearchSpace& space = bundle.app->space();

  std::string state = "active";
  while (state == "active") {
    const json::Value batch = client.ask(id, 4);
    state = batch.at("state").as_string();
    const auto& candidates = batch.at("candidates").as_array();
    if (candidates.empty()) {
      if (state == "active" && batch.number_or("outstanding", 0.0) > 0.0) {
        // Another client holds the outstanding candidates; nothing to do.
        break;
      }
      continue;
    }
    for (const auto& cand : candidates) {
      search::NamedConfig named;
      for (const auto& [name, v] : cand.at("config").as_object()) {
        named[name] = v.as_number();
      }
      const search::Config config = search::from_named(space, named);
      json::Object tell_body;
      tell_body["id"] = cand.at("id");
      try {
        const double value = objective.evaluate(config);
        tell_body["value"] = json::Value(value);
        tell_body["cost_seconds"] = json::Value(value);
      } catch (const std::exception&) {
        tell_body["outcome"] = json::Value(std::string("crashed"));
      }
      client.tell(id, json::Value(std::move(tell_body)));
    }
  }

  std::cout << client.report(id).dump(2) << "\n";
  return 0;
}

int cmd_remote(const CliArgs& args, obs::Telemetry* telemetry) {
  if (args.command == "remote-create") return cmd_remote_create(args, telemetry);
  if (args.command == "remote-ask") return cmd_remote_ask(args, telemetry);
  if (args.command == "remote-tell") return cmd_remote_tell(args, telemetry);
  if (args.command == "remote-report") return cmd_remote_report(args, telemetry);
  if (args.command == "remote-close") return cmd_remote_close(args, telemetry);
  if (args.command == "remote-drive") return cmd_remote_drive(args, telemetry);
  throw UsageError("unknown remote command '" + args.command + "'");
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (argc >= 2 && (std::string(argv[1]) == "--help" || std::string(argv[1]) == "-h")) {
    usage(argv[0]);
    return 0;
  }
  if (!parse_args(argc, argv, args)) return usage(argv[0]);

  // Offline report: reads journals only, no app (and no telemetry) needed.
  if (args.command == "report") {
    if (args.session_dir.empty()) {
      std::fprintf(stderr, "error: report requires --session <dir>\n");
      return 2;
    }
    try {
      return cmd_report(args.session_dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  // Offline journal verification: like report, needs no app or telemetry.
  if (args.command == "fsck") {
    if (args.journal_dir.empty()) {
      std::fprintf(stderr, "error: fsck requires --journal-dir <dir>\n");
      return 2;
    }
    try {
      return cmd_fsck(args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  const bool is_serve = args.command == "serve";
  const bool is_remote = args.command.rfind("remote-", 0) == 0;
  const bool is_fleet = args.command.rfind("fleet-", 0) == 0;
  const bool is_top = args.command == "top";
  // fleet-status / fleet-drive / top are pure clients; fleet-node needs
  // --app to build its worker sandbox (checked in cmd_fleet_node).
  if (!is_serve && !is_remote && !is_fleet && !is_top && args.app.empty()) {
    std::fprintf(stderr, "error: --app is required\n");
    return usage(argv[0]);
  }

  // --log-file tees every log line to a file; both streams then carry the
  // decorated format (wall-clock timestamp + thread id) so the file can be
  // correlated with external events. Without the flag the stderr format is
  // the historical "[tunekit LEVEL] msg", unchanged.
  std::FILE* log_fp = nullptr;
  if (!args.log_file.empty()) {
    log_fp = std::fopen(args.log_file.c_str(), "a");
    if (log_fp == nullptr) {
      std::fprintf(stderr, "error: cannot open --log-file '%s'\n",
                   args.log_file.c_str());
      return 1;
    }
    set_log_decorations(true);
    set_log_sink([log_fp](LogLevel level, const std::string& msg) {
      const std::string line = format_log_line(level, msg);
      std::fprintf(stderr, "%s\n", line.c_str());
      std::fprintf(log_fp, "%s\n", line.c_str());
      std::fflush(log_fp);
    });
  }

  // Telemetry is enabled only when an exporter asked for it; every layer
  // below receives either this instance or a null pointer (zero overhead).
  // serve always carries telemetry: /metrics is part of its contract.
  obs::Telemetry telemetry;
  const bool want_telemetry =
      !args.trace_out.empty() || !args.metrics_out.empty() || is_serve;
  if (want_telemetry) telemetry.enable();
  obs::Telemetry* tel = want_telemetry ? &telemetry : nullptr;

  int rc = 1;
  try {
    if (is_serve) {
      rc = cmd_serve(args, tel);
    } else if (is_top) {
      rc = cmd_top(args);
    } else if (is_remote) {
      rc = cmd_remote(args, tel);
    } else if (is_fleet) {
      if (args.command == "fleet-node") rc = cmd_fleet_node(args, argv[0], tel);
      else if (args.command == "fleet-status") rc = cmd_fleet_status(args);
      else if (args.command == "fleet-drive") rc = cmd_fleet_drive(args, tel);
      else {
        std::fprintf(stderr, "unknown command '%s'\n", args.command.c_str());
        return usage(argv[0]);
      }
    } else {
      core::AppBundle bundle = core::make_builtin_app(args.app, args.seed);
      const auto iso = make_isolation(args, argv[0]);
      const auto opt = make_options(args, bundle, iso, tel);
      if (args.command == "info") rc = cmd_info(*bundle.app);
      else if (args.command == "analyze") rc = cmd_analyze(*bundle.app, opt, args.dot);
      else if (args.command == "plan") rc = cmd_plan(*bundle.app, opt);
      else if (args.command == "tune") rc = cmd_tune(*bundle.app, opt, args.resume);
      else if (args.command == "session") rc = cmd_session(*bundle.app, args, tel);
      else {
        std::fprintf(stderr, "unknown command '%s'\n", args.command.c_str());
        return usage(argv[0]);
      }
    }
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }

  if (want_telemetry) {
    try {
      if (!args.trace_out.empty()) {
        obs::write_chrome_trace(telemetry, args.trace_out);
        log_info("cli: trace written to ", args.trace_out);
      }
      if (!args.metrics_out.empty()) {
        obs::write_prometheus_text(telemetry.metrics(), args.metrics_out);
        log_info("cli: metrics written to ", args.metrics_out);
      }
      // A traced tune with a checkpoint dir also journals the full metrics
      // snapshot (phase gauges included) next to the per-search journals, so
      // `report --session <dir>` reproduces the breakdown offline.
      if (!args.checkpoint_dir.empty() && args.command == "tune") {
        std::filesystem::create_directories(args.checkpoint_dir);
        service::JournalHeader header;
        header.backend = "telemetry";
        auto store = service::SessionStore::create(
            args.checkpoint_dir + "/telemetry.journal.jsonl", header);
        store->metrics(obs::metrics_to_json(telemetry.metrics()));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: telemetry export failed: %s\n", e.what());
      if (rc == 0) rc = 1;
    }
  }
  if (log_fp != nullptr) {
    set_log_sink(nullptr);  // before the FILE* goes away
    std::fclose(log_fp);
  }
  return rc;
}
