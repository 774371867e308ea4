// Crash-torture: the crash sim (checker/crash_sim.h) over a config
// matrix — every method x a set of session counts x `runs` seeds — with
// one aggregate per (method, sessions) row and one table. Every run
// crashes `crashes` times at arbitrary points, recovers, and holds the
// outcome to the sim's oracles: no lost acked commit, atomicity, and
// the model replay of exactly the operations whose records survived.
//
//   (no flag)     the serial engine over the four §6 methods: one
//                 in-process session runs the engine::Workload stream
//                 with a bounded cache, and the formal checker validates
//                 the §4.5 recovery invariant at every crash point.
//   --concurrent  2, 4 and 8 sessions on the concurrent engine (group
//                 commit, fuzzy checkpoints) over all six methods.
//   --net         the sessions are TCP clients of an in-process
//                 NetServer (3, or 2/4/8 with --concurrent): they lose
//                 their connections mid-pipeline at every crash,
//                 reconnect during recovery, and requests whose replies
//                 were lost are judged in doubt.
//   --faults      the crash may tear the in-flight log force, and the
//                 disk fails: serially torn page writes, write-error
//                 bursts, sticky reads and log-media damage, each
//                 detected and healed or degraded down the ladder
//                 (mirror repair -> media recovery -> diagnosed
//                 refusal) with zero silent corruption; concurrently
//                 transient write-error bursts the pool absorbs.
//   --force-unrecoverable  (serial; implies --faults) withholds the
//                 backup and the offsite restore: the first uncoverable
//                 log hole is a terminal failure.
//   --parallel    serially the serial-vs-parallel redo equivalence
//                 oracle at 2/4/8 workers; concurrently 4-worker redo.
//   --instant     recover with RecoverInstant() and load while redo
//                 drains; 40% of recoveries (25% with --txn) crash again.
//   --txn         transactions, --abort-percent N of them rolled back
//                 (default 25); --undo-crash K (default 2) re-crashes
//                 every undo pass after K CLRs until it converges.
//   --async-io    the device runs at queue depth 4 instead of 0.
//
// A flag that cannot change the chosen matrix is refused with the
// usage line and exit 2, as are unknown flags, non-numeric sizes, and a
// matrix of zero crash cycles. On failure the exit code is 1 and the
// last failing cycle's recovery timeline (JSONL) and flight-recorder
// trace (Chrome trace_event JSON) go to --timeline-out and --trace-out.
//
// Usage: crash_torture [--faults] [--force-unrecoverable] [--parallel]
//                      [--concurrent] [--net] [--instant] [--txn]
//                      [--async-io] [--abort-percent N] [--undo-crash K]
//                      [--timeline-out PATH] [--trace-out PATH]
//                      [runs_per_method] [ops_per_segment] [crashes]

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checker/crash_sim.h"

namespace {

using redo::checker::SimOptions;
using redo::checker::SimResult;
using redo::checker::Transport;
using redo::methods::MethodKind;

constexpr const char* kUsage =
    "usage: crash_torture [--faults] [--force-unrecoverable] [--parallel]\n"
    "                     [--concurrent] [--net] [--instant] [--txn]\n"
    "                     [--async-io] [--abort-percent N] [--undo-crash K]\n"
    "                     [--timeline-out PATH] [--trace-out PATH]\n"
    "                     [runs_per_method] [ops_per_segment] [crashes]\n";

// A decimal size: digits only, so a mistyped flag or "2x" is rejected
// instead of silently parsing as 0 (or 2).
bool ParseSize(const char* text, size_t* out) {
  if (*text == '\0') return false;
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return false;
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text, nullptr, 10);
  if (errno == ERANGE) return false;
  *out = static_cast<size_t>(value);
  return true;
}

int Usage(const std::string& complaint) {
  std::fprintf(stderr, "crash_torture: %s\n%s", complaint.c_str(), kUsage);
  return 2;
}

/// Which matrices show a column.
bool Always(const SimOptions&, bool) { return true; }
bool Equivalence(const SimOptions& o, bool) {
  return !o.equivalence_workers.empty();
}
bool Concurrent(const SimOptions&, bool serial) { return !serial; }
bool Instant(const SimOptions& o, bool) { return o.instant_restart; }
bool Txn(const SimOptions& o, bool) { return o.txn_mode; }
bool Tcp(const SimOptions& o, bool) {
  return o.transport == Transport::kTcp;
}

/// One table column: a SimResult counter and when the matrix shows it.
struct Column {
  const char* header;
  size_t SimResult::*field;
  bool (*shown)(const SimOptions&, bool serial);
};

constexpr Column kColumns[] = {
    {"cycles", &SimResult::cycles, Always},
    {"ops", &SimResult::ops, Always},
    {"pages ok", &SimResult::pages_verified, Always},
    {"applied", &SimResult::redo_applied, Always},
    {"skipped", &SimResult::redo_skipped_installed, Always},
    {"notexp", &SimResult::redo_not_exposed, Always},
    {"eqchk", &SimResult::equivalence_checks, Equivalence},
    {"diverge", &SimResult::equivalence_divergences, Equivalence},
    {"acked", &SimResult::commits_acked, Concurrent},
    {"refused", &SimResult::refused, Concurrent},
    {"lost", &SimResult::lost_acked_commits, Concurrent},
    {"aborts", &SimResult::txns_aborted, Txn},
    {"losers", &SimResult::losers_undone, Txn},
    {"recrash", &SimResult::undo_recrashes, Txn},
    {"atomviol", &SimResult::atomicity_violations, Txn},
    {"instants", &SimResult::instant_restarts, Instant},
    {"dblcrash", &SimResult::double_crashes, Instant},
    {"reconn", &SimResult::reconnects, Tcp},
    {"@serving", &SimResult::reconnects_during_serving, Tcp},
    {"indoubt", &SimResult::in_doubt, Tcp},
};

/// The one table printer: the method left-aligned, every other cell right.
void PrintRow(const std::vector<std::string>& cells) {
  std::printf("%-16s", cells[0].c_str());
  for (size_t i = 1; i < cells.size(); ++i) {
    std::printf(" %9s", cells[i].c_str());
  }
  std::printf("\n");
}

void WriteArtifact(const char* what, const std::string& path,
                   const std::string& text) {
  if (text.empty()) return;
  if (FILE* out = std::fopen(path.c_str(), "w")) {
    std::fputs(text.c_str(), out);
    std::fclose(out);
    std::printf("failing-cycle %s written to %s\n", what, path.c_str());
  } else {
    std::printf("could not write %s to %s\n", what, path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace redo;
  bool faults = false, force_unrecoverable = false, parallel = false;
  bool concurrent = false, net = false, instant = false, txn = false;
  bool async_io = false, txn_knob = false;
  size_t abort_percent = 25, undo_crash = 2;
  std::string timeline_out = "crash_torture_failing_timeline.jsonl";
  std::string trace_out = "crash_torture_failing_trace.json";
  std::vector<size_t> sizes;  // runs_per_method, ops_per_segment, crashes
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // The flag's value: the next argument, or nullptr when it is missing.
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto size_value = [&](size_t* out) {
      const char* text = value();
      return text != nullptr && ParseSize(text, out);
    };
    if (arg == "--faults") {
      faults = true;
    } else if (arg == "--force-unrecoverable") {
      faults = true;
      force_unrecoverable = true;
    } else if (arg == "--parallel") {
      parallel = true;
    } else if (arg == "--concurrent") {
      concurrent = true;
    } else if (arg == "--net") {
      net = true;
    } else if (arg == "--instant") {
      instant = true;
    } else if (arg == "--txn") {
      txn = true;
    } else if (arg == "--async-io") {
      async_io = true;
    } else if (arg == "--abort-percent" || arg == "--undo-crash") {
      txn_knob = true;
      if (!size_value(arg == "--undo-crash" ? &undo_crash : &abort_percent)) {
        return Usage(arg + " needs a number");
      }
    } else if (arg == "--timeline-out" || arg == "--trace-out") {
      const char* path = value();
      if (path == nullptr) return Usage(arg + " needs a path");
      (arg == "--timeline-out" ? timeline_out : trace_out) = path;
    } else if (arg.rfind("--", 0) == 0) {
      return Usage("unknown flag '" + arg + "'");
    } else {
      size_t size = 0;
      if (!ParseSize(arg.c_str(), &size)) {
        return Usage("'" + arg + "' is not a size");
      }
      if (sizes.size() == 3) return Usage("too many sizes");
      sizes.push_back(size);
    }
  }
  const size_t runs = sizes.size() > 0 ? sizes[0] : 10;
  const size_t ops = sizes.size() > 1 ? sizes[1] : 200;
  const size_t crashes = sizes.size() > 2 ? sizes[2] : 4;
  if (txn_knob && !txn) {
    return Usage("--abort-percent and --undo-crash need --txn");
  }
  if (runs == 0) return Usage("zero runs: the matrix would run no crash cycle");

  // ---- The matrix: methods x sessions x seeds over one base config ----
  const bool serial = !concurrent && !net;
  const std::vector<size_t> sessions =
      concurrent ? std::vector<size_t>{2, 4, 8}
                 : std::vector<size_t>{net ? size_t{3} : size_t{1}};
  std::vector<MethodKind> kinds = {
      MethodKind::kLogical,       MethodKind::kPhysical,
      MethodKind::kPhysiological, MethodKind::kGeneralized,
      MethodKind::kPhysiologicalAnalysis, MethodKind::kPhysicalPartial};
  if (serial) kinds.resize(4);  // the four §6 methods
  SimOptions base;
  base.transport = net ? Transport::kTcp : Transport::kInProcess;
  base.workload.num_pages = 16;
  base.ops_per_session = ops;
  base.cycles = crashes;
  base.tear_log_tail = faults;
  base.disk_faults = faults;
  base.async_io_workers = async_io ? 4 : 0;
  if (serial) {
    base.cache_capacity = 6;
    if (parallel) base.equivalence_workers = {2, 4, 8};
  } else if (parallel) {
    base.parallel_redo_workers = 4;
  }
  if (serial && faults) {
    // Small segments so every run seals (and damages) several; a fresh
    // backup each cycle so rung 2 has a current anchor. Withholding the
    // backup AND the offsite restore makes the first double-fault hole
    // unrecoverable — the forced-failure path.
    base.log_segment_bytes = 448;
    base.backup_interval = force_unrecoverable ? 0 : 1;
    base.truncate_at_backup = !force_unrecoverable;
  }
  base.no_offsite_restore = force_unrecoverable;
  base.instant_restart = instant;
  base.double_crash_percent = instant ? (txn ? 25 : 40) : 0;
  base.txn_mode = txn;
  base.abort_percent = abort_percent;
  base.undo_crash_after_clrs = txn ? undo_crash : 0;
  auto config = [&](size_t s) {
    SimOptions options = base;
    options.sessions = s;
    if (!serial) {
      options.ops_per_session = std::max<size_t>(1, ops / s);
      // Transactions and TCP clients write their own 4-page partitions.
      if (txn || net) options.workload.num_pages = s * 4;
    }
    return options;
  };
  for (size_t s : sessions) {
    const Status valid = checker::ValidateSimOptions(config(s));
    if (!valid.ok()) return Usage(valid.message());
  }

  std::string tags;
  if (faults) {
    tags += serial ? " [faults: torn tails, disk, log media]"
                   : " [faults: torn tails, write bursts]";
  }
  if (force_unrecoverable) tags += " [offsite restore WITHHELD]";
  if (parallel) {
    tags += serial ? " [parallel equivalence oracle: 2/4/8 workers]"
                   : " [parallel redo x4]";
  }
  if (instant) {
    tags += " [instant restart, " + std::to_string(base.double_crash_percent) +
            "% double crashes]";
  }
  if (txn) {
    tags += " [txn: aborts " + std::to_string(abort_percent) +
            "%, undo re-crash after " + std::to_string(undo_crash) + " CLRs]";
  }
  if (async_io) tags += " [async I/O x4]";
  std::string session_list;
  for (size_t s : sessions) {
    session_list += (session_list.empty() ? "" : "/") + std::to_string(s);
  }
  std::printf(
      "crash torture over %s, %s sessions: %zu methods x %zu runs x %zu "
      "cycles x %zu ops%s\n\n",
      net ? "TCP" : "in-process", session_list.c_str(), kinds.size(), runs,
      crashes, ops, tags.c_str());

  std::vector<const Column*> columns;
  std::vector<std::string> header = {"method", "sessions"};
  for (const Column& column : kColumns) {
    if (!column.shown(base, serial)) continue;
    columns.push_back(&column);
    header.push_back(column.header);
  }
  header.push_back("result");
  PrintRow(header);

  SimResult total;
  total.ok = true;
  for (const MethodKind kind : kinds) {
    for (const size_t s : sessions) {
      SimResult row;
      row.ok = true;
      for (size_t seed = 1; seed <= runs; ++seed) {
        // Concurrent configurations salt the seed with the session
        // count, so their crash points and workloads differ.
        row += checker::RunSim(kind, config(s), serial ? seed : seed * 977 + s);
      }
      std::vector<std::string> cells = {methods::MethodKindName(kind),
                                        std::to_string(s)};
      for (const Column* column : columns) {
        cells.push_back(std::to_string(row.*(column->field)));
      }
      cells.push_back(row.ok ? "OK" : "FAILED");
      PrintRow(cells);
      if (!row.ok) std::printf("    first failure: %s\n", row.failure.c_str());
      total += row;
    }
  }

  const size_t violations = total.lost_acked_commits +
                            total.atomicity_violations +
                            total.silent_corruptions +
                            total.equivalence_divergences;
  std::printf(
      "\n%zu crash cycles; lost acked commits: %zu, atomicity violations: "
      "%zu, silent corruptions: %zu%s\n",
      total.cycles, total.lost_acked_commits, total.atomicity_violations,
      total.silent_corruptions,
      violations == 0 ? " (every acked commit survived; no fault went unseen)"
                      : "  <-- BUG");
  if (faults) {
    std::printf(
        "fault schedule: injected=%zu detected+healed=%zu torn_tails=%zu\n"
        "  salvaged_records=%zu pages_healed=%zu recovery_retries=%zu\n",
        total.faults_injected, total.faults_detected, total.torn_tails,
        total.salvaged_records, total.pages_healed, total.recovery_retries);
  }
  if (serial && faults) {
    std::printf(
        "log-media schedule: injected=%zu scrub_repairs=%zu "
        "segments_sealed=%zu\n"
        "  ladder: rung1(mirror)=%zu rung2(media)=%zu rung3(refused)=%zu"
        " backups=%zu\n",
        total.log_faults_injected, total.log_scrub_repairs,
        total.segments_sealed, total.ladder_mirror_cycles,
        total.ladder_media_cycles, total.ladder_refusals, total.backups_taken);
  }
  if (instant) {
    std::printf("instant restarts: %zu, double crashes: %zu\n",
                total.instant_restarts, total.double_crashes);
  }
  if (txn) {
    std::printf(
        "transactions: %zu committed, %zu aborted, %zu losers undone, %zu "
        "injected undo re-crashes\n",
        total.txns_committed, total.txns_aborted, total.losers_undone,
        total.undo_recrashes);
  }
  if (net) {
    std::printf(
        "over TCP: %zu reconnects (%zu during kServing), %zu requests in "
        "doubt, %zu slots read back over the wire\n",
        total.reconnects, total.reconnects_during_serving, total.in_doubt,
        total.slots_verified);
  }
  const int exit_code = total.ok && violations == 0 ? 0 : 1;
  if (exit_code != 0) {
    WriteArtifact("recovery timeline", timeline_out,
                  total.failing_timeline_jsonl);
    WriteArtifact("flight-recorder trace", trace_out,
                  total.failing_flight_trace_json);
    std::printf("failing-cycle metric delta:\n%s",
                total.last_cycle_metrics_text.c_str());
  }
  if (serial) {
    std::printf(
        "\nEvery crash point was validated two ways: the recovery\n"
        "invariant (operations(log) - redo_set is an installation-graph\n"
        "prefix explaining the stable state) and exact byte-level\n"
        "equality of the recovered state with the stable-log prefix.\n");
  }
  return exit_code;
}
