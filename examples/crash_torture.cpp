// Crash-torture: hammer every recovery method with randomized workloads,
// crash repeatedly at arbitrary points, validate the §4.5 recovery
// invariant with the formal checker at each crash, and verify recovery
// byte-for-byte against the stable-log-prefix oracle.
//
// With `--faults`, each run also injects disk and log faults the paper's
// model assumes away — torn log tails from interrupted forces, torn page
// writes with stale checksums, transient write-error bursts, sticky read
// errors, and *log-media* damage to the sealed log body (mid-stream bit
// rot, lost segment copies, torn seals, archive rot) — and enforces the
// stronger contract: every fault is detected and healed or explicitly
// degraded (mirror repair -> media recovery from backup+archive ->
// diagnosed refusal), recovery still matches the oracle exactly, and no
// page is ever wrong while verifying clean (zero silent corruption).
//
// With `--force-unrecoverable` (implies --faults), the offsite-restore
// remedy for rung-3 refusals is withheld: the first uncoverable hole is
// a terminal failure, and the failing cycle's recovery timeline (JSONL:
// phases, method, ladder rung, first unreadable LSN) is written to the
// --timeline-out path for post-mortem — the artifact CI uploads.
//
// With `--parallel`, every non-degraded crash point additionally runs
// the serial-vs-parallel redo equivalence oracle: recovery is repeated
// with 2, 4, and 8 redo workers (crash state restored between runs) and
// must produce byte-identical effective pages, page LSNs, and
// redo-verdict multisets as the serial run. Any divergence fails the
// run.
//
// With `--concurrent`, the torture moves to the concurrent front end:
// every method runs under 2, 4, and 8 session threads driving the
// group-commit pipeline, with fuzzy checkpoints where the method
// supports them and BOTH fault injectors armed (the crash tears the
// in-flight force; the disk fails page writes in transient bursts).
// Each cycle freezes the pipeline at an arbitrary moment, crashes,
// recovers, and enforces the two concurrent oracles: zero lost
// acknowledged commits, and recovered state equal to the LSN-ordered
// model replay of the surviving journal.
//
// With `--instant`, the concurrent torture recovers through instant
// restart instead: every cycle crashes the front end, reopens with
// RecoverInstant(), and runs the next full load WHILE redo drains
// (sessions drain their pages on demand, background workers race them).
// A fraction of recoveries take a second crash during
// serving-while-redoing — half before any traffic touches a page, half
// mid-drain with sessions in flight. The oracles are the concurrent
// ones, applied across the recover-while-loading boundary.
//
// With `--txn`, the concurrent torture turns transactional: every
// worker wraps its operations in explicit Begin/Commit transactions and
// rolls back --abort-percent of them (default 25). The freeze crashes
// sessions mid-transaction and mid-abort; each recovery's undo pass
// rolls the losers back through CLRs, and with --undo-crash K armed
// (default 2) every undo pass is additionally crashed after K CLRs and
// recovery rerun until it converges. The oracle is atomicity: no
// acknowledged commit may lose, no loser write may remain visible — the
// recovered state must equal the winners-only model replay. Combine
// with --parallel (redo via the write-graph scheduler, 4 workers) and/or
// --instant (recover through instant restart, undo-before-serving).
//
// On failure, two post-mortem artifacts land next to each other: the
// failing cycle's recovery timeline (--timeline-out, JSONL) and its
// flight-recorder trace (--trace-out, Chrome trace_event JSON loadable
// in chrome://tracing or Perfetto).
//
// With `--async-io`, every engine in the run drives its device at queue
// depth 4 instead of 0: up to 4 page I/Os complete concurrently,
// parallel-redo workers prefetch their plans, and the group-commit force
// overlaps staging. The oracles are unchanged — the async schedule must
// produce byte-identical recovered state, zero lost acked commits, zero
// silent corruptions.
//
// With `--net`, the torture goes over the wire: real TCP clients on
// loopback drive a NetServer through the unified command layer while
// the engine crashes and instant-restarts underneath them. Connections
// drop mid-pipeline at each crash; clients reconnect through the
// still-open listener (many during the kServing drain) and the wire
// oracles must hold for every method: zero lost acked commits, every
// recovered slot within its owner's [committed, last_sent] window.
// Combine with --concurrent to use the quiescing Recover() instead.
//
// Usage: crash_torture [--faults] [--force-unrecoverable] [--parallel]
//                      [--concurrent] [--instant] [--txn] [--net]
//                      [--async-io]
//                      [--abort-percent N] [--undo-crash K]
//                      [--timeline-out PATH] [--trace-out PATH]
//                      [runs_per_method] [ops_per_segment] [crashes]
//
// An unknown flag, a flag missing its value, or a size that is not a
// plain decimal number prints the usage line and exits 2.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checker/concurrent_sim.h"
#include "checker/crash_sim.h"
#include "checker/net_sim.h"

namespace {

constexpr const char* kUsage =
    "usage: crash_torture [--faults] [--force-unrecoverable] [--parallel]\n"
    "                     [--concurrent] [--instant] [--txn] [--net]\n"
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

}  // namespace

int main(int argc, char** argv) {
  using namespace redo;
  bool faults = false;
  bool force_unrecoverable = false;
  bool parallel = false;
  bool concurrent = false;
  bool instant = false;
  bool txn = false;
  bool net = false;
  size_t async_io = 0;
  size_t abort_percent = 25;
  size_t undo_crash = 2;
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
    } else if (arg == "--instant") {
      instant = true;
    } else if (arg == "--txn") {
      txn = true;
    } else if (arg == "--net") {
      net = true;
    } else if (arg == "--async-io") {
      async_io = 4;
    } else if (arg == "--abort-percent") {
      if (!size_value(&abort_percent)) return Usage(arg + " needs a number");
    } else if (arg == "--undo-crash") {
      if (!size_value(&undo_crash)) return Usage(arg + " needs a number");
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

  // Dump the failing cycle's flight-recorder trace next to the timeline
  // artifact (every torture mode funnels through this).
  auto write_failing_trace = [&trace_out](const std::string& trace) {
    if (trace.empty()) return;
    if (FILE* out = std::fopen(trace_out.c_str(), "w")) {
      std::fputs(trace.c_str(), out);
      std::fclose(out);
      std::printf("failing-cycle flight-recorder trace written to %s\n",
                  trace_out.c_str());
    } else {
      std::printf("could not write flight trace to %s\n", trace_out.c_str());
    }
  };

  if (net) {
    // Networked crash torture (DESIGN.md §15): real TCP clients over
    // loopback against a NetServer while the engine crashes and
    // (by default) instant-restarts underneath them. Every cycle drops
    // every connection mid-pipeline; clients reconnect through the
    // still-open listener — many while the engine is still draining
    // (phase kServing) — and the two wire oracles must hold: zero lost
    // acked commits, every recovered slot within the owner's
    // [committed, last_sent] window. `--concurrent` switches to the
    // quiescing Recover() variant instead of instant restart.
    const bool net_instant = !concurrent;
    std::printf(
        "networked crash torture%s: %zu seeds x %zu cycles per method "
        "[torn forces ON, clients reconnect during recovery]\n\n",
        net_instant ? " [instant restart]" : " [quiescing recovery]", runs,
        crashes);
    std::printf("%-16s %7s %8s %8s %8s %9s %9s %8s %7s %7s\n", "method",
                "cycles", "writes", "commits", "refused", "reconn",
                "@serving", "lost", "slotbad", "result");
    int net_exit = 0;
    size_t total_cycles = 0, total_lost = 0, total_slot_bad = 0,
           total_during_serving = 0;
    for (const methods::MethodKind kind :
         {methods::MethodKind::kLogical, methods::MethodKind::kPhysical,
          methods::MethodKind::kPhysiological,
          methods::MethodKind::kGeneralized,
          methods::MethodKind::kPhysiologicalAnalysis,
          methods::MethodKind::kPhysicalPartial}) {
      checker::NetSimResult sum;
      sum.ok = true;
      std::string first_failure;
      for (size_t seed = 1; seed <= runs; ++seed) {
        checker::NetSimOptions options;
        options.cycles = crashes;
        options.tear_log_tail = true;
        options.instant_restart = net_instant;
        const checker::NetSimResult r =
            checker::RunNetCrashSim(kind, options, seed * 7919);
        sum.cycles += r.cycles;
        sum.writes_acked += r.writes_acked;
        sum.commits_acked += r.commits_acked;
        sum.rejected += r.rejected;
        sum.reconnects += r.reconnects;
        sum.reconnects_during_serving += r.reconnects_during_serving;
        sum.lost_acked_commits += r.lost_acked_commits;
        sum.slot_violations += r.slot_violations;
        if (!r.ok) {
          if (sum.ok) first_failure = r.failure;
          sum.ok = false;
        }
      }
      total_cycles += sum.cycles;
      total_lost += sum.lost_acked_commits;
      total_slot_bad += sum.slot_violations;
      total_during_serving += sum.reconnects_during_serving;
      std::printf("%-16s %7zu %8zu %8zu %8zu %9zu %9zu %8zu %7zu %7s\n",
                  methods::MethodKindName(kind), sum.cycles, sum.writes_acked,
                  sum.commits_acked, sum.rejected, sum.reconnects,
                  sum.reconnects_during_serving, sum.lost_acked_commits,
                  sum.slot_violations, sum.ok ? "OK" : "FAILED");
      if (!sum.ok) {
        std::printf("    first failure: %s\n", first_failure.c_str());
        net_exit = 1;
      }
    }
    std::printf(
        "\n%zu networked crash cycles (%zu reconnects during kServing); "
        "lost acked commits: %zu, slot violations: %zu%s\n",
        total_cycles, total_during_serving, total_lost, total_slot_bad,
        total_lost + total_slot_bad == 0
            ? " (every acked commit survived across the wire)"
            : "  <-- BUG");
    if (total_lost + total_slot_bad != 0) net_exit = 1;
    return net_exit;
  }

  if (txn) {
    // Transactional atomicity torture: six methods x {2,4,8} sessions,
    // crash-mid-transaction (the freeze), runtime aborts, and — with
    // --undo-crash K — a deliberate re-crash after every K CLRs of each
    // recovery undo pass. The atomicity oracle must hold at every one
    // of the >= 216 crash points: acked commits are winners, loser
    // writes are invisible, recovered state == winners-only replay.
    std::printf(
        "transactional crash torture%s%s: %zu seeds x %zu cycles per "
        "(method, sessions) config\n"
        "[aborts %zu%%, undo re-crash after %zu CLRs, torn forces ON]\n\n",
        instant ? " [instant restart]" : "",
        parallel ? " [parallel redo x4]" : "", runs, crashes, abort_percent,
        undo_crash);
    std::printf("%-16s %9s %7s %7s %8s %8s %8s %9s %9s %7s\n", "method",
                "sessions", "cycles", "ops", "commits", "aborts", "losers",
                "recrash", "atomviol", "result");
    int txn_exit = 0;
    size_t total_cycles = 0, total_violations = 0, total_losers = 0,
           total_recrashes = 0, total_lost = 0;
    std::string failing_trace;
    for (const methods::MethodKind kind :
         {methods::MethodKind::kLogical, methods::MethodKind::kPhysical,
          methods::MethodKind::kPhysiological,
          methods::MethodKind::kGeneralized,
          methods::MethodKind::kPhysiologicalAnalysis,
          methods::MethodKind::kPhysicalPartial}) {
      for (const size_t sessions : {2u, 4u, 8u}) {
        checker::ConcurrentSimResult sum;
        sum.ok = true;
        std::string first_failure;
        for (size_t seed = 1; seed <= runs; ++seed) {
          checker::ConcurrentSimOptions options;
          options.sessions = sessions;
          options.ops_per_session = std::max<size_t>(1, ops / sessions);
          options.num_pages = sessions * 4;  // 4-page partitions
          options.cycles = crashes;
          options.tear_log_tail = true;
          options.fuzzy_checkpoints = true;
          options.txn_mode = true;
          options.abort_percent = abort_percent;
          options.undo_crash_after_clrs = undo_crash;
          options.instant_restart = instant;
          options.instant_drain_workers = 2;
          options.double_crash_percent = instant ? 25 : 0;
          options.parallel_redo_workers = parallel ? 4 : 1;
          options.async_io_workers = async_io;
          const checker::ConcurrentSimResult r = checker::RunConcurrentCrashSim(
              kind, options, seed * 2203 + sessions);
          sum.cycles += r.cycles;
          sum.ops_applied += r.ops_applied;
          sum.txns_committed += r.txns_committed;
          sum.txns_aborted += r.txns_aborted;
          sum.losers_undone += r.losers_undone;
          sum.undo_recrashes += r.undo_recrashes;
          sum.atomicity_violations += r.atomicity_violations;
          sum.lost_acked_commits += r.lost_acked_commits;
          if (!r.ok) {
            if (sum.ok) first_failure = r.failure;
            sum.ok = false;
            if (!r.failing_flight_trace_json.empty()) {
              failing_trace = r.failing_flight_trace_json;
            }
          }
        }
        total_cycles += sum.cycles;
        total_violations += sum.atomicity_violations;
        total_losers += sum.losers_undone;
        total_recrashes += sum.undo_recrashes;
        total_lost += sum.lost_acked_commits;
        std::printf("%-16s %9zu %7zu %7zu %8zu %8zu %8zu %9zu %9zu %7s\n",
                    methods::MethodKindName(kind), sessions, sum.cycles,
                    sum.ops_applied, sum.txns_committed, sum.txns_aborted,
                    sum.losers_undone, sum.undo_recrashes,
                    sum.atomicity_violations, sum.ok ? "OK" : "FAILED");
        if (!sum.ok) {
          std::printf("    first failure: %s\n", first_failure.c_str());
          txn_exit = 1;
        }
      }
    }
    std::printf(
        "\n%zu transactional crash cycles (%zu losers undone, %zu injected "
        "undo re-crashes); atomicity violations: %zu, lost acked commits: "
        "%zu%s\n",
        total_cycles, total_losers, total_recrashes,
        total_violations, total_lost,
        total_violations + total_lost == 0
            ? " (every acked commit survived; no loser write visible)"
            : "  <-- BUG");
    if (total_violations + total_lost != 0) txn_exit = 1;
    if (txn_exit != 0) write_failing_trace(failing_trace);
    return txn_exit;
  }

  if (instant) {
    // Instant-restart torture: six methods x {2,4,8} sessions. Every
    // cycle reopens with RecoverInstant and runs the next load while
    // redo drains; 40% of recoveries take a second crash during
    // serving-while-redoing (half before first fetch, half mid-drain).
    std::printf(
        "instant-restart torture: %zu seeds x %zu cycles per "
        "(method, sessions) config [torn forces ON, double crashes 40%%]\n\n",
        runs, crashes);
    std::printf("%-16s %9s %8s %8s %8s %8s %7s %9s %8s %7s\n", "method",
                "sessions", "cycles", "ops", "acked", "refused", "lost",
                "instants", "dblcrash", "result");
    int instant_exit = 0;
    size_t total_cycles = 0, total_lost = 0, total_instants = 0,
           total_double = 0;
    std::string failing_trace;
    for (const methods::MethodKind kind :
         {methods::MethodKind::kLogical, methods::MethodKind::kPhysical,
          methods::MethodKind::kPhysiological,
          methods::MethodKind::kGeneralized,
          methods::MethodKind::kPhysiologicalAnalysis,
          methods::MethodKind::kPhysicalPartial}) {
      for (const size_t sessions : {2u, 4u, 8u}) {
        checker::ConcurrentSimResult sum;
        sum.ok = true;
        std::string first_failure;
        for (size_t seed = 1; seed <= runs; ++seed) {
          checker::ConcurrentSimOptions options;
          options.sessions = sessions;
          options.ops_per_session = std::max<size_t>(1, ops / sessions);
          options.cycles = crashes;
          options.tear_log_tail = true;
          options.disk_write_faults = true;
          options.fuzzy_checkpoints = true;
          options.instant_restart = true;
          options.instant_drain_workers = 2;
          options.double_crash_percent = 40;
          options.async_io_workers = async_io;
          const checker::ConcurrentSimResult r =
              checker::RunConcurrentCrashSim(kind, options,
                                             seed * 1409 + sessions);
          sum.cycles += r.cycles;
          sum.ops_applied += r.ops_applied;
          sum.commits_acked += r.commits_acked;
          sum.commits_refused += r.commits_refused;
          sum.lost_acked_commits += r.lost_acked_commits;
          sum.instant_restarts += r.instant_restarts;
          sum.double_crashes += r.double_crashes;
          if (!r.ok) {
            if (sum.ok) first_failure = r.failure;
            sum.ok = false;
            if (!r.failing_flight_trace_json.empty()) {
              failing_trace = r.failing_flight_trace_json;
            }
          }
        }
        total_cycles += sum.cycles;
        total_lost += sum.lost_acked_commits;
        total_instants += sum.instant_restarts;
        total_double += sum.double_crashes;
        std::printf("%-16s %9zu %8zu %8zu %8zu %8zu %7zu %9zu %8zu %7s\n",
                    methods::MethodKindName(kind), sessions, sum.cycles,
                    sum.ops_applied, sum.commits_acked, sum.commits_refused,
                    sum.lost_acked_commits, sum.instant_restarts,
                    sum.double_crashes, sum.ok ? "OK" : "FAILED");
        if (!sum.ok) {
          std::printf("    first failure: %s\n", first_failure.c_str());
          instant_exit = 1;
        }
      }
    }
    std::printf(
        "\n%zu recover-while-loading cycles (%zu instant restarts, %zu "
        "double crashes); lost acked commits: %zu%s\n",
        total_cycles, total_instants, total_double, total_lost,
        total_lost == 0 ? " (every acknowledged commit survived)"
                        : "  <-- BUG");
    if (total_lost != 0) instant_exit = 1;
    if (instant_exit != 0) write_failing_trace(failing_trace);
    return instant_exit;
  }

  if (concurrent) {
    // The concurrent torture: six methods x {2,4,8} sessions, both
    // fault injectors armed, `runs` seeds x `crashes` freeze/crash/
    // recover cycles per configuration.
    std::printf(
        "concurrent crash torture: %zu seeds x %zu cycles per "
        "(method, sessions) config [torn forces ON, disk write bursts ON%s]"
        "\n\n",
        runs, crashes, async_io != 0 ? ", async I/O x4" : "");
    std::printf("%-16s %9s %8s %8s %8s %8s %7s %7s %9s %9s %7s\n", "method",
                "sessions", "cycles", "ops", "acked", "refused", "lost",
                "torn", "gc_acks", "batches", "result");
    int concurrent_exit = 0;
    size_t total_cycles = 0, total_lost = 0;
    std::string failing_trace;
    for (const methods::MethodKind kind :
         {methods::MethodKind::kLogical, methods::MethodKind::kPhysical,
          methods::MethodKind::kPhysiological,
          methods::MethodKind::kGeneralized,
          methods::MethodKind::kPhysiologicalAnalysis,
          methods::MethodKind::kPhysicalPartial}) {
      for (const size_t sessions : {2u, 4u, 8u}) {
        checker::ConcurrentSimResult sum;
        sum.ok = true;
        std::string first_failure;
        for (size_t seed = 1; seed <= runs; ++seed) {
          checker::ConcurrentSimOptions options;
          options.sessions = sessions;
          options.ops_per_session = std::max<size_t>(1, ops / sessions);
          options.cycles = crashes;
          options.tear_log_tail = true;
          options.disk_write_faults = true;
          options.fuzzy_checkpoints = true;
          options.async_io_workers = async_io;
          const checker::ConcurrentSimResult r =
              checker::RunConcurrentCrashSim(kind, options,
                                             seed * 977 + sessions);
          sum.cycles += r.cycles;
          sum.ops_applied += r.ops_applied;
          sum.commits_acked += r.commits_acked;
          sum.commits_refused += r.commits_refused;
          sum.lost_acked_commits += r.lost_acked_commits;
          sum.torn_tails += r.torn_tails;
          sum.group_commits += r.group_commits;
          sum.group_batches += r.group_batches;
          if (!r.ok) {
            if (sum.ok) first_failure = r.failure;
            sum.ok = false;
            if (!r.failing_flight_trace_json.empty()) {
              failing_trace = r.failing_flight_trace_json;
            }
          }
        }
        total_cycles += sum.cycles;
        total_lost += sum.lost_acked_commits;
        std::printf("%-16s %9zu %8zu %8zu %8zu %8zu %7zu %7zu %9llu %9llu %7s\n",
                    methods::MethodKindName(kind), sessions, sum.cycles,
                    sum.ops_applied, sum.commits_acked, sum.commits_refused,
                    sum.lost_acked_commits, sum.torn_tails,
                    static_cast<unsigned long long>(sum.group_commits),
                    static_cast<unsigned long long>(sum.group_batches),
                    sum.ok ? "OK" : "FAILED");
        if (!sum.ok) {
          std::printf("    first failure: %s\n", first_failure.c_str());
          concurrent_exit = 1;
        }
      }
    }
    std::printf(
        "\n%zu freeze/crash/recover cycles; lost acked commits: %zu%s\n",
        total_cycles, total_lost,
        total_lost == 0 ? " (every acknowledged commit survived)"
                        : "  <-- BUG");
    if (total_lost != 0) concurrent_exit = 1;
    if (concurrent_exit != 0) write_failing_trace(failing_trace);
    return concurrent_exit;
  }

  std::printf(
      "crash torture: %zu runs/method x %zu ops/segment x %zu crashes%s%s%s\n\n",
      runs, ops, crashes, faults ? " [fault injection ON]" : "",
      force_unrecoverable ? " [offsite restore WITHHELD]" : "",
      parallel ? " [parallel equivalence oracle: 2/4/8 workers]" : "");
  if (parallel) {
    std::printf("%-16s %8s %9s %9s %11s %9s %9s %9s %8s %7s %7s\n", "method",
                "runs", "actions", "crashes", "pages ok", "applied", "skipped",
                "notexp", "eqchk", "diverge", "result");
  } else {
    std::printf("%-16s %8s %9s %9s %11s %9s %9s %9s %7s\n", "method", "runs",
                "actions", "crashes", "pages ok", "applied", "skipped",
                "notexp", "result");
  }

  int exit_code = 0;
  size_t injected = 0, detected = 0, torn_tails = 0, salvaged = 0, healed = 0,
         retries = 0, silent = 0;
  size_t log_injected = 0, log_repairs = 0, rung1 = 0, rung2 = 0, rung3 = 0,
         backups = 0, sealed = 0;
  std::string failing_timeline;       // last failing cycle's JSONL timeline
  std::string failing_cycle_metrics;  // its per-cycle metrics delta
  std::string failing_trace;          // its flight-recorder Chrome trace
  for (const methods::MethodKind kind :
       {methods::MethodKind::kLogical, methods::MethodKind::kPhysical,
        methods::MethodKind::kPhysiological,
        methods::MethodKind::kGeneralized}) {
    size_t actions = 0, total_crashes = 0, pages = 0;
    size_t applied = 0, skipped = 0, not_exposed = 0;
    size_t eq_checks = 0, eq_divergences = 0;
    bool all_ok = true;
    std::string first_failure;
    for (size_t seed = 1; seed <= runs; ++seed) {
      checker::CrashSimOptions options;
      options.workload.num_pages = 16;
      options.cache_capacity = 6;
      options.ops_per_segment = ops;
      options.crashes = crashes;
      options.faults.enabled = faults;
      // Small segments so every run seals (and damages) several; a fresh
      // backup each cycle so rung 2 has a current anchor. Withholding
      // the backup AND the offsite restore makes the first double-fault
      // hole unrecoverable — the forced-failure path.
      options.faults.log_segment_bytes = 448;
      options.faults.backup_interval = force_unrecoverable ? 0 : 1;
      options.faults.truncate_at_backup = !force_unrecoverable;
      options.faults.no_offsite_restore = force_unrecoverable;
      if (parallel) options.equivalence_workers = {2, 4, 8};
      options.async_io_workers = async_io;
      const checker::CrashSimResult r = checker::RunCrashSim(kind, options, seed);
      actions += r.actions_executed;
      total_crashes += r.crashes;
      pages += r.recovered_pages_verified;
      applied += r.redo_applied;
      skipped += r.redo_skipped_installed;
      not_exposed += r.redo_not_exposed;
      injected += r.faults_injected;
      detected += r.faults_detected;
      torn_tails += r.torn_tails;
      salvaged += r.salvaged_records;
      healed += r.pages_healed;
      retries += r.recovery_retries;
      silent += r.silent_corruptions;
      log_injected += r.log_faults_injected;
      log_repairs += r.log_scrub_repairs;
      rung1 += r.ladder_mirror_cycles;
      rung2 += r.ladder_media_cycles;
      rung3 += r.ladder_refusals;
      backups += r.backups_taken;
      sealed += r.segments_sealed;
      eq_checks += r.equivalence_checks;
      eq_divergences += r.equivalence_divergences;
      if (!r.ok) {
        if (all_ok) {
          all_ok = false;
          first_failure = r.failure;
        }
        // Retain the most recent failing cycle's timeline for the
        // post-mortem artifact.
        if (!r.failing_timeline_jsonl.empty()) {
          failing_timeline = r.failing_timeline_jsonl;
          failing_cycle_metrics = r.last_cycle_metrics_text;
          failing_trace = r.failing_flight_trace_json;
        }
      }
    }
    if (parallel) {
      std::printf("%-16s %8zu %9zu %9zu %11zu %9zu %9zu %9zu %8zu %7zu %7s\n",
                  methods::MethodKindName(kind), runs, actions, total_crashes,
                  pages, applied, skipped, not_exposed, eq_checks,
                  eq_divergences, all_ok ? "OK" : "FAILED");
      if (eq_divergences != 0) exit_code = 1;
    } else {
      std::printf("%-16s %8zu %9zu %9zu %11zu %9zu %9zu %9zu %7s\n",
                  methods::MethodKindName(kind), runs, actions, total_crashes,
                  pages, applied, skipped, not_exposed,
                  all_ok ? "OK" : "FAILED");
    }
    if (!all_ok) {
      std::printf("    first failure: %s\n", first_failure.c_str());
      exit_code = 1;
    }
  }
  if (faults) {
    std::printf(
        "\nfault schedule: injected=%zu detected+healed=%zu torn_tails=%zu\n"
        "  salvaged_records=%zu pages_healed=%zu recovery_retries=%zu\n"
        "  SILENT CORRUPTIONS: %zu%s\n",
        injected, detected, torn_tails, salvaged, healed, retries, silent,
        silent == 0 ? " (every fault was caught or healed)" : "  <-- BUG");
    std::printf(
        "log-media schedule: injected=%zu scrub_repairs=%zu segments_sealed=%zu\n"
        "  ladder: rung1(mirror)=%zu rung2(media)=%zu rung3(refused)=%zu"
        " backups=%zu\n",
        log_injected, log_repairs, sealed, rung1, rung2, rung3, backups);
    if (silent != 0) exit_code = 1;
  }
  if (exit_code != 0 && !failing_timeline.empty()) {
    if (FILE* out = std::fopen(timeline_out.c_str(), "w")) {
      std::fputs(failing_timeline.c_str(), out);
      std::fclose(out);
      std::printf("\nfailing-cycle recovery timeline written to %s\n",
                  timeline_out.c_str());
    } else {
      std::printf("\ncould not write timeline to %s\n", timeline_out.c_str());
    }
    write_failing_trace(failing_trace);
    std::printf("failing-cycle metric delta:\n%s", failing_cycle_metrics.c_str());
  }
  std::printf("\nEvery crash point was validated two ways: the recovery\n"
              "invariant (operations(log) - redo_set is an installation-graph\n"
              "prefix explaining the stable state) and exact byte-level\n"
              "equality of the recovered state with the stable-log prefix.\n");
  return exit_code;
}
