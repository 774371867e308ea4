// Experiment S13: client-visible latency over the wire — the closed
// loop measured from the network peer's side of the unified command
// layer (DESIGN.md §15).
//
// For each (method, client count) a NetServer serves a loopback TCP
// socket and closed-loop clients (checker/closed_loop.h) drive it, each
// on its own pages: a pipelined batch of 4 random operations (slot
// writes, blind formats, splits, slot transfers), then a commit, so the
// histograms are client-visible latency (request write to reply read,
// group-commit wait included) — not server-side service time.
//
// The crash columns are the recovery story as a *client* experiences
// it: mid-run the server freezes commits, drops every connection,
// crashes the engine and instant-restarts; `ttfc` is the wall time from
// the crash to a fresh client's first acked commit (reconnect + STATUS
// poll to kServing + write + commit through on-demand redo) on a page
// no load client owns. Every load client reads its pages back after
// the restart and at the end, and the values must match its journal
// (exit 1 otherwise — the bench doubles as an oracle run).
//
// Usage: bench_net [--duration-ms MS] [--quick]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "checker/closed_loop.h"
#include "engine/command.h"
#include "engine/minidb.h"
#include "methods/method.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"

namespace {

using namespace redo;
using methods::MethodKind;

struct CellResult {
  checker::ClientStats stats;
  double seconds = 0;
  uint64_t ttfc_us = 0;  ///< crash -> first acked commit, client-visible
  Status oracle = Status::Ok();
};

uint64_t Percentile(const obs::Histogram& histogram, double q) {
  return obs::HistogramPercentile(histogram.bounds(),
                                  histogram.bucket_counts(), q);
}

CellResult RunCell(MethodKind kind, size_t clients, int duration_ms) {
  constexpr size_t kPages = 64;
  // The ttfc probe's page: the load clients own [0, kPages - 1).
  constexpr storage::PageId kProbePage = kPages - 1;
  engine::MiniDbOptions db_options;
  db_options.num_pages = kPages;
  db_options.cache_capacity = 0;
  db_options.engine.instant_restart = true;
  db_options.engine.instant_drain_workers = 2;
  db_options.net.port = 0;
  db_options.net.worker_threads = 2;
  engine::MiniDb db(db_options, methods::MakeMethod(kind, {kPages}));
  REDO_CHECK(db.BeginConcurrent().ok());

  net::NetServer server(&db, db_options.net);
  REDO_CHECK(server.Start().ok());

  std::vector<checker::ClientSpec> specs;
  const checker::PageRange owned{0, kPages - 1};
  for (size_t i = 0; i < clients; ++i) {
    checker::ClientSpec spec;
    spec.port = server.port();
    spec.pages = owned.Part(i, clients);
    spec.commit_every = 4;
    spec.seed = 0x513 + i;
    specs.push_back(spec);
  }

  CellResult cell;
  // Crash mid-run from an orchestrator thread, then measure the
  // client-visible time from the crash to the first acked commit of a
  // *fresh* connection racing the reconnecting load clients.
  std::thread orchestrator([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms / 2));
    const auto crash_at = std::chrono::steady_clock::now();
    db.FreezeCommits();
    server.DisableCommands();
    if (!server.DisconnectAll().ok()) return;
    db.Crash();
    if (!db.RecoverInstant().ok()) return;
    server.EnableCommands();
    net::NetClient probe;
    auto serving = probe.AwaitServing("127.0.0.1", server.port(), 10000);
    if (!serving.ok()) return;
    if (!probe.Call(engine::MakeWriteSlotCommand(kProbePage, 0, 1)).ok()) {
      return;
    }
    auto committed = probe.Call(engine::MakeCommitCommand());
    if (!committed.ok() || !committed.value().ok()) return;
    cell.ttfc_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - crash_at)
            .count());
  });

  const auto started = checker::Clock::now();
  cell.oracle = checker::RunClients(
      specs, started + std::chrono::milliseconds(duration_ms), &cell.stats);
  cell.seconds =
      std::chrono::duration<double>(checker::Clock::now() - started).count();
  orchestrator.join();
  if (cell.oracle.ok() && cell.stats.reconnects == 0) {
    cell.oracle = Status::Corruption("no client reconnected after the crash");
  }

  server.Stop();
  REDO_CHECK(db.WaitUntilRecovered().ok());
  REDO_CHECK(db.EndConcurrent().ok());
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  int duration_ms = 800;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--duration-ms") == 0 && i + 1 < argc) {
      duration_ms = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      duration_ms = 250;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 2;
    }
  }

  std::printf(
      "S13: client-visible latency over loopback TCP (closed loop,\n"
      "a pipelined batch of 4 random ops then a commit, %d ms per\n"
      "cell; the engine crashes and instant-restarts mid-run with every\n"
      "client connected). Latencies in microseconds as measured by the\n"
      "clients; ttfc = crash -> fresh client's first acked commit.\n\n",
      duration_ms);
  std::printf("%-16s %7s %9s %7s %7s %7s %7s %7s %7s %8s %7s\n", "method",
              "clients", "ops/s", "op_p50", "op_p95", "op_p99", "c_p50",
              "c_p95", "c_p99", "ttfc_ms", "oracle");

  int exit_code = 0;
  for (const MethodKind kind :
       {MethodKind::kPhysiological, MethodKind::kPhysiologicalAnalysis,
        MethodKind::kPhysical, MethodKind::kGeneralized}) {
    for (const size_t clients : {2u, 8u}) {
      const CellResult cell = RunCell(kind, clients, duration_ms);
      const checker::ClientStats& r = cell.stats;
      std::printf(
          "%-16s %7zu %9.0f %7llu %7llu %7llu %7llu %7llu %7llu %8.1f %7s\n",
          methods::MethodKindName(kind), clients,
          cell.seconds > 0 ? r.ops / cell.seconds : 0.0,
          static_cast<unsigned long long>(Percentile(r.request_us, 0.50)),
          static_cast<unsigned long long>(Percentile(r.request_us, 0.95)),
          static_cast<unsigned long long>(Percentile(r.request_us, 0.99)),
          static_cast<unsigned long long>(Percentile(r.commit_us, 0.50)),
          static_cast<unsigned long long>(Percentile(r.commit_us, 0.95)),
          static_cast<unsigned long long>(Percentile(r.commit_us, 0.99)),
          cell.ttfc_us / 1000.0, cell.oracle.ok() ? "OK" : "FAIL");
      if (!cell.oracle.ok()) {
        std::printf("  %s\n", cell.oracle.ToString().c_str());
        exit_code = 1;
      }
    }
  }
  std::printf(
      "\nCommit latency sits on the group-commit window: the closed loop\n"
      "pays one force per commit batch, so c_p50 tracks the window while\n"
      "op_p50 is a round trip plus strand queueing. ttfc is dominated by\n"
      "analysis plus one on-demand chain drain — the instant-restart\n"
      "promise, observed from the network.\n");
  if (exit_code != 0) {
    std::printf("ORACLE VIOLATION: a cell read back a value its journal "
                "does not explain, or never reconnected  <-- BUG\n");
  }
  return exit_code;
}
