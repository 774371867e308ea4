// net_server: the engine behind a real TCP front end.
//
// Serves the unified command layer (engine::Command over CRC-framed,
// length-prefixed, pipelined frames — DESIGN.md §15) on a loopback or
// LAN socket. Pair it with `net_load` for a multi-process closed-loop
// latency harness, or point any Command-speaking client at it.
//
// Crash cycles: with `--crash-cycles N`, the server runs the full
// crash-with-connected-clients choreography every `--crash-interval-ms`
// milliseconds, N times: freeze the group commit, gate new commands,
// synchronously disconnect every peer (the engine's recovery guards
// demand zero live sessions), crash the engine, instant-restart, and
// reopen the gate. The listener stays up throughout — clients reconnect
// and poll STATUS while redo drains. Stable storage is simulated in
// process memory, so the crash is the engine's crash boundary inside
// this process; the clients' view (dropped connections, vanished
// in-flight requests, recovery phases over STATUS) is the real thing.
//
// `--port 0` (the default) binds an ephemeral port; `--port-file PATH`
// writes the bound port for harnesses to discover. On exit (or SIGTERM/
// SIGINT) the flight-recorder trace goes to `--trace-out` if given.
//
// Usage: net_server [--host H] [--port P] [--port-file PATH]
//                   [--method NAME] [--pages N] [--workers N]
//                   [--crash-cycles N] [--crash-interval-ms MS]
//                   [--run-ms MS] [--trace-out PATH]

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "engine/minidb.h"
#include "net/server.h"
#include "obs/flight_recorder.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

redo::methods::MethodKind ParseMethod(const std::string& name) {
  using namespace redo::methods;
  const std::optional<MethodKind> kind = ParseMethodKind(name);
  if (kind.has_value()) return *kind;
  std::fprintf(stderr, "unknown --method '%s'; one of:", name.c_str());
  for (const MethodKind k : kMethodKinds) {
    std::fprintf(stderr, " %s", MethodKindName(k));
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace redo;

  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string port_file;
  std::string method_name = "physiological";
  size_t pages = 64;
  size_t workers = 2;
  size_t crash_cycles = 0;
  uint64_t crash_interval_ms = 500;
  uint64_t run_ms = 0;  // 0 = until signal (or crash cycles done)
  std::string trace_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      port = static_cast<uint16_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--port-file") {
      port_file = next();
    } else if (arg == "--method") {
      method_name = next();
    } else if (arg == "--pages") {
      pages = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--workers") {
      workers = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--crash-cycles") {
      crash_cycles = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--crash-interval-ms") {
      crash_interval_ms = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--run-ms") {
      run_ms = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  const methods::MethodKind kind = ParseMethod(method_name);
  engine::MiniDbOptions options;
  options.num_pages = pages;
  options.cache_capacity = 0;  // concurrent mode needs the unbounded pool
  options.engine.instant_restart = true;
  options.engine.instant_drain_workers = 2;
  options.net.host = host;
  options.net.port = port;
  options.net.worker_threads = workers;
  engine::MiniDb db(options, methods::MakeMethod(kind, {pages}));

  Status begun = db.BeginConcurrent();
  if (!begun.ok()) {
    std::fprintf(stderr, "BeginConcurrent: %s\n", begun.ToString().c_str());
    return 1;
  }

  net::NetServer server(&db, options.net);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("net_server: %s serving on %s:%u (%zu pages, %zu workers)\n",
              methods::MethodKindName(kind), host.c_str(), server.port(),
              pages, workers);
  std::fflush(stdout);

  if (!port_file.empty()) {
    if (FILE* f = std::fopen(port_file.c_str(), "w")) {
      std::fprintf(f, "%u\n", server.port());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot write --port-file %s\n", port_file.c_str());
      server.Stop();
      return 1;
    }
  }

  // The crash choreography, also wired to the ADMIN_CRASH verb so a
  // harness can trigger a cycle over the wire.
  size_t cycles_done = 0;
  auto crash_cycle = [&]() -> bool {
    db.FreezeCommits();
    server.DisableCommands();
    Status dropped = server.DisconnectAll();
    if (!dropped.ok()) {
      std::fprintf(stderr, "DisconnectAll: %s\n", dropped.ToString().c_str());
      return false;
    }
    db.Crash();
    Status recovered = db.RecoverInstant();
    if (!recovered.ok()) {
      std::fprintf(stderr, "RecoverInstant: %s\n",
                   recovered.ToString().c_str());
      return false;
    }
    server.EnableCommands();
    ++cycles_done;
    std::printf("net_server: crash cycle %zu done (stable LSN %llu)\n",
                cycles_done,
                static_cast<unsigned long long>(db.log().stable_lsn()));
    std::fflush(stdout);
    return true;
  };

  const auto started_at = std::chrono::steady_clock::now();
  auto next_crash =
      started_at + std::chrono::milliseconds(crash_interval_ms);
  int exit_code = 0;
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto now = std::chrono::steady_clock::now();
    if (crash_cycles > 0 && cycles_done < crash_cycles && now >= next_crash) {
      if (!crash_cycle()) {
        exit_code = 1;
        break;
      }
      next_crash = now + std::chrono::milliseconds(crash_interval_ms);
    }
    if (run_ms > 0 &&
        now - started_at >= std::chrono::milliseconds(run_ms) &&
        (crash_cycles == 0 || cycles_done >= crash_cycles)) {
      break;
    }
  }

  server.Stop();
  if (db.concurrent()) {
    (void)db.WaitUntilRecovered();
    (void)db.EndConcurrent();
  }

  const net::NetServerStats& stats = server.stats();
  std::printf(
      "net_server: done — %llu connections, %llu frames, %llu commands, "
      "%zu crash cycles\n",
      static_cast<unsigned long long>(stats.connections_accepted.load()),
      static_cast<unsigned long long>(stats.frames_received.load()),
      static_cast<unsigned long long>(stats.commands_executed.load()),
      cycles_done);

  if (!trace_out.empty()) {
    const std::string trace =
        obs::ToChromeTraceJson(obs::FlightRecorder::Global().Drain());
    if (FILE* f = std::fopen(trace_out.c_str(), "w")) {
      std::fputs(trace.c_str(), f);
      std::fclose(f);
      std::printf("net_server: flight trace written to %s\n",
                  trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write --trace-out %s\n", trace_out.c_str());
    }
  }
  return exit_code;
}
