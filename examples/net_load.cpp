// net_load: a multi-process closed-loop load generator and value oracle
// for net_server.
//
// Each net_load process runs N closed-loop clients (checker/
// closed_loop.h) against a running net_server, each on its own part of
// the process's page range: a pipelined batch of random operations
// (slot writes, blind formats, splits, slot transfers), then a commit,
// with client-visible request and commit latency in fixed-bucket
// histograms (p50/p95/p99 in the report). Run several net_load
// processes on disjoint page ranges against one server for a genuinely
// multi-process closed loop: a process's read-back assumes no other
// process writes its pages.
//
// The process doubles as the value oracle. Every commit ack must carry
// a stable LSN that covers it. If the server crashes mid-load, a client
// reconnects, waits until the engine restarted, and reads back every
// slot its op mix writes before it writes again: the values must equal
// the replay of its journal through its last acked commit, extended by
// some prefix of the requests after it. After the deadline every client
// reads its pages back once more. Any violation makes the exit code 1,
// which is what the CI smoke leg asserts on; a bad flag, more clients
// than pages, or a range past the server's pages exits 2.
//
// Usage: net_load [--host H] [--port P | --port-file PATH]
//                 [--clients N] [--pages [FIRST:]COUNT]
//                 [--commit-every N] [--duration-ms MS] [--seed S]
//                 [--expect-reconnects]

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "checker/closed_loop.h"
#include "net/client.h"

namespace {

using redo::checker::ClientSpec;
using redo::checker::ClientStats;
using redo::checker::PageRange;

constexpr const char* kUsage =
    "usage: net_load [--host H] [--port P | --port-file PATH]\n"
    "                [--clients N] [--pages [FIRST:]COUNT]\n"
    "                [--commit-every N] [--duration-ms MS] [--seed S]\n"
    "                [--expect-reconnects]\n";

int Usage(const std::string& complaint) {
  std::fprintf(stderr, "net_load: %s\n%s", complaint.c_str(), kUsage);
  return 2;
}

// A decimal number: digits only, so "x" or "2x" is refused instead of
// silently parsing as 0 (or 2).
bool ParseNumber(const std::string& text, uint64_t* out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return errno != ERANGE;
}

uint64_t Percentile(const redo::obs::Histogram& histogram, double q) {
  return redo::obs::HistogramPercentile(histogram.bounds(),
                                        histogram.bucket_counts(), q);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace redo;

  ClientSpec base;
  PageRange pages{0, 64};
  uint64_t clients = 4;
  uint64_t duration_ms = 1000;
  uint64_t seed = 1;
  std::string port_file;
  bool expect_reconnects = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--expect-reconnects") {
      expect_reconnects = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(arg + " needs a value");
    const std::string value = argv[++i];
    // A count must be a positive number; a port, a first page and a
    // seed may be 0.
    auto number = [&](uint64_t* out, bool positive) {
      return ParseNumber(value, out) && (!positive || *out > 0);
    };
    uint64_t n = 0;
    bool ok = true;
    if (arg == "--host") {
      base.host = value;
    } else if (arg == "--port") {
      ok = number(&n, false) && n <= 65535;
      base.port = static_cast<uint16_t>(n);
    } else if (arg == "--port-file") {
      port_file = value;
    } else if (arg == "--clients") {
      ok = number(&clients, true);
    } else if (arg == "--pages") {
      const size_t colon = value.find(':');
      uint64_t first = 0;
      uint64_t count = 0;
      ok = (colon == std::string::npos ||
            ParseNumber(value.substr(0, colon), &first)) &&
           ParseNumber(colon == std::string::npos ? value
                                                  : value.substr(colon + 1),
                       &count) &&
           count > 0 && count <= (uint64_t{1} << 32) &&
           first <= (uint64_t{1} << 32) - count;
      pages = PageRange{static_cast<storage::PageId>(first), count};
    } else if (arg == "--commit-every") {
      ok = number(&n, true);
      base.commit_every = n;
    } else if (arg == "--duration-ms") {
      ok = number(&duration_ms, true);
    } else if (arg == "--seed") {
      ok = number(&seed, false);
    } else {
      return Usage("unknown argument " + arg);
    }
    if (!ok) return Usage("bad value '" + value + "' for " + arg);
  }

  if (!port_file.empty()) {
    // The server may still be writing the file; poll briefly.
    for (int attempt = 0; attempt < 500; ++attempt) {
      if (FILE* f = std::fopen(port_file.c_str(), "r")) {
        unsigned p = 0;
        const int got = std::fscanf(f, "%u", &p);
        std::fclose(f);
        if (got == 1 && p > 0) {
          base.port = static_cast<uint16_t>(p);
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (base.port == 0) {
      std::fprintf(stderr, "net_load: no port in --port-file %s\n",
                   port_file.c_str());
      return 2;
    }
  }
  if (base.port == 0) return Usage("need --port or --port-file");
  if (clients > pages.count) {
    return Usage("each of the " + std::to_string(clients) +
                 " clients needs a page of its own");
  }
  {
    net::NetClient probe;
    Result<engine::Reply> serving =
        probe.AwaitServing(base.host, base.port, 10000);
    if (!serving.ok()) {
      std::fprintf(stderr, "net_load: %s\n",
                   serving.status().ToString().c_str());
      return 1;
    }
    if (pages.end() > serving.value().status.num_pages) {
      return Usage("pages [" + std::to_string(pages.first) + ", " +
                   std::to_string(pages.end()) + ") reach past the server's " +
                   std::to_string(serving.value().status.num_pages) + " pages");
    }
  }

  std::vector<ClientSpec> specs;
  for (size_t i = 0; i < clients; ++i) {
    ClientSpec spec = base;
    spec.pages = pages.Part(i, clients);
    spec.seed = seed * 7919 + i;
    specs.push_back(spec);
  }
  ClientStats total;
  const auto started = checker::Clock::now();
  const Status run = checker::RunClients(
      specs, started + std::chrono::milliseconds(duration_ms), &total);
  if (run.code() == StatusCode::kInvalidArgument) return Usage(run.message());
  const double seconds =
      std::chrono::duration<double>(checker::Clock::now() - started).count();

  std::printf(
      "ops=%zu commits=%zu refused=%zu in_doubt=%zu reconnects=%zu "
      "(%zu during kServing) slots_verified=%zu throughput=%.0fops/s "
      "op_p50/p95/p99=%llu/%llu/%llu us commit_p50/p95/p99=%llu/%llu/%llu us\n",
      total.ops, total.commits_acked, total.refused, total.in_doubt,
      total.reconnects, total.reconnects_during_serving,
      total.slots_verified, seconds > 0 ? total.ops / seconds : 0.0,
      static_cast<unsigned long long>(Percentile(total.request_us, 0.50)),
      static_cast<unsigned long long>(Percentile(total.request_us, 0.95)),
      static_cast<unsigned long long>(Percentile(total.request_us, 0.99)),
      static_cast<unsigned long long>(Percentile(total.commit_us, 0.50)),
      static_cast<unsigned long long>(Percentile(total.commit_us, 0.95)),
      static_cast<unsigned long long>(Percentile(total.commit_us, 0.99)));

  int exit_code = 0;
  if (!run.ok()) {
    std::fprintf(stderr, "net_load: %s\n", run.ToString().c_str());
    exit_code = 1;
  }
  if (total.ops == 0) {
    std::fprintf(stderr, "net_load: no operation was acked\n");
    exit_code = 1;
  }
  if (expect_reconnects && total.reconnects == 0) {
    std::fprintf(stderr,
                 "net_load: --expect-reconnects but no client ever "
                 "reconnected (did the server crash at all?)\n");
    exit_code = 1;
  }
  if (exit_code == 0) {
    std::printf("net_load: every acked value read back on pages [%u, %u): "
                "%zu slots verified\n",
                pages.first, pages.end(), total.slots_verified);
  }
  return exit_code;
}
