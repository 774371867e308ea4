// redo_e2e: the end-to-end benchmark. An in-process NetServer, driven
// over loopback TCP by a seeded closed-loop load generator, through
// crash/restart cycles; see README.md for the workloads and metrics.
//
// Usage:
//   redo_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//   redo_e2e --workload NAME --repeat N [--seed N] [--seconds S] [--trace 0|1]
//   redo_e2e --smoke
//
// A run prints one provenance record (the full configuration), one
// `oracle=` line per check outcome, and as its last line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run (--trace 1). Exit code 1 on any oracle failure, 2 on a
// usage or environment error.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "obs/json_writer.h"
#include "stats.h"
#include "workloads.h"

namespace redo::e2e {
namespace {

/// Command-line arguments.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t repeat = 0;
  bool smoke = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> violations;
  std::string failure;  ///< a harness error (the engine refused a call)
  /// Sample count behind each metric, for the provenance record.
  std::map<std::string, size_t> samples;
  uint64_t cycles = 0;
};

double Ratio(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

/// The shortest text that reads back as exactly `value`.
std::string Number(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, end);
}

void Absorb(const Measurements& m, const Status& status, RunResult* result) {
  result->attempted += m.attempted;
  result->failed += m.failed;
  result->cycles += m.cycles;
  result->violations.insert(result->violations.end(), m.violations.begin(),
                            m.violations.end());
  if (!status.ok() && result->failure.empty()) result->failure = status.ToString();
}

void Finish(RunResult* result) {
  result->correct = result->violations.empty() && result->failure.empty() &&
                    result->failed == 0;
}

/// One metric's value and the sample count behind it.
struct Reading {
  double value = 0;
  size_t n = 0;
};

/// Throughput and command latencies of a TCP arm. Each is taken per
/// cycle (a fresh engine and both kinds of restart) and reported as the
/// median over cycles: a cycle the host disturbed moves the result by
/// one rank, not by its weight.
std::map<std::string, Reading> Serving(const Measurements& m) {
  std::map<std::string, Reading> readings;
  std::vector<double> throughput;
  Reading& ops = readings["ops_per_s"];
  for (size_t i = 0; i < m.serving.size(); ++i) {
    throughput.push_back(
        Ratio(static_cast<double>(m.serving[i].acked), m.window_s[i]));
    ops.n += m.serving[i].acked;
  }
  ops.value = NearestRank(throughput, 0.5);
  auto per_cycle = [&](const char* name,
                       const std::vector<double> Samples::*field,
                       double fraction) {
    std::vector<double> values;
    Reading& reading = readings[name];
    for (const Samples& cycle : m.serving) {
      values.push_back(NearestRank(cycle.*field, fraction));
      reading.n += (cycle.*field).size();
    }
    reading.value = NearestRank(values, 0.5);
  };
  per_cycle("write_p50_us", &Samples::write_us, 0.50);
  per_cycle("write_p99_us", &Samples::write_us, 0.99);
  per_cycle("read_p50_us", &Samples::read_us, 0.50);
  per_cycle("read_p99_us", &Samples::read_us, 0.99);
  per_cycle("commit_p50_us", &Samples::commit_us, 0.50);
  per_cycle("commit_p99_us", &Samples::commit_us, 0.99);
  return readings;
}

RunResult RunEndToEnd(const Workload& workload, uint64_t seed, double seconds) {
  RunResult result;
  Measurements m;
  Absorb(m, RunTcpArm(workload, seed, seconds, &m, nullptr), &result);
  auto add = [&](const char* name, const char* unit, Reading reading) {
    result.metrics.push_back({name, unit, reading.value});
    result.samples[name] = reading.n;
  };
  auto median = [](const std::vector<double>& values) {
    return Reading{NearestRank(values, 0.5), values.size()};
  };
  add("recovered_ms", "ms", median(m.recovered_ms));
  add("recover_ms", "ms", median(m.recover_ms));
  add("commit_p50_us", "us", Serving(m).at("commit_p50_us"));
  add("log_bytes_per_write", "bytes",
      {Ratio(static_cast<double>(m.history_log_bytes),
             static_cast<double>(m.history_writes)),
       m.history_writes});
  add("setup_s", "s", median(m.setup_s));
  Finish(&result);
  return result;
}

/// A traced run: the TCP arm untraced, the TCP arm traced (recovery
/// tracer attached, flight recorder drained every 50 ms), and the
/// in-process arm, splitting `seconds` 2:2:1.
RunResult RunPerLayer(const Workload& workload, uint64_t seed, double seconds) {
  RunResult result;
  Measurements plain, traced, in_process;
  LayerTally layers;
  Samples dispatch;
  Absorb(plain, RunTcpArm(workload, seed, seconds * 0.4, &plain, nullptr),
         &result);
  Absorb(traced, RunTcpArm(workload, seed, seconds * 0.4, &traced, &layers),
         &result);
  Absorb(in_process,
         RunDispatchArm(workload, seed, seconds * 0.2, &dispatch, &in_process),
         &result);

  auto add = [&](const char* name, const char* unit, double value, size_t n) {
    result.metrics.push_back({name, unit, value});
    result.samples[name] = n;
  };
  const Samples& tcp = traced.history;
  const double restarts =
      static_cast<double>(layers.instant_restarts + layers.quiescing_restarts);
  const double instants = static_cast<double>(layers.instant_restarts);
  const double quiescings = static_cast<double>(layers.quiescing_restarts);
  const double commits = static_cast<double>(tcp.commit_us.size());

  // serving: the untraced arm's client-side numbers. On a shared host
  // they drift with it by more than a bound could absorb (README), so
  // they are read here rather than bounded end to end.
  const std::map<std::string, Reading> serving = Serving(plain);
  const std::pair<const char*, const char*> serving_metrics[] = {
      {"ops_per_s", "1/s"},     {"write_p50_us", "us"},
      {"write_p99_us", "us"},   {"read_p50_us", "us"},
      {"read_p99_us", "us"},    {"commit_p99_us", "us"}};
  for (const auto& [name, unit] : serving_metrics) {
    const Reading& reading = serving.at(name);
    add(("serving." + std::string(name)).c_str(), unit, reading.value,
        reading.n);
  }
  add("serving.ttfc_ms", "ms", NearestRank(plain.ttfc_ms, 0.5),
      plain.ttfc_ms.size());

  // net: TCP time the in-process arm does not spend in Dispatch.
  add("net.batch_self_us", "us", Mean(tcp.batch_us) - Mean(dispatch.batch_us),
      tcp.batch_us.size());
  add("net.commit_self_us", "us",
      Mean(tcp.commit_us) - Mean(dispatch.commit_us), tcp.commit_us.size());
  add("net.bytes_per_command", "bytes",
      Ratio(static_cast<double>(layers.net_bytes),
            static_cast<double>(layers.net_commands)),
      layers.net_commands);
  add("restart.await_serving_ms", "ms", Mean(layers.await_serving_ms),
      layers.await_serving_ms.size());

  // engine: one Dispatch call at a time, in process.
  const std::pair<const char*, const std::vector<double>*> dispatched[] = {
      {"begin", &dispatch.begin_us},
      {"write", &dispatch.write_us},
      {"read", &dispatch.read_us},
      {"commit", &dispatch.commit_us}};
  for (const auto& [kind, samples] : dispatched) {
    add(("engine.dispatch_" + std::string(kind) + "_us").c_str(), "us",
        Mean(*samples), samples->size());
    add(("engine.dispatch_" + std::string(kind) + "_p99_us").c_str(), "us",
        NearestRank(*samples, 0.99), samples->size());
  }
  const double ops = static_cast<double>(layers.session_ops);
  add("engine.latch_wait_us_per_op", "us",
      Ratio(static_cast<double>(layers.latch_wait_us), ops), layers.session_ops);
  add("engine.latch_waits_per_1k_ops", "count",
      Ratio(1000.0 * static_cast<double>(layers.latch_waits), ops),
      layers.session_ops);
  add("restart.first_write_ms", "ms", Mean(layers.first_write_ms),
      layers.first_write_ms.size());

  // wal: the units before the crash.
  add("wal.commits_per_force", "count",
      Ratio(static_cast<double>(layers.group_commits),
            static_cast<double>(layers.group_batches)),
      layers.group_batches);
  add("wal.forces_per_s", "1/s",
      Ratio(static_cast<double>(layers.group_batches), traced.history_s),
      layers.group_batches);
  add("wal.commit.force_us", "us",
      Ratio(static_cast<double>(layers.force_sum),
            static_cast<double>(layers.force_count)),
      layers.force_count);
  add("wal.commit.ack_wait_us", "us",
      Ratio(static_cast<double>(layers.ack_wait_sum),
            static_cast<double>(layers.ack_wait_count)),
      layers.ack_wait_count);
  add("wal.append_bytes_mean", "bytes",
      Ratio(static_cast<double>(layers.append_bytes_sum),
            static_cast<double>(layers.append_bytes_count)),
      layers.append_bytes_count);
  add("wal.appends_per_write", "count",
      Ratio(static_cast<double>(layers.appends),
            static_cast<double>(traced.history_writes)),
      traced.history_writes);
  add("wal.ring_stalls_per_1k_commits", "count",
      Ratio(1000.0 * static_cast<double>(layers.ring_stalls), commits),
      tcp.commit_us.size());

  // storage.
  add("pool.hit_ratio", "ratio",
      Ratio(static_cast<double>(layers.pool_hits),
            static_cast<double>(layers.pool_fetches)),
      layers.pool_fetches);
  add("pool.misses_per_restart", "count",
      Ratio(static_cast<double>(layers.restart_pool_misses), restarts),
      static_cast<size_t>(restarts));
  add("disk.reads_per_restart", "count",
      Ratio(static_cast<double>(layers.restart_disk_reads), restarts),
      static_cast<size_t>(restarts));

  // methods: RecoveryTracer phase-end events.
  const std::pair<const char*, const char*> phases[] = {
      {"recovery.salvage_ms", "salvage"},
      {"recovery.analysis_ms", "analysis"},
      {"recovery.redo_ms", "redo-scan"},
      {"recovery.undo_ms", "undo"},
      {"recovery.serving_ms", "serving-while-redoing"}};
  for (const auto& [metric, phase] : phases) {
    const std::vector<double>& ms = layers.phase_ms[phase];
    add(metric, "ms", Mean(ms), ms.size());
  }
  // Only the quiescing redo scan issues verdicts.
  add("recovery.records_scanned", "count",
      Ratio(static_cast<double>(layers.verdicts), quiescings),
      layers.quiescing_restarts);
  add("recovery.applied_ratio", "ratio",
      Ratio(static_cast<double>(layers.verdicts_applied),
            static_cast<double>(layers.verdicts)),
      layers.verdicts);

  // redo.
  add("redo.instant.pages_on_demand", "count",
      Ratio(static_cast<double>(layers.instant_on_demand), instants),
      layers.instant_restarts);
  add("redo.instant.pages_background", "count",
      Ratio(static_cast<double>(layers.instant_background), instants),
      layers.instant_restarts);
  add("redo.instant.applied_ratio", "ratio",
      Ratio(static_cast<double>(layers.instant_applied),
            static_cast<double>(layers.instant_applied + layers.instant_skipped)),
      layers.instant_restarts);
  add("redo.parallel.tasks", "count",
      Ratio(static_cast<double>(layers.parallel_tasks), quiescings),
      layers.quiescing_restarts);
  add("redo.parallel.handoffs", "count",
      Ratio(static_cast<double>(layers.parallel_handoffs), quiescings),
      layers.quiescing_restarts);
  add("redo.parallel.critical_path_ms", "ms",
      Ratio(static_cast<double>(layers.parallel_critical_us) / 1000.0,
            quiescings),
      layers.quiescing_restarts);
  add("redo.parallel.apply_busy_ms", "ms",
      Ratio(static_cast<double>(layers.parallel_busy_us) / 1000.0, quiescings),
      layers.quiescing_restarts);

  // obs: what tracing costs the TCP arm, and whether it kept up.
  const double plain_ops =
      Ratio(static_cast<double>(plain.history.acked), plain.history_s);
  const double traced_ops =
      Ratio(static_cast<double>(tcp.acked), traced.history_s);
  add("obs.trace_overhead_pct", "%",
      100.0 * Ratio(plain_ops - traced_ops, plain_ops), tcp.acked);
  add("flight.dropped", "count", static_cast<double>(layers.flight_dropped), 1);
  Finish(&result);
  return result;
}

RunResult RunOnce(const Workload& workload, uint64_t seed, double seconds,
                  bool trace) {
  return trace ? RunPerLayer(workload, seed, seconds)
               : RunEndToEnd(workload, seed, seconds);
}

// ---- Output ----

const char* MixName(Mix mix) {
  return mix == Mix::kTxn ? "txn" : "hot_reads";
}

/// The full configuration of a run: every knob a number depends on.
void WriteConfig(obs::JsonWriter& w, const Workload& workload) {
  const engine::MiniDbOptions options = EngineConfig();
  w.Key("config");
  w.BeginObject();
  w.Key("clients"); w.UInt(kClients);
  w.Key("net.worker_threads"); w.UInt(options.net.worker_threads);
  w.Key("num_pages"); w.UInt(options.num_pages);
  w.Key("slots_per_page"); w.UInt(kSlotsPerPage);
  w.Key("cache_capacity"); w.UInt(options.cache_capacity);
  w.Key("simulated_force_latency_us");
  w.UInt(options.engine.simulated_force_latency_us);
  w.Key("simulated_read_latency_us");
  w.UInt(options.engine.simulated_read_latency_us);
  w.Key("group_commit_window_us"); w.UInt(options.engine.group_commit_window_us);
  w.Key("async_io_workers"); w.UInt(options.engine.async_io_workers);
  w.Key("flight_recorder"); w.Bool(true);
  w.Key("parallel_workers"); w.UInt(options.engine.parallel_workers);
  w.Key("instant_drain_workers"); w.UInt(options.engine.instant_drain_workers);
  w.Key("method"); w.String(methods::MethodKindName(workload.method));
  w.Key("mix"); w.String(MixName(workload.mix));
  w.Key("units_before_checkpoint"); w.UInt(workload.units_before);
  w.Key("units_after_checkpoint"); w.UInt(workload.units_after);
  w.Key("units_after_crash"); w.UInt(workload.units_after_crash);
  w.Key("measured"); w.String(workload.units_after_crash > 0 ? "after_crash"
                                                             : "before_crash");
  w.EndObject();
}

void PrintProvenance(const Workload& workload, uint64_t seed, double seconds,
                     bool trace, const RunResult& result) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("record"); w.String("provenance");
  w.Key("workload"); w.String(workload.name);
  w.Key("seed"); w.UInt(seed);
  w.Key("seconds"); w.Raw(Number(seconds));
  w.Key("trace"); w.Bool(trace);
  w.Key("build_type"); w.String(REDO_E2E_BUILD_TYPE);
  w.Key("git_commit"); w.String(REDO_E2E_GIT_COMMIT);
  WriteConfig(w, workload);
  w.Key("cycles"); w.UInt(result.cycles);
  w.Key("samples");
  w.BeginObject();
  for (const Metric& metric : result.metrics) {
    w.Key(metric.name);
    w.UInt(result.samples.at(metric.name));
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

void PrintOracle(const RunResult& result) {
  if (!result.failure.empty()) {
    std::printf("oracle=FAIL harness: %s\n", result.failure.c_str());
  }
  for (const std::string& violation : result.violations) {
    std::printf("oracle=FAIL %s\n", violation.c_str());
  }
  if (result.failed != 0) {
    std::printf("oracle=FAIL %llu of %llu commands failed\n",
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));
  }
  if (result.correct) std::printf("oracle=PASS\n");
}

std::string ResultLine(const RunResult& result) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("correct"); w.Bool(result.correct);
  w.Key("attempted"); w.UInt(result.attempted);
  w.Key("failed"); w.UInt(result.failed);
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& metric : result.metrics) {
    w.Key(metric.name);
    w.BeginObject();
    w.Key("value"); w.Raw(Number(metric.value));
    w.Key("unit"); w.String(metric.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

/// --repeat: each metric's median, quartiles and max-min spread over the
/// runs — the numbers the regression bounds are chosen from.
void PrintRepeatSummary(const Workload& workload, bool trace,
                        const std::vector<RunResult>& runs) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("record"); w.String("repeat");
  w.Key("workload"); w.String(workload.name);
  w.Key("trace"); w.Bool(trace);
  w.Key("runs"); w.UInt(runs.size());
  w.Key("metrics");
  w.BeginObject();
  for (size_t i = 0; i < runs.front().metrics.size(); ++i) {
    std::vector<double> values;
    for (const RunResult& run : runs) values.push_back(run.metrics[i].value);
    const auto [q1, median, q3] = Quartiles(values);
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    w.Key(runs.front().metrics[i].name);
    w.BeginObject();
    w.Key("median"); w.Raw(Number(median));
    w.Key("q1"); w.Raw(Number(q1));
    w.Key("q3"); w.Raw(Number(q3));
    w.Key("spread"); w.Raw(Number(*hi - *lo));
    w.Key("iqr_share"); w.Raw(Number(Ratio(q3 - q1, median)));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "redo_e2e: %s\n"
               "usage: redo_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--repeat N]\n"
               "       redo_e2e --smoke\n"
               "workloads:",
               message);
  for (const Workload& workload : Workloads()) {
    std::fprintf(stderr, " %s", workload.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--traced") {
      args->trace = true;
      continue;
    }
    if (arg == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = arg + " needs a value";
      return false;
    }
    const char* text = argv[++i];
    if (arg == "--workload") {
      args->workload = text;
      continue;
    }
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    const bool numeric = end != text && *end == '\0' && value >= 0;
    if (arg == "--seed" && numeric) {
      args->seed = std::strtoull(text, nullptr, 10);
    } else if (arg == "--seconds" && numeric) {
      args->seconds = value;
    } else if (arg == "--trace" && numeric && (value == 0 || value == 1)) {
      args->trace = value == 1;
    } else if (arg == "--repeat" && numeric && value >= 1) {
      args->repeat = static_cast<size_t>(value);
    } else {
      *error = "unknown argument or bad value: " + arg + " " + text;
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  if (std::getenv("REDO_ASYNC_IO") != nullptr) {
    std::fprintf(stderr,
                 "redo_e2e: REDO_ASYNC_IO is set; it would swap the I/O path "
                 "under the benchmark's fixed configuration. Unset it.\n");
    return 2;
  }
#ifdef REDO_SANITIZERS_ACTIVE
  std::fprintf(stderr,
               "redo_e2e: built with a sanitizer; timings would not describe "
               "the benchmarked program. Rebuild bench/e2e.\n");
  return 2;
#endif
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error.c_str());

  if (args.smoke) {
    // Every workload at a tenth of its size, one cycle per arm, traced:
    // every arm and every oracle runs.
    bool all_correct = true;
    for (const Workload& workload : Workloads()) {
      const RunResult result =
          RunOnce(Scaled(workload, 10), args.seed, 0, /*trace=*/true);
      PrintOracle(result);
      std::printf("smoke %s: %s (%llu commands, %llu cycles)\n",
                  workload.name.c_str(), result.correct ? "ok" : "FAIL",
                  static_cast<unsigned long long>(result.attempted),
                  static_cast<unsigned long long>(result.cycles));
      all_correct = all_correct && result.correct;
    }
    return all_correct ? 0 : 1;
  }

  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) return Usage("unknown or missing --workload");

  if (args.repeat > 0) {
    std::vector<RunResult> runs;
    bool all_correct = true;
    for (size_t i = 0; i < args.repeat; ++i) {
      runs.push_back(
          RunOnce(*workload, args.seed + i, args.seconds, args.trace));
      PrintProvenance(*workload, args.seed + i, args.seconds, args.trace,
                      runs.back());
      PrintOracle(runs.back());
      std::printf("%s\n", ResultLine(runs.back()).c_str());
      std::fflush(stdout);
      all_correct = all_correct && runs.back().correct;
    }
    PrintRepeatSummary(*workload, args.trace, runs);
    return all_correct ? 0 : 1;
  }

  const RunResult result =
      RunOnce(*workload, args.seed, args.seconds, args.trace);
  PrintProvenance(*workload, args.seed, args.seconds, args.trace, result);
  PrintOracle(result);
  std::printf("%s\n", ResultLine(result).c_str());
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace redo::e2e

int main(int argc, char** argv) { return redo::e2e::Main(argc, argv); }
