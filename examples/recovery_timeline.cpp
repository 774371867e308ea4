// recovery_timeline: run one deterministic crash/recover scenario per
// recovery method with a RecoveryTracer attached, and print the full
// per-phase timeline — checkpoint chosen, every redo-test verdict with
// its reason code, phase I/O costs — plus the per-run metrics-registry
// delta.
//
// The scenario is fixed: writes across five pages, a mid-stream
// checkpoint, more writes, two pages flushed (so LSN-test methods have
// something to *skip*), full force, crash, recover. Deterministic by
// construction; `--no-timing` drops the only nondeterministic field
// (wall_us), making the output byte-identical across invocations.
//
// Usage: recovery_timeline [--json] [--no-timing] [--method NAME]
//                          [--trace-out PATH]
//   --json       one JSON document {"runs":[{method, timeline, metrics}]}
//                (parseable by `python3 -m json.tool`; CI does exactly that)
//   --no-timing  omit wall-clock fields for byte-identical output
//   --method     run only one method (logical | physical | physiological
//                | generalized-lsn)
//   --trace-out  instead of the timeline, run a recover-then-serve
//                scenario (group commit, crash, instant restart, session
//                traffic racing the drain) and write the flight
//                recorder's Chrome trace_event JSON to PATH — loadable
//                in chrome://tracing or Perfetto, parseable by
//                `python3 -m json.tool` (CI's smoke check)

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/minidb.h"
#include "obs/flight_recorder.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/recovery_trace.h"

namespace {

using namespace redo;

struct RunOutput {
  std::string method;
  std::string timeline_text;
  std::string timeline_json_array;  // "[{...},{...}]"
  std::string metrics_json;         // recovery-delta snapshot as JSON
  std::string metrics_text;
  bool ok = false;
};

RunOutput RunScenario(methods::MethodKind kind, bool include_timing) {
  RunOutput out;
  out.method = methods::MethodKindName(kind);

  engine::MiniDbOptions options;
  options.num_pages = 8;
  // The logical method redoes everything since the checkpoint and has no
  // page-LSN test; run it write-through like the crash simulator does.
  options.cache_capacity = kind == methods::MethodKind::kLogical ? 0 : 4;
  engine::MiniDb db(options, methods::MakeMethod(kind, {options.num_pages}));
  obs::RecoveryTracer tracer(&db.metrics());
  db.Attach(redo::engine::Instrumentation{nullptr, &tracer});

  // One session issues every write; it closes before recovery runs.
  {
    // Phase 1: three writes, then a checkpoint — these land *behind* the
    // redo-scan anchor and should not produce verdicts.
    engine::MiniDb::Session session = db.NewSession();
    (void)session.WriteSlot(1, 0, 100).value();
    (void)session.WriteSlot(2, 0, 200).value();
    (void)session.WriteSlot(3, 0, 300).value();
    (void)db.Checkpoint();

    // Phase 2: five more writes; flush pages 1 and 2 so their records are
    // installed on disk (LSN-test methods will report skipped-installed;
    // redo-all methods will reapply them anyway).
    (void)session.WriteSlot(1, 1, 101).value();
    (void)session.WriteSlot(2, 1, 201).value();
    (void)session.WriteSlot(4, 0, 400).value();
    (void)session.WriteSlot(5, 0, 500).value();
    (void)session.WriteSlot(4, 1, 401).value();
    (void)db.MaybeFlushPage(1);
    (void)db.MaybeFlushPage(2);
    (void)db.log().ForceAll();
  }

  const obs::Snapshot before = db.metrics().TakeSnapshot();
  db.Crash();
  const Status status = db.Recover();
  out.ok = status.ok();

  out.timeline_text = tracer.ToText(include_timing);
  {
    obs::JsonWriter w;
    w.BeginArray();
    for (const obs::TraceEvent& event : tracer.events()) {
      w.Raw(event.ToJson(include_timing));
    }
    w.EndArray();
    out.timeline_json_array = w.Take();
  }
  obs::Snapshot delta = db.metrics().TakeSnapshot().Delta(before);
  if (!include_timing) {
    // The phase-duration histogram is the one wall-clock metric; drop it
    // so --no-timing output is byte-identical across invocations.
    delta = delta.WithoutPrefix("recovery.phase_us");
  }
  out.metrics_json = delta.ToJson();
  out.metrics_text = delta.ToText();
  return out;
}

// --trace-out: a recover-then-serve run whose flight-recorder trace
// touches every instrumented subsystem — session ops and latch waits,
// transactions, the group-commit pipeline (stage/window/force/ack),
// fuzzy-checkpoint barriers, and instant-restart on-demand drains.
int RunTraceScenario(const std::string& path) {
  engine::MiniDbOptions options;
  options.num_pages = 16;
  options.cache_capacity = 0;  // concurrent mode requires unbounded
  options.engine.group_commit_window_us = 200;
  options.engine.fuzzy_checkpoints = true;
  options.engine.instant_restart = true;
  options.engine.instant_drain_workers = 2;
  engine::MiniDb db(options,
                    methods::MakeMethod(methods::MethodKind::kPhysiological,
                                        {options.num_pages}));

  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.Reset();

  // One round of transactional session traffic: every worker owns a
  // 4-page partition, writes it, and commits through the pipeline.
  const size_t kSessions = 4;
  const size_t kTxnsPerSession = 8;
  auto run_round = [&] {
    std::vector<std::thread> workers;
    for (size_t w = 0; w < kSessions; ++w) {
      workers.emplace_back([&db, w] {
        engine::MiniDb::Session session = db.NewSession();
        for (size_t t = 0; t < kTxnsPerSession; ++t) {
          if (!session.Begin().ok()) return;
          for (size_t p = 0; p < 4; ++p) {
            const storage::PageId page =
                static_cast<storage::PageId>(w * 4 + p);
            if (!session.WriteSlot(page, t % storage::Page::NumSlots(),
                                   static_cast<int64_t>(100 * w + t))
                     .ok()) {
              return;
            }
          }
          if (!session.Commit().ok()) return;
        }
      });
    }
    for (std::thread& t : workers) t.join();
  };

  Status status = db.BeginConcurrent();
  if (!status.ok()) {
    std::fprintf(stderr, "BeginConcurrent: %s\n", status.ToString().c_str());
    return 1;
  }
  run_round();
  status = db.Checkpoint();  // fuzzy: the ckpt.barrier spans
  if (!status.ok()) {
    std::fprintf(stderr, "Checkpoint: %s\n", status.ToString().c_str());
    return 1;
  }
  run_round();
  db.Crash();

  // Recover-then-serve: reopen instantly and race a full round of
  // session traffic against the background drain (the instant.drain
  // and redo spans).
  status = db.RecoverInstant();
  if (!status.ok()) {
    std::fprintf(stderr, "RecoverInstant: %s\n", status.ToString().c_str());
    return 1;
  }
  run_round();
  status = db.WaitUntilRecovered();
  if (!status.ok()) {
    std::fprintf(stderr, "WaitUntilRecovered: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  (void)db.EndConcurrent();

  const std::string json = obs::ToChromeTraceJson(recorder.Drain());
  if (FILE* out = std::fopen(path.c_str(), "w")) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
  } else {
    std::fprintf(stderr, "could not write trace to %s\n", path.c_str());
    return 1;
  }
  std::printf(
      "flight-recorder trace written to %s (%zu events recorded, %zu "
      "dropped)\n",
      path.c_str(), static_cast<size_t>(recorder.events_recorded()),
      static_cast<size_t>(recorder.events_dropped()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool include_timing = true;
  std::string only_method;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--no-timing") == 0) {
      include_timing = false;
    } else if (std::strcmp(argv[i], "--method") == 0 && i + 1 < argc) {
      only_method = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: recovery_timeline [--json] [--no-timing] "
                   "[--method NAME] [--trace-out PATH]\n");
      return 2;
    }
  }
  if (!trace_out.empty()) return RunTraceScenario(trace_out);

  std::vector<RunOutput> runs;
  bool all_ok = true;
  for (const methods::MethodKind kind :
       {methods::MethodKind::kLogical, methods::MethodKind::kPhysical,
        methods::MethodKind::kPhysiological,
        methods::MethodKind::kGeneralized}) {
    if (!only_method.empty() &&
        only_method != methods::MethodKindName(kind)) {
      continue;
    }
    runs.push_back(RunScenario(kind, include_timing));
    all_ok = all_ok && runs.back().ok;
  }
  if (runs.empty()) {
    std::fprintf(stderr, "unknown method '%s'\n", only_method.c_str());
    return 2;
  }

  if (json) {
    redo::obs::JsonWriter w;
    w.BeginObject();
    w.Key("runs");
    w.BeginArray();
    for (const RunOutput& run : runs) {
      w.BeginObject();
      w.Key("method");
      w.String(run.method);
      w.Key("ok");
      w.Bool(run.ok);
      w.Key("timeline");
      w.Raw(run.timeline_json_array);
      w.Key("metrics");
      w.Raw(run.metrics_json);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::printf("%s\n", w.Take().c_str());
  } else {
    for (const RunOutput& run : runs) {
      std::printf("=== %s ===\n%s\n--- recovery metrics delta ---\n%s\n",
                  run.method.c_str(), run.timeline_text.c_str(),
                  run.metrics_text.c_str());
    }
  }
  return all_ok ? 0 : 1;
}
