// The submission-queue I/O backend (DESIGN.md §14): the only code that
// reads or writes the engine's Disk.
//
// The AsyncIoBackend models io_uring semantics over the Disk: callers
// build a *batch* of page reads/writes, submit it, and wait on a batch
// handle that carries a per-op completion Status. The queue depth picks
// the device model:
//  - depth 0 (the default): ops execute inline at Submit, in submission
//    order, and the simulated latency is charged while holding the
//    disk mutex — the device has exactly one I/O in flight, whichever
//    thread submits it;
//  - depth N: N completion workers drain a bounded submission ring and
//    charge the latency OUTSIDE the mutex — the latency is what queue
//    depth hides, the Disk bookkeeping is not.
//
// Fault model: faults are injected at COMPLETION, not submission. An op
// does not touch the Disk (and therefore the attached FaultInjector and
// write-fault hook) until it executes, so torn writes, transient write
// errors, and sticky read errors apply per op, against the stable state
// at completion time. The Disk itself is not thread-safe: every Disk
// call is serialized on the backend's disk mutex.
//
// Ordering: like a real submission ring, the backend promises NOTHING
// about completion order within a batch. Write-order constraints must
// be enforced at batch-build time (BufferPool::FlushBatch builds
// constraint-closed waves and submits wave i+1 only after wave i
// completed).

#ifndef REDO_STORAGE_ASYNC_IO_H_
#define REDO_STORAGE_ASYNC_IO_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "storage/disk.h"
#include "storage/page.h"
#include "util/status.h"

namespace redo::storage {

/// Backend configuration.
struct AsyncIoOptions {
  /// Completion workers draining the submission ring — the modeled
  /// device queue depth. 0 executes every op inline at Submit, one I/O
  /// in flight at a time: the engine's default device and the baseline
  /// of the depth sweep in EXPERIMENTS.md S12.
  size_t queue_depth = 0;
  /// Simulated device latency charged per read / write op (inside the
  /// disk serialization at depth 0, outside it at depth N). 0 adds no
  /// delay.
  uint64_t read_latency_us = 0;
  uint64_t write_latency_us = 0;

  bool operator==(const AsyncIoOptions&) const = default;
};

/// Backend counters.
struct AsyncIoStats {
  uint64_t batches = 0;           ///< batches submitted
  uint64_t ops = 0;               ///< ops submitted (reads + writes)
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t op_errors = 0;         ///< ops completed with a non-OK status
  uint64_t sync_completions = 0;  ///< ops executed inline (depth 0)
  uint64_t max_in_flight = 0;     ///< high-watermark of in-flight ops

  /// Emits every counter (metrics-registry source enumeration).
  void EmitMetrics(obs::MetricEmitter& emit) const;
};

/// One I/O request; after completion, also its result.
struct AsyncIoOp {
  enum class Kind : uint8_t { kRead, kWrite };
  Kind kind = Kind::kWrite;
  PageId page = 0;
  /// Write: the content to write (set at build time). Read: the page
  /// content, filled at completion when `status` is OK.
  Page payload;
  /// Completion status (valid once the batch's Wait() returned).
  Status status;

  static AsyncIoOp Read(PageId id) {
    AsyncIoOp op;
    op.kind = Kind::kRead;
    op.page = id;
    return op;
  }
  static AsyncIoOp Write(PageId id, const Page& content) {
    AsyncIoOp op;
    op.kind = Kind::kWrite;
    op.page = id;
    op.payload = content;
    return op;
  }
};

class AsyncIoBackend;

/// Handle of one submitted batch. Wait() blocks until every op has
/// completed; afterwards op(i) exposes the per-op completion. Copyable
/// (shared state); a destroyed handle does not cancel the batch.
class AsyncIoBatch {
 public:
  AsyncIoBatch() = default;

  size_t size() const;

  /// Blocks until every op of the batch has completed, then returns the
  /// first failing op's status (OK when every op completed clean).
  /// Idempotent; records the submit→complete flight-recorder span on the
  /// first call. (Per-op completion latency is observed into the
  /// `io.async.complete_us` histogram as each op completes.)
  Status Wait();

  /// Per-op completion. Requires: Wait() has returned.
  const AsyncIoOp& op(size_t i) const;
  AsyncIoOp& op(size_t i);

 private:
  friend class AsyncIoBackend;
  struct State;
  std::shared_ptr<State> state_;
};

/// The backend. Thread-safe: any number of threads may Submit/Wait
/// concurrently; every Disk call is serialized on the disk mutex.
class AsyncIoBackend {
 public:
  AsyncIoBackend(Disk* disk, const AsyncIoOptions& options);
  ~AsyncIoBackend();

  AsyncIoBackend(const AsyncIoBackend&) = delete;
  AsyncIoBackend& operator=(const AsyncIoBackend&) = delete;

  /// Submits `ops` as one batch and returns its handle. At queue depth
  /// 0 the ops execute inline before this returns.
  /// An empty batch is legal and completes immediately.
  AsyncIoBatch Submit(std::vector<AsyncIoOp> ops);

  const AsyncIoOptions& options() const { return options_; }
  size_t queue_depth() const { return options_.queue_depth; }
  bool synchronous() const { return options_.queue_depth == 0; }

  AsyncIoStats stats() const;
  void ResetStats();

  /// Registers counters plus an in-flight gauge as a source named
  /// `prefix`, and attaches the registry-owned `<prefix>.batch_pages`
  /// (batch size) and `<prefix>.complete_us` (per-op submit→complete
  /// latency) histograms.
  void RegisterMetrics(obs::MetricsRegistry& registry,
                       const std::string& prefix = "io.async");

 private:
  struct Submission {
    std::shared_ptr<AsyncIoBatch::State> batch;
    size_t index = 0;
  };

  void WorkerLoop();
  /// Executes one op: charges the simulated latency (under disk_mu_ at
  /// depth 0, before taking it at depth N), then performs the Disk call
  /// (completion-time fault injection) under it.
  void ExecuteOp(AsyncIoOp& op);
  /// Completion bookkeeping shared by workers and inline execution.
  void CompleteOp(const std::shared_ptr<AsyncIoBatch::State>& batch,
                  size_t index);

  Disk* disk_;
  AsyncIoOptions options_;

  std::mutex disk_mu_;  ///< serializes every Disk call

  mutable std::mutex mu_;  ///< guards the ring, stats, and histograms
  std::condition_variable work_cv_;
  std::deque<Submission> ring_;
  bool stop_ = false;
  AsyncIoStats stats_;
  uint64_t in_flight_ = 0;
  obs::Histogram* batch_size_histogram_ = nullptr;  // not owned
  obs::Histogram* complete_us_histogram_ = nullptr; // not owned

  std::vector<std::thread> workers_;
};

}  // namespace redo::storage

#endif  // REDO_STORAGE_ASYNC_IO_H_
