// Engine-wide execution policy and instrumentation attachments.
//
// EngineOptions gathers the knobs that decide *how* the engine executes
// — never *what* state it recovers. Every recovery method produces the
// same post-crash state at any setting; these options only move work
// between threads (parallel redo workers, the group-commit pipeline) or
// between moments (fuzzy vs quiescing checkpoints). Keeping them in one
// struct, owned by the engine rather than by methods/, means a new knob
// is one field here instead of a setter per layer.

#ifndef REDO_ENGINE_ENGINE_OPTIONS_H_
#define REDO_ENGINE_ENGINE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace redo::obs {
class RecoveryTracer;
}  // namespace redo::obs

namespace redo::engine {

class TraceRecorder;

/// Execution knobs for the engine: recovery parallelism plus the
/// concurrent front end's commit and checkpoint policy.
struct EngineOptions {
  /// Redo worker threads of a quiescing Recover(). <= 1 runs the one
  /// serial log-order replayer (methods::RestartInLogOrder) under the
  /// method's redo test (the default; golden byte-identical timelines
  /// rely on it). > 1 drains the analysis plan with that many threads
  /// through the instant-restart driver (src/redo/instant.h), the doors
  /// closed: each write-graph chain replays in LSN order, chains
  /// concurrently.
  size_t parallel_workers = 1;

  /// Group commit (concurrent mode only): the longest a commit may
  /// linger. After the first commit request the committer waits up to
  /// this long for more requests before forcing the batch it has; it
  /// stops waiting as soon as every live session has a commit in the
  /// batch, since no other commit could join it. Larger windows amortize
  /// one force over more commits at the price of commit latency.
  uint64_t group_commit_window_us = 100;

  /// Group commit: the most log records that may wait for a force.
  /// An appender that finds this many pending blocks (backpressure)
  /// until the committer forces them.
  size_t group_commit_ring = 256;

  /// Simulated latency of one stable-log force, charged by the log
  /// manager per force, with the log held, while group commit is
  /// active. 0 (the default) adds no delay; benchmarks set it to model
  /// a device fsync so group-commit batching is visible in wall-clock
  /// throughput.
  uint64_t simulated_force_latency_us = 0;

  /// Simulated latency of one page read / page write, charged by the
  /// device (the buffer pool's AsyncIoBackend) once per op. 0 (the
  /// default) adds no delay; benchmarks set them to model a device so
  /// recovery strategies that defer page I/O (instant restart) and
  /// batched writeback show the saving in wall-clock time.
  uint64_t simulated_read_latency_us = 0;
  uint64_t simulated_write_latency_us = 0;

  /// Concurrent mode: take checkpoints fuzzily when the method supports
  /// it (the LSN-tag methods) — snapshot the dirty-page table and
  /// append the checkpoint record under a brief writer barrier, then
  /// make it durable through the group-commit pipeline without ever
  /// quiescing writers for the force. Methods without fuzzy support
  /// (redo-all methods, whose checkpoints must flush) fall back to
  /// their quiescing checkpoint under the barrier.
  bool fuzzy_checkpoints = false;

  /// Enables MiniDb::RecoverInstant(): after analysis the engine opens
  /// for Session traffic immediately and redo drains on demand (a
  /// session touching a page replays its pending chain first) while
  /// background workers drain the rest in write-graph order. Recover()
  /// keeps the quiescing semantics regardless of this flag.
  bool instant_restart = false;

  /// Background drain threads spawned by RecoverInstant(). Must be
  /// >= 1: without a drainer an idle engine would never finish
  /// recovering.
  size_t instant_drain_workers = 1;

  /// Test hook: crash the recovery undo pass after emitting this many
  /// CLRs (0 = never). The pass forces what it has appended so far and
  /// returns Unavailable, modelling a re-crash mid-undo; the next
  /// Recover() must resume from the CLRs' undo_next chains and converge.
  size_t undo_crash_after_clrs = 0;

  /// Completion workers of the device (storage::AsyncIoBackend) — the
  /// modeled queue depth. 0 (the default) executes every page I/O
  /// inline, one op in flight; > 0 overlaps that many ops (flush waves,
  /// concurrent redo drains' and sessions' misses). The log's force is
  /// not a page I/O: it holds the log at every depth. The environment
  /// variable REDO_ASYNC_IO overrides a zero here (the CI seam for
  /// running existing suites at depth N). Results are identical at any
  /// setting; only the I/O schedule changes.
  size_t async_io_workers = 0;
};

/// Configuration of the networked front end (src/net's NetServer).
/// Plain data so the engine layer can own and validate it without
/// depending on the net library; the server reads it at Start().
struct NetOptions {
  /// TCP bind address. The default binds loopback only — the harness
  /// and tests never expose a port beyond the machine.
  std::string host = "127.0.0.1";

  /// TCP port; 0 binds an ephemeral port (NetServer::port() reports the
  /// actual one — how tests and in-process sims avoid collisions).
  uint16_t port = 0;

  /// Concurrent client connections the server will hold open. Accepts
  /// beyond this are closed immediately (counted as rejected). Must be
  /// >= 1.
  size_t max_connections = 64;

  /// Worker threads executing commands. One worker runs one
  /// connection's commands at a time (replies stay in request order);
  /// more workers let other connections proceed while one blocks in a
  /// slow Commit. Must be >= 1.
  size_t worker_threads = 2;

  /// Outstanding pipelined requests the server buffers per connection
  /// before it stops reading from that socket (backpressure). Must be
  /// >= 1.
  size_t pipeline_depth = 16;

  /// listen(2) backlog for the accept queue. Must be >= 1.
  size_t accept_backlog = 128;

  /// Upper bound on one request frame's payload. Guards the server
  /// against a hostile length prefix; must be large enough for any
  /// command (>= 512) and at most the WAL record bound (16 MiB).
  size_t max_frame_bytes = 1 << 20;
};

/// Observers a caller may attach to a MiniDb (see MiniDb::Attach). All
/// pointers are optional and non-owning.
struct Instrumentation {
  /// Records page reads/writes of logged operations for the checker.
  TraceRecorder* trace = nullptr;
  /// Records the per-phase recovery timeline.
  obs::RecoveryTracer* recovery_tracer = nullptr;
};

}  // namespace redo::engine

#endif  // REDO_ENGINE_ENGINE_OPTIONS_H_
