// The networked front end: a TCP server over the unified command layer.
//
// Shape (the RethinkDB conn_acceptor/event_queue pattern named in the
// ROADMAP): ONE event-loop thread owns every file descriptor — the
// listening socket, an eventfd for cross-thread wakeups, and all client
// connections — multiplexed with epoll. The loop never executes a
// command; it reads bytes, decodes CRC-framed requests (net/wire.h),
// and hands decoded engine::Commands to a worker pool. Workers execute
// through engine::Dispatch() — the same funnel the in-process Session
// API and the checker sims use — and append reply frames to the
// connection's output buffer; the eventfd wakes the loop to flush.
//
// Concurrency contract:
//   - One MiniDb::Session per connection, created lazily at the first
//     command that needs one (so connections opened while recovery is
//     still running can poll STATUS without violating Recover's
//     no-live-sessions guard).
//   - A connection is a strand: at most one worker executes its
//     commands at a time and replies keep request order. Different
//     connections execute on different workers, so one connection's
//     slow Commit never delays another's — and never the event loop.
//   - Requests pipeline up to NetOptions::pipeline_depth per
//     connection; beyond that the loop stops reading from the socket
//     (TCP backpressure) until the queue drains.
//
// Crash-with-connected-clients choreography (DESIGN.md §15): stable
// storage in this engine is simulated in process memory, so a crash is
// the engine's crash boundary, not a process kill. The orchestrator
// (sim, example server, torture harness) runs:
//
//   FreezeCommits -> DisableCommands+DisconnectAll -> Crash ->
//   RecoverInstant (clients reconnect NOW and watch STATUS move
//   kAnalyzing -> kServing through the still-listening socket) ->
//   EnableCommands
//
// DisconnectAll returns only after every per-connection Session is
// destroyed, so Recover/RecoverInstant's live-session guard is
// satisfied. Replies always carry the stable LSN, so clients verify
// their acked commits survived without a second round trip.

#ifndef REDO_NET_SERVER_H_
#define REDO_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/command.h"
#include "engine/engine_options.h"
#include "engine/minidb.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace redo::net {

/// Server counters (a "net" metrics source; see RegisterMetrics).
struct NetServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_closed{0};
  std::atomic<uint64_t> connections_rejected{0};  ///< over max_connections
  std::atomic<uint64_t> frames_received{0};
  std::atomic<uint64_t> frames_corrupt{0};   ///< bad CRC / hostile length
  std::atomic<uint64_t> commands_executed{0};
  std::atomic<uint64_t> commands_rejected{0};  ///< refused while recovering
  std::atomic<uint64_t> replies_sent{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
};

class NetServer {
 public:
  /// The server serves `db` (not owned; must outlive the server or be
  /// torn down after Stop()). Options come from MiniDbOptions::net —
  /// call MiniDbOptions::Validate() first; Start() re-validates and
  /// refuses invalid configurations.
  NetServer(engine::MiniDb* db, const engine::NetOptions& options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and spawns the event loop + worker pool. The
  /// engine should already be in concurrent mode (BeginConcurrent or a
  /// completed RecoverInstant) for commands to execute; STATUS works
  /// regardless. Idempotent error if already running.
  Status Start();

  /// Closes the listener and every connection (waiting for in-flight
  /// commands), joins every thread. Safe to call twice; also called by
  /// the destructor. Must not be called from a server thread.
  void Stop();

  /// Closes every client connection and returns once every
  /// per-connection Session has been destroyed — the precondition for
  /// Recover()/RecoverInstant(). The listener stays open: clients
  /// reconnect immediately and may poll STATUS while recovery runs.
  /// Must not be called from a server thread (the event loop processes
  /// it). FailedPrecondition when the server is not running.
  Status DisconnectAll();

  /// Gate for non-STATUS commands. Disable before crashing the engine;
  /// enable once it serves again. While disabled every data command is
  /// answered kUnavailable ("engine recovering") without touching a
  /// session — the clean rejection the reconnect oracle demands.
  void EnableCommands() { commands_enabled_.store(true); }
  void DisableCommands() { commands_enabled_.store(false); }
  bool commands_enabled() const { return commands_enabled_.load(); }

  /// The actually-bound TCP port (resolves port 0 after Start()).
  uint16_t port() const { return port_.load(); }
  bool running() const { return running_.load(); }
  size_t active_connections() const { return active_connections_.load(); }
  const NetServerStats& stats() const { return stats_; }

  /// Registers the server's counters as a metrics source.
  void RegisterMetrics(obs::MetricsRegistry& registry,
                       const std::string& prefix);

 private:
  /// One queued request: either a decoded command or a pre-built error
  /// reply (malformed command in a valid frame) that only needs to be
  /// emitted in order.
  struct PendingCommand {
    uint64_t request_id = 0;
    engine::Command command;
    std::optional<engine::Reply> immediate_reply;
  };

  /// Per-connection state. `mu` guards queues, buffers, and flags;
  /// `exec_mu` spans session creation/use/destruction so teardown can
  /// wait for an in-flight command. `closed` is atomic so workers can
  /// re-check it under exec_mu without taking mu.
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    std::mutex mu;
    std::deque<PendingCommand> pending;
    std::vector<uint8_t> input;
    std::vector<uint8_t> output;
    size_t output_offset = 0;
    bool scheduled = false;
    bool want_write = false;
    bool read_paused = false;
    std::atomic<bool> closed{false};
    std::mutex exec_mu;
    std::optional<engine::MiniDb::Session> session;
  };
  using ConnectionPtr = std::shared_ptr<Connection>;

  void EventLoop();
  void WorkerLoop();

  void AcceptReady();
  void ReadReady(const ConnectionPtr& conn);
  void WriteReady(const ConnectionPtr& conn);
  /// Decodes frames/commands out of conn->input; enqueues work.
  void DrainInput(const ConnectionPtr& conn);
  /// Sends output bytes until EAGAIN; (dis)arms EPOLLOUT.
  void FlushOutput(const ConnectionPtr& conn);
  void UpdateEpollInterest(const ConnectionPtr& conn);
  /// Marks closed, closes the fd, moves the connection to dying_.
  void CloseConnection(const ConnectionPtr& conn);
  /// Destroys sessions of dying connections no worker still owns;
  /// fulfills a pending DisconnectAll once everything is reaped.
  void ReapDying();
  /// Enqueues for a worker (caller holds conn->mu via `locked` proof).
  void ScheduleLocked(const ConnectionPtr& conn);
  void WakeLoop();
  /// Runs one command on a worker thread (caller holds conn->exec_mu):
  /// session-free STATUS, recovery-gate rejection, lazy session
  /// creation, then engine::Dispatch.
  engine::Reply ExecuteCommand(const ConnectionPtr& conn,
                               const engine::Command& command);

  engine::MiniDb* db_;
  const engine::NetOptions options_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> commands_enabled_{true};
  std::atomic<uint16_t> port_{0};
  std::atomic<size_t> active_connections_{0};

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  uint64_t next_connection_id_ = 1;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  // Control requests from other threads to the event loop.
  std::mutex control_mu_;
  std::condition_variable control_cv_;
  bool stop_requested_ = false;
  bool disconnect_requested_ = false;
  bool disconnect_done_ = false;

  // Connections owned by the event loop thread (and, transiently, by
  // worker shared_ptrs).
  std::unordered_map<int, ConnectionPtr> connections_;
  std::vector<ConnectionPtr> dying_;

  // The worker pool's runnable strand queue.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<ConnectionPtr> runnable_;
  bool workers_stop_ = false;

  NetServerStats stats_;
};

}  // namespace redo::net

#endif  // REDO_NET_SERVER_H_
