#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/logging.h"

namespace redo::net {
namespace {

constexpr size_t kReadChunk = 64 * 1024;

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Unavailable(std::string("fcntl O_NONBLOCK: ") +
                               std::strerror(errno));
  }
  return Status::Ok();
}

engine::Reply ErrorReply(engine::CommandType type, StatusCode code,
                         std::string message) {
  engine::Reply reply;
  reply.type = type;
  reply.code = code;
  reply.message = std::move(message);
  return reply;
}

}  // namespace

NetServer::NetServer(engine::MiniDb* db, const engine::NetOptions& options)
    : db_(db), options_(options) {
  REDO_CHECK(db_ != nullptr);
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("server already running");
  }
  {
    engine::MiniDbOptions probe;
    probe.net = options_;
    REDO_RETURN_IF_ERROR(probe.Validate());
  }

  in_addr addr_bits{};
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr_bits) != 1) {
    return Status::InvalidArgument("net.host is not an IPv4 address: " +
                                   options_.host);
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr = addr_bits;
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status =
        Status::Unavailable(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, static_cast<int>(options_.accept_backlog)) < 0) {
    const Status status =
        Status::Unavailable(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      port_.store(ntohs(bound.sin_port));
    }
  }
  REDO_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  epoll_fd_ = ::epoll_create1(0);
  event_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (epoll_fd_ < 0 || event_fd_ < 0) {
    const Status status = Status::Unavailable(
        std::string("epoll/eventfd: ") + std::strerror(errno));
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (event_fd_ >= 0) ::close(event_fd_);
    ::close(listen_fd_);
    listen_fd_ = epoll_fd_ = event_fd_ = -1;
    return status;
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  REDO_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0);
  ev.data.fd = event_fd_;
  REDO_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) == 0);

  {
    std::lock_guard<std::mutex> lock(control_mu_);
    stop_requested_ = false;
    disconnect_requested_ = false;
    disconnect_done_ = false;
  }
  workers_stop_ = false;
  stopping_.store(false);
  running_.store(true);
  loop_thread_ = std::thread([this] { EventLoop(); });
  workers_.reserve(options_.worker_threads);
  for (size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

void NetServer::Stop() {
  if (!running_.load()) return;
  // Refuse further DisconnectAll calls: one racing Stop must not block
  // on an event loop that is about to exit.
  stopping_.store(true);
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    stop_requested_ = true;
  }
  WakeLoop();
  loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();

  ::close(event_fd_);
  ::close(epoll_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  event_fd_ = epoll_fd_ = listen_fd_ = -1;
  running_.store(false);
}

Status NetServer::DisconnectAll() {
  if (!running_.load() || stopping_.load()) {
    return Status::FailedPrecondition("server not running");
  }
  std::unique_lock<std::mutex> lock(control_mu_);
  disconnect_requested_ = true;
  disconnect_done_ = false;
  WakeLoop();
  control_cv_.wait(lock, [this] { return disconnect_done_; });
  return Status::Ok();
}

void NetServer::RegisterMetrics(obs::MetricsRegistry& registry,
                                const std::string& prefix) {
  registry.Register(prefix, [this](obs::MetricEmitter& emit) {
    emit.Counter("connections_accepted", stats_.connections_accepted.load());
    emit.Counter("connections_closed", stats_.connections_closed.load());
    emit.Counter("connections_rejected", stats_.connections_rejected.load());
    emit.Counter("frames_received", stats_.frames_received.load());
    emit.Counter("frames_corrupt", stats_.frames_corrupt.load());
    emit.Counter("commands_executed", stats_.commands_executed.load());
    emit.Counter("commands_rejected", stats_.commands_rejected.load());
    emit.Counter("replies_sent", stats_.replies_sent.load());
    emit.Counter("bytes_in", stats_.bytes_in.load());
    emit.Counter("bytes_out", stats_.bytes_out.load());
    emit.Gauge("active_connections",
               static_cast<int64_t>(active_connections_.load()));
  });
}

void NetServer::WakeLoop() {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(event_fd_, &one, sizeof(one));
}

void NetServer::EventLoop() {
  std::vector<epoll_event> events(64);
  bool exiting = false;
  while (true) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), 100);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.fd == event_fd_) {
        uint64_t drained;
        while (::read(event_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;  // control flags / flush sweep handled below
      }
      if (ev.data.fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      auto it = connections_.find(ev.data.fd);
      if (it == connections_.end()) continue;
      ConnectionPtr conn = it->second;
      if (ev.events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(conn);
        continue;
      }
      if (ev.events & EPOLLIN) ReadReady(conn);
      if (!conn->closed.load() && (ev.events & EPOLLOUT)) {
        WriteReady(conn);
      }
    }

    // Sweep: flush worker-produced output, re-arm paused readers.
    for (auto it = connections_.begin(); it != connections_.end();) {
      ConnectionPtr conn = it->second;
      ++it;  // FlushOutput may close (erase) the connection
      FlushOutput(conn);
    }
    ReapDying();

    bool want_disconnect = false;
    {
      std::lock_guard<std::mutex> lock(control_mu_);
      want_disconnect = disconnect_requested_;
      if (stop_requested_) exiting = true;
    }
    if (want_disconnect || exiting) {
      // Close every client connection; once all sessions are reaped,
      // acknowledge the disconnect and/or exit.
      std::vector<ConnectionPtr> open;
      open.reserve(connections_.size());
      for (auto& [fd, conn] : connections_) open.push_back(conn);
      for (auto& conn : open) CloseConnection(conn);
      ReapDying();
      if (dying_.empty()) {
        if (want_disconnect) {
          std::lock_guard<std::mutex> lock(control_mu_);
          disconnect_requested_ = false;
          disconnect_done_ = true;
          control_cv_.notify_all();
        }
        if (exiting) break;
      }
    }
  }
}

void NetServer::AcceptReady() {
  while (true) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) break;  // EAGAIN or error: either way, done for now
    if (connections_.size() + dying_.size() >= options_.max_connections) {
      stats_.connections_rejected.fetch_add(1);
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = next_connection_id_++;
    connections_.emplace(fd, conn);
    active_connections_.store(connections_.size());
    stats_.connections_accepted.fetch_add(1);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      connections_.erase(fd);
      active_connections_.store(connections_.size());
      ::close(fd);
    }
  }
}

void NetServer::ReadReady(const ConnectionPtr& conn) {
  while (true) {
    uint8_t buf[kReadChunk];
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      stats_.bytes_in.fetch_add(static_cast<uint64_t>(n));
      conn->input.insert(conn->input.end(), buf, buf + n);
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {  // peer closed
      CloseConnection(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn);
    return;
  }
  DrainInput(conn);
}

void NetServer::DrainInput(const ConnectionPtr& conn) {
  size_t offset = 0;
  bool corrupt = false;
  while (true) {
    Frame frame;
    const FrameStatus status =
        DecodeFrame(conn->input.data(), conn->input.size(), &offset, &frame,
                    options_.max_frame_bytes);
    if (status == FrameStatus::kNeedMore) break;
    if (status == FrameStatus::kCorrupt) {
      stats_.frames_corrupt.fetch_add(1);
      corrupt = true;
      break;
    }
    stats_.frames_received.fetch_add(1);

    PendingCommand pending;
    pending.request_id = frame.request_id;
    auto decoded = engine::DecodeCommand(frame.payload);
    if (!decoded.ok()) {
      pending.immediate_reply =
          ErrorReply(engine::CommandType::kStatus, decoded.status().code(),
                     decoded.status().message());
    } else {
      pending.command = std::move(decoded).value();
      if (pending.command.type != engine::CommandType::kStatus &&
          !commands_enabled_.load()) {
        stats_.commands_rejected.fetch_add(1);
        pending.immediate_reply =
            ErrorReply(pending.command.type, StatusCode::kUnavailable,
                       "engine recovering; command rejected");
        pending.immediate_reply->stable_lsn = db_->log().stable_lsn();
      }
    }

    std::lock_guard<std::mutex> lock(conn->mu);
    // STATUS with nothing queued is answered inline by the event loop —
    // no session, no worker — so clients can poll recovery progress
    // even while every worker is busy or the engine is mid-restart.
    if (!pending.immediate_reply &&
        pending.command.type == engine::CommandType::kStatus &&
        conn->pending.empty() && !conn->scheduled) {
      Frame out;
      out.request_id = frame.request_id;
      out.payload = engine::EncodeReply(engine::DispatchStatus(*db_));
      AppendFrame(out, &conn->output);
      stats_.commands_executed.fetch_add(1);
      stats_.replies_sent.fetch_add(1);
      continue;
    }
    conn->pending.push_back(std::move(pending));
    ScheduleLocked(conn);
  }
  if (offset > 0) {
    conn->input.erase(conn->input.begin(),
                      conn->input.begin() + static_cast<long>(offset));
  }
  if (corrupt) {
    CloseConnection(conn);
    return;
  }
  FlushOutput(conn);
  UpdateEpollInterest(conn);
}

void NetServer::ScheduleLocked(const ConnectionPtr& conn) {
  if (conn->scheduled || conn->pending.empty()) return;
  conn->scheduled = true;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    runnable_.push_back(conn);
  }
  queue_cv_.notify_one();
}

void NetServer::WorkerLoop() {
  while (true) {
    ConnectionPtr conn;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return workers_stop_ || !runnable_.empty(); });
      if (workers_stop_ && runnable_.empty()) return;
      conn = std::move(runnable_.front());
      runnable_.pop_front();
    }
    // The strand: execute this connection's commands until its queue is
    // empty (or it closed), then release it. `scheduled` guarantees no
    // other worker races on the same connection.
    while (true) {
      PendingCommand pending;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->closed.load() || conn->pending.empty()) {
          conn->scheduled = false;
          break;
        }
        pending = std::move(conn->pending.front());
        conn->pending.pop_front();
      }

      engine::Reply reply;
      if (pending.immediate_reply) {
        reply = std::move(*pending.immediate_reply);
      } else {
        bool executed = false;
        {
          std::lock_guard<std::mutex> exec_lock(conn->exec_mu);
          if (!conn->closed.load()) {
            reply = ExecuteCommand(conn, pending.command);
            executed = true;
          }
        }
        if (!executed) continue;  // dying: the loop head releases the strand
        stats_.commands_executed.fetch_add(1);
      }

      Frame out;
      out.request_id = pending.request_id;
      out.payload = engine::EncodeReply(reply);
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->closed.load()) {
          AppendFrame(out, &conn->output);
          stats_.replies_sent.fetch_add(1);
        }
      }
    }
    WakeLoop();  // flush output / re-arm reads / reap
  }
}

engine::Reply NetServer::ExecuteCommand(const ConnectionPtr& conn,
                                        const engine::Command& command) {
  // Caller holds exec_mu.
  if (command.type == engine::CommandType::kStatus) {
    return engine::DispatchStatus(*db_);
  }
  if (!commands_enabled_.load()) {
    stats_.commands_rejected.fetch_add(1);
    engine::Reply reply = ErrorReply(command.type, StatusCode::kUnavailable,
                                     "engine recovering; command rejected");
    reply.stable_lsn = db_->log().stable_lsn();
    return reply;
  }
  if (!conn->session) {
    if (!db_->concurrent()) {
      engine::Reply reply =
          ErrorReply(command.type, StatusCode::kUnavailable,
                     "engine not serving concurrent sessions");
      reply.stable_lsn = db_->log().stable_lsn();
      return reply;
    }
    conn->session.emplace(db_->NewSession());
  }
  return engine::Dispatch(*conn->session, command);
}

void NetServer::WriteReady(const ConnectionPtr& conn) { FlushOutput(conn); }

void NetServer::FlushOutput(const ConnectionPtr& conn) {
  if (conn->closed.load()) return;
  bool fatal = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    while (conn->output_offset < conn->output.size()) {
      const ssize_t n =
          ::write(conn->fd, conn->output.data() + conn->output_offset,
                  conn->output.size() - conn->output_offset);
      if (n > 0) {
        stats_.bytes_out.fetch_add(static_cast<uint64_t>(n));
        conn->output_offset += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      fatal = true;
      break;
    }
    if (conn->output_offset == conn->output.size()) {
      conn->output.clear();
      conn->output_offset = 0;
    }
  }
  if (fatal) {
    CloseConnection(conn);
    return;
  }
  UpdateEpollInterest(conn);
}

void NetServer::UpdateEpollInterest(const ConnectionPtr& conn) {
  if (conn->closed.load()) return;
  bool want_write = false;
  bool pause_read = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    want_write = conn->output_offset < conn->output.size();
    pause_read = conn->pending.size() >= options_.pipeline_depth;
    if (conn->want_write == want_write && conn->read_paused == pause_read) {
      return;
    }
    conn->want_write = want_write;
    conn->read_paused = pause_read;
  }
  epoll_event ev{};
  ev.events = (pause_read ? 0u : EPOLLIN) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void NetServer::CloseConnection(const ConnectionPtr& conn) {
  if (conn->closed.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->pending.clear();
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  connections_.erase(conn->fd);
  active_connections_.store(connections_.size());
  stats_.connections_closed.fetch_add(1);
  dying_.push_back(conn);
}

void NetServer::ReapDying() {
  for (auto it = dying_.begin(); it != dying_.end();) {
    ConnectionPtr& conn = *it;
    bool busy;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      busy = conn->scheduled;
    }
    if (busy) {
      ++it;
      continue;
    }
    // No worker owns the strand and `closed` stops any future
    // scheduling, so the session can be destroyed without contention.
    {
      std::lock_guard<std::mutex> exec_lock(conn->exec_mu);
      conn->session.reset();
    }
    it = dying_.erase(it);
  }
}

}  // namespace redo::net
