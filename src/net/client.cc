#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

namespace redo::net {

NetClient::NetClient(NetClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_request_id_(other.next_request_id_),
      in_flight_(other.in_flight_),
      input_(std::move(other.input_)),
      input_offset_(other.input_offset_),
      max_frame_bytes_(other.max_frame_bytes_) {}

NetClient& NetClient::operator=(NetClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    next_request_id_ = other.next_request_id_;
    in_flight_ = other.in_flight_;
    input_ = std::move(other.input_);
    input_offset_ = other.input_offset_;
    max_frame_bytes_ = other.max_frame_bytes_;
  }
  return *this;
}

Status NetClient::Connect(const std::string& host, uint16_t port) {
  Close();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status =
        Status::Unavailable(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  in_flight_ = 0;
  input_.clear();
  input_offset_ = 0;
  return Status::Ok();
}

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  in_flight_ = 0;
  input_.clear();
  input_offset_ = 0;
}

Result<uint64_t> NetClient::SendCommand(const engine::Command& command) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  Frame frame;
  frame.request_id = next_request_id_++;
  frame.payload = engine::EncodeCommand(command);
  const std::vector<uint8_t> bytes = EncodeFrame(frame);
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Close();
    return Status::Unavailable(std::string("send: ") + std::strerror(errno));
  }
  ++in_flight_;
  return frame.request_id;
}

Status NetClient::FillBuffer() {
  uint8_t buf[16 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      input_.insert(input_.end(), buf, buf + n);
      return Status::Ok();
    }
    if (n == 0) {
      Close();
      return Status::Unavailable("server closed the connection");
    }
    if (errno == EINTR) continue;
    const Status status =
        Status::Unavailable(std::string("recv: ") + std::strerror(errno));
    Close();
    return status;
  }
}

Result<engine::Reply> NetClient::ReceiveReply(uint64_t* request_id) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  while (true) {
    Frame frame;
    const FrameStatus status =
        DecodeFrame(input_.data(), input_.size(), &input_offset_, &frame,
                    max_frame_bytes_);
    if (status == FrameStatus::kOk) {
      if (input_offset_ == input_.size()) {
        input_.clear();
        input_offset_ = 0;
      }
      if (in_flight_ > 0) --in_flight_;
      if (request_id != nullptr) *request_id = frame.request_id;
      return engine::DecodeReply(frame.payload);
    }
    if (status == FrameStatus::kCorrupt) {
      Close();
      return Status::Corruption("corrupt reply frame");
    }
    REDO_RETURN_IF_ERROR(FillBuffer());
  }
}

Result<engine::Reply> NetClient::Call(const engine::Command& command) {
  auto sent = SendCommand(command);
  if (!sent.ok()) return sent.status();
  uint64_t got_id = 0;
  auto reply = ReceiveReply(&got_id);
  if (!reply.ok()) return reply;
  if (got_id != sent.value()) {
    Close();
    return Status::Corruption("reply id does not match request id");
  }
  return reply;
}

Result<engine::Reply> NetClient::AwaitServing(const std::string& host,
                                              uint16_t port,
                                              int deadline_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  Status last = Status::Unavailable("never polled");
  while (std::chrono::steady_clock::now() < deadline) {
    if (fd_ < 0) {
      last = Connect(host, port);
      if (!last.ok()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
    }
    auto reply = Call(engine::MakeStatusCommand());
    if (!reply.ok()) {
      last = reply.status();  // dropped mid-poll: reconnect and retry
      continue;
    }
    // "Serving" = the engine accepts concurrent sessions. During an
    // instant restart that flips on at kServing, while the redo chains
    // are still draining; on a plain BeginConcurrent there is no
    // recovery phase at all, concurrent is simply true.
    if (reply.value().ok() && reply.value().status.concurrent) {
      return reply;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // `last` tracks the most recent *transport* failure; when the
  // transport was fine but the engine never started serving, it is OK
  // and must not leak into a value-less Result.
  if (last.ok()) {
    return Status::Unavailable("AwaitServing: deadline expired before the "
                               "engine began serving sessions");
  }
  return last;
}

}  // namespace redo::net
