// A blocking TCP client for the command-layer wire protocol.
//
// Deliberately simple: one socket, synchronous sends and receives, no
// background threads. Pipelining is explicit — Send() queues a request
// and returns its id, Receive() blocks for the next reply in order —
// so the load harness controls exactly how many requests are in flight
// and can time each one. Call() is the one-shot convenience
// (Send + receive-until-matching-id).
//
// The client is also the reconnect oracle's instrument: after a server
// crash cycle it reconnects with retry (the listener stays up through
// recovery) and polls STATUS until the engine reports kServing, which
// is how the harness measures client-visible time-to-first-command.

#ifndef REDO_NET_CLIENT_H_
#define REDO_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/command.h"
#include "net/wire.h"
#include "util/status.h"

namespace redo::net {

class NetClient {
 public:
  NetClient() = default;
  ~NetClient() { Close(); }

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;
  NetClient(NetClient&& other) noexcept;
  NetClient& operator=(NetClient&& other) noexcept;

  /// Connects to host:port (IPv4 dotted quad). Unavailable on refusal.
  Status Connect(const std::string& host, uint16_t port);

  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Queues one command; returns the request id to match the reply
  /// against. The write is synchronous (blocking socket).
  Result<uint64_t> SendCommand(const engine::Command& command);

  /// Blocks for the next reply frame (replies arrive in request order
  /// per connection). `request_id` receives the echoed id. Unavailable
  /// on EOF (server disconnected us), Corruption on a bad frame.
  Result<engine::Reply> ReceiveReply(uint64_t* request_id);

  /// Send + receive one reply; checks the id matches.
  Result<engine::Reply> Call(const engine::Command& command);

  /// Polls STATUS until the engine reports a phase >= kServing (i.e.
  /// commands can run) or `deadline_ms` elapses. Reconnects (with
  /// retry) if the connection drops mid-poll. Returns the final status
  /// reply.
  Result<engine::Reply> AwaitServing(const std::string& host, uint16_t port,
                                     int deadline_ms);

  /// Requests in flight (sent, reply not yet received).
  size_t in_flight() const { return in_flight_; }

 private:
  Status FillBuffer();  ///< blocking read of at least one more byte

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  size_t in_flight_ = 0;
  std::vector<uint8_t> input_;
  size_t input_offset_ = 0;
  size_t max_frame_bytes_ = 1 << 24;
};

}  // namespace redo::net

#endif  // REDO_NET_CLIENT_H_
