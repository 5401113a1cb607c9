#ifndef PERIODICA_UTIL_TCP_H_
#define PERIODICA_UTIL_TCP_H_

// TCP transport helpers for the multi-node serving layer (docs/SERVING.md).
// The wire protocol is transport-agnostic (newline-delimited JSON), so these
// helpers only open and supervise sockets; framing is the LineBuffer /
// DrainReadable / SendSome trio in util/socket.h, shared with Unix sockets.
//
// Two connect shapes:
//   - TcpConnectStart/TcpConnectFinish for event-loop callers: the socket is
//     non-blocking from birth, the in-progress connect completes as a
//     writability event, and SO_ERROR is harvested on that event;
//   - TcpConnectBlocking for one-shot clients and tests.
//
// Fault-injection sites (registered in docs/ROBUSTNESS.md):
//   - "tcp/accept"  fires before accepting a pending connection;
//   - "tcp/connect" fires before initiating any outbound connect.
// The read/write sites "tcp/read" / "tcp/write" live on the connection I/O
// edges of serve::Server (serve/server.h) and the router's upstreams,
// mirroring "server/read" / "server/write".

#include <cstdint>
#include <string>

#include "periodica/util/result.h"
#include "periodica/util/status.h"

namespace periodica::util {

/// An owned file descriptor (closes on destruction; movable). Shared by the
/// TCP helpers here and the Unix-socket helpers in util/socket.h.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Close(); }
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  /// Relinquishes ownership without closing.
  [[nodiscard]] int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Close() {
    if (fd_ >= 0) {
      DoClose(fd_);
      fd_ = -1;
    }
  }

 private:
  static void DoClose(int fd);

  int fd_ = -1;
};

/// A parsed "host:port" endpoint. `host` is numeric IPv4 or a resolvable
/// name ("localhost"); port 0 asks the kernel for an ephemeral port when
/// listening.
struct TcpEndpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "host:port" (the last ':' splits, so numeric-only specs fail
/// loudly instead of binding surprising defaults).
Result<TcpEndpoint> ParseHostPort(const std::string& spec);

/// Switches `fd` to non-blocking mode.
Status SetNonBlocking(int fd);

/// Binds and listens on `host:port` (SO_REUSEADDR, non-blocking,
/// TCP_NODELAY inherited by accepted sockets on Linux). When `port` is 0
/// the kernel picks a free port; `*bound_port` always receives the actual
/// listening port so callers can advertise it.
Result<UniqueFd> TcpListen(const std::string& host, std::uint16_t port,
                           int backlog, std::uint16_t* bound_port);

/// Accepts one pending connection from non-blocking `listener_fd`. The
/// accepted socket comes back non-blocking with TCP_NODELAY set. Returns
/// Unavailable when no connection is pending (EAGAIN) — the event-loop
/// accept drain treats that as "stop for now". Fault site "tcp/accept".
Result<UniqueFd> TcpAccept(int listener_fd);

/// Begins a non-blocking connect to `host:port`. On return the socket is
/// either already connected (`*connected` = true, loopback fast path) or
/// connecting (`*connected` = false): register write interest and call
/// TcpConnectFinish on the writability event. Fault site "tcp/connect".
Result<UniqueFd> TcpConnectStart(const std::string& host, std::uint16_t port,
                                 bool* connected);

/// Harvests the result of an in-progress connect after the socket reported
/// writable: OK when the connection is established, IOError with the
/// SO_ERROR text when it failed.
Status TcpConnectFinish(int fd);

/// Blocking connect for one-shot clients and tests; the returned socket is
/// left in blocking mode with TCP_NODELAY set. Fault site "tcp/connect".
Result<UniqueFd> TcpConnectBlocking(const std::string& host,
                                    std::uint16_t port);

}  // namespace periodica::util

#endif  // PERIODICA_UTIL_TCP_H_
