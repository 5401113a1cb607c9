#ifndef PERIODICA_TOOLS_UNIX_SOCKET_H_
#define PERIODICA_TOOLS_UNIX_SOCKET_H_

// Blocking client helpers shared by periodica_client, the load generator
// and the end-to-end tests: newline-delimited messages (one JSON document
// per line, docs/SERVING.md) over the framing in util/socket.h, retrying
// EINTR and short reads/writes internally. All functions return Status
// instead of throwing, matching the library idiom.

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <string>

#include "periodica/util/result.h"
#include "periodica/util/socket.h"
#include "periodica/util/status.h"
#include "periodica/util/tcp.h"

namespace periodica::tools {

/// An owned file descriptor (closes on destruction; movable).
using FdHandle = util::UniqueFd;

using util::ConnectUnix;

/// Writes `line` plus a trailing newline, retrying on EINTR and partial
/// writes.
inline Status SendLine(int fd, const std::string& line) {
  std::string wire = line;
  wire.push_back('\n');
  std::size_t sent = 0;
  while (sent < wire.size()) {
    // lint: blocking(send): blocking helper for one-shot clients and tests
    const ssize_t wrote = ::send(fd, wire.data() + sent, wire.size() - sent,
                                 MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("send(): " + std::string(std::strerror(errno)));
    }
    sent += static_cast<std::size_t>(wrote);
  }
  return Status::OK();
}

/// Buffered newline-framed blocking reader for one connection (LineBuffer
/// over blocking recv).
class LineReader {
 public:
  explicit LineReader(int fd, std::size_t max_line = 64u << 20)
      : fd_(fd), buffer_(max_line) {}

  /// Reads the next line (without the newline). NotFound signals clean EOF
  /// before any partial line; IOError a read failure or an oversized line.
  Result<std::string> Next() {
    while (true) {
      if (std::optional<std::string> line = buffer_.NextLine()) {
        return *std::move(line);
      }
      char chunk[4096];
      // lint: blocking(recv): blocking reader for one-shot clients and tests
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("recv(): " +
                               std::string(std::strerror(errno)));
      }
      if (got == 0) {
        if (buffer_.mid_line()) {
          return Status::IOError("connection closed mid-line");
        }
        return Status::NotFound("end of stream");
      }
      PERIODICA_RETURN_NOT_OK(
          buffer_.Feed(chunk, static_cast<std::size_t>(got)));
    }
  }

 private:
  int fd_;
  util::LineBuffer buffer_;
};

/// Dials whichever transport the flags selected: a non-empty `tcp_spec`
/// ("host:port") wins, otherwise the Unix socket at `socket_path`. Shared
/// by periodica_client and periodica_load so both speak to single daemons,
/// TCP shards and the router with the same flag surface.
inline Result<FdHandle> DialServer(const std::string& socket_path,
                                   const std::string& tcp_spec) {
  if (!tcp_spec.empty()) {
    PERIODICA_ASSIGN_OR_RETURN(const util::TcpEndpoint endpoint,
                               util::ParseHostPort(tcp_spec));
    return util::TcpConnectBlocking(endpoint.host, endpoint.port);
  }
  return ConnectUnix(socket_path);
}

}  // namespace periodica::tools

#endif  // PERIODICA_TOOLS_UNIX_SOCKET_H_
