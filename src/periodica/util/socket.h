#ifndef PERIODICA_UTIL_SOCKET_H_
#define PERIODICA_UTIL_SOCKET_H_

// Newline framing and Unix-domain sockets for the serving layer
// (docs/SERVING.md). Messages are one JSON document per line; the same
// framing runs over Unix sockets and TCP (util/tcp.h), so every connection,
// whatever its transport, is a UniqueFd plus these helpers.
//
// Event-loop callers keep their fds non-blocking and compose LineBuffer
// with DrainReadable / SendSome, which stop at EAGAIN instead of blocking.
// Blocking clients wrap the same LineBuffer (tools/unix_socket.h).
//
// Fault-injection site (registered in docs/ROBUSTNESS.md):
//   - "server/accept" fires before accepting a pending Unix connection.

#include <cstddef>
#include <optional>
#include <string>

#include "periodica/util/result.h"
#include "periodica/util/status.h"
#include "periodica/util/tcp.h"

namespace periodica::util {

/// Newline framing over externally fed bytes: a connection's input state.
/// `max_line` bounds a single message so a malicious or broken peer cannot
/// balloon memory; bytes arriving one at a time (short reads) frame
/// identically to one big write.
class LineBuffer {
 public:
  explicit LineBuffer(std::size_t max_line = 64u << 20)
      : max_line_(max_line) {}

  /// Appends raw bytes. Fails with IOError as soon as the unterminated tail
  /// exceeds `max_line` (complete-but-unpopped lines never trip it).
  Status Feed(const char* data, std::size_t size);

  /// Pops the next complete line (without its newline), or nullopt when no
  /// full line is buffered yet.
  std::optional<std::string> NextLine();

  /// True when a partial (unterminated) message is pending — EOF now means
  /// the peer died mid-line. Complete lines not yet popped do not count.
  [[nodiscard]] bool mid_line() const {
    return !buffer_.empty() && buffer_.back() != '\n';
  }
  [[nodiscard]] std::size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::size_t max_line_;  ///< non-const so a fresh LineBuffer can be assigned
  std::string buffer_;
  std::size_t searched_ = 0;  ///< prefix known to contain no newline
};

/// Drains everything currently readable from non-blocking `fd` into
/// `buffer`. Returns true on EOF (peer closed), false once the socket would
/// block; IOError on a read failure or an oversized line.
Result<bool> DrainReadable(int fd, LineBuffer* buffer);

/// Sends as much of `data` from `*offset` onward as non-blocking `fd`
/// accepts, advancing `*offset` past what went out (short writes leave the
/// remainder for the next writable event). Returns true when everything has
/// been sent, false when the socket filled up.
Result<bool> SendSome(int fd, const std::string& data, std::size_t* offset);

/// Binds and listens on a non-blocking Unix stream socket at `path`
/// (unlinking any stale socket file first).
Result<UniqueFd> ListenUnix(const std::string& path, int backlog = 64);

/// Accepts one pending connection from non-blocking Unix `listener_fd`; the
/// accepted socket comes back non-blocking. Returns Unavailable when no
/// connection is pending (EAGAIN). Fault site "server/accept".
Result<UniqueFd> UnixAccept(int listener_fd);

/// Blocking connect to the Unix stream socket at `path`, for one-shot
/// clients and tests.
Result<UniqueFd> ConnectUnix(const std::string& path);

}  // namespace periodica::util

#endif  // PERIODICA_UTIL_SOCKET_H_
