#ifndef PERIODICA_SERVE_SERVER_H_
#define PERIODICA_SERVE_SERVER_H_

// The serving core shared by periodicad and periodica_router
// (docs/SERVING.md): the Unix and TCP listeners, the accept loop, the
// per-connection state machine and the SIGTERM hook, driven by one
// util::EventLoop. A binary supplies what to do with a request line
// (Options::on_line) and answers it with Reply(); everything between the
// socket and that line is here, so both binaries frame, pipeline, apply
// backpressure and inject faults identically.
//
// Per connection:
//   - input is newline-framed and capped at Options::max_line_bytes; an
//     unterminated tail past the cap, a read error, or EOF in the middle
//     of a line closes the connection without dispatching;
//   - requests are serial: the next pipelined line is dispatched only once
//     the previous request's reply has been fully written, whether the
//     reply came from inside on_line or later (e.g. a job completion
//     posted back to the loop);
//   - a short write parks the rest of the reply and swaps read interest
//     for write interest, so a slow reader exerts backpressure instead of
//     growing the buffer;
//   - after the peer half-closes, the backlog is still answered, then the
//     connection closes.
//
// Fault-injection sites (registered in docs/ROBUSTNESS.md): "server/accept"
// and "tcp/accept" (util/socket.h, util/tcp.h) drop one pending
// connection; "server/read"/"tcp/read" and "server/write"/"tcp/write" fire
// on a Unix/TCP connection's read and reply edges and close it.
//
// Loop-confined: every method runs on the loop thread (callers hop there
// with EventLoop::Post), except the two static shutdown functions.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "periodica/util/event_loop.h"
#include "periodica/util/json.h"
#include "periodica/util/socket.h"
#include "periodica/util/status.h"
#include "periodica/util/tcp.h"

namespace periodica::serve {

/// One client connection. Its state belongs to the Server; a handler only
/// keeps the pointer (weakly, across threads) to Reply later.
class Connection {
 public:
  /// True once the server closed the connection (peer gone, I/O failure,
  /// injected fault); a reply to it is dropped.
  [[nodiscard]] bool closed() const { return closed_; }

 private:
  friend class Server;
  Connection(util::UniqueFd fd, std::size_t max_line, bool tcp)
      : fd_(std::move(fd)), in_(max_line), tcp_(tcp) {}

  util::UniqueFd fd_;
  util::LineBuffer in_;
  const bool tcp_;              ///< tcp/* fault sites instead of server/*
  std::string out_;             ///< undelivered reply bytes
  std::size_t out_offset_ = 0;  ///< prefix of `out_` already sent
  bool busy_ = false;           ///< a dispatched request awaits its reply
  bool dispatching_ = false;    ///< inside on_line for this connection
  bool saw_eof_ = false;        ///< peer half-closed: answer, then close
  bool closed_ = false;
};

using ConnectionPtr = std::shared_ptr<Connection>;

class Server {
 public:
  struct Options {
    /// Prefix of the server's stderr lines, e.g. "periodicad".
    std::string name;
    /// Unix socket to serve on ("" = none); unlinked by StopAccepting.
    std::string unix_path;
    std::string tcp_host = "127.0.0.1";
    /// TCP port to serve on: -1 = none, 0 = kernel-picked. The bound port
    /// is printed as "<name>: tcp listening on <host>:<port>".
    std::int64_t tcp_port = -1;
    std::size_t max_line_bytes = 64u << 20;
    /// One complete, non-empty request line. The connection stays busy
    /// until Reply() is called for it, now or later.
    std::function<void(const ConnectionPtr&, const std::string&)> on_line;
    /// Runs once per connection, right after the server closed it.
    std::function<void(const ConnectionPtr&)> on_close;
    /// SIGTERM/SIGINT arrived (runs on the loop thread). When set, Start()
    /// installs the signal handlers and ignores SIGPIPE.
    std::function<void()> on_shutdown;
  };

  /// `loop` must outlive the server.
  Server(util::EventLoop* loop, Options options);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured listeners and registers them with the loop.
  Status Start();

  /// Sends `line` plus a newline as the reply to the connection's current
  /// request; afterwards its next pipelined line is dispatched. Dropped if
  /// the connection is already closed.
  void Reply(const ConnectionPtr& conn, const std::string& line);

  /// Closes the listeners (unlinking the Unix socket) and stops
  /// dispatching request lines; replies to dispatched requests still flush.
  void StopAccepting();

  /// Runs `done` once no connection has reply bytes left to write — now,
  /// or after the write or close that empties the last buffer.
  void WhenFlushed(std::function<void()> done);

  [[nodiscard]] std::size_t num_connections() const {
    return connections_.size();
  }

  /// True once SIGTERM/SIGINT arrived or RequestShutdown() ran. Any thread.
  static bool ShutdownRequested();
  /// Does what SIGTERM does: sets the flag and wakes the loop of a server
  /// with on_shutdown. Async-signal-safe; any thread.
  static void RequestShutdown();

 private:
  Status WatchShutdownSignals();
  Status AddListener(int fd, bool tcp);
  void OnAcceptable(bool tcp);
  void Register(util::UniqueFd fd, bool tcp);
  void OnReadable(const ConnectionPtr& conn);
  void ProcessLines(const ConnectionPtr& conn);
  void Flush(const ConnectionPtr& conn);
  void Close(const ConnectionPtr& conn);
  void MaybeFlushed();

  util::EventLoop* const loop_;
  const Options options_;
  util::UniqueFd unix_listener_;
  util::UniqueFd tcp_listener_;
  std::map<int, ConnectionPtr> connections_;  ///< open connections by fd
  bool accepting_ = true;
  std::function<void()> when_flushed_;
};

// --- Wire protocol helpers shared by both binaries --------------------------

/// {"ok":false,"error":{"code":...,"message":...}}.
util::JsonValue ErrorResponse(const std::string& code,
                              const std::string& message);

/// {"ok":true,"result":...}.
util::JsonValue OkResponse(util::JsonValue::Object result);

/// The tenant a request acts for: params.tenant, defaulting to the shared
/// "default" tenant (whose checkpoint paths keep the pre-tenant layout).
/// The router's routing key and the shard's checkpoint key both derive from
/// it, so they always agree.
std::string RequestTenant(const util::JsonValue& params);

}  // namespace periodica::serve

#endif  // PERIODICA_SERVE_SERVER_H_
