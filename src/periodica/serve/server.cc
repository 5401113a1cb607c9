#include "periodica/serve/server.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>

#include "periodica/util/fault_injector.h"

namespace periodica::serve {

namespace {

/// Set by SIGTERM/SIGINT (or RequestShutdown); the loop is woken through
/// g_wake_pipe.
///
/// Ordering: relaxed. A one-way level-triggered flag: loops that read it a
/// beat late run one extra iteration and then exit, which shutdown
/// tolerates by construction (drain waits for the queue and joins every
/// thread). No data is published through this flag — and a signal handler
/// could not establish a happens-before edge anyway.
std::atomic<bool> g_shutdown{false};
int g_wake_pipe[2] = {-1, -1};

}  // namespace

Server::Server(util::EventLoop* loop, Options options)
    : loop_(loop), options_(std::move(options)) {}

bool Server::ShutdownRequested() {
  return g_shutdown.load(std::memory_order_relaxed);
}

void Server::RequestShutdown() {
  g_shutdown.store(true, std::memory_order_relaxed);
  if (g_wake_pipe[1] < 0) return;
  // write(2) is async-signal-safe; a full pipe already holds a wakeup.
  const char byte = 'x';
  [[maybe_unused]] const ssize_t ignored = ::write(g_wake_pipe[1], &byte, 1);
}

Status Server::WatchShutdownSignals() {
  if (g_wake_pipe[0] < 0 &&
      ::pipe2(g_wake_pipe, O_NONBLOCK | O_CLOEXEC) != 0) {
    return Status::IOError("pipe2(): " + std::string(std::strerror(errno)));
  }
  struct sigaction action = {};
  action.sa_handler = [](int /*signo*/) { RequestShutdown(); };
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
  util::EventLoop::Handler handler;
  handler.on_readable = [this] {
    char drain[256];
    while (::read(g_wake_pipe[0], drain, sizeof(drain)) > 0) {
    }
    if (ShutdownRequested()) options_.on_shutdown();
  };
  return loop_->Add(g_wake_pipe[0], /*want_read=*/true, /*want_write=*/false,
                    std::move(handler));
}

Status Server::Start() {
  if (options_.on_shutdown) PERIODICA_RETURN_NOT_OK(WatchShutdownSignals());
  if (!options_.unix_path.empty()) {
    PERIODICA_ASSIGN_OR_RETURN(unix_listener_,
                               util::ListenUnix(options_.unix_path));
    PERIODICA_RETURN_NOT_OK(AddListener(unix_listener_.get(), /*tcp=*/false));
  }
  if (options_.tcp_port >= 0) {
    std::uint16_t bound_port = 0;
    PERIODICA_ASSIGN_OR_RETURN(
        tcp_listener_,
        util::TcpListen(options_.tcp_host,
                        static_cast<std::uint16_t>(options_.tcp_port),
                        /*backlog=*/64, &bound_port));
    PERIODICA_RETURN_NOT_OK(AddListener(tcp_listener_.get(), /*tcp=*/true));
    // Machine-readable: the soak, the tests and the benchmark listen on port
    // 0 and scrape the actual port from this line.
    std::fprintf(stderr, "%s: tcp listening on %s:%u\n",
                 options_.name.c_str(), options_.tcp_host.c_str(),
                 static_cast<unsigned>(bound_port));
  }
  return Status::OK();
}

Status Server::AddListener(int fd, bool tcp) {
  util::EventLoop::Handler handler;
  handler.on_readable = [this, tcp] { OnAcceptable(tcp); };
  return loop_->Add(fd, /*want_read=*/true, /*want_write=*/false,
                    std::move(handler));
}

void Server::StopAccepting() {
  if (!accepting_) return;
  accepting_ = false;
  for (util::UniqueFd* listener : {&unix_listener_, &tcp_listener_}) {
    if (!listener->valid()) continue;
    loop_->Remove(listener->get());
    listener->Close();
  }
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

void Server::OnAcceptable(bool tcp) {
  const int listener = tcp ? tcp_listener_.get() : unix_listener_.get();
  while (true) {
    Result<util::UniqueFd> accepted =
        tcp ? util::TcpAccept(listener) : util::UnixAccept(listener);
    if (accepted.ok()) {
      Register(std::move(accepted.value()), tcp);
      continue;
    }
    if (accepted.status().IsUnavailable()) return;  // backlog drained
    // Injected or transient failure: take and drop one pending connection,
    // as a failed accept(2) would. The client sees a reset and retries; with
    // nothing left to drop, a repeat-armed fault cannot spin the loop.
    const int dropped = ::accept(listener, nullptr, nullptr);
    if (dropped < 0) return;
    ::close(dropped);
  }
}

void Server::Register(util::UniqueFd fd, bool tcp) {
  const ConnectionPtr conn(
      new Connection(std::move(fd), options_.max_line_bytes, tcp));
  util::EventLoop::Handler handler;
  handler.on_readable = [this, conn] { OnReadable(conn); };
  handler.on_writable = [this, conn] {
    if (!conn->closed_) Flush(conn);
  };
  const int raw = conn->fd_.get();
  if (!loop_->Add(raw, /*want_read=*/true, /*want_write=*/false,
                  std::move(handler))
           .ok()) {
    return;  // conn (and its fd) die here
  }
  connections_.emplace(raw, conn);
}

void Server::OnReadable(const ConnectionPtr& conn) {
  if (conn->closed_) return;
  if (Status injected = util::FaultInjector::Check(conn->tcp_ ? "tcp/read"
                                                              : "server/read");
      !injected.ok()) {
    // An injected read failure behaves like a broken peer: the client sees
    // EOF and retries; no partial state leaks.
    Close(conn);
    return;
  }
  const Result<bool> eof = util::DrainReadable(conn->fd_.get(), &conn->in_);
  if (!eof.ok()) {
    Close(conn);  // read error, or a line over the cap
    return;
  }
  if (eof.value()) {
    if (conn->in_.mid_line()) {
      Close(conn);  // peer died mid-request
      return;
    }
    conn->saw_eof_ = true;
    // Drop read interest: a level-triggered EOF reports readable forever.
    (void)loop_->SetInterest(conn->fd_.get(), /*want_read=*/false,
                             /*want_write=*/!conn->out_.empty());
  }
  ProcessLines(conn);
}

void Server::ProcessLines(const ConnectionPtr& conn) {
  // Serial per connection: pull the next buffered request only when the
  // previous reply is fully out. After StopAccepting, buffered-but-unparsed
  // requests are dropped.
  while (!conn->busy_ && !conn->closed_ && accepting_) {
    const std::optional<std::string> line = conn->in_.NextLine();
    if (!line.has_value()) break;
    if (line->empty()) continue;
    conn->busy_ = true;
    conn->dispatching_ = true;
    options_.on_line(conn, *line);
    conn->dispatching_ = false;
  }
  if (!conn->closed_ && conn->saw_eof_ && !conn->busy_ &&
      conn->out_.empty() && !conn->in_.mid_line()) {
    Close(conn);
  }
}

void Server::Reply(const ConnectionPtr& conn, const std::string& line) {
  if (conn->closed_) return;
  if (Status injected = util::FaultInjector::Check(conn->tcp_ ? "tcp/write"
                                                              : "server/write");
      !injected.ok()) {
    Close(conn);
    return;
  }
  conn->out_ += line;
  conn->out_.push_back('\n');
  Flush(conn);
}

void Server::Flush(const ConnectionPtr& conn) {
  const Result<bool> sent =
      util::SendSome(conn->fd_.get(), conn->out_, &conn->out_offset_);
  if (!sent.ok()) {
    Close(conn);
    return;
  }
  if (!sent.value()) {
    // Short write: the kernel buffer is full. Wait for writability; reading
    // stays paused (the connection is serial anyway) so a slow consumer
    // exerts backpressure instead of growing `out_` without bound.
    (void)loop_->SetInterest(conn->fd_.get(), /*want_read=*/false,
                             /*want_write=*/true);
    return;
  }
  conn->out_.clear();
  conn->out_offset_ = 0;
  conn->busy_ = false;
  (void)loop_->SetInterest(conn->fd_.get(), /*want_read=*/!conn->saw_eof_,
                           /*want_write=*/false);
  MaybeFlushed();
  // A reply made inside on_line returns to ProcessLines' loop; a deferred
  // one pulls the next pipelined request from here.
  if (!conn->dispatching_) ProcessLines(conn);
}

void Server::Close(const ConnectionPtr& conn) {
  if (conn->closed_) return;
  conn->closed_ = true;
  loop_->Remove(conn->fd_.get());
  connections_.erase(conn->fd_.get());
  conn->fd_.Close();
  if (options_.on_close) options_.on_close(conn);
  MaybeFlushed();
}

void Server::WhenFlushed(std::function<void()> done) {
  when_flushed_ = std::move(done);
  MaybeFlushed();
}

void Server::MaybeFlushed() {
  if (!when_flushed_) return;
  for (const auto& [fd, conn] : connections_) {
    if (!conn->out_.empty()) return;  // a reply is still flushing
  }
  const std::function<void()> done = std::move(when_flushed_);
  when_flushed_ = nullptr;
  done();
}

// --- Wire protocol helpers --------------------------------------------------

util::JsonValue ErrorResponse(const std::string& code,
                              const std::string& message) {
  util::JsonValue::Object error;
  error["code"] = code;
  error["message"] = message;
  util::JsonValue::Object response;
  response["ok"] = false;
  response["error"] = util::JsonValue(std::move(error));
  return util::JsonValue(std::move(response));
}

util::JsonValue OkResponse(util::JsonValue::Object result) {
  util::JsonValue::Object response;
  response["ok"] = true;
  response["result"] = util::JsonValue(std::move(result));
  return util::JsonValue(std::move(response));
}

std::string RequestTenant(const util::JsonValue& params) {
  std::string tenant = params.GetString("tenant", "default");
  return tenant.empty() ? "default" : tenant;
}

}  // namespace periodica::serve
