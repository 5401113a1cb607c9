#include "periodica/util/socket.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "periodica/util/fault_injector.h"

namespace periodica::util {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::string(std::strerror(errno)));
}

Status FillSockAddr(const std::string& path, sockaddr_un* addr) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument("socket path empty or too long: " + path);
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::OK();
}

}  // namespace

Status LineBuffer::Feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
  if (buffer_.find('\n', searched_) == std::string::npos) {
    // No newline anywhere: remember that so the next Feed/NextLine only
    // scans fresh bytes (keeps pathological long lines O(n), not O(n^2)).
    searched_ = buffer_.size();
    if (buffer_.size() > max_line_) {
      return Status::IOError("line exceeds " + std::to_string(max_line_) +
                             " bytes");
    }
  }
  return Status::OK();
}

std::optional<std::string> LineBuffer::NextLine() {
  const std::size_t newline = buffer_.find('\n', searched_);
  if (newline == std::string::npos) {
    searched_ = buffer_.size();
    return std::nullopt;
  }
  std::string line = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  searched_ = 0;
  return line;
}

Result<bool> DrainReadable(int fd, LineBuffer* buffer) {
  while (true) {
    char chunk[16384];
    // lint: blocking(recv): fd is non-blocking — stops at EAGAIN
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      return Errno("recv()");
    }
    if (got == 0) return true;
    PERIODICA_RETURN_NOT_OK(buffer->Feed(chunk, static_cast<std::size_t>(got)));
  }
}

Result<bool> SendSome(int fd, const std::string& data, std::size_t* offset) {
  while (*offset < data.size()) {
    // lint: blocking(send): fd is non-blocking — stops at EAGAIN
    const ssize_t wrote = ::send(fd, data.data() + *offset,
                                 data.size() - *offset, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      return Errno("send()");
    }
    *offset += static_cast<std::size_t>(wrote);
  }
  return true;
}

Result<UniqueFd> ListenUnix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  PERIODICA_RETURN_NOT_OK(FillSockAddr(path, &addr));
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Errno("socket()");
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind(" + path + ")");
  }
  if (::listen(fd.get(), backlog) != 0) return Errno("listen(" + path + ")");
  PERIODICA_RETURN_NOT_OK(SetNonBlocking(fd.get()));
  return fd;
}

Result<UniqueFd> UnixAccept(int listener_fd) {
  PERIODICA_RETURN_NOT_OK(FaultInjector::Check("server/accept"));
  while (true) {
    // lint: blocking(accept): the listener is non-blocking — stops at EAGAIN
    const int fd = ::accept4(listener_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) return UniqueFd(fd);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Unavailable("no pending connection");
    }
    return Errno("accept4()");
  }
}

Result<UniqueFd> ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  PERIODICA_RETURN_NOT_OK(FillSockAddr(path, &addr));
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Errno("socket()");
  // lint: blocking(connect): one-shot client dial — no event loop here
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Errno("connect(" + path + ")");
  }
  return fd;
}

}  // namespace periodica::util
