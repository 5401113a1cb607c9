// In-process tests for serve::Server, the serving core behind periodicad and
// periodica_router: an echo handler on a real Unix socket, driven by
// blocking clients, checks pipelining order with deferred replies, mid-line
// EOF, the line cap, half-close and the on-close callback.

#include "periodica/serve/server.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../tools/unix_socket.h"
#include "periodica/util/event_loop.h"

namespace periodica::serve {
namespace {

/// A Server on its own loop thread whose handler echoes each line back,
/// deferring the reply through EventLoop::Post the way a job completion
/// does. The recorded counters are loop-confined: read them after Stop().
class EchoServer {
 public:
  explicit EchoServer(std::size_t max_line_bytes = 1u << 20) {
    static std::atomic<int> counter{0};
    dir_ = std::filesystem::temp_directory_path() /
           ("periodica_server_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "s.sock").string();

    Result<std::unique_ptr<util::EventLoop>> loop = util::EventLoop::Create();
    EXPECT_TRUE(loop.ok()) << loop.status().ToString();
    loop_ = std::move(loop.value());
    Server::Options options;
    options.name = "server_test";
    options.unix_path = path_;
    options.max_line_bytes = max_line_bytes;
    options.on_line = [this](const ConnectionPtr& conn,
                             const std::string& line) {
      lines_.push_back(line);
      max_outstanding_ = std::max(max_outstanding_, ++outstanding_);
      loop_->Post([this, conn, line] {
        --outstanding_;
        server_->Reply(conn, "echo " + line);
      });
    };
    options.on_close = [this](const ConnectionPtr& conn) {
      EXPECT_TRUE(conn->closed());
      ++closes_;
    };
    server_ = std::make_unique<Server>(loop_.get(), std::move(options));
    EXPECT_TRUE(server_->Start().ok());
    thread_ = std::thread([this] { EXPECT_TRUE(loop_->Run().ok()); });
  }

  ~EchoServer() {
    Stop();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  EchoServer(const EchoServer&) = delete;
  EchoServer& operator=(const EchoServer&) = delete;

  /// A blocking client whose reads give up after 10 s instead of hanging.
  tools::FdHandle Connect() {
    Result<tools::FdHandle> fd = tools::ConnectUnix(path_);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd.value().get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
    return std::move(fd.value());
  }

  /// Stops and joins the loop thread; every event already seen (including
  /// the close behind an EOF a client observed) has been handled.
  void Stop() {
    if (!thread_.joinable()) return;
    loop_->Stop();
    thread_.join();
  }

  std::vector<std::string> lines_;
  int outstanding_ = 0;
  int max_outstanding_ = 0;
  int closes_ = 0;

 private:
  std::filesystem::path dir_;
  std::string path_;
  std::unique_ptr<util::EventLoop> loop_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

TEST(ServerTest, PipelinedLinesAreAnsweredInOrderWithDeferredReplies) {
  EchoServer server;
  tools::FdHandle client = server.Connect();
  // One write carries three requests (and a blank line, which is skipped).
  ASSERT_TRUE(tools::SendLine(client.get(), "a\nb\n\nc").ok());
  tools::LineReader reader(client.get());
  for (const char* want : {"echo a", "echo b", "echo c"}) {
    Result<std::string> line = reader.Next();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    EXPECT_EQ(line.value(), want);
  }
  client.Close();
  server.Stop();
  EXPECT_EQ(server.lines_, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(server.max_outstanding_, 1) << "requests must be serial";
  EXPECT_EQ(server.outstanding_, 0);
}

TEST(ServerTest, PeerEofMidLineClosesWithoutDispatching) {
  EchoServer server;
  tools::FdHandle client = server.Connect();
  ASSERT_EQ(::send(client.get(), "torn", 4, MSG_NOSIGNAL), 4);
  ASSERT_EQ(::shutdown(client.get(), SHUT_WR), 0);
  tools::LineReader reader(client.get());
  EXPECT_TRUE(reader.Next().status().IsNotFound()) << "server closed";
  server.Stop();
  EXPECT_TRUE(server.lines_.empty());
  EXPECT_EQ(server.closes_, 1);
}

TEST(ServerTest, LineOverTheCapClosesTheConnection) {
  EchoServer server(/*max_line_bytes=*/16);
  tools::FdHandle client = server.Connect();
  const std::string oversized(64, 'x');  // unterminated, 4x the cap
  ASSERT_EQ(::send(client.get(), oversized.data(), oversized.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(oversized.size()));
  tools::LineReader reader(client.get());
  EXPECT_TRUE(reader.Next().status().IsNotFound()) << "server closed";
  server.Stop();
  EXPECT_TRUE(server.lines_.empty());
  EXPECT_EQ(server.closes_, 1);
}

TEST(ServerTest, HalfCloseAnswersTheBacklogThenClosesOnce) {
  EchoServer server;
  tools::FdHandle client = server.Connect();
  ASSERT_TRUE(tools::SendLine(client.get(), "one\ntwo").ok());
  ASSERT_EQ(::shutdown(client.get(), SHUT_WR), 0);
  tools::LineReader reader(client.get());
  for (const char* want : {"echo one", "echo two"}) {
    Result<std::string> line = reader.Next();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    EXPECT_EQ(line.value(), want);
  }
  EXPECT_TRUE(reader.Next().status().IsNotFound()) << "server closed";
  client.Close();
  server.Stop();
  EXPECT_EQ(server.lines_.size(), 2u);
  EXPECT_EQ(server.closes_, 1) << "on_close fires exactly once";
}

}  // namespace
}  // namespace periodica::serve
