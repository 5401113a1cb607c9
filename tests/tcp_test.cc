// Tests for the TCP transport helpers (util/tcp.h): endpoint parsing,
// listen/accept/connect round trips in both the blocking and the
// event-loop (non-blocking start/finish) shapes, UniqueFd ownership, and
// the tcp/accept + tcp/connect fault-injection sites.

#include "periodica/util/tcp.h"

#include <poll.h>
#include <unistd.h>

#include <optional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "../tools/unix_socket.h"
#include "periodica/util/fault_injector.h"
#include "periodica/util/socket.h"

namespace periodica::util {
namespace {

TEST(ParseHostPortTest, SplitsOnLastColon) {
  const Result<TcpEndpoint> endpoint = ParseHostPort("127.0.0.1:8080");
  ASSERT_TRUE(endpoint.ok()) << endpoint.status().ToString();
  EXPECT_EQ(endpoint.value().host, "127.0.0.1");
  EXPECT_EQ(endpoint.value().port, 8080);
}

TEST(ParseHostPortTest, HostNamesAndEphemeralPort) {
  const Result<TcpEndpoint> endpoint = ParseHostPort("localhost:0");
  ASSERT_TRUE(endpoint.ok());
  EXPECT_EQ(endpoint.value().host, "localhost");
  EXPECT_EQ(endpoint.value().port, 0);
}

TEST(ParseHostPortTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseHostPort("").ok());
  EXPECT_FALSE(ParseHostPort("nohost").ok());
  EXPECT_FALSE(ParseHostPort("host:").ok());
  EXPECT_FALSE(ParseHostPort(":1234").ok());
  EXPECT_FALSE(ParseHostPort("host:notaport").ok());
  EXPECT_FALSE(ParseHostPort("host:70000").ok());
  EXPECT_FALSE(ParseHostPort("host:-1").ok());
}

TEST(UniqueFdTest, OwnsAndMoves) {
  UniqueFd invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_EQ(invalid.get(), -1);

  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  UniqueFd a(pipe_fds[0]);
  UniqueFd b(pipe_fds[1]);
  EXPECT_TRUE(a.valid());

  UniqueFd moved = std::move(a);
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): asserted empty

  const int raw = moved.release();
  EXPECT_FALSE(moved.valid());
  EXPECT_EQ(raw, pipe_fds[0]);
  ::close(raw);

  b.Close();
  EXPECT_FALSE(b.valid());
  b.Close();  // idempotent
}

TEST(TcpTest, ListenPicksEphemeralPortAndReportsIt) {
  std::uint16_t bound_port = 0;
  Result<UniqueFd> listener = TcpListen("127.0.0.1", 0, 8, &bound_port);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  EXPECT_GT(bound_port, 0);
}

TEST(TcpTest, BlockingConnectRoundTrip) {
  std::uint16_t port = 0;
  Result<UniqueFd> listener = TcpListen("127.0.0.1", 0, 8, &port);
  ASSERT_TRUE(listener.ok());

  Result<UniqueFd> client = TcpConnectBlocking("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // The listener is non-blocking; the connection is already queued.
  Result<UniqueFd> accepted = TcpAccept(listener.value().get());
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();

  // Bytes flow both ways through the shared framing helpers.
  ASSERT_TRUE(
      tools::SendLine(client.value().get(), R"({"hello":true})").ok());
  LineBuffer buffer;
  // The accepted socket is non-blocking: drain until the line arrives.
  std::optional<std::string> line;
  for (int i = 0; i < 1000 && !line.has_value(); ++i) {
    const Result<bool> eof =
        DrainReadable(accepted.value().get(), &buffer);
    ASSERT_TRUE(eof.ok());
    ASSERT_FALSE(eof.value());
    line = buffer.NextLine();
  }
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, R"({"hello":true})");
}

TEST(TcpTest, AcceptWithNothingPendingIsUnavailable) {
  std::uint16_t port = 0;
  Result<UniqueFd> listener = TcpListen("127.0.0.1", 0, 8, &port);
  ASSERT_TRUE(listener.ok());
  const Result<UniqueFd> accepted = TcpAccept(listener.value().get());
  ASSERT_FALSE(accepted.ok());
  EXPECT_TRUE(accepted.status().IsUnavailable());
}

TEST(TcpTest, NonBlockingConnectFinishesViaWritability) {
  std::uint16_t port = 0;
  Result<UniqueFd> listener = TcpListen("127.0.0.1", 0, 8, &port);
  ASSERT_TRUE(listener.ok());

  bool connected = false;
  Result<UniqueFd> client = TcpConnectStart("127.0.0.1", port, &connected);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  if (!connected) {
    // Wait for writability the way the event loop would, then harvest.
    struct pollfd pfd = {client.value().get(), POLLOUT, 0};
    ASSERT_GT(::poll(&pfd, 1, 5000), 0);
    const Status finished = TcpConnectFinish(client.value().get());
    ASSERT_TRUE(finished.ok()) << finished.ToString();
    connected = true;
  }
  EXPECT_TRUE(connected);
  const Result<UniqueFd> accepted = TcpAccept(listener.value().get());
  EXPECT_TRUE(accepted.ok());
}

TEST(TcpTest, ConnectToDeadPortFails) {
  // Grab an ephemeral port, then close the listener: connects must fail.
  std::uint16_t port = 0;
  {
    Result<UniqueFd> listener = TcpListen("127.0.0.1", 0, 8, &port);
    ASSERT_TRUE(listener.ok());
  }
  const Result<UniqueFd> client = TcpConnectBlocking("127.0.0.1", port);
  EXPECT_FALSE(client.ok());
}

TEST(TcpFaultTest, InjectedConnectFaultFails) {
  std::uint16_t port = 0;
  Result<UniqueFd> listener = TcpListen("127.0.0.1", 0, 8, &port);
  ASSERT_TRUE(listener.ok());

  ScopedFault fault("tcp/connect", Status::IOError("injected"));
  const Result<UniqueFd> client = TcpConnectBlocking("127.0.0.1", port);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(fault.fire_count(), 1u);

  // Disarmed (next hit is past fire_on_nth with repeat off): connect works.
  const Result<UniqueFd> retry = TcpConnectBlocking("127.0.0.1", port);
  EXPECT_TRUE(retry.ok());
}

TEST(TcpFaultTest, InjectedAcceptFaultFails) {
  std::uint16_t port = 0;
  Result<UniqueFd> listener = TcpListen("127.0.0.1", 0, 8, &port);
  ASSERT_TRUE(listener.ok());
  Result<UniqueFd> client = TcpConnectBlocking("127.0.0.1", port);
  ASSERT_TRUE(client.ok());

  ScopedFault fault("tcp/accept", Status::IOError("injected"));
  const Result<UniqueFd> accepted = TcpAccept(listener.value().get());
  ASSERT_FALSE(accepted.ok());
  EXPECT_FALSE(accepted.status().IsUnavailable());  // a real failure, not EAGAIN
  EXPECT_EQ(fault.fire_count(), 1u);

  // The connection is still queued; the next accept succeeds.
  const Result<UniqueFd> retry = TcpAccept(listener.value().get());
  EXPECT_TRUE(retry.ok());
}

}  // namespace
}  // namespace periodica::util
