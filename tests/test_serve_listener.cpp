// Loopback tests for serve::FrameListener, the framed TCP front end shared
// by eus_served and eus_router: an echo respond callback on an ephemeral
// port, driven through raw sockets so the tests control exactly how the
// request bytes are split across writes.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <future>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "telemetry/metrics.hpp"

namespace eus::serve {
namespace {

std::string echo(const std::string& payload) { return "echo:" + payload; }

/// A plain blocking loopback socket (ClientConnection always writes whole
/// frames; these tests need to split and merge them).
class RawSocket {
 public:
  explicit RawSocket(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    const int enable = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    // A missing answer fails the test instead of hanging it.
    const timeval wait{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &wait, sizeof(wait));
  }
  ~RawSocket() { ::close(fd_); }

  RawSocket(const RawSocket&) = delete;
  RawSocket& operator=(const RawSocket&) = delete;

  [[nodiscard]] bool connected() const noexcept { return connected_; }

  /// Writes all of `bytes` (however many frames they hold) as one stream.
  void write_all(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + sent, bytes.size() - sent);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// The next response payload, or nullopt once the listener closed.
  std::optional<std::string> read_frame() {
    std::vector<char> buffer(4096);
    for (;;) {
      if (std::optional<std::string> payload = decoder_.next()) {
        return payload;
      }
      const ssize_t n = ::read(fd_, buffer.data(), buffer.size());
      if (n <= 0) return std::nullopt;
      decoder_.feed(buffer.data(), static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  bool connected_ = false;
  FrameDecoder decoder_;
};

TEST(FrameListener, PipelinedFramesAreAnsweredInOrder) {
  Counter connections;
  FrameListener listener;
  listener.start(0, kMaxFrameBytes, echo, nullptr, &connections);
  RawSocket client(listener.port());
  ASSERT_TRUE(client.connected());

  client.write_all(encode_frame("one") + encode_frame("two") +
                   encode_frame("three"));
  EXPECT_EQ(client.read_frame(), "echo:one");
  EXPECT_EQ(client.read_frame(), "echo:two");
  EXPECT_EQ(client.read_frame(), "echo:three");
  EXPECT_EQ(connections.value(), 1U);
  listener.halt_connections();
}

TEST(FrameListener, FrameWrittenOneByteAtATimeIsAnsweredOnce) {
  FrameListener listener;
  listener.start(0, kMaxFrameBytes, echo, nullptr);
  RawSocket client(listener.port());
  ASSERT_TRUE(client.connected());

  for (const char byte : encode_frame("trickle")) {
    client.write_all(std::string(1, byte));
  }
  EXPECT_EQ(client.read_frame(), "echo:trickle");
  // Had the trickled frame been answered twice, the second answer would
  // arrive here instead of the marker's.
  client.write_all(encode_frame("marker"));
  EXPECT_EQ(client.read_frame(), "echo:marker");
  listener.halt_connections();
}

TEST(FrameListener, ThrowingRespondAnswers500AndKeepsTheConnection) {
  FrameListener listener;
  listener.start(
      0, kMaxFrameBytes,
      [](const std::string& payload) -> std::string {
        if (payload == "boom") throw std::runtime_error("respond failed");
        return echo(payload);
      },
      nullptr);
  ClientConnection client;
  client.connect(listener.port());

  const std::string answer = client.call("boom");
  EXPECT_NE(answer.find("\"code\":500"), std::string::npos);
  EXPECT_NE(answer.find("respond failed"), std::string::npos);
  EXPECT_EQ(client.call("after"), "echo:after");
  listener.halt_connections();
}

TEST(FrameListener, HaltConnectionsReturnsWhileAClientSitsIdle) {
  FrameListener listener;
  listener.start(0, kMaxFrameBytes, echo, nullptr);
  ClientConnection idle;
  idle.connect(listener.port());
  // One round trip guarantees the reader thread exists and is parked in
  // recv() when the halt lands.
  EXPECT_EQ(idle.call("ping"), "echo:ping");

  std::future<void> halted = std::async(std::launch::async, [&listener] {
    listener.halt_connections();
  });
  const bool returned = halted.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  if (!returned) idle.close();  // unblock the reader so the test can end
  EXPECT_TRUE(returned);
  halted.wait();
  EXPECT_THROW((void)idle.receive(), ConnectError);
}

}  // namespace
}  // namespace eus::serve
