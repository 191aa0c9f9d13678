#include "serve/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "serve/handlers.hpp"
#include "serve/protocol.hpp"
#include "telemetry/metrics.hpp"

namespace eus::serve {

// ---------------------------------------------------------------- RequestLog

struct RequestLog::Impl {
  std::mutex mutex;
  std::ofstream out;
};

RequestLog::RequestLog(const std::string& path)
    : impl_(std::make_unique<Impl>()) {
  impl_->out.open(path, std::ios::binary | std::ios::app);
  if (!impl_->out) throw std::runtime_error("cannot open run log " + path);
}

RequestLog::~RequestLog() = default;

void RequestLog::write(const std::string& json_line) {
  const std::lock_guard lock(impl_->mutex);
  impl_->out << json_line << '\n';
  impl_->out.flush();  // the daemon may be SIGKILLed; keep lines durable
  lines_.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- write_frame

bool write_frame(int fd, std::string_view payload) {
  const std::string frame = encode_frame(payload);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// ------------------------------------------------------------- FrameListener

void FrameListener::start(std::uint16_t port, std::size_t max_frame_bytes,
                          Respond respond, Counter* frame_errors,
                          Counter* connections) {
  respond_ = std::move(respond);
  max_frame_bytes_ = max_frame_bytes;
  frame_errors_ = frame_errors;
  connections_accepted_ = connections;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket(): ") +
                             std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("cannot listen on port " + std::to_string(port) +
                             ": " + reason);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void FrameListener::interrupt() noexcept {
  stopping_.store(true, std::memory_order_relaxed);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void FrameListener::halt_accept() {
  interrupt();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void FrameListener::halt_connections() {
  halt_accept();  // no connection can be added behind our back
  {
    const std::lock_guard lock(mutex_);
    for (const Connection& connection : connections_) {
      if (connection.fd >= 0) ::shutdown(connection.fd, SHUT_RD);
    }
  }
  // Join outside the lock: exiting readers take it to close their fd.
  for (Connection& connection : connections_) {
    if (connection.thread.joinable()) connection.thread.join();
  }
  const std::lock_guard lock(mutex_);
  connections_.clear();
}

void FrameListener::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down (or fatal): stop accepting
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    if (connections_accepted_ != nullptr) connections_accepted_->add();
    const std::lock_guard lock(mutex_);
    // Forget finished readers so idle closes do not accumulate threads.  A
    // done reader holds no lock anymore, so joining under the mutex is safe.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->done.load(std::memory_order_acquire)) {
        if (it->thread.joinable()) it->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    Connection& connection = connections_.emplace_back();
    connection.fd = fd;
    connection.thread =
        std::thread([this, &connection] { read_loop(&connection); });
  }
}

void FrameListener::read_loop(Connection* connection) {
  const int fd = connection->fd;
  FrameDecoder decoder(max_frame_bytes_);
  std::vector<char> buffer(64 * 1024);
  for (bool open = true; open;) {
    while (open) {
      const std::optional<std::string> payload = decoder.next();
      if (!payload.has_value()) break;
      std::string response;
      try {
        response = respond_(*payload);
      } catch (const std::exception& e) {
        response = error_payload("", kCodeInternal, "error", e.what());
      }
      open = write_frame(fd, response);
    }
    if (!open) break;
    const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
    if (n == 0) break;  // peer closed (or halt shut the read side)
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    try {
      decoder.feed(buffer.data(), static_cast<std::size_t>(n));
    } catch (const ProtocolError& e) {
      if (frame_errors_ != nullptr) frame_errors_->add();
      write_frame(fd, error_payload("", kCodeBadRequest, "error", e.what()));
      break;
    }
  }
  const std::lock_guard lock(mutex_);
  ::close(fd);
  connection->fd = -1;
  connection->done.store(true, std::memory_order_release);
}

}  // namespace eus::serve
