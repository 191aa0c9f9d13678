#pragma once

// Network plumbing shared by the single-node daemon (server.hpp) and the
// fleet router (fleet/router.hpp): the FrameListener that owns the listen
// socket, the per-connection reader threads and the framing, the frame
// writer the client shares, and the thread-safe JSONL request log.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

namespace eus {
class Counter;  // telemetry/metrics.hpp
}  // namespace eus

namespace eus::serve {

/// Thread-safe JSONL request log (one line per served request, plus a
/// config line at startup and periodic diagnostics snapshots).
/// EXPERIMENTS.md documents the schema.
class RequestLog {
 public:
  /// Appends to `path` (creating it when missing; existing lines are
  /// preserved so restarts extend one history).  Throws
  /// std::runtime_error when the file cannot be opened.
  explicit RequestLog(const std::string& path);
  ~RequestLog();

  RequestLog(const RequestLog&) = delete;
  RequestLog& operator=(const RequestLog&) = delete;

  void write(const std::string& json_line);
  /// Lines written through this instance (not pre-existing file lines).
  [[nodiscard]] std::size_t lines_written() const noexcept {
    return lines_.load(std::memory_order_relaxed);
  }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::atomic<std::size_t> lines_{0};
};

/// Writes `payload` as one length-prefixed frame, riding out short writes
/// and EINTR (MSG_NOSIGNAL: a vanished peer is an error, not a SIGPIPE).
/// Returns false when the connection failed mid-write; errno says why.
bool write_frame(int fd, std::string_view payload);

/// The loopback TCP front end of the framed protocol (docs/serving.md):
/// a listen socket with its accept thread and one reader thread per
/// connection.  Each request frame is handed to `respond`, and the payload
/// it returns goes back as exactly one response frame, so responses leave
/// in request order; a respond that throws is answered with a 500 frame.
/// A hostile length prefix (over `max_frame_bytes`) cannot be
/// resynchronized: it is answered with one 400 frame and the connection
/// closes.
class FrameListener {
 public:
  using Respond = std::function<std::string(const std::string& payload)>;

  FrameListener() = default;
  ~FrameListener() { halt_connections(); }

  FrameListener(const FrameListener&) = delete;
  FrameListener& operator=(const FrameListener&) = delete;

  /// Binds loopback:`port` (0 = ephemeral), listens and spawns the accept
  /// thread.  `frame_errors` counts hostile length prefixes and
  /// `connections` counts accepted connections; either may be null.
  /// Throws std::runtime_error when the port cannot be bound.
  void start(std::uint16_t port, std::size_t max_frame_bytes,
             Respond respond, Counter* frame_errors,
             Counter* connections = nullptr);

  /// The bound port (valid after start(); resolves port 0 requests).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Wakes the accept loop and makes it exit; safe from any thread and
  /// does not block.
  void interrupt() noexcept;

  /// interrupt() + join the accept thread + close the listen socket.
  /// Idempotent.
  void halt_accept();

  /// halt_accept(), then shuts every connection's read side down and joins
  /// its reader.  Run it only once every pending respond() can return, or
  /// it waits for them.  Idempotent.
  void halt_connections();

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void read_loop(Connection* connection);

  Respond respond_;
  std::size_t max_frame_bytes_ = 0;
  Counter* frame_errors_ = nullptr;
  Counter* connections_accepted_ = nullptr;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};

  std::mutex mutex_;  ///< guards connections_ and every Connection::fd
  std::list<Connection> connections_;
  std::thread accept_thread_;
};

}  // namespace eus::serve
