#include "serve/server.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <mutex>
#include <thread>

#include "retscan/runtime.hpp"
#include "retscan/version.hpp"
#include "util/error.hpp"
#include "util/lanes.hpp"

namespace retscan::serve {

namespace {

/// SIGTERM handlers can only do async-signal-safe work; they land here:
/// the flag, then a write to the signal pipe, whose read end every
/// Server's accept loop polls. The pipe is made with the first Server and
/// never drained, so once written it wakes every loop for good.
std::atomic<bool> g_signal_shutdown{false};
std::atomic<int> g_signal_wake{-1};
int g_signal_wake_read = -1;
std::once_flag g_signal_pipe_once;

/// A non-blocking, close-on-exec pipe: {read end, write end}.
std::array<int, 2> make_wake_pipe() {
  std::array<int, 2> fds{-1, -1};
  if (::pipe2(fds.data(), O_NONBLOCK | O_CLOEXEC) != 0) {
    throw Error(std::string("pipe: ") + std::strerror(errno));
  }
  return fds;
}

void wake(int fd) noexcept {
  const char byte = 1;
  (void)!::write(fd, &byte, 1);  // a full pipe is already readable
}

/// Guard against protocol abuse / a client writing garbage forever.
constexpr std::size_t kMaxLineBytes = 1u << 20;

int make_listener(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw Error("socket path too long: '" + path + "'");
  }
  if (::access(path.c_str(), F_OK) == 0) {
    const int live = connect_socket(path);
    if (live >= 0) {
      ::close(live);
      throw Error("a retscan daemon is already serving '" + path + "'");
    }
    // Stale socket file from a killed daemon — reclaim it.
    ::unlink(path.c_str());
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw Error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int bind_errno = errno;
    ::close(fd);
    throw Error("bind '" + path + "': " + std::strerror(bind_errno));
  }
  if (::listen(fd, 16) != 0) {
    const int listen_errno = errno;
    ::close(fd);
    ::unlink(path.c_str());
    throw Error("listen '" + path + "': " + std::strerror(listen_errno));
  }
  return fd;
}

Json error_response(const std::string& message) {
  Json response = Json::Object{};
  response.set("ok", false).set("error", message);
  return response;
}

}  // namespace

void Server::notify_signal() noexcept {
  const int saved_errno = errno;  // the interrupted code may be reading it
  g_signal_shutdown.store(true, std::memory_order_relaxed);
  const int fd = g_signal_wake.load(std::memory_order_relaxed);
  if (fd >= 0) {
    wake(fd);
  }
  errno = saved_errno;
}

bool Server::shutdown_requested() const {
  return shutdown_.load() || g_signal_shutdown.load(std::memory_order_relaxed);
}

Server::Server(const std::string& socket_path, const ServeOptions& options)
    : socket_path_(socket_path),
      listen_fd_(make_listener(socket_path)),
      manager_(options) {
  try {
    std::call_once(g_signal_pipe_once, [] {
      const std::array<int, 2> fds = make_wake_pipe();
      g_signal_wake_read = fds[0];
      g_signal_wake.store(fds[1]);
    });
    const std::array<int, 2> fds = make_wake_pipe();
    wake_read_ = fds[0];
    wake_write_ = fds[1];
  } catch (...) {
    ::close(listen_fd_);
    ::unlink(socket_path_.c_str());
    throw;
  }
}

Server::~Server() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(socket_path_.c_str());
  }
  close_connections();
  ::close(wake_read_);
  ::close(wake_write_);
}

std::size_t Server::connections() const {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  return connection_fds_.size();
}

void Server::close_connections() {
  std::unique_lock<std::mutex> lock(connections_mutex_);
  for (const int fd : connection_fds_) {
    ::shutdown(fd, SHUT_RD);
  }
  connections_cv_.wait(lock, [this] { return connection_fds_.empty(); });
}

void Server::run() {
  // No timeout: a connection, a `shutdown` command or a signal wakes it.
  std::array<pollfd, 3> fds{pollfd{listen_fd_, POLLIN, 0}, pollfd{wake_read_, POLLIN, 0},
                            pollfd{g_signal_wake_read, POLLIN, 0}};
  while (!shutdown_requested()) {
    const int ready = ::poll(fds.data(), fds.size(), -1);
    if (ready < 0 && errno != EINTR) {
      break;
    }
    if (ready <= 0 || (fds[0].revents & POLLIN) == 0) {
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    // Registered under the lock the thread's exit takes: a thread that
    // fails to start is never registered, and its fd is never missed.
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    std::thread([this, fd] {
      serve_connection(fd);
      const std::lock_guard<std::mutex> exit_lock(connections_mutex_);
      connection_fds_.erase(fd);
      ::close(fd);
      connections_cv_.notify_all();
    }).detach();
    connection_fds_.insert(fd);
  }
  // Graceful drain: no new connections, finish every accepted job, let
  // the connection threads answer their clients, then wait them out.
  ::close(listen_fd_);
  ::unlink(socket_path_.c_str());
  listen_fd_ = -1;
  manager_.drain();
  close_connections();
}

void Server::serve_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool close_connection = false;
  while (!close_connection) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.empty()) {
        continue;
      }
      Json response;
      try {
        const Json request = Json::parse(line);
        response = handle(request, fd, close_connection);
      } catch (const std::exception& error) {
        // Malformed request: answer, then drop the connection — the
        // line framing may be out of sync.
        response = error_response(error.what());
        close_connection = true;
      }
      if (!send_line(fd, response)) {
        break;
      }
      continue;
    }
    if (buffer.size() > kMaxLineBytes) {
      send_line(fd, error_response("request line too long"));
      break;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    // Peer closed (SIGKILLed clients land here; its jobs live on), or the
    // drain half-closed the connection.
    break;
  }
}

Json Server::handle(const Json& request, int fd, bool& close_connection) {
  const std::string cmd = request.at("cmd").as_string();
  Json response = Json::Object{};

  if (cmd == "ping") {
    const BuildInfo info = build_info();
    response.set("ok", true)
        .set("protocol", kProtocolVersion)
        .set("version", info.version)
        .set("lane_words", info.lane_words)
        .set("lane_bits", info.lane_bits)
        .set("avx2", info.avx2)
        .set("threads", manager_.threads());
    return response;
  }
  if (cmd == "submit") {
    const std::string spec = request.at("spec").as_string();
    SubmitOverrides overrides;
    if (const Json* json = request.find("overrides")) {
      overrides = overrides_from_json(*json);
    }
    const std::uint64_t id = manager_.submit(spec, overrides);
    response.set("ok", true).set("id", id);
    if (!request.has("wait") || !request.at("wait").as_bool()) {
      return response;
    }
    // Streamed wait: one progress event per observed change, then the
    // terminal record. A failed send (client gone) ends the wait, not the job.
    const std::optional<JobRecord> record =
        manager_.wait(id, [fd](const JobRecord& now) {
          Json event = Json::Object{};
          event.set("event", "progress")
              .set("id", now.id)
              .set("state", to_string(now.state))
              .set("shards_done", now.shards_done)
              .set("shard_count", now.shard_count);
          return send_line(fd, event);
        });
    if (!record) {
      return error_response("unknown job " + std::to_string(id));
    }
    if (!is_terminal(record->state)) {
      close_connection = true;
      return error_response("client gone");
    }
    response.set("job", to_json(*record));
    return response;
  }
  if (cmd == "status" || cmd == "result") {
    const std::uint64_t id = request.at("id").as_u64();
    const std::optional<JobRecord> record =
        cmd == "result" ? manager_.wait(id) : manager_.status(id);
    if (!record) {
      return error_response("unknown job " + std::to_string(id));
    }
    response.set("ok", true).set("job", to_json(*record));
    return response;
  }
  if (cmd == "cancel") {
    const std::uint64_t id = request.at("id").as_u64();
    response.set("ok", true).set("cancelled", manager_.cancel(id));
    return response;
  }
  if (cmd == "list") {
    Json jobs = Json::Array{};
    for (const JobRecord& record : manager_.list()) {
      jobs.push(to_json(record));
    }
    response.set("ok", true).set("jobs", std::move(jobs));
    return response;
  }
  if (cmd == "stats") {
    const SessionCache::Stats sessions = manager_.session_stats();
    const CompiledArtifactStore::Stats artifacts = manager_.artifact_stats();
    Json session_json = Json::Object{};
    session_json.set("hits", sessions.hits)
        .set("misses", sessions.misses)
        .set("evictions", sessions.evictions);
    Json artifact_json = Json::Object{};
    artifact_json.set("hits", artifacts.hits)
        .set("misses", artifacts.misses)
        .set("rejected", artifacts.rejected)
        .set("stored", artifacts.stored)
        .set("write_errors", artifacts.write_errors);
    response.set("ok", true)
        .set("sessions", std::move(session_json))
        .set("artifacts", std::move(artifact_json))
        .set("threads", manager_.threads());
    return response;
  }
  if (cmd == "shutdown") {
    shutdown_.store(true);
    wake(wake_write_);
    close_connection = true;
    response.set("ok", true).set("draining", true);
    return response;
  }
  return error_response("unknown command '" + cmd + "'");
}

}  // namespace retscan::serve
