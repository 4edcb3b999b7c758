#pragma once

/// `retscan serve` daemon: a local AF_UNIX stream-socket front end over
/// the JobManager. Framing is one JSON object per LF-terminated line
/// (serve/protocol.hpp); each accepted connection gets its own detached
/// thread, so a client blocked in `result` or `submit --wait` (both block
/// in JobManager::wait) never stalls another client's `submit`.
///
/// Commands:
///   {"cmd":"ping"}                         → daemon liveness + provenance
///   {"cmd":"submit","spec":P,"overrides":{...}[,"wait":true]}
///                                          → {"ok":true,"id":N}; with
///                                            wait, progress event lines
///                                            then the terminal job record
///   {"cmd":"status","id":N}                → job record snapshot
///   {"cmd":"result","id":N}                → blocks until terminal
///   {"cmd":"cancel","id":N}                → cooperative cancel
///   {"cmd":"list"}                         → every job record
///   {"cmd":"stats"}                        → session/artifact cache stats
///   {"cmd":"shutdown"}                     → graceful drain, then exit
///
/// Shutdown (the `shutdown` command or SIGTERM via notify_signal()) is a
/// drain: stop accepting, finish every queued and running job, answer the
/// clients still connected, then return from run(). Nothing in it waits on
/// a timer: both requests wake the accept loop through a pipe, and the
/// drain half-closes every live connection (SHUT_RD) so an idle
/// connection thread's recv returns at once. A client killed
/// mid-flight (even SIGKILL) only drops its connection — the job it
/// submitted keeps running and its result stays queryable (among the
/// last JobManager::kFinishedJobsKept finished jobs), which is what the
/// serve CI job asserts.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>

#include "serve/job_manager.hpp"

namespace retscan::serve {

class Server {
 public:
  /// Bind + listen on `socket_path`. A stale socket file (left by a
  /// killed daemon) is detected by a probe connect and replaced; a live
  /// daemon on the path is an error.
  Server(const std::string& socket_path, const ServeOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accept/serve until shutdown; drains jobs before returning.
  void run();

  /// Async-signal-safe shutdown request for SIGTERM handlers: a relaxed
  /// store on a process-global flag, then one write(2) to a process-global
  /// pipe every Server's accept loop polls.
  static void notify_signal() noexcept;

  const std::string& socket_path() const { return socket_path_; }
  JobManager& jobs() { return manager_; }
  /// Connections being served right now; run() and ~Server wait for 0.
  std::size_t connections() const;

 private:
  void serve_connection(int fd);
  Json handle(const Json& request, int fd, bool& close_connection);
  bool shutdown_requested() const;
  /// Half-close (SHUT_RD) every live connection, so idle connection
  /// threads read EOF and exit, and wait until none is left.
  void close_connections();

  std::string socket_path_;
  int listen_fd_ = -1;
  int wake_read_ = -1;   ///< readable once the `shutdown` command ran
  int wake_write_ = -1;
  JobManager manager_;
  std::atomic<bool> shutdown_{false};
  mutable std::mutex connections_mutex_;
  std::condition_variable connections_cv_;  ///< a connection thread exited
  /// Open fds of the live connections. A connection thread removes its fd
  /// under connections_mutex_ before closing it, so close_connections never
  /// shuts down a closed (or reused) fd.
  std::set<int> connection_fds_;
};

}  // namespace retscan::serve
