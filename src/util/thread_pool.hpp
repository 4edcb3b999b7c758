#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace retscan {

/// The library's one dispatcher: a fixed set of workers pulling work from
/// one place. A free worker takes, in order, the oldest plain task
/// (enqueue/submit — FIFO), else the next body of an open parallel_for
/// call, round-robin across every call currently in flight. Concurrent
/// callers (the serve daemon's campaigns, a coverage grader next to a
/// validation campaign) therefore interleave body-for-body: a call already
/// running is never starved by a later, larger one. Bodies are claimed
/// only by free workers, so at most size() bodies run at once.
///
/// Determinism note: the pool schedules; it never sequences results. All
/// campaign-level reductions happen in shard order outside the pool, so
/// the same seed produces bit-identical campaign statistics at any thread
/// count.
class ThreadPool {
 public:
  /// threads == 0 → default_thread_count() (RETSCAN_THREADS env override,
  /// else std::thread::hardware_concurrency()).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Fire-and-forget task. Tasks must not throw — wrap throwing work via
  /// submit() or parallel_for(), which capture and propagate exceptions.
  void enqueue(std::function<void()> task);

  /// Task with a result (or a propagated exception) via std::future.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Run body(0) .. body(count-1) across the pool and block until every
  /// body has finished or been skipped. A throwing body skips the bodies
  /// that have not started yet, and of the bodies that did throw, the one
  /// with the LOWEST index is rethrown here — deterministic by shard id,
  /// never by wall clock. Cancellation is the shard loop's
  /// (parallel::run_shards), not the pool's. Runs inline when called from a
  /// pool worker (no nested deadlock), on a 1-thread pool or for
  /// count == 1, with the same skip-after-error semantics.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

  /// True when the calling thread is one of this pool's workers — callers
  /// that would block waiting on pool work must run inline instead, or a
  /// worker deadlocks waiting on itself.
  bool on_worker_thread() const;

  /// RETSCAN_THREADS env override (strictly parsed), else
  /// hardware_concurrency(), else 1.
  static unsigned default_thread_count();

 private:
  /// One open parallel_for call; lives on its caller's stack.
  struct Job;

  Job* claim_locked(std::size_t& index);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< wakes workers
  std::condition_variable done_cv_;  ///< wakes parallel_for callers
  std::deque<std::function<void()>> tasks_;
  std::vector<Job*> jobs_;  ///< calls with bodies left to hand out
  std::size_t next_job_ = 0;  ///< round-robin cursor into jobs_
  bool stop_ = false;
  std::vector<std::thread> workers_;  ///< last: workers use every member above
};

}  // namespace retscan
