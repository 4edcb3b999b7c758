#include "util/thread_pool.hpp"

#include <exception>

#include "retscan/runtime.hpp"
#include "util/failpoint.hpp"

namespace retscan {

namespace {
/// Which pool (if any) owns the current thread — used to run nested
/// parallel_for calls inline instead of deadlocking a worker on itself.
thread_local const ThreadPool* tl_pool = nullptr;
}  // namespace

struct ThreadPool::Job {
  const std::function<void(std::size_t)>& body;
  std::size_t count;
  std::size_t next = 0;  ///< next body index to hand out
  std::size_t unfinished = count;  ///< bodies not yet finished or skipped
  bool abandoned = false;  ///< a body threw: skip the rest
  /// Lowest body index that threw, and its exception — campaigns report the
  /// first failing shard deterministically, not whichever worker's throw
  /// won the wall-clock race.
  std::size_t error_index = count;
  std::exception_ptr error{};
};

bool ThreadPool::on_worker_thread() const {
  return tl_pool == this;
}

unsigned ThreadPool::default_thread_count() {
  // Env parsing (and its strict-parse warning) lives in retscan::runtime —
  // the one interpreter of RETSCAN_* for the whole library.
  return runtime_threads();
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned count = threads == 0 ? default_thread_count() : threads;
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  failpoint("pool.dispatch");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

/// Hands out the next body, round-robin across the open calls; nullptr when
/// none has a body left. An abandoned call has its remaining bodies
/// skipped here, and a call leaves jobs_ once its last body is
/// handed out or skipped.
ThreadPool::Job* ThreadPool::claim_locked(std::size_t& index) {
  while (!jobs_.empty()) {
    next_job_ %= jobs_.size();
    Job& job = *jobs_[next_job_];
    if (job.abandoned) {
      job.unfinished -= job.count - job.next;
      job.next = job.count;
      if (job.unfinished == 0) {
        done_cv_.notify_all();
      }
    } else {
      index = job.next++;
    }
    if (job.next == job.count) {
      jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(next_job_));
    } else {
      ++next_job_;
    }
    if (!job.abandoned) {
      return &job;
    }
  }
  return nullptr;
}

void ThreadPool::worker_loop() {
  tl_pool = this;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (!tasks_.empty()) {
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      lock.unlock();
      try {
        task();
      } catch (...) {
        // enqueue() tasks are documented non-throwing; submit() captures its
        // own exceptions. Swallow rather than std::terminate so one
        // misbehaved task cannot take the pool down.
      }
      task = nullptr;
      lock.lock();
      continue;
    }
    std::size_t index = 0;
    if (Job* job = claim_locked(index)) {
      lock.unlock();
      // The failpoint fires as the body is handed out; a throw there is
      // that body's failure, settled like any other.
      std::exception_ptr error;
      try {
        failpoint("pool.dispatch");
        job->body(index);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error) {
        job->abandoned = true;
        if (index < job->error_index) {
          job->error_index = index;
          job->error = error;
        }
      }
      // Settled under the lock: the caller cannot return (and pop its Job
      // off its stack) until this worker is done touching it.
      if (--job->unfinished == 0) {
        done_cv_.notify_all();
      }
      continue;
    }
    if (stop_) {
      return;
    }
    work_cv_.wait(lock);
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) {
    return;
  }
  if (tl_pool == this || size() <= 1 || count == 1) {
    // Same contract as the pooled path: a thrown exception skips the
    // bodies not yet started; the first error by index is the one rethrown.
    // Inline, index order and start order coincide.
    for (std::size_t i = 0; i < count; ++i) {
      body(i);
    }
    return;
  }

  Job job{body, count};
  std::unique_lock<std::mutex> lock(mutex_);
  jobs_.push_back(&job);
  work_cv_.notify_all();
  done_cv_.wait(lock, [&job] { return job.unfinished == 0; });
  lock.unlock();
  if (job.error) {
    std::rethrow_exception(job.error);
  }
}

}  // namespace retscan
