#include "atpg/atpg.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace retscan {

namespace {

/// What phase 2's searches read: the random-phase survivors in fault order
/// (the targets), and which faults are resolved so far.
struct Targets {
  const CombinationalFrame& frame;
  const std::vector<Fault>& faults;
  const std::vector<std::size_t>& survivors;
  const std::vector<std::atomic<bool>>& detected;
  std::size_t max_backtracks;
};

/// The PODEM searches of phase 2 shared between the committer (the thread
/// that called run_atpg) and the pool tasks that search ahead of it. One
/// slot per target; slots below `cursor` are claimed, each by exactly one
/// task or by the committer. A task holds this by shared_ptr and follows
/// `targets` only once it has registered in `running` with `stop` unset,
/// so a task that starts after run_atpg returned touches only this.
struct Speculation {
  struct Slot {
    bool done = false;  // a task searched it, or skipped it as detected
    PodemSearch found;
    std::exception_ptr error;  // rethrown only if the committer needs the slot
  };

  explicit Speculation(const Targets& borrowed)
      : targets(&borrowed), slots(borrowed.survivors.size()) {}

  const Targets* targets;  // the committer's
  std::mutex mutex;
  std::condition_variable finished;
  std::vector<Slot> slots;
  std::size_t cursor = 0;
  std::size_t limit = 0;  // tasks claim only below it: commit position + lookahead
  std::size_t running = 0;
  bool stop = false;
  std::vector<std::unique_ptr<Podem>> idle;  // searchers between tasks
};

/// One short pool task: claim the first unclaimed slot whose fault is still
/// undetected, search it, publish the result. It never waits for anything
/// but the mutex.
void search_ahead(Speculation& state) {
  std::size_t k = 0;
  std::unique_ptr<Podem> podem;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    for (;;) {
      if (state.stop || state.cursor >= state.limit) {
        return;
      }
      k = state.cursor++;
      if (!state.targets->detected[state.targets->survivors[k]]) {
        break;
      }
      state.slots[k].done = true;
    }
    ++state.running;
    if (!state.idle.empty()) {
      podem = std::move(state.idle.back());
      state.idle.pop_back();
    }
  }
  const Targets& targets = *state.targets;
  PodemSearch found;
  std::exception_ptr error;
  try {
    if (!podem) {
      podem = std::make_unique<Podem>(targets.frame, targets.max_backtracks);
    }
    found = podem->search(targets.faults[targets.survivors[k]]);
  } catch (...) {
    error = std::current_exception();
  }
  // Notify under the lock: once `running` drops to 0 the committer may
  // return and free everything but the shared state.
  std::lock_guard<std::mutex> lock(state.mutex);
  Speculation::Slot& slot = state.slots[k];
  slot.found = std::move(found);
  slot.error = error;
  slot.done = true;
  if (podem) {
    state.idle.push_back(std::move(podem));
  }
  --state.running;
  state.finished.notify_all();
}

/// Stops the tasks that have not started and waits out the running ones,
/// on every exit from phase 2 (a rethrown search error included). The
/// slots are freed here too, on the committer's thread: a task that starts
/// later may hold the last reference to the state, and must not be the one
/// to destroy a search error the caller is still reading.
class Drain {
 public:
  explicit Drain(Speculation& state) : state_(state) {}
  Drain(const Drain&) = delete;
  Drain& operator=(const Drain&) = delete;
  ~Drain() {
    std::unique_lock<std::mutex> lock(state_.mutex);
    state_.stop = true;
    state_.finished.wait(lock, [this] { return state_.running == 0; });
    state_.slots.clear();
    state_.idle.clear();
  }

 private:
  Speculation& state_;
};

}  // namespace

AtpgResult run_atpg(const CombinationalFrame& frame, const std::vector<Fault>& faults,
                    const AtpgOptions& options, ThreadPool* pool,
                    const CancelToken* cancel) {
  AtpgResult result;
  result.total_faults = faults.size();
  Rng rng(options.seed);

  // --- Phase 1: random patterns, graded once by the fault simulator (a
  // 1-thread pool is the serial path). A fault's first detecting pattern
  // does not depend on how the patterns are batched or sharded; the
  // patterns that first-detect some fault are kept in draw order (reverse
  // compaction).
  std::vector<BitVec> random;
  random.reserve(options.random_patterns);
  for (std::size_t i = 0; i < options.random_patterns; ++i) {
    random.push_back(frame.random_pattern(rng));
  }
  std::optional<ThreadPool> serial;
  ThreadPool& grading_pool = pool != nullptr ? *pool : serial.emplace(1);
  parallel::RunControls grading_controls;
  grading_controls.cancel = cancel;
  const FaultSimResult graded = fault_simulate(frame, faults, random, grading_pool,
                                               grading::kShard, grading_controls);
  std::vector<std::atomic<bool>> detected(faults.size());
  std::vector<bool> useful(random.size(), false);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (graded.detected_by[fi] != FaultSimResult::npos) {
      detected[fi] = true;
      useful[graded.detected_by[fi]] = true;
    }
  }
  for (std::size_t i = 0; i < random.size(); ++i) {
    if (useful[i]) {
      result.patterns.push_back(std::move(random[i]));
    }
  }
  result.detected_random = graded.detected;
  std::size_t remaining = faults.size() - graded.detected;
  if (!options.run_podem || remaining == 0) {
    return result;
  }

  // --- Phase 2: PODEM top-up, committed in fault order by this thread.
  std::vector<std::size_t> survivors;
  survivors.reserve(remaining);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (!detected[fi]) {
      survivors.push_back(fi);
    }
  }
  const Targets targets{frame, faults, survivors, detected, options.max_backtracks};
  // Phase 1 built every survivor's cone; resolve them once, outside the
  // commit loop, so grading a committed pattern takes no cache lock.
  std::vector<const CombinationalFrame::FaultCone*> cones;
  cones.reserve(survivors.size());
  for (const std::size_t fi : survivors) {
    cones.push_back(&frame.fault_cone(faults[fi].net));
  }
  CombinationalFrame::Workspace workspace;
  Podem podem(frame, options.max_backtracks);
  const bool speculate = pool != nullptr && pool->size() > 1 && !pool->on_worker_thread();
  const std::size_t lookahead = speculate ? 4 * std::size_t{pool->size()} : 0;
  const auto state = std::make_shared<Speculation>(targets);
  const Drain drain(*state);
  std::size_t enqueued = 0;

  for (std::size_t k = 0; k < survivors.size() && remaining > 0; ++k) {
    if (cancel != nullptr && cancel->cancelled()) {
      break;  // the targets not yet committed stay undetected
    }
    if (speculate) {
      const std::size_t limit = std::min(survivors.size(), k + 1 + lookahead);
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->limit = limit;
      }
      for (; enqueued < limit; ++enqueued) {
        pool->enqueue([state] { search_ahead(*state); });
      }
    }
    const std::size_t fi = survivors[k];
    if (detected[fi]) {
      continue;  // a dropped target's speculative search, if any, is discarded
    }
    // The target's search: this thread's own if no task has claimed it yet
    // (always so without a pool), else the claiming task's.
    PodemSearch found;
    std::unique_lock<std::mutex> lock(state->mutex);
    if (state->cursor <= k) {
      state->cursor = k + 1;
      lock.unlock();
      found = podem.search(faults[fi]);
    } else {
      state->finished.wait(lock, [&] { return state->slots[k].done; });
      Speculation::Slot& slot = state->slots[k];
      if (slot.error) {
        std::rethrow_exception(slot.error);
      }
      found = std::move(slot.found);
      lock.unlock();
    }

    const PodemResult& generated = found.result;
    if (generated.untestable) {
      ++result.untestable;
      detected[fi] = true;  // resolved, not counted as detected
      --remaining;
      continue;
    }
    if (!generated.success) {
      ++result.aborted;
      continue;
    }
    // X-fill from the one shared stream, in commit order; then fault-simulate
    // the new pattern against all remaining faults (only survivors can be
    // undetected): load and settle it once, then cone-evaluate each one.
    BitVec pattern = Podem::fill(found.cube, rng);
    const CombinationalFrame::LoadedPatternBatch loaded = frame.load_batch({pattern});
    bool useful_pattern = false;
    for (std::size_t j = 0; j < survivors.size(); ++j) {
      const std::size_t fj = survivors[j];
      if (detected[fj]) {
        continue;
      }
      if (block_any(frame.detect_block(faults[fj], *cones[j], loaded, workspace))) {
        detected[fj] = true;
        ++result.detected_podem;
        --remaining;
        useful_pattern = true;
      }
    }
    if (useful_pattern) {
      result.patterns.push_back(std::move(pattern));
    }
  }
  return result;
}

}  // namespace retscan
