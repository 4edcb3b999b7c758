#include "serve/job_manager.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "retscan/session.hpp"
#include "util/error.hpp"

namespace retscan::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Json to_json(const JobRecord& record) {
  Json json = Json::Object{};
  json.set("id", record.id)
      .set("spec", record.spec_path)
      .set("state", to_string(record.state))
      .set("shards_done", record.shards_done)
      .set("shard_count", record.shard_count)
      .set("session_reused", record.session_reused)
      .set("setup_seconds", record.setup_seconds)
      .set("run_seconds", record.run_seconds);
  if (!record.error.empty()) {
    json.set("error", record.error);
  }
  if (record.summary) {
    json.set("summary", to_json(*record.summary));
  }
  return json;
}

JobRecord job_from_json(const Json& json) {
  JobRecord record;
  record.id = json.at("id").as_u64();
  record.spec_path = json.at("spec").as_string();
  if (!from_string(json.at("state").as_string(), record.state)) {
    throw Error("unknown job state '" + json.at("state").as_string() + "'");
  }
  record.shards_done = json.at("shards_done").as_u64();
  record.shard_count = json.at("shard_count").as_u64();
  record.session_reused = json.at("session_reused").as_bool();
  record.setup_seconds = json.at("setup_seconds").as_double();
  record.run_seconds = json.at("run_seconds").as_double();
  if (const Json* error = json.find("error")) {
    record.error = error->as_string();
  }
  if (const Json* summary = json.find("summary")) {
    record.summary = summary_from_json(*summary);
  }
  return record;
}

JobManager::JobManager(const ServeOptions& options)
    : options_(options),
      runner_(parallel::CampaignOptions{options.threads}),
      sessions_(options.session_capacity) {
  if (!options_.cache_dir.empty()) {
    artifacts_ = std::make_shared<CompiledArtifactStore>(options_.cache_dir);
    install_artifact_store(artifacts_);
  }
  const std::size_t drivers = options_.max_active == 0 ? 1 : options_.max_active;
  drivers_.reserve(drivers);
  for (std::size_t i = 0; i < drivers; ++i) {
    drivers_.emplace_back([this] { driver_loop(); });
  }
}

JobManager::~JobManager() {
  drain();
}

std::uint64_t JobManager::submit(const std::string& spec_path,
                                 const SubmitOverrides& overrides) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (draining_) {
    throw Error("daemon is draining; not accepting new jobs");
  }
  const std::uint64_t id = next_id_++;
  jobs_.emplace(id, std::make_shared<Job>(Job{
                        JobRecord{.id = id, .spec_path = spec_path}, overrides}));
  queue_.push_back(id);
  work_cv_.notify_one();
  return id;
}

bool JobManager::cancel(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return false;
  }
  Job& job = *it->second;
  if (job.record.state == JobState::Queued) {
    // Terminal right here; the driver skips non-queued queue entries.
    finish_locked(job, JobState::Cancelled);
    return true;
  }
  if (job.record.state == JobState::Running) {
    // Cooperative: the sharded campaign observes the token at the next
    // shard boundary and returns partial (checkpointed) statistics.
    job.token.request_cancel();
    return true;
  }
  return false;
}

std::optional<JobRecord> JobManager::status(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return std::nullopt;
  }
  return it->second->record;
}

std::vector<JobRecord> JobManager::list() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobRecord> records;
  records.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) {
    records.push_back(job->record);
  }
  return records;
}

std::optional<JobRecord> JobManager::wait(
    std::uint64_t id, const std::function<bool(const JobRecord&)>& on_change) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return std::nullopt;
  }
  const std::shared_ptr<const Job> job = it->second;  // outlives eviction
  const JobRecord& record = job->record;
  // (state, shards_done) last handed to on_change; nothing seen yet.
  std::optional<std::pair<JobState, std::uint64_t>> seen;
  for (;;) {
    done_cv_.wait(lock, [&] {
      return is_terminal(record.state) ||
             (on_change && seen != std::pair(record.state, record.shards_done));
    });
    if (is_terminal(record.state)) {
      return record;
    }
    JobRecord now = record;
    seen.emplace(now.state, now.shards_done);
    lock.unlock();
    if (!on_change(now)) {
      return now;
    }
    lock.lock();
  }
}

void JobManager::drain() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Everything already queued still runs — SIGTERM finishes accepted
    // work; it only refuses new work. Drivers exit once the queue is empty.
    draining_ = true;
    work_cv_.notify_all();
  }
  for (std::thread& driver : drivers_) {
    if (driver.joinable()) {
      driver.join();
    }
  }
  drivers_.clear();
}

CompiledArtifactStore::Stats JobManager::artifact_stats() const {
  return artifacts_ != nullptr ? artifacts_->stats()
                               : CompiledArtifactStore::Stats{};
}

void JobManager::finish_locked(Job& job, JobState state) {
  job.record.state = state;
  finished_.push_back(job.record.id);
  while (finished_.size() > kFinishedJobsKept) {
    jobs_.erase(finished_.front());
    finished_.pop_front();
  }
  done_cv_.notify_all();
}

void JobManager::driver_loop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(mutex_);
    work_cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
    if (queue_.empty()) {
      return;  // draining, and everything accepted has run
    }
    const auto it = jobs_.find(queue_.front());
    queue_.pop_front();
    // Cancelled while queued: already terminal (maybe even evicted).
    if (it == jobs_.end() || it->second->record.state != JobState::Queued) {
      continue;
    }
    const std::shared_ptr<Job> job = it->second;
    job->record.state = JobState::Running;
    done_cv_.notify_all();
    lock.unlock();
    execute(*job);
  }
}

void JobManager::execute(Job& job) {
  const auto setup_start = std::chrono::steady_clock::now();
  std::uint64_t key = 0;
  std::unique_ptr<Session> session;
  try {
    SpecFile file = load_spec_file(job.record.spec_path);
    apply_overrides(file, job.overrides);
    key = session_key(file);
    session = sessions_.checkout(key);
    const bool reused = session != nullptr;
    if (session == nullptr) {
      session = std::make_unique<Session>(make_session(file));
    }
    const CampaignSpec& spec = file.campaign;
    const bool gate_level =
        !(spec.kind == CampaignKind::Validation ||
          spec.kind == CampaignKind::Injection) ||
        spec.tier == ValidationTier::Structural;
    if (gate_level) {
      // Force the compile now so setup_seconds captures it — this is the
      // cost the artifact store amortizes, and what the serve CI job
      // compares cold vs warm.
      session->frame();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job.record.session_reused = reused;
      job.record.setup_seconds = seconds_since(setup_start);
    }

    RunHooks hooks;
    hooks.runner = &runner_;
    hooks.cancel = &job.token;
    hooks.progress = [this, &job](std::size_t done, std::size_t total) {
      const std::lock_guard<std::mutex> lock(mutex_);
      // Shards settle on several pool threads and may lock out of order.
      job.record.shards_done = std::max<std::uint64_t>(job.record.shards_done, done);
      job.record.shard_count = total;
      done_cv_.notify_all();
    };

    const auto run_start = std::chrono::steady_clock::now();
    const CampaignResult result = run(*session, file.campaign, hooks);
    const double run_seconds = seconds_since(run_start);

    // The session survived the campaign intact (cancelled/timeout runs
    // included) — recycle it.
    sessions_.checkin(key, std::move(session));

    const std::lock_guard<std::mutex> lock(mutex_);
    job.record.run_seconds = run_seconds;
    job.record.summary = summarize(result, file.campaign);
    job.record.shards_done = result.shards_completed;
    job.record.shard_count = result.shard_count;
    finish_locked(job, state_for(result.status));
  } catch (const std::exception& error) {
    // Failed: the session (if any) is dropped, not recycled — a campaign
    // that threw may have left it mid-protocol.
    const std::lock_guard<std::mutex> lock(mutex_);
    job.record.error = error.what();
    finish_locked(job, JobState::Failed);
  }
}

}  // namespace retscan::serve
