// `serve` workload: a `retscan serve` daemon with an artifact directory and
// four closed-loop clients (one per core) in this process, each submitting
// with --wait semantics from a mix of small specs: structural validation on
// a 32×2 FIFO, random-only fault coverage on ctrl344 and a random-only scan
// test. Each client sends its next job only after the previous one's
// terminal record arrived.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "measure.hpp"
#include "retscan/campaign.hpp"
#include "retscan/serve.hpp"
#include "retscan/session.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

using namespace retscan;
using serve::Json;

constexpr std::size_t kClients = 4;
constexpr std::size_t kSetupReps = 3;
constexpr double kReadyTimeout_s = 20.0;

/// One job kind of the mix: its spec file and what the oracle expects.
struct JobSpec {
  const char* name;
  const char* run_layer;  ///< layer that runs the campaign body
  std::string path;
  std::uint64_t digest = 0;  ///< summary_digest of an in-process Session::run
};

std::array<JobSpec, 3> write_specs(const Options& opts) {
  namespace fs = std::filesystem;
  const std::string ctrl344 = fs::absolute(opts.circuits + "/ctrl344.v").string();
  const std::string fifo =
      "fifo.depth = 32\nfifo.width = 2\n"
      "protection.kind = hamming+crc\nprotection.chain_count = 8\n"
      "protection.test_width = 4\n";
  const std::string texts[3] = {
      fifo + "campaign.kind = validation\ncampaign.tier = structural\n"
             "campaign.sequences = 512\ncampaign.seed = " +
          std::to_string(derive_seed(opts.seed, 1)) + "\n",
      "netlist = " + ctrl344 +
          "\nprotection.kind = hamming+crc\nprotection.chain_count = 4\n"
          "protection.test_width = 4\ncampaign.kind = fault-coverage\n"
          "campaign.atpg.random_patterns = 768\ncampaign.atpg.run_podem = false\n"
          "campaign.seed = " +
          std::to_string(derive_seed(opts.seed, 2)) + "\n",
      fifo + "campaign.kind = scan-test\ncampaign.atpg.random_patterns = 256\n"
             "campaign.atpg.run_podem = false\ncampaign.seed = " +
          std::to_string(derive_seed(opts.seed, 3)) + "\n",
  };
  std::array<JobSpec, 3> specs = {JobSpec{"structural-validation", "sim", {}},
                                   JobSpec{"fault-coverage-ctrl344", "atpg", {}},
                                   JobSpec{"scan-test", "atpg", {}}};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].path = fs::absolute(opts.work + "/serve_" + specs[i].name + ".spec").string();
    std::ofstream(specs[i].path) << texts[i];
    // Oracle: the same spec run in-process, as `retscan run` would.
    const SpecFile file = load_spec_file(specs[i].path);
    Session session = make_session(file);
    specs[i].digest =
        serve::summary_digest(serve::summarize(session.run(file.campaign), file.campaign));
  }
  return specs;
}

/// A `retscan serve` child process; shut down (or killed) and reaped on
/// destruction.
class Daemon {
 public:
  Daemon(const Options& opts, const std::string& cache_dir) : socket_(opts.work + "/serve.sock") {
    const std::string log = opts.work + "/serve.log";
    std::vector<std::string> args = {opts.retscan, "serve",      "--socket", socket_,
                                     "--cache-dir", cache_dir,   "--threads", "4"};
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, opts.retscan.c_str(), &actions, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      throw std::runtime_error("cannot spawn " + opts.retscan);
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }

  /// Poll until the daemon answers `ping`.
  void wait_ready() const {
    const Clock::time_point start = Clock::now();
    for (;;) {
      try {
        request(Json(Json::Object{}).set("cmd", "ping"));
        return;
      } catch (const std::exception&) {
        if (seconds_since(start) > kReadyTimeout_s) {
          throw std::runtime_error("retscan serve did not answer ping");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  Json request(const Json& request) const {
    serve::Client client(socket_);
    return client.request(request);
  }

  double peak_rss() const { return peak_rss_mb(pid_); }

  /// `shutdown` verb, then reap the drained process.
  void shutdown() {
    request(Json(Json::Object{}).set("cmd", "shutdown"));
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

struct JobOutcome {
  std::size_t spec = 0;
  bool ok = false;
  double latency = 0.0;  ///< submit → terminal record, client side
  double setup = 0.0;    ///< daemon-reported spec parse + session
  double run = 0.0;      ///< daemon-reported campaign body
  double coverage = 0.0;  ///< faults_detected / faults_total of the job's summary
};

/// Submit with wait on an open connection; returns the outcome.
JobOutcome submit_wait(serve::Client& client, const std::array<JobSpec, 3>& specs,
                       std::size_t index) {
  JobOutcome outcome;
  outcome.spec = index;
  Json request = Json::Object{};
  request.set("cmd", "submit").set("spec", specs[index].path).set("wait", true);
  const Clock::time_point t0 = Clock::now();
  client.send(request);
  for (;;) {
    const Json line = client.read_line();
    if (line.has("event")) {
      continue;
    }
    outcome.latency = seconds_since(t0);
    if (!line.at("ok").as_bool()) {
      return outcome;
    }
    const serve::JobRecord record = serve::job_from_json(line.at("job"));
    outcome.setup = record.setup_seconds;
    outcome.run = record.run_seconds;
    if (record.summary && record.summary->faults_total > 0) {
      outcome.coverage = static_cast<double>(record.summary->faults_detected) /
                         static_cast<double>(record.summary->faults_total);
    }
    outcome.ok = record.state == serve::JobState::Done && record.summary &&
                 serve::summary_digest(*record.summary) == specs[index].digest;
    return outcome;
  }
}

struct CacheStats {
  std::uint64_t session_hits = 0, session_misses = 0;
  std::uint64_t artifact_hits = 0, artifact_misses = 0, artifact_rejects = 0;
};

CacheStats cache_stats(const Daemon& daemon) {
  const Json response = daemon.request(Json(Json::Object{}).set("cmd", "stats"));
  const Json& sessions = response.at("sessions");
  const Json& artifacts = response.at("artifacts");
  return {sessions.at("hits").as_u64(), sessions.at("misses").as_u64(),
          artifacts.at("hits").as_u64(), artifacts.at("misses").as_u64(),
          artifacts.at("rejected").as_u64()};
}

/// Submit each spec once, sequentially, checking every outcome.
std::vector<JobOutcome> one_of_each(const Daemon& daemon, const std::array<JobSpec, 3>& specs,
                                    Report& report) {
  serve::Client client(daemon.socket());
  std::vector<JobOutcome> outcomes;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    outcomes.push_back(submit_wait(client, specs, i));
    report.check(outcomes.back().ok, std::string("serve job digest: ") + specs[i].name);
  }
  return outcomes;
}

}  // namespace

void run_serve(const Options& opts, Report& report, Tracer& tracer) {
  namespace fs = std::filesystem;
  const std::array<JobSpec, 3> specs = write_specs(opts);
  const std::string cache_dir = opts.work + "/artifacts";

  // --- setup: daemon spawn → ping → first cold job of each spec ----------
  std::vector<double> setup_times;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    fs::remove_all(cache_dir);
    fs::create_directories(cache_dir);
    const Clock::time_point t0 = Clock::now();
    Daemon daemon(opts, cache_dir);
    daemon.wait_ready();
    const CacheStats before = cache_stats(daemon);
    one_of_each(daemon, specs, report);
    setup_times.push_back(seconds_since(t0));
    const CacheStats after = cache_stats(daemon);
    if (rep + 1 == kSetupReps) {
      report.note("serve cold phase: session misses +" +
                  std::to_string(after.session_misses - before.session_misses) +
                  ", artifact misses +" +
                  std::to_string(after.artifact_misses - before.artifact_misses) +
                  ", artifact hits +" +
                  std::to_string(after.artifact_hits - before.artifact_hits));
    }
    daemon.shutdown();
  }
  report.set("setup_s", summarize(setup_times).median);
  report.note(describe("serve setup (spawn → ping → one cold job per spec)",
                       summarize(setup_times), "s"));

  // --- measured daemon: restart over the warm artifact directory ----------
  Daemon daemon(opts, cache_dir);
  daemon.wait_ready();
  const CacheStats started = cache_stats(daemon);
  // Sessions warm from the artifact store; the fault-coverage job's record
  // gives the coverage metric (every later one has the same digest).
  const double coverage = one_of_each(daemon, specs, report)[1].coverage;
  const CacheStats before = cache_stats(daemon);

  std::vector<std::vector<JobOutcome>> outcomes(kClients);
  std::vector<std::string> errors(kClients);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          serve::Client client(daemon.socket());
          Rng rng(derive_seed(opts.seed, 100 + c));
          for (std::size_t job = 0; seconds_since(start) < opts.seconds; ++job) {
            const std::size_t index = rng.next_below(specs.size());
            // Traced runs trace the even-numbered jobs; the odd ones give
            // the untraced latencies the overhead is measured against.
            if (!opts.trace || job % 2 == 1) {
              outcomes[c].push_back(submit_wait(client, specs, index));
              continue;
            }
            const double begin = tracer.now();
            Tracer::Scope root(tracer, "bench.job");
            JobOutcome outcome;
            {
              Tracer::Scope wait(tracer, "serve.submit_wait");
              outcome = submit_wait(client, specs, index);
              tracer.add("api.job_setup", wait.id(), begin, begin + outcome.setup);
              tracer.add(std::string(specs[index].run_layer) + ".job_run", wait.id(),
                         begin + outcome.setup, begin + outcome.setup + outcome.run);
            }
            outcomes[c].push_back(outcome);
          }
        } catch (const std::exception& error) {
          errors[c] = error.what();
        }
      });
    }
  }
  const double elapsed = seconds_since(start);
  const CacheStats after = cache_stats(daemon);
  const double daemon_rss = daemon.peak_rss();
  daemon.shutdown();

  // --- oracle + metrics --------------------------------------------------
  std::vector<double> latency, setup, run, overhead;
  for (std::size_t c = 0; c < kClients; ++c) {
    report.check(errors[c].empty(), "serve client " + std::to_string(c) + ": " + errors[c]);
    for (const JobOutcome& job : outcomes[c]) {
      report.check(job.ok, std::string("serve job digest: ") + specs[job.spec].name);
      latency.push_back(job.latency);
      setup.push_back(job.setup * 1e3);
      run.push_back(job.run * 1e3);
      overhead.push_back((job.latency - job.setup - job.run) * 1e3);
    }
  }
  const Summary round_trip = summarize(latency);
  report.set("run_s", round_trip.median);
  report.set("work_per_s", static_cast<double>(latency.size()) / elapsed);
  report.set("coverage", coverage);
  report.set("peak_rss_mb", daemon_rss);
  report.set("serve.setup_ms", summarize(setup).median);
  report.set("serve.run_ms", summarize(run).median);
  report.set("serve.overhead_ms", summarize(overhead).median);
  report.set("serve.latency_p50_ms", round_trip.median * 1e3);
  report.set("serve.latency_p99_ms", round_trip.p99 * 1e3);
  report.set("serve.jobs", static_cast<double>(latency.size()));
  const double session_lookups = static_cast<double>(
      after.session_hits - before.session_hits + after.session_misses - before.session_misses);
  report.set("serve.session_hit_ratio",
             static_cast<double>(after.session_hits - before.session_hits) / session_lookups);
  // Artifact store traffic of the measured daemon: warm restart + measured jobs.
  report.set("sim.artifact_hits",
             static_cast<double>(after.artifact_hits - started.artifact_hits));
  report.set("sim.artifact_misses",
             static_cast<double>(after.artifact_misses - started.artifact_misses));
  report.set("sim.artifact_rejects",
             static_cast<double>(after.artifact_rejects - started.artifact_rejects));
  report.note(describe("serve round trip", round_trip, "s") + ", p99 " +
              std::to_string(round_trip.p99) + " s with ~" +
              std::to_string(latency.size() / 100) + " samples beyond it");
  report.note("serve jobs/s at " + std::to_string(kClients) +
              " closed-loop clients: " + std::to_string(latency.size() / elapsed));

  if (opts.trace) {
    std::vector<double> traced, untraced;
    for (const std::vector<JobOutcome>& jobs : outcomes) {
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        (j % 2 == 0 ? traced : untraced).push_back(jobs[j].latency);
      }
    }
    const Summary traced_summary = summarize(traced);
    const Summary untraced_summary = summarize(untraced);
    finish_trace(opts, report, tracer, traced_summary.median / untraced_summary.median - 1.0,
                 {describe("untraced jobs", untraced_summary, "s"),
                  describe("traced jobs", traced_summary, "s"),
                  "api.job_setup and *.job_run durations are the daemon's job record "
                  "(setup_seconds, run_seconds); serve.submit_wait self time is the rest: "
                  "queueing, the wait poll and the protocol."});
  }
}

}  // namespace perfbench
