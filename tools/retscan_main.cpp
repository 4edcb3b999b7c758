// retscan — command-line driver for declarative campaigns.
//
//   retscan run <campaign.spec> [overrides]   run a campaign spec file
//   retscan describe <campaign.spec>          validate + print the plan only
//   retscan serve [flags]                     campaign daemon (docs/serve.md)
//   retscan submit <campaign.spec> [flags]    queue a job on the daemon
//   retscan jobs | job <id> | cancel <id> | shutdown
//   retscan --version                         print the library version
//
// Overrides (applied after the file is parsed; submit forwards them):
//   --seed N --threads N --sequences N --backend NAME --schedule NAME
//   --checkpoint PATH --resume --deadline-ms N
//
// The spec format is `key = value` lines with '#' comments; see
// docs/spec-reference.md for the full key reference. One-shot `run` and the
// daemon's `submit --wait` share serve/protocol.hpp's override parser
// (parse_overrides), override applier (apply_overrides), result printer
// (print_summary) and exit-code rule (exit_code_for). Exit status: 0 when
// the campaign's pass verdict holds (no silent corruptions / no delivery
// mismatches), 1 otherwise, 2 on usage or spec errors, 3 when a deadline_ms
// budget expired, 130 when interrupted by SIGINT/SIGTERM (partial results —
// and, with --checkpoint, a journal to --resume from).

#include <csignal>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "retscan/retscan.hpp"
#include "retscan/serve.hpp"

namespace {

using namespace retscan;

int usage(std::ostream& out, int status) {
  out << "usage: retscan run <campaign.spec> [--seed N] [--threads N]\n"
         "                   [--sequences N] [--backend auto|reference|"
         "packed-parallel]\n"
         "                   [--schedule auto|sweep|event]\n"
         "                   [--checkpoint PATH] [--resume] [--deadline-ms N]\n"
         "       retscan describe <campaign.spec>\n"
         "       retscan serve [--socket PATH] [--cache-dir DIR] [--threads N]\n"
         "                     [--active N] [--session-cache N]\n"
         "       retscan submit <campaign.spec> [--socket PATH] [--wait]\n"
         "                      [run overrides as above]\n"
         "       retscan jobs [--socket PATH]\n"
         "       retscan job <id> [--socket PATH]\n"
         "       retscan cancel <id> [--socket PATH]\n"
         "       retscan shutdown [--socket PATH]\n"
         "       retscan --version | --help\n"
         "The daemon socket defaults to $RETSCAN_SOCKET, then ./retscan.sock.\n";
  return status;
}

/// SIGINT/SIGTERM land on the process-global cooperative cancel flag (an
/// async-signal-safe atomic store): running shards finish, pending shards
/// are skipped, the checkpoint journal keeps whatever completed, and the
/// campaign returns with CampaignStatus::Cancelled instead of dying
/// mid-write. A second signal falls back to the default handler — if the
/// graceful path itself wedged, the user can still kill the process.
extern "C" void on_cancel_signal(int signum) {
  retscan::request_global_cancel();
  std::signal(signum, SIG_DFL);
}

/// The spec's base netlist provenance + size — generator vs. imported file,
/// cell/flop counts — so spec debugging never needs a rebuild. `base` is
/// null when the caller skipped loading it (plain FIFO `run`).
void print_netlist_line(std::ostream& out, const SpecFile& file, const Netlist* base) {
  out << "netlist:  ";
  if (file.netlist_file.empty()) {
    // depth x width — the repo-wide convention ("32x2 FIFO slice").
    out << "generated " << file.fifo.depth << "x" << file.fifo.width << " FIFO";
  } else {
    out << "imported " << file.netlist_file;
  }
  if (base != nullptr) {
    const std::size_t ports = base->inputs().size() + base->outputs().size();
    out << " (module " << base->name() << ": " << base->cell_count() - ports
        << " cells, " << base->flops().size() << " flops, "
        << base->inputs().size() << " in / " << base->outputs().size() << " out)";
  }
  out << "\n";
}

void print_plan(std::ostream& out, const SpecFile& file, const Netlist* base,
                bool is_protected, Backend resolved, unsigned threads) {
  const CampaignSpec& c = file.campaign;
  print_netlist_line(out, file, base);
  if (!is_protected) {
    out << "design:   bare — no protection architecture (combinational import; "
           "coverage campaigns only)\n";
  } else {
    out << "design:   " << file.protection.chain_count << " chains, code ";
    switch (file.protection.kind) {
      case CodeKind::CrcDetect:      out << "crc"; break;
      case CodeKind::HammingCorrect: out << "hamming(r=" << file.protection.hamming_r << ")"; break;
      case CodeKind::HammingPlusCrc: out << "hamming(r=" << file.protection.hamming_r << ")+crc"; break;
    }
    out << (file.protection.secded ? " secded" : "") << "\n";
  }
  out << "campaign: " << to_string(c.kind) << ", seed " << c.seed << ", backend "
      << to_string(c.backend);
  if (c.backend == Backend::Auto) {
    out << " -> " << to_string(resolved);
  }
  out << ", " << threads << (threads == 1 ? " thread\n" : " threads\n");
  if (c.kind == CampaignKind::Validation || c.kind == CampaignKind::Injection) {
    out << "workload: " << c.sequences << " sequences, tier " << to_string(c.tier)
        << ", mode " << to_string(c.mode) << ", schedule " << to_string(c.schedule)
        << "\n";
  } else if (c.kind == CampaignKind::SequentialCoverage) {
    out << "workload: " << c.sequences << " random sequences x " << c.cycles
        << " cycles, no scan access\n";
  } else {
    out << "workload: atpg " << c.atpg.random_patterns << " random patterns, podem "
        << (c.atpg.run_podem ? "on" : "off");
    if (c.kind == CampaignKind::TransitionDelay) {
      out << ", launch/capture pairs";
    }
    out << "\n";
  }
  if (!c.checkpoint.empty() || c.deadline_ms) {
    out << "durable:  ";
    if (!c.checkpoint.empty()) {
      out << "checkpoint " << c.checkpoint << (c.resume ? " (resume)" : "");
    }
    if (c.deadline_ms) {
      out << (c.checkpoint.empty() ? "" : ", ") << "deadline " << *c.deadline_ms
          << " ms";
    }
    out << "\n";
  }
}

int run_command(const std::string& command, int argc, char** argv) {
  if (argc < 1) {
    std::cerr << "retscan " << command << ": missing spec file\n";
    return usage(std::cerr, 2);
  }
  const serve::SubmitOverrides overrides =
      serve::parse_overrides({argv + 1, argv + argc});
  SpecFile file = load_spec_file(argv[0]);
  serve::apply_overrides(file, overrides);

  Session session = make_session(file);
  const Backend resolved = resolve_backend(file.campaign, session);  // validates
  // describe always reports the base netlist's provenance and size; runs
  // over imported circuits get it too. This re-parses the Verilog file the
  // session already consumed — deliberate: the session only exposes the
  // *protected* netlist (and building it would trigger synthesis), while
  // this line reports the pre-protection base. Frontend parses are
  // milliseconds even on c880-scale files. Plain FIFO runs skip the extra
  // generator pass.
  std::optional<Netlist> base;
  if (command == "describe" || !file.netlist_file.empty()) {
    base.emplace(spec_base_netlist(file));
  }
  if (command == "describe") {
    // Provenance first — version, lane geometry, AVX2, resolved threads and
    // schedule — so a described plan can be tied to the binary/environment
    // that would execute it.
    print_build_info(std::cout);
  }
  print_plan(std::cout, file, base ? &*base : nullptr, session.is_protected(),
             resolved, resolve_threads(file.campaign, session));
  if (command == "describe") {
    std::cout << "spec OK (describe only, nothing run)\n";
    return 0;
  }
  // Graceful SIGINT/SIGTERM only around the actual campaign body — spec
  // parsing and synthesis stay immediately killable.
  std::signal(SIGINT, on_cancel_signal);
  std::signal(SIGTERM, on_cancel_signal);
  const CampaignResult result = run(session, file.campaign);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  const serve::ResultSummary summary = serve::summarize(result, file.campaign);
  serve::print_summary(std::cout, summary);
  return serve::exit_code_for(serve::state_for(result.status), &summary);
}

// --- service commands (docs/serve.md) --------------------------------------

/// SIGTERM/SIGINT on the daemon start the graceful drain: stop accepting,
/// finish every queued and running job, then exit. Running campaigns are
/// NOT cancelled — drain means "finish what was accepted". A second signal
/// falls back to the default handler for a hard kill.
extern "C" void on_serve_signal(int signum) {
  serve::Server::notify_signal();
  std::signal(signum, SIG_DFL);
}

int serve_command(int argc, char** argv) {
  std::string socket_path = serve::default_socket_path();
  serve::ServeOptions options;
  for (int i = 0; i < argc;) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "retscan serve: " << flag << " needs a value\n";
      return 2;
    }
    const std::string value = argv[i + 1];
    i += 2;
    if (flag == "--socket") {
      socket_path = value;
    } else if (flag == "--cache-dir") {
      options.cache_dir = value;
    } else if (flag == "--threads") {
      options.threads =
          static_cast<unsigned>(serve::parse_flag_u64(flag, value, 4096));
    } else if (flag == "--active") {
      options.max_active =
          static_cast<std::size_t>(serve::parse_flag_u64(flag, value, 64));
    } else if (flag == "--session-cache") {
      options.session_capacity =
          static_cast<std::size_t>(serve::parse_flag_u64(flag, value, 1024));
    } else {
      std::cerr << "retscan serve: unknown flag '" << flag << "'\n";
      return usage(std::cerr, 2);
    }
  }
  serve::Server server(socket_path, options);
  // Startup banner: the same provenance block `retscan describe` prints,
  // plus where the daemon is listening and what it caches.
  print_build_info(std::cout);
  std::cout << "socket:   " << server.socket_path() << "\n"
            << "cache:    "
            << (options.cache_dir.empty() ? std::string("(no artifact dir)")
                                          : options.cache_dir)
            << ", " << options.session_capacity << " warm sessions, "
            << options.max_active << " active jobs\n"
            << "pool:     " << server.jobs().threads()
            << " threads, shared by every job\n"
            << "serving\n"
            << std::flush;
  std::signal(SIGINT, on_serve_signal);
  std::signal(SIGTERM, on_serve_signal);
  server.run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::cout << "drained, exiting\n";
  return 0;
}

/// Shared --socket extraction for the client commands: removes the flag
/// pair from argv in place and returns the resolved path.
std::string take_socket_flag(int& argc, char** argv) {
  std::string socket_path = serve::default_socket_path();
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      socket_path = argv[i + 1];
      for (int j = i + 2; j < argc; ++j) {
        argv[j - 2] = argv[j];
      }
      argc -= 2;
      break;
    }
  }
  return socket_path;
}

int submit_command(int argc, char** argv) {
  const std::string socket_path = take_socket_flag(argc, argv);
  if (argc < 1) {
    std::cerr << "retscan submit: missing spec file\n";
    return usage(std::cerr, 2);
  }
  const std::string spec_path = argv[0];
  std::vector<std::string> flags(argv + 1, argv + argc);
  const bool wait = std::erase(flags, "--wait") != 0;
  // Parsed (and names checked) here, so a bad override never reaches the
  // daemon's queue.
  const serve::SubmitOverrides overrides = serve::parse_overrides(flags);

  serve::Client client(socket_path);
  serve::Json request = serve::Json::Object{};
  request.set("cmd", "submit")
      .set("spec", spec_path)
      .set("overrides", to_json(overrides));
  if (!wait) {
    const serve::Json response = client.request(request);
    std::cout << "job:      " << response.at("id").as_u64() << "\n";
    return 0;
  }
  request.set("wait", true);
  client.send(request);
  // Event lines stream until the terminal record arrives as the response.
  // Progress goes to stderr so stdout stays byte-comparable with a
  // one-shot `retscan run` of the same spec.
  for (;;) {
    const serve::Json line = client.read_line();
    if (line.has("event")) {
      std::cerr << "progress: job " << line.at("id").as_u64() << " "
                << line.at("state").as_string() << ", "
                << line.at("shards_done").as_u64() << "/"
                << line.at("shard_count").as_u64() << " shards\n";
      continue;
    }
    if (!line.at("ok").as_bool()) {
      std::cerr << "retscan: daemon: " << line.at("error").as_string() << "\n";
      return 2;
    }
    const serve::JobRecord record = serve::job_from_json(line.at("job"));
    if (record.state == serve::JobState::Failed) {
      std::cerr << "retscan: job " << record.id << " failed: " << record.error
                << "\n";
      return 2;
    }
    if (record.summary) {
      serve::print_summary(std::cout, *record.summary);
    }
    return serve::exit_code_for(record.state,
                                record.summary ? &*record.summary : nullptr);
  }
}

void print_job_line(std::ostream& out, const serve::JobRecord& record) {
  out << record.id << "\t" << to_string(record.state) << "\t"
      << record.shards_done << "/" << record.shard_count << "\t"
      << record.spec_path;
  if (record.summary) {
    out << "\t" << (record.summary->passed ? "PASS" : "FAIL") << " digest "
        << serve::summary_digest(*record.summary);
  }
  if (!record.error.empty()) {
    out << "\t" << record.error;
  }
  out << "\n";
}

int jobs_command(int argc, char** argv) {
  const std::string socket_path = take_socket_flag(argc, argv);
  serve::Client client(socket_path);
  serve::Json request = serve::Json::Object{};
  request.set("cmd", "list");
  const serve::Json response = client.request(request);
  for (const serve::Json& json : response.at("jobs").as_array()) {
    print_job_line(std::cout, serve::job_from_json(json));
  }
  return 0;
}

int job_command(int argc, char** argv) {
  const std::string socket_path = take_socket_flag(argc, argv);
  if (argc < 1) {
    std::cerr << "retscan job: missing job id\n";
    return 2;
  }
  const std::uint64_t id = serve::parse_flag_u64("job id", argv[0]);
  serve::Client client(socket_path);
  serve::Json request = serve::Json::Object{};
  request.set("cmd", "status").set("id", id);
  const serve::Json response = client.request(request);
  const serve::JobRecord record = serve::job_from_json(response.at("job"));
  print_job_line(std::cout, record);
  if (record.summary) {
    serve::print_summary(std::cout, *record.summary);
  }
  return 0;
}

int cancel_command(int argc, char** argv) {
  const std::string socket_path = take_socket_flag(argc, argv);
  if (argc < 1) {
    std::cerr << "retscan cancel: missing job id\n";
    return 2;
  }
  const std::uint64_t id = serve::parse_flag_u64("job id", argv[0]);
  serve::Client client(socket_path);
  serve::Json request = serve::Json::Object{};
  request.set("cmd", "cancel").set("id", id);
  const serve::Json response = client.request(request);
  const bool cancelled = response.at("cancelled").as_bool();
  std::cout << "cancel:   job " << id << " "
            << (cancelled ? "cancelled" : "not cancellable (unknown or "
                                          "already finished)")
            << "\n";
  return cancelled ? 0 : 1;
}

int shutdown_command(int argc, char** argv) {
  const std::string socket_path = take_socket_flag(argc, argv);
  serve::Client client(socket_path);
  serve::Json request = serve::Json::Object{};
  request.set("cmd", "shutdown");
  client.request(request);
  std::cout << "shutdown: daemon at " << socket_path << " is draining\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage(std::cerr, 2);
  }
  const std::string command = argv[1];
  if (command == "--version" || command == "-v" || command == "version") {
    std::cout << "retscan " << retscan::version_string() << "\n";
    return 0;
  }
  if (command == "--help" || command == "-h" || command == "help") {
    return usage(std::cout, 0);
  }
  try {
    if (command == "serve") {
      return serve_command(argc - 2, argv + 2);
    }
    if (command == "submit") {
      return submit_command(argc - 2, argv + 2);
    }
    if (command == "jobs") {
      return jobs_command(argc - 2, argv + 2);
    }
    if (command == "job") {
      return job_command(argc - 2, argv + 2);
    }
    if (command == "cancel") {
      return cancel_command(argc - 2, argv + 2);
    }
    if (command == "shutdown") {
      return shutdown_command(argc - 2, argv + 2);
    }
    if (command != "run" && command != "describe") {
      std::cerr << "retscan: unknown command '" << command << "'\n";
      return usage(std::cerr, 2);
    }
    return run_command(command, argc - 2, argv + 2);
  } catch (const retscan::Error& error) {
    std::cerr << "retscan: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "retscan: " << error.what() << "\n";
    return 2;
  }
}
