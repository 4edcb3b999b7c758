// Campaign service (src/serve/): the daemon's caches must be invisible in
// the results. A campaign submitted to a JobManager — cold session, cached
// session, 1 thread or 8 — must digest byte-identically to every other run
// of the same spec. Around that core equivalence claim: the wire JSON
// value, the session-cache key and LRU mechanics, job lifecycle (cancel
// both queued and running, failure isolation, overrides, drain), and a live
// Server end-to-end over a real Unix socket. The shared pool's fairness
// across concurrent callers is pinned in tests/test_parallel.cpp.

#include "retscan/serve.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/cancel.hpp"
#include "util/failpoint.hpp"

#ifndef RETSCAN_CIRCUITS_DIR
#define RETSCAN_CIRCUITS_DIR "bench/circuits"
#endif

namespace retscan::serve {
namespace {

std::string write_file(const std::string& name, const std::string& body) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / name;
  // Write-temp-then-rename: a daemon driver thread may be parsing the
  // previous incarnation of this path while the test writes the next one,
  // and a plain ofstream open truncates in place under the reader.
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp);
    out << body;
  }
  std::filesystem::rename(tmp, path);
  return path.string();
}

// Small specs, one per campaign kind — sized to finish in well under a
// second each so the equivalence matrix (3 kinds x 2 thread counts x
// cold/cached) stays cheap.
std::string validation_spec() {
  return write_file("serve_validation.spec",
                    "fifo.depth = 32\n"
                    "fifo.width = 4\n"
                    "protection.kind = hamming+crc\n"
                    "protection.hamming_r = 3\n"
                    "protection.chain_count = 4\n"
                    "campaign.kind = validation\n"
                    "campaign.seed = 11\n"
                    "campaign.sequences = 2000\n"
                    "campaign.mode = single-random\n");
}

std::string coverage_spec() {
  return write_file("serve_coverage.spec",
                    std::string("netlist = ") + RETSCAN_CIRCUITS_DIR +
                        "/ctrl344.v\n"
                        "campaign.kind = fault-coverage\n"
                        "campaign.seed = 7\n"
                        "campaign.atpg.random_patterns = 64\n"
                        "campaign.atpg.max_backtracks = 200\n");
}

std::string scan_spec() {
  return write_file("serve_scan.spec",
                    "fifo.depth = 32\n"
                    "fifo.width = 2\n"
                    "protection.kind = hamming+crc\n"
                    "protection.hamming_r = 3\n"
                    "protection.chain_count = 8\n"
                    "protection.test_width = 4\n"
                    "campaign.kind = scan-test\n"
                    "campaign.seed = 1\n"
                    "campaign.atpg.random_patterns = 64\n"
                    "campaign.atpg.max_backtracks = 200\n");
}

JobRecord run_one(JobManager& manager, const std::string& spec,
                  const SubmitOverrides& overrides = {}) {
  const std::uint64_t id = manager.submit(spec, overrides);
  const auto record = manager.wait(id);
  EXPECT_TRUE(record.has_value());
  return record.value_or(JobRecord{});
}

// ---------------------------------------------------------------------------
// Wire JSON value.

TEST(ServeJson, RoundTripsExactU64AndStructure) {
  Json obj = Json::Object{};
  obj.set("max", std::uint64_t{18446744073709551615ull})
      .set("rate", 0.25)
      .set("name", "c17 \"quoted\" \n line")
      .set("flag", true)
      .set("none", nullptr)
      .set("list", Json(Json::Array{Json(1), Json(2), Json(3)}));
  const Json back = Json::parse(obj.dump());
  EXPECT_EQ(back.at("max").as_u64(), 18446744073709551615ull);
  EXPECT_EQ(back.at("rate").as_double(), 0.25);
  EXPECT_EQ(back.at("name").as_string(), "c17 \"quoted\" \n line");
  EXPECT_TRUE(back.at("flag").as_bool());
  EXPECT_TRUE(back.at("none").is_null());
  EXPECT_EQ(back.at("list").as_array().size(), 3u);
  // Single-line framing: no raw newline may survive serialization.
  EXPECT_EQ(obj.dump().find('\n'), std::string::npos);
}

TEST(ServeJson, RejectsMalformedInputWithOffsets) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), Error);
  EXPECT_THROW(Json::parse("{\"a\":1} junk"), Error);
  EXPECT_THROW(Json::parse("\"\\ud800\""), Error);  // lone surrogate
  EXPECT_THROW(Json::parse("nul"), Error);
  EXPECT_THROW(Json(0.5).as_u64(), Error);  // exact integers only
  EXPECT_THROW(Json("x").as_u64(), Error);
  EXPECT_THROW(Json(true).at("missing"), Error);
}

// ---------------------------------------------------------------------------
// Session-cache key and LRU mechanics.

TEST(ServeSessionKey, HashesDesignShapingFieldsOnly) {
  SpecFile a;
  a.fifo = {8, 8};
  const std::uint64_t base = session_key(a);
  EXPECT_EQ(session_key(a), base);  // deterministic

  SpecFile b = a;
  b.campaign.seed = 999;  // campaign knobs do not shape the design
  b.campaign.threads = 7;
  EXPECT_EQ(session_key(b), base);

  b = a;
  b.fifo.depth = 16;
  EXPECT_NE(session_key(b), base);
  b = a;
  b.protection.hamming_r = 4;
  EXPECT_NE(session_key(b), base);
  b = a;
  b.protection.chain_count += 1;
  EXPECT_NE(session_key(b), base);
}

TEST(ServeSessionKey, NetlistKeyTracksFileBytesNotPath) {
  const std::string v = "module m(input a, output y); assign y = a; endmodule\n";
  SpecFile one;
  one.netlist_file = write_file("key_one.v", v);
  SpecFile two;
  two.netlist_file = write_file("key_two.v", v);
  // Same bytes at a different path: same design, same key.
  EXPECT_EQ(session_key(one), session_key(two));

  SpecFile edited;
  edited.netlist_file = write_file("key_three.v", v + "// edited\n");
  EXPECT_NE(session_key(edited), session_key(one));

  SpecFile missing;
  missing.netlist_file = "/nonexistent/never.v";
  EXPECT_THROW(session_key(missing), Error);
}

TEST(ServeSessionCache, CheckoutIsExclusiveAndEvictionIsLru) {
  SessionCache cache(2);
  EXPECT_EQ(cache.checkout(1), nullptr);  // miss
  const SpecFile file = load_spec_file(validation_spec());
  cache.checkin(1, std::make_unique<Session>(make_session(file)));
  auto session = cache.checkout(1);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(cache.checkout(1), nullptr);  // exclusive: handed out once
  cache.checkin(1, std::move(session));

  cache.checkin(2, std::make_unique<Session>(make_session(file)));
  cache.checkin(3, std::make_unique<Session>(make_session(file)));  // evicts 1
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.checkout(1), nullptr);
  EXPECT_NE(cache.checkout(3), nullptr);
  const SessionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);

  SessionCache none(0);  // capacity zero: checkin is a drop
  none.checkin(9, std::make_unique<Session>(make_session(file)));
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.checkout(9), nullptr);
}

// ---------------------------------------------------------------------------
// The core claim: caches and thread counts never change results.

TEST(ServeEquivalence, CachedSessionsDigestIdenticalAcrossKindsAndThreads) {
  const std::string specs[] = {validation_spec(), coverage_spec(),
                               scan_spec()};
  for (const std::string& spec : specs) {
    std::uint64_t digest_at_threads[2] = {0, 0};
    int slot = 0;
    for (const unsigned threads : {1u, 8u}) {
      ServeOptions options;
      options.threads = threads;
      options.session_capacity = 4;
      options.max_active = 1;
      JobManager manager(options);

      const JobRecord cold = run_one(manager, spec);
      ASSERT_EQ(cold.state, JobState::Done) << spec << " " << cold.error;
      ASSERT_TRUE(cold.summary.has_value());
      EXPECT_FALSE(cold.session_reused);

      const JobRecord warm = run_one(manager, spec);
      ASSERT_EQ(warm.state, JobState::Done) << spec << " " << warm.error;
      ASSERT_TRUE(warm.summary.has_value());
      EXPECT_TRUE(warm.session_reused) << spec;
      EXPECT_EQ(manager.session_stats().hits, 1u);

      // Cold vs cached: byte-identical statistics.
      EXPECT_EQ(summary_digest(*warm.summary), summary_digest(*cold.summary))
          << spec << " at " << threads << " threads";
      digest_at_threads[slot++] = summary_digest(*cold.summary);
    }
    // 1 thread vs 8 threads: byte-identical statistics.
    EXPECT_EQ(digest_at_threads[0], digest_at_threads[1]) << spec;
  }
}

TEST(ServeEquivalence, SummarySurvivesTheWireAndDetectsTampering) {
  ServeOptions options;
  options.max_active = 1;
  JobManager manager(options);
  const JobRecord record = run_one(manager, validation_spec());
  ASSERT_TRUE(record.summary.has_value());

  const Json wire = to_json(*record.summary);
  const ResultSummary back = summary_from_json(Json::parse(wire.dump()));
  EXPECT_EQ(summary_digest(back), summary_digest(*record.summary));
  EXPECT_EQ(back.sequences, record.summary->sequences);
  EXPECT_EQ(back.passed, record.summary->passed);

  Json corrupt = Json::parse(wire.dump());
  corrupt.set("detected", corrupt.at("detected").as_u64() + 1);
  EXPECT_THROW(summary_from_json(corrupt), Error);  // digest mismatch

  // The whole job record round-trips too (list/status responses).
  const JobRecord again = job_from_json(Json::parse(to_json(record).dump()));
  EXPECT_EQ(again.id, record.id);
  EXPECT_EQ(again.state, record.state);
  ASSERT_TRUE(again.summary.has_value());
  EXPECT_EQ(summary_digest(*again.summary), summary_digest(*record.summary));
}

/// Every field of ResultSummary set, each to a different value.
ResultSummary fixed_summary() {
  ResultSummary s;
  s.kind = "scan-test";
  s.backend = "packed-parallel";
  s.schedule = "event";
  s.status = "complete";
  s.threads = 3;
  s.shard_count = 5;
  s.shards_completed = 5;
  s.shards_resumed = 2;
  s.seconds = 1.25;
  s.checkpoint = "x.journal";
  s.passed = true;
  s.sequences = 1001;
  s.errors_injected = 1002;
  s.sequences_with_errors = 1003;
  s.detected = 1004;
  s.corrected = 1005;
  s.flagged_uncorrectable = 1006;
  s.comparator_mismatches = 1007;
  s.silent_corruptions = 1008;
  s.atpg_patterns = 2001;
  s.atpg_total_faults = 2002;
  s.atpg_detected_random = 2003;
  s.atpg_detected_podem = 2004;
  s.atpg_untestable = 2005;
  s.atpg_aborted = 2006;
  s.faults_total = 2007;
  s.faults_detected = 2008;
  s.scan_patterns_applied = 2009;
  s.scan_mismatches = 2010;
  s.event_sweeps = 3001;
  s.full_sweeps = 3002;
  s.full_sweep_fallbacks = 3003;
  s.event_instrs = 3004;
  s.sweep_instrs = 3005;
  s.instr_capacity = 3006;
  return s;
}

TEST(ServeEquivalence, DigestAndWireFormOfAFixedSummaryArePinned) {
  // Pinned digest and JSON of fixed_summary(): the one field table behind
  // to_json, summary_from_json and summary_digest must keep every key,
  // every value and each field's position in the digest.
  const ResultSummary s = fixed_summary();
  EXPECT_EQ(summary_digest(s), 14564031263717650967ull);
  const std::string wire = to_json(s).dump();
  EXPECT_EQ(wire,
      R"({"atpg_aborted":2006,"atpg_detected_podem":2004,)"
      R"("atpg_detected_random":2003,"atpg_patterns":2001,)"
      R"("atpg_total_faults":2002,"atpg_untestable":2005,)"
      R"("backend":"packed-parallel","checkpoint":"x.journal",)"
      R"("comparator_mismatches":1007,"corrected":1005,"detected":1004,)"
      R"("digest":14564031263717650967,"errors_injected":1002,)"
      R"("event_instrs":3004,"event_sweeps":3001,"faults_detected":2008,)"
      R"("faults_total":2007,"flagged_uncorrectable":1006,)"
      R"("full_sweep_fallbacks":3003,"full_sweeps":3002,)"
      R"("instr_capacity":3006,"kind":"scan-test","passed":true,)"
      R"("scan_mismatches":2010,"scan_patterns_applied":2009,)"
      R"("schedule":"event","seconds":1.25,"sequences":1001,)"
      R"("sequences_with_errors":1003,"shard_count":5,"shards_completed":5,)"
      R"("shards_resumed":2,"silent_corruptions":1008,"status":"complete",)"
      R"("sweep_instrs":3005,"threads":3})");

  // Not statistics: execution shape, wall clock and journal path.
  ResultSummary shape = s;
  shape.backend = "reference";
  shape.threads = 8;
  shape.shards_resumed = 0;
  shape.seconds = 9.0;
  shape.checkpoint.clear();
  EXPECT_EQ(summary_digest(shape), summary_digest(s));

  // Every field survives the round trip, the non-digest ones included.
  EXPECT_EQ(to_json(summary_from_json(Json::parse(wire))).dump(), wire);
}

// ---------------------------------------------------------------------------
// One front end: `retscan run` and `retscan submit --wait` share the
// override parser, the result printer and the exit-code rule.

/// The `result:`/`schedule:`/`verdict:` lines of a printed summary — the
/// lines the serve CI job diffs between `run` and `submit --wait`.
std::string verdict_block(const ResultSummary& summary) {
  std::ostringstream printed;
  print_summary(printed, summary);
  std::istringstream lines(printed.str());
  std::string block;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("result:", 0) == 0 || line.rfind("schedule:", 0) == 0 ||
        line.rfind("verdict:", 0) == 0) {
      block += line + "\n";
    }
  }
  return block;
}

/// The `result:` line in the CLI's wording, built from the campaign result
/// itself rather than from its wire summary.
std::string expected_result_line(const CampaignResult& r) {
  std::ostringstream out;
  const std::size_t patterns = r.atpg.patterns.size();
  const auto faults = [&] {
    out << 100.0 * r.faults.coverage() << "% (" << r.faults.detected << "/"
        << r.faults.total_faults << " faults)";
  };
  out << "result:   ";
  switch (r.kind) {
    case CampaignKind::Validation:
    case CampaignKind::Injection:
      out << r.validation.sequences << " sequences, "
          << r.validation.sequences_with_errors << " with errors, detection "
          << 100.0 * r.validation.detection_rate() << "%, correction "
          << 100.0 * r.validation.correction_rate() << "%";
      break;
    case CampaignKind::FaultCoverage:
      out << patterns << " patterns, coverage " << 100.0 * r.atpg.coverage()
          << "% (" << r.faults.detected << "/" << r.faults.total_faults
          << " faults via fault-sim, " << r.atpg.untestable << " untestable, "
          << r.atpg.aborted << " aborted)";
      break;
    case CampaignKind::TransitionDelay:
      out << patterns << " patterns (" << (patterns == 0 ? 0 : patterns - 1)
          << " launch/capture pairs), transition coverage ";
      faults();
      break;
    case CampaignKind::Bridging:
      out << patterns << " patterns, bridging coverage ";
      faults();
      break;
    case CampaignKind::SequentialCoverage:
      out << "sequential coverage ";
      faults();
      break;
    case CampaignKind::ScanTest:
      out << r.scan_test.patterns_applied << " patterns delivered, "
          << r.scan_test.mismatches << " mismatches (coverage "
          << 100.0 * r.atpg.coverage() << "%, " << r.atpg.untestable
          << " untestable, " << r.atpg.aborted << " aborted)";
      break;
  }
  return out.str();
}

TEST(ServeFrontEnd, EveryCampaignKindPrintsOneResultBlock) {
  const std::string fifo =
      "fifo.depth = 32\n"
      "fifo.width = 2\n"
      "protection.kind = hamming+crc\n"
      "protection.hamming_r = 3\n"
      "protection.chain_count = 8\n"
      "protection.test_width = 4\n";
  const std::string atpg =
      "campaign.seed = 1\n"
      "campaign.atpg.random_patterns = 64\n"
      "campaign.atpg.max_backtracks = 100\n";
  const std::pair<CampaignKind, std::string> cases[] = {
      {CampaignKind::Validation,
       fifo + "campaign.kind = validation\ncampaign.seed = 5\n"
              "campaign.sequences = 256\ncampaign.tier = structural\n"},
      {CampaignKind::Injection,
       fifo + "campaign.kind = injection\ncampaign.seed = 6\n"
              "campaign.sequences = 500\ncampaign.mode = rush-model\n"},
      {CampaignKind::FaultCoverage,
       std::string("netlist = ") + RETSCAN_CIRCUITS_DIR +
           "/ctrl344.v\ncampaign.kind = fault-coverage\n" + atpg},
      {CampaignKind::TransitionDelay,
       fifo + "campaign.kind = transition-delay\ncampaign.atpg.run_podem = false\n" + atpg},
      {CampaignKind::Bridging,
       fifo + "campaign.kind = bridging\ncampaign.atpg.run_podem = false\n" + atpg},
      {CampaignKind::SequentialCoverage,
       fifo + "campaign.kind = sequential-coverage\ncampaign.seed = 1\n"
              "campaign.sequences = 8\ncampaign.cycles = 4\n"},
      {CampaignKind::ScanTest, fifo + "campaign.kind = scan-test\n" + atpg},
  };
  ServeOptions options;
  options.max_active = 1;
  JobManager manager(options);
  for (const auto& [kind, body] : cases) {
    SCOPED_TRACE(to_string(kind));
    const std::string spec =
        write_file(std::string("serve_kind_") + to_string(kind) + ".spec", body);

    // `retscan run`: the campaign in this process, printed from its summary.
    const SpecFile file = load_spec_file(spec);
    ASSERT_EQ(file.campaign.kind, kind);
    Session session = make_session(file);
    const CampaignResult result = run(session, file.campaign);
    const ResultSummary summary = summarize(result, file.campaign);
    const std::string block = verdict_block(summary);
    EXPECT_EQ(block.substr(0, block.find('\n')), expected_result_line(result));
    EXPECT_EQ(exit_code_for(state_for(result.status), &summary), 0);

    // `retscan submit --wait`: the same spec through the daemon's job path.
    const JobRecord job = run_one(manager, spec);
    ASSERT_EQ(job.state, JobState::Done) << job.error;
    ASSERT_TRUE(job.summary.has_value());
    EXPECT_EQ(verdict_block(*job.summary), block);
    EXPECT_EQ(exit_code_for(job.state, &*job.summary), 0);
  }
}

TEST(ServeFrontEnd, ExitCodeRuleCoversEveryOutcome) {
  ResultSummary pass;
  pass.passed = true;
  const ResultSummary fail;
  EXPECT_EQ(exit_code_for(state_for(CampaignStatus::Complete), &pass), 0);
  EXPECT_EQ(exit_code_for(state_for(CampaignStatus::Complete), &fail), 1);
  EXPECT_EQ(exit_code_for(state_for(CampaignStatus::Timeout), &pass), 3);
  EXPECT_EQ(exit_code_for(state_for(CampaignStatus::Cancelled), &pass), 130);
  EXPECT_EQ(exit_code_for(JobState::Failed, nullptr), 2);
}

TEST(ServeFrontEnd, ParseOverridesReadsEveryRunFlag) {
  EXPECT_EQ(to_json(parse_overrides({})).dump(), "{}");

  const SubmitOverrides all = parse_overrides(
      {"--seed", "404", "--threads", "3", "--sequences", "500", "--backend",
       "reference", "--schedule", "sweep", "--checkpoint", "x.journal",
       "--resume", "--deadline-ms", "5000"});
  EXPECT_EQ(all.seed, 404u);
  EXPECT_EQ(all.threads, 3u);
  EXPECT_EQ(all.sequences, 500u);
  EXPECT_EQ(all.backend, "reference");
  EXPECT_EQ(all.schedule, "sweep");
  EXPECT_EQ(all.checkpoint, "x.journal");
  EXPECT_TRUE(all.resume);
  EXPECT_EQ(all.deadline_ms, 5000u);

  // One flag sets one field and nothing else.
  const std::pair<std::vector<std::string>, std::string> single[] = {
      {{"--seed", "7"}, R"({"seed":7})"},
      {{"--threads", "4096"}, R"({"threads":4096})"},
      {{"--sequences", "0"}, R"({"sequences":0})"},
      {{"--backend", "packed-parallel"}, R"({"backend":"packed-parallel"})"},
      {{"--schedule", "event"}, R"({"schedule":"event"})"},
      {{"--checkpoint", "run.journal"}, R"({"checkpoint":"run.journal"})"},
      {{"--resume"}, R"({"resume":true})"},
      {{"--deadline-ms", "18446744073709551615"},
       R"({"deadline_ms":18446744073709551615})"},
  };
  for (const auto& [args, json] : single) {
    SCOPED_TRACE(args.front());
    EXPECT_EQ(to_json(parse_overrides(args)).dump(), json);
  }
}

TEST(ServeFrontEnd, ParseOverridesRejectsBadFlagsBeforeSubmission) {
  const auto rejection = [](const std::vector<std::string>& args) {
    try {
      parse_overrides(args);
    } catch (const Error& error) {
      return std::string(error.what());
    }
    return std::string("(accepted)");
  };
  EXPECT_EQ(rejection({"--bogus", "1"}), "unknown flag '--bogus'");
  EXPECT_EQ(rejection({"--wait"}), "unknown flag '--wait'");
  EXPECT_EQ(rejection({"--seed"}), "--seed needs a value");
  EXPECT_EQ(rejection({"--seed", "-1"}),
            "--seed needs a non-negative integer, got '-1'");
  EXPECT_EQ(rejection({"--sequences", "10abc"}),
            "--sequences needs a non-negative integer, got '10abc'");
  EXPECT_EQ(rejection({"--threads", "5000"}),
            "--threads = 5000 is out of range (max 4096)");
  const std::string bad_backend =
      "unknown backend 'packed' (want auto, reference or packed-parallel)";
  const std::string bad_schedule =
      "unknown schedule 'fast' (want auto, sweep or event)";
  EXPECT_EQ(rejection({"--backend", "packed"}), bad_backend);
  EXPECT_EQ(rejection({"--schedule", "fast"}), bad_schedule);

  // JSON from the socket is outside input: apply_overrides re-checks it
  // and rejects with the same message.
  SpecFile file = load_spec_file(validation_spec());
  const auto applied = [&](const SubmitOverrides& overrides) {
    try {
      apply_overrides(file, overrides);
    } catch (const Error& error) {
      return std::string(error.what());
    }
    return std::string("(accepted)");
  };
  SubmitOverrides wire;
  wire.backend = "packed";
  EXPECT_EQ(applied(wire), bad_backend);
  wire = {};
  wire.schedule = "fast";
  EXPECT_EQ(applied(wire), bad_schedule);
  wire = {};
  wire.threads = 5000;
  EXPECT_EQ(applied(wire), "--threads = 5000 is out of range (max 4096)");
}

// ---------------------------------------------------------------------------
// Job lifecycle.

TEST(ServeJobManager, OverridesShapeTheCampaign) {
  ServeOptions options;
  options.max_active = 1;
  JobManager manager(options);
  const std::string spec = validation_spec();

  SubmitOverrides overrides;
  overrides.sequences = 500;
  const JobRecord shrunk = run_one(manager, spec, overrides);
  ASSERT_EQ(shrunk.state, JobState::Done) << shrunk.error;
  EXPECT_EQ(shrunk.summary->sequences, 500u);

  // apply_overrides is what `retscan run` applies its flags with too.
  SpecFile file = load_spec_file(spec);
  overrides = {};
  overrides.seed = 404;
  overrides.threads = 3;
  overrides.backend = "reference";
  overrides.schedule = "sweep";
  overrides.checkpoint = "x.journal";
  overrides.resume = true;
  overrides.deadline_ms = 5000;
  apply_overrides(file, overrides);
  EXPECT_EQ(file.campaign.seed, 404u);
  EXPECT_EQ(file.campaign.threads, 3u);
  EXPECT_EQ(file.campaign.backend, Backend::Reference);
  EXPECT_EQ(file.campaign.checkpoint, "x.journal");
  EXPECT_TRUE(file.campaign.resume);
  EXPECT_EQ(file.campaign.deadline_ms, 5000u);

  SubmitOverrides bad;
  bad.backend = "quantum";
  EXPECT_THROW(apply_overrides(file, bad), Error);

  // Overrides survive the wire.
  const SubmitOverrides back =
      overrides_from_json(Json::parse(to_json(overrides).dump()));
  EXPECT_EQ(back.seed, overrides.seed);
  EXPECT_EQ(back.backend, overrides.backend);
  EXPECT_EQ(back.resume, overrides.resume);
  EXPECT_EQ(back.deadline_ms, overrides.deadline_ms);
}

TEST(ServeJobManager, ThreadsOtherThanThePoolFailTheJob) {
  ServeOptions options;
  options.threads = 2;
  options.max_active = 1;
  JobManager manager(options);
  const std::string spec = validation_spec();

  SubmitOverrides overrides;
  overrides.threads = 3;
  const JobRecord wider = run_one(manager, spec, overrides);
  EXPECT_EQ(wider.state, JobState::Failed);
  EXPECT_NE(wider.error.find("retscan serve --threads 3"), std::string::npos)
      << wider.error;
  EXPECT_FALSE(wider.summary.has_value());

  // The spec key is checked the same way.
  std::ostringstream body;
  body << std::ifstream(spec).rdbuf() << "campaign.threads = 3\n";
  const JobRecord from_spec =
      run_one(manager, write_file("serve_threads.spec", body.str()));
  EXPECT_EQ(from_spec.state, JobState::Failed);
  EXPECT_NE(from_spec.error.find("retscan serve --threads"), std::string::npos);

  // 0 and the pool's own size both run on the pool.
  for (const std::uint64_t threads : {0u, 2u}) {
    overrides.threads = threads;
    const JobRecord ran = run_one(manager, spec, overrides);
    EXPECT_EQ(ran.state, JobState::Done) << threads << ": " << ran.error;
    ASSERT_TRUE(ran.summary.has_value());
    EXPECT_EQ(ran.summary->threads, 2u);
  }
}

TEST(ServeJobManager, BadSpecFailsTheJobNotTheDaemon) {
  ServeOptions options;
  options.max_active = 1;
  JobManager manager(options);
  const JobRecord bad = run_one(manager, "/nonexistent/campaign.spec");
  EXPECT_EQ(bad.state, JobState::Failed);
  EXPECT_FALSE(bad.error.empty());
  EXPECT_FALSE(bad.summary.has_value());
  EXPECT_EQ(exit_code_for(bad.state, nullptr), 2);

  // The driver thread survived: the next job runs normally.
  const JobRecord good = run_one(manager, validation_spec());
  EXPECT_EQ(good.state, JobState::Done) << good.error;
  EXPECT_EQ(exit_code_for(good.state, &*good.summary),
            good.summary->passed ? 0 : 1);
}

TEST(ServeJobManager, FinishedCoverageJobCountsEveryShard) {
  ServeOptions options;
  options.max_active = 1;
  JobManager manager(options);
  // The finished record shows the whole shard plan done (`retscan jobs`
  // prints N/N).
  const JobRecord done = run_one(manager, coverage_spec());
  ASSERT_EQ(done.state, JobState::Done) << done.error;
  ASSERT_TRUE(done.summary.has_value());
  EXPECT_GT(done.shard_count, 1u);
  EXPECT_EQ(done.shards_done, done.shard_count);
  EXPECT_EQ(done.summary->shards_completed, done.summary->shard_count);
}

TEST(ServeJobManager, CancelHitsQueuedAndRunningJobs) {
  ServeOptions options;
  options.max_active = 1;  // one driver: FIFO order is deterministic
  JobManager manager(options);

  // A long-running head-of-line job (many shards, so a running cancel
  // takes effect at the next shard boundary almost immediately).
  SubmitOverrides big;
  big.sequences = 2000000;
  const std::uint64_t running = manager.submit(validation_spec(), big);
  const std::uint64_t queued = manager.submit(validation_spec(), {});

  // The second job cannot start while the single driver owns the first:
  // cancelling it exercises the queued path.
  EXPECT_TRUE(manager.cancel(queued));
  const auto queued_record = manager.wait(queued);
  ASSERT_TRUE(queued_record.has_value());
  EXPECT_EQ(queued_record->state, JobState::Cancelled);

  EXPECT_TRUE(manager.cancel(running));
  const auto running_record = manager.wait(running);
  ASSERT_TRUE(running_record.has_value());
  EXPECT_EQ(running_record->state, JobState::Cancelled);
  EXPECT_EQ(exit_code_for(running_record->state, nullptr), 130);
  if (running_record->summary.has_value()) {
    EXPECT_EQ(running_record->summary->status, "cancelled");
    EXPECT_LT(running_record->summary->shards_completed,
              running_record->summary->shard_count);
  }

  EXPECT_FALSE(manager.cancel(running));  // already terminal
  EXPECT_FALSE(manager.cancel(777));      // unknown

  EXPECT_EQ(manager.list().size(), 2u);
}

// A running fault-coverage job stops at its next shard once cancelled:
// every shard (ATPG grading and coverage grading alike) sleeps 50 ms, so
// the cancel lands while the job is still running.
TEST(ServeJobManager, CancelStopsARunningCoverageJob) {
  const char* prior = std::getenv("RETSCAN_FAILPOINTS");
  const std::string saved = prior != nullptr ? prior : "";
  ::setenv("RETSCAN_FAILPOINTS", "shard.run=delay:50@every", 1);
  failpoints_refresh();
  {
    ServeOptions options;
    options.max_active = 1;
    options.threads = 1;  // one shard at a time: shards remain at the cancel
    JobManager manager(options);
    const std::uint64_t id = manager.submit(coverage_spec(), {});
    // Cancel mid-run: wait until at least one shard has completed.
    manager.wait(id, [](const JobRecord& now) { return now.shards_done == 0; });
    EXPECT_TRUE(manager.cancel(id));
    const auto record = manager.wait(id);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->state, JobState::Cancelled) << record->error;
    ASSERT_TRUE(record->summary.has_value());
    EXPECT_EQ(record->summary->status, "cancelled");
    EXPECT_GE(record->summary->shards_completed, 1u);
    EXPECT_LT(record->summary->shards_completed, record->summary->shard_count);
    EXPECT_FALSE(record->summary->passed);
  }
  if (prior != nullptr) {
    ::setenv("RETSCAN_FAILPOINTS", saved.c_str(), 1);
  } else {
    ::unsetenv("RETSCAN_FAILPOINTS");
  }
  failpoints_refresh();
}

// Reference validation runs on the shared runner's shard loop like every
// other backend, so a cancel stops it between shards.
TEST(ServeJobManager, CancelStopsARunningReferenceJob) {
  const char* prior = std::getenv("RETSCAN_FAILPOINTS");
  const std::string saved = prior != nullptr ? prior : "";
  ::setenv("RETSCAN_FAILPOINTS", "shard.run=delay:50@every", 1);
  failpoints_refresh();
  {
    ServeOptions options;
    options.max_active = 1;
    options.threads = 1;  // one shard at a time: shards remain at the cancel
    JobManager manager(options);
    SubmitOverrides reference;
    reference.backend = "reference";
    reference.sequences = 40960;  // 10 behavioral shards
    const std::uint64_t id = manager.submit(validation_spec(), reference);
    // Cancel mid-run: wait until at least one shard has completed.
    manager.wait(id, [](const JobRecord& now) { return now.shards_done == 0; });
    EXPECT_TRUE(manager.cancel(id));
    const auto record = manager.wait(id);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->state, JobState::Cancelled) << record->error;
    ASSERT_TRUE(record->summary.has_value());
    EXPECT_EQ(record->summary->status, "cancelled");
    EXPECT_EQ(record->summary->backend, "reference");
    EXPECT_GE(record->summary->shards_completed, 1u);
    EXPECT_LT(record->summary->shards_completed, record->summary->shard_count);
    EXPECT_FALSE(record->summary->passed);
  }
  if (prior != nullptr) {
    ::setenv("RETSCAN_FAILPOINTS", saved.c_str(), 1);
  } else {
    ::unsetenv("RETSCAN_FAILPOINTS");
  }
  failpoints_refresh();
}

TEST(ServeJobManager, WaitReportsEachChangeThenTheTerminalRecord) {
  ServeOptions options;
  options.max_active = 1;
  JobManager manager(options);
  SubmitOverrides many_shards;
  many_shards.sequences = 20000;  // 5 behavioral shards

  const std::uint64_t id = manager.submit(validation_spec(), many_shards);
  std::vector<JobRecord> seen;
  const auto record = manager.wait(id, [&](const JobRecord& now) {
    seen.push_back(now);
    return true;
  });
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::Done) << record->error;
  EXPECT_GT(record->shard_count, 1u);
  EXPECT_EQ(record->shards_done, record->shard_count);
  ASSERT_FALSE(seen.empty());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_FALSE(is_terminal(seen[i].state)) << "change " << i;
    if (i > 0) {
      EXPECT_GE(seen[i].shards_done, seen[i - 1].shards_done) << "change " << i;
      EXPECT_TRUE(seen[i].state != seen[i - 1].state ||
                  seen[i].shards_done != seen[i - 1].shards_done)
          << "change " << i << " repeats the previous one";
    }
  }

  // A callback that returns false ends the wait; the job runs on.
  const std::uint64_t next = manager.submit(validation_spec(), many_shards);
  std::size_t calls = 0;
  const auto left = manager.wait(next, [&](const JobRecord&) {
    ++calls;
    return false;
  });
  ASSERT_TRUE(left.has_value());
  EXPECT_EQ(calls, 1u);
  EXPECT_FALSE(is_terminal(left->state));
  EXPECT_EQ(manager.wait(next)->state, JobState::Done);
}

TEST(ServeJobManager, KeepsOnlyTheLastFinishedRecords) {
  ServeOptions options;
  options.max_active = 1;
  JobManager manager(options);
  constexpr std::size_t kKept = JobManager::kFinishedJobsKept;
  // A spec path that does not exist fails its job in microseconds.
  std::uint64_t last = 0;
  for (std::size_t i = 0; i < kKept + 8; ++i) {
    last = manager.submit("/nonexistent/campaign.spec", {});
  }
  ASSERT_EQ(manager.wait(last)->state, JobState::Failed);
  EXPECT_EQ(manager.list().size(), kKept);
  for (std::uint64_t id = 1; id <= 8; ++id) {
    EXPECT_FALSE(manager.status(id).has_value()) << "job " << id;
    EXPECT_FALSE(manager.wait(id).has_value()) << "job " << id;
    EXPECT_FALSE(manager.cancel(id)) << "job " << id;
  }
  EXPECT_TRUE(manager.status(9).has_value());
  EXPECT_TRUE(manager.status(last).has_value());
}

TEST(ServeJobManager, DriverSkipsQueuedJobsEvictedAfterCancel) {
  ServeOptions options;
  options.max_active = 1;
  JobManager manager(options);
  SubmitOverrides big;
  big.sequences = 2000000;
  const std::uint64_t head = manager.submit(validation_spec(), big);
  // Cancelled behind the head-of-line job: terminal while still queued,
  // and the first 8 are evicted before the driver reaches their entries.
  std::vector<std::uint64_t> queued;
  for (std::size_t i = 0; i < JobManager::kFinishedJobsKept + 8; ++i) {
    queued.push_back(manager.submit("/nonexistent/campaign.spec", {}));
  }
  for (const std::uint64_t id : queued) {
    EXPECT_TRUE(manager.cancel(id)) << "job " << id;
  }
  EXPECT_FALSE(manager.status(queued.front()).has_value());
  EXPECT_TRUE(manager.cancel(head));
  EXPECT_EQ(manager.wait(head)->state, JobState::Cancelled);
  // The driver stepped over the evicted entries and still takes work.
  const std::uint64_t after = manager.submit("/nonexistent/campaign.spec", {});
  EXPECT_EQ(manager.wait(after)->state, JobState::Failed);
  EXPECT_EQ(manager.list().size(), JobManager::kFinishedJobsKept);
}

TEST(ServeJobManager, DrainFinishesQueuedWorkAndRejectsNewJobs) {
  ServeOptions options;
  options.max_active = 1;
  JobManager manager(options);
  const std::uint64_t a = manager.submit(validation_spec(), {});
  const std::uint64_t b = manager.submit(validation_spec(), {});
  manager.drain();  // must run BOTH to completion, not cancel them
  EXPECT_EQ(manager.status(a)->state, JobState::Done)
      << "job a error: " << manager.status(a)->error;
  EXPECT_EQ(manager.status(b)->state, JobState::Done);
  EXPECT_THROW(manager.submit(validation_spec(), {}), Error);
}

// ---------------------------------------------------------------------------
// Server end-to-end over a real socket.

TEST(ServeServer, FullProtocolOverAUnixSocket) {
  const std::string socket_path =
      (std::filesystem::path(::testing::TempDir()) / "serve_e2e.sock")
          .string();
  ServeOptions options;
  options.max_active = 1;
  Server server(socket_path, options);
  std::thread daemon([&] { server.run(); });

  {
    Client client(socket_path);
    const Json pong = client.request(Json(Json::Object{}).set("cmd", "ping"));
    EXPECT_EQ(pong.at("protocol").as_u64(), kProtocolVersion);
    EXPECT_FALSE(pong.at("version").as_string().empty());
    EXPECT_GT(pong.at("lane_bits").as_u64(), 0u);

    // Unknown commands and malformed ids come back as protocol errors.
    EXPECT_THROW(
        client.request(Json(Json::Object{}).set("cmd", "frobnicate")), Error);
  }

  // Streamed submit: progress events, then the terminal record.
  std::uint64_t streamed_digest = 0;
  {
    Client client(socket_path);
    client.send(Json(Json::Object{})
                    .set("cmd", "submit")
                    .set("spec", validation_spec())
                    .set("wait", true));
    Json line = client.read_line();
    std::size_t events = 0;
    while (!line.has("ok")) {
      EXPECT_EQ(line.at("event").as_string(), "progress");
      ++events;
      line = client.read_line();
    }
    EXPECT_TRUE(line.at("ok").as_bool());
    const JobRecord record = job_from_json(line.at("job"));
    EXPECT_EQ(record.state, JobState::Done) << record.error;
    ASSERT_TRUE(record.summary.has_value());
    streamed_digest = summary_digest(*record.summary);
    EXPECT_GE(events, 1u);  // at least the queued→running transition
  }

  // A second client sees the first client's job, and `result` on a fresh
  // submission blocks until terminal and digests identically (the daemon
  // reused the cached session — invisible in the statistics).
  {
    Client client(socket_path);
    const Json listed = client.request(Json(Json::Object{}).set("cmd", "list"));
    EXPECT_EQ(listed.at("jobs").as_array().size(), 1u);

    const Json submitted = client.request(Json(Json::Object{})
                                              .set("cmd", "submit")
                                              .set("spec", validation_spec()));
    const std::uint64_t id = submitted.at("id").as_u64();
    const Json done = client.request(
        Json(Json::Object{}).set("cmd", "result").set("id", id));
    const JobRecord record = job_from_json(done.at("job"));
    EXPECT_EQ(record.state, JobState::Done) << record.error;
    EXPECT_TRUE(record.session_reused);
    EXPECT_EQ(summary_digest(*record.summary), streamed_digest);

    const Json stats = client.request(Json(Json::Object{}).set("cmd", "stats"));
    EXPECT_EQ(stats.at("sessions").at("hits").as_u64(), 1u);

    const Json cancelled = client.request(
        Json(Json::Object{}).set("cmd", "cancel").set("id", 999));
    EXPECT_FALSE(cancelled.at("cancelled").as_bool());

    const Json bye = client.request(Json(Json::Object{}).set("cmd", "shutdown"));
    EXPECT_TRUE(bye.at("draining").as_bool());
  }

  daemon.join();
  EXPECT_FALSE(std::filesystem::exists(socket_path));  // socket unlinked
  EXPECT_EQ(server.connections(), 0u);

  // A dropped client connection must not leak into the next daemon on the
  // same path: restart immediately over the stale-free path.
  Server second(socket_path, options);
  std::thread again([&] { second.run(); });
  {
    Client client(socket_path);
    client.request(Json(Json::Object{}).set("cmd", "shutdown"));
  }
  again.join();
}

TEST(ServeServer, ConnectionThreadsExitWithTheirClients) {
  const std::string socket_path =
      (std::filesystem::path(::testing::TempDir()) / "serve_conn.sock")
          .string();
  Server server(socket_path, ServeOptions{});
  std::thread daemon([&] { server.run(); });
  for (int i = 0; i < 64; ++i) {
    Client client(socket_path);
    client.request(Json(Json::Object{}).set("cmd", "ping"));
  }
  // Each connection thread exits as soon as it reads its peer's close.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.connections(), 0u);
  {
    Client client(socket_path);
    client.request(Json(Json::Object{}).set("cmd", "shutdown"));
  }
  daemon.join();
  EXPECT_EQ(server.connections(), 0u);
}

TEST(ServeServer, ShutdownWithAnIdleClientStopsAtOnce) {
  const std::string socket_path =
      (std::filesystem::path(::testing::TempDir()) / "serve_stop.sock")
          .string();
  // `shutdown` to run() returning, with another client connected and idle:
  // the accept loop must wake on the command, and the idle connection's
  // thread on the drain, not on a poll or receive timeout.
  std::vector<double> stop_ms;
  for (int trial = 0; trial < 5; ++trial) {
    Server server(socket_path, ServeOptions{});
    std::thread daemon([&] { server.run(); });
    Client idle(socket_path);
    idle.request(Json(Json::Object{}).set("cmd", "ping"));
    const auto start = std::chrono::steady_clock::now();
    {
      Client client(socket_path);
      client.request(Json(Json::Object{}).set("cmd", "shutdown"));
    }
    daemon.join();
    stop_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    EXPECT_EQ(server.connections(), 0u);
  }
  std::sort(stop_ms.begin(), stop_ms.end());
  EXPECT_LT(stop_ms[stop_ms.size() / 2], 100.0)
      << "median stop " << stop_ms[stop_ms.size() / 2] << " ms";
}

TEST(ServeServer, SubmitWaitAddsLittleOverTheJob) {
  const std::string socket_path =
      (std::filesystem::path(::testing::TempDir()) / "serve_latency.sock")
          .string();
  const std::string spec = write_file("serve_structural.spec",
                                      "fifo.depth = 32\n"
                                      "fifo.width = 2\n"
                                      "protection.kind = hamming+crc\n"
                                      "protection.chain_count = 8\n"
                                      "protection.test_width = 4\n"
                                      "campaign.kind = validation\n"
                                      "campaign.tier = structural\n"
                                      "campaign.sequences = 512\n"
                                      "campaign.seed = 5\n");
  ServeOptions options;
  options.max_active = 1;
  Server server(socket_path, options);
  std::thread daemon([&] { server.run(); });

  // Round trip minus the job's own set-up and run time: the queue, the
  // wait and the protocol. A sleep-poll wait would add tens of ms here.
  std::vector<double> overhead_ms;
  for (int i = 0; i < 10; ++i) {
    Client client(socket_path);
    const auto start = std::chrono::steady_clock::now();
    client.send(Json(Json::Object{})
                    .set("cmd", "submit")
                    .set("spec", spec)
                    .set("wait", true));
    Json line = client.read_line();
    while (!line.has("ok")) {
      line = client.read_line();
    }
    const double round_trip_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    const JobRecord record = job_from_json(line.at("job"));
    ASSERT_EQ(record.state, JobState::Done) << record.error;
    overhead_ms.push_back(round_trip_ms -
                          1e3 * (record.setup_seconds + record.run_seconds));
  }
  std::sort(overhead_ms.begin(), overhead_ms.end());
  const double median = (overhead_ms[4] + overhead_ms[5]) / 2;
  EXPECT_LT(median, 20.0);

  {
    Client client(socket_path);
    client.request(Json(Json::Object{}).set("cmd", "shutdown"));
  }
  daemon.join();
}

}  // namespace
}  // namespace retscan::serve
