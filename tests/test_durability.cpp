// Crash-safe campaigns: cooperative cancellation (CancelToken, deadlines,
// the global SIGINT flag), the RETSCAN_FAILPOINTS injection harness, the
// checkpoint journal's format/validation/torn-write tolerance, and the
// headline contract — a campaign killed mid-run (really killed, SIGKILL via
// fork) and resumed from its journal produces a CampaignResult bit-identical
// to an uninterrupted run, at every thread count and schedule.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "parallel/campaign_runner.hpp"
#include "retscan/retscan.hpp"
#include "util/cancel.hpp"
#include "util/failpoint.hpp"
#include "util/journal.hpp"

using namespace retscan;

namespace {

/// Scoped RETSCAN_FAILPOINTS override. Saves whatever the environment
/// already arms (the resilience CI job runs the whole suite with
/// journal.flush=shortwrite@2 exported), installs `spec` (empty = disarm),
/// and restores the prior arming on destruction — so tests that assert
/// exact journal contents are deterministic without hiding the env arming
/// from the rest of the binary.
class FailpointGuard {
 public:
  explicit FailpointGuard(const char* spec) {
    const char* prior = std::getenv("RETSCAN_FAILPOINTS");
    had_prior_ = prior != nullptr;
    if (had_prior_) {
      prior_ = prior;
    }
    if (spec == nullptr || spec[0] == '\0') {
      ::unsetenv("RETSCAN_FAILPOINTS");
    } else {
      ::setenv("RETSCAN_FAILPOINTS", spec, 1);
    }
    failpoints_refresh();
  }
  ~FailpointGuard() {
    if (had_prior_) {
      ::setenv("RETSCAN_FAILPOINTS", prior_.c_str(), 1);
    } else {
      ::unsetenv("RETSCAN_FAILPOINTS");
    }
    failpoints_refresh();
  }
  FailpointGuard(const FailpointGuard&) = delete;
  FailpointGuard& operator=(const FailpointGuard&) = delete;

 private:
  bool had_prior_ = false;
  std::string prior_;
};

/// Journal path in the test's working directory, removed on scope exit.
class ScopedJournalPath {
 public:
  explicit ScopedJournalPath(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  ~ScopedJournalPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

ValidationConfig behavioral_config() {
  ValidationConfig config;
  config.fifo = FifoSpec{32, 32};
  config.chain_count = 80;
  config.mode = InjectionMode::SingleRandom;
  config.seed = 77;
  return config;
}

ValidationConfig structural_config(Schedule schedule) {
  ValidationConfig config;
  config.fifo = FifoSpec{32, 2};
  config.chain_count = 8;
  config.mode = InjectionMode::SingleRandom;
  config.seed = 5;
  config.schedule = schedule;
  return config;
}

constexpr std::uint64_t kFingerprint = 0x5EEDFACE12345678ull;

JournalRecord make_record(std::uint64_t shard_index) {
  JournalRecord record;
  record.shard_index = shard_index;
  for (std::size_t i = 0; i < JournalRecord::kStatsWords; ++i) {
    record.stats[i] = shard_index * 100 + i;
  }
  for (std::size_t i = 0; i < JournalRecord::kTelemetryWords; ++i) {
    record.telemetry[i] = shard_index * 1000 + i;
  }
  return record;
}

}  // namespace

// --- CancelToken -----------------------------------------------------------

TEST(CancelToken, ReportsRequestAndDeadline) {
  reset_global_cancel();
  CancelToken token;
  EXPECT_EQ(token.why(), CancelReason::None);
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check());

  token.request_cancel();
  EXPECT_EQ(token.why(), CancelReason::User);
  try {
    token.check();
    FAIL() << "check() did not throw";
  } catch (const Cancelled& cancelled) {
    EXPECT_EQ(cancelled.reason(), CancelReason::User);
  }

  // A zero-millisecond deadline has always already elapsed.
  CancelToken deadline;
  deadline.set_deadline_ms(0);
  EXPECT_EQ(deadline.why(), CancelReason::Deadline);
  EXPECT_THROW(deadline.check(), Cancelled);

  // Copies share state; cancelling one cancels the other.
  CancelToken original;
  CancelToken copy = original;
  original.request_cancel();
  EXPECT_TRUE(copy.cancelled());
}

TEST(CancelToken, ObservesGlobalFlag) {
  reset_global_cancel();
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  request_global_cancel();
  EXPECT_TRUE(global_cancel_requested());
  EXPECT_EQ(token.why(), CancelReason::User);
  reset_global_cancel();
  EXPECT_FALSE(token.cancelled());
}

// --- Failpoint harness -----------------------------------------------------

TEST(Failpoint, DisarmedIsFreeAndArmedActionsFire) {
  {
    FailpointGuard off("");
    EXPECT_FALSE(failpoints_enabled());
    EXPECT_EQ(failpoint("test.site"), FailAction::None);
  }
  {
    // Default @1: one-shot on the first hit.
    FailpointGuard arm("test.site=throw");
    EXPECT_TRUE(failpoints_enabled());
    EXPECT_THROW(failpoint("test.site"), Error);
    EXPECT_EQ(failpoint("test.site"), FailAction::None);
    EXPECT_EQ(failpoint("other.site"), FailAction::None);
  }
  {
    // @N is 1-based and one-shot.
    FailpointGuard arm("test.site=throw@3");
    EXPECT_EQ(failpoint("test.site"), FailAction::None);
    EXPECT_EQ(failpoint("test.site"), FailAction::None);
    EXPECT_THROW(failpoint("test.site"), Error);
    EXPECT_EQ(failpoint("test.site"), FailAction::None);
  }
  {
    FailpointGuard arm("test.site=throw@every");
    EXPECT_THROW(failpoint("test.site"), Error);
    EXPECT_THROW(failpoint("test.site"), Error);
  }
  {
    // shortwrite is delegated back to the caller; delay sleeps and moves on.
    FailpointGuard arm("io.site=shortwrite;slow.site=delay:1@every");
    EXPECT_EQ(failpoint("io.site"), FailAction::ShortWrite);
    EXPECT_EQ(failpoint("slow.site"), FailAction::None);
  }
  {
    // Malformed entries warn and are ignored; the valid entry still works.
    FailpointGuard arm("nonsense;x=;=throw;test.site=explode,test.site=throw");
    EXPECT_THROW(failpoint("test.site"), Error);
  }
  // refresh() resets hit counters.
  {
    FailpointGuard arm("test.site=throw");
    EXPECT_THROW(failpoint("test.site"), Error);
    failpoints_refresh();
    EXPECT_THROW(failpoint("test.site"), Error);
  }
}

// --- CampaignJournal -------------------------------------------------------

TEST(Journal, RoundTripsRecordsAcrossProcessRestart) {
  FailpointGuard off("");
  ScopedJournalPath path("test_durability_roundtrip.journal");
  {
    CampaignJournal journal(path.str(), kFingerprint, 42,
                            CampaignJournal::Mode::Truncate);
    journal.bind_plan(1000, 256, 4);
    journal.append(make_record(0));
    journal.append(make_record(2));
    EXPECT_TRUE(journal.find(0).has_value());
    EXPECT_FALSE(journal.find(1).has_value());
  }
  // Header survives: peek() sees the binding.
  const std::optional<CampaignJournal::Header> header =
      CampaignJournal::peek(path.str());
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->fingerprint, kFingerprint);
  EXPECT_EQ(header->seed, 42u);
  EXPECT_EQ(header->total, 1000u);
  EXPECT_EQ(header->shard_size, 256u);
  EXPECT_EQ(header->shard_count, 4u);

  CampaignJournal resumed(path.str(), kFingerprint, 42,
                          CampaignJournal::Mode::Resume);
  resumed.bind_plan(1000, 256, 4);
  EXPECT_EQ(resumed.resumed_count(), 2u);
  EXPECT_EQ(resumed.dropped_count(), 0u);
  for (const std::uint64_t shard : {0ull, 2ull}) {
    const std::optional<JournalRecord> record = resumed.find(shard);
    ASSERT_TRUE(record.has_value()) << "shard " << shard;
    const JournalRecord expected = make_record(shard);
    EXPECT_EQ(record->shard_index, expected.shard_index);
    for (std::size_t i = 0; i < JournalRecord::kStatsWords; ++i) {
      EXPECT_EQ(record->stats[i], expected.stats[i]);
    }
    for (std::size_t i = 0; i < JournalRecord::kTelemetryWords; ++i) {
      EXPECT_EQ(record->telemetry[i], expected.telemetry[i]);
    }
  }
  EXPECT_FALSE(resumed.find(1).has_value());
  EXPECT_FALSE(resumed.find(3).has_value());
}

TEST(Journal, ResumeRejectsForeignCampaigns) {
  FailpointGuard off("");
  ScopedJournalPath path("test_durability_foreign.journal");
  {
    CampaignJournal journal(path.str(), kFingerprint, 42,
                            CampaignJournal::Mode::Truncate);
    journal.bind_plan(1000, 256, 4);
    journal.append(make_record(0));
  }
  // Wrong fingerprint: different spec/design/version.
  try {
    CampaignJournal wrong(path.str(), kFingerprint + 1, 42,
                          CampaignJournal::Mode::Resume);
    FAIL() << "fingerprint mismatch accepted";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("fingerprint"), std::string::npos);
  }
  // Wrong seed.
  EXPECT_THROW(CampaignJournal(path.str(), kFingerprint, 43,
                               CampaignJournal::Mode::Resume),
               Error);
  // Right campaign, wrong shard plan.
  CampaignJournal resumed(path.str(), kFingerprint, 42,
                          CampaignJournal::Mode::Resume);
  try {
    resumed.bind_plan(1000, 128, 8);
    FAIL() << "plan mismatch accepted";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("shard"), std::string::npos);
  }
  // Truncate never validates — it discards.
  CampaignJournal fresh(path.str(), kFingerprint + 9, 9,
                        CampaignJournal::Mode::Truncate);
  fresh.bind_plan(10, 5, 2);
  EXPECT_EQ(fresh.resumed_count(), 0u);
}

TEST(Journal, Crc32MatchesTheZlibCheckValue) {
  const char check[] = "123456789";
  EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(check, 0), 0u);
}

TEST(Journal, TornTailIsDroppedAndIntactPrefixKept) {
  ScopedJournalPath path("test_durability_torn.journal");
  {
    // The third append (record 2's) copies only half its slot: records 0
    // and 1 survive, record 2 is torn, slot 3 was never written.
    FailpointGuard arm("journal.flush=shortwrite@3");
    CampaignJournal journal(path.str(), kFingerprint, 42,
                            CampaignJournal::Mode::Truncate);
    journal.bind_plan(1000, 256, 4);
    journal.append(make_record(0));
    journal.append(make_record(1));
    journal.append(make_record(2));
  }
  FailpointGuard off("");
  CampaignJournal resumed(path.str(), kFingerprint, 42,
                          CampaignJournal::Mode::Resume);
  resumed.bind_plan(1000, 256, 4);
  EXPECT_EQ(resumed.resumed_count(), 2u);
  EXPECT_EQ(resumed.dropped_count(), 1u);
  EXPECT_TRUE(resumed.find(0).has_value());
  EXPECT_TRUE(resumed.find(1).has_value());
  EXPECT_FALSE(resumed.find(2).has_value());
}

TEST(Journal, ATornSlotHidesNoOtherRecord) {
  ScopedJournalPath path("test_durability_torn_slot.journal");
  {
    // Record 1's copy is torn; records 2 and 3 land in their own slots
    // after it, whole.
    FailpointGuard arm("journal.flush=shortwrite@2");
    CampaignJournal journal(path.str(), kFingerprint, 42,
                            CampaignJournal::Mode::Truncate);
    journal.bind_plan(1000, 256, 4);
    journal.append(make_record(0));
    journal.append(make_record(1));
    journal.append(make_record(2));
    journal.append(make_record(3));
  }
  FailpointGuard off("");
  {
    CampaignJournal resumed(path.str(), kFingerprint, 42,
                            CampaignJournal::Mode::Resume);
    resumed.bind_plan(1000, 256, 4);
    EXPECT_EQ(resumed.resumed_count(), 3u);
    EXPECT_EQ(resumed.dropped_count(), 1u);
    for (const std::uint64_t shard : {0ull, 2ull, 3ull}) {
      const std::optional<JournalRecord> record = resumed.find(shard);
      ASSERT_TRUE(record.has_value()) << "shard " << shard;
      EXPECT_EQ(record->stats[0], make_record(shard).stats[0]);
    }
    // Shard 1 reruns and its fresh record replaces the torn bytes.
    EXPECT_FALSE(resumed.find(1).has_value());
    resumed.append(make_record(1));
    EXPECT_EQ(resumed.find(1)->stats[0], make_record(1).stats[0]);
  }
  CampaignJournal rerun(path.str(), kFingerprint, 42,
                        CampaignJournal::Mode::Resume);
  EXPECT_EQ(rerun.resumed_count(), 4u);
  EXPECT_EQ(rerun.dropped_count(), 0u);
}

TEST(Journal, OutOfOrderAppendsResumeExactlyThoseShards) {
  FailpointGuard off("");
  ScopedJournalPath path("test_durability_out_of_order.journal");
  {
    CampaignJournal journal(path.str(), kFingerprint, 42,
                            CampaignJournal::Mode::Truncate);
    journal.bind_plan(1000, 256, 4);
    journal.append(make_record(3));
    journal.append(make_record(0));
  }
  CampaignJournal resumed(path.str(), kFingerprint, 42,
                          CampaignJournal::Mode::Resume);
  resumed.bind_plan(1000, 256, 4);
  EXPECT_EQ(resumed.resumed_count(), 2u);
  EXPECT_EQ(resumed.dropped_count(), 0u);
  EXPECT_EQ(resumed.find(0)->stats[0], make_record(0).stats[0]);
  EXPECT_EQ(resumed.find(3)->stats[0], make_record(3).stats[0]);
  EXPECT_FALSE(resumed.find(1).has_value());
  EXPECT_FALSE(resumed.find(2).has_value());
}

TEST(Journal, ASlotHoldingAnotherShardsRecordDoesNotCount) {
  FailpointGuard off("");
  ScopedJournalPath path("test_durability_misplaced.journal");
  {
    CampaignJournal journal(path.str(), kFingerprint, 42,
                            CampaignJournal::Mode::Truncate);
    journal.bind_plan(1000, 256, 4);
    journal.append(make_record(0));
  }
  // Copy slot 0 (CRC intact, shard_index 0) over slot 2. The format puts
  // the 52-byte header first, then one 124-byte slot per shard.
  constexpr long kHeader = 52;
  constexpr std::size_t kSlot = 124;
  {
    std::FILE* file = std::fopen(path.str().c_str(), "r+b");
    ASSERT_NE(file, nullptr);
    unsigned char slot[kSlot];
    ASSERT_EQ(std::fseek(file, kHeader, SEEK_SET), 0);
    ASSERT_EQ(std::fread(slot, 1, kSlot, file), kSlot);
    ASSERT_EQ(std::fseek(file, kHeader + 2 * static_cast<long>(kSlot), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(slot, 1, kSlot, file), kSlot);
    std::fclose(file);
  }
  CampaignJournal resumed(path.str(), kFingerprint, 42,
                          CampaignJournal::Mode::Resume);
  EXPECT_EQ(resumed.resumed_count(), 1u);
  EXPECT_EQ(resumed.dropped_count(), 1u);
  EXPECT_TRUE(resumed.find(0).has_value());
  EXPECT_FALSE(resumed.find(2).has_value());
}

TEST(Journal, AFileSizedForAnotherPlanIsNotMerged) {
  FailpointGuard off("");
  ScopedJournalPath path("test_durability_resized.journal");
  for (const long delta : {-1L, 1L}) {
    SCOPED_TRACE("size delta " + std::to_string(delta));
    {
      CampaignJournal journal(path.str(), kFingerprint, 42,
                              CampaignJournal::Mode::Truncate);
      journal.bind_plan(1000, 256, 4);
      journal.append(make_record(0));
    }
    std::filesystem::resize_file(
        path.str(), std::filesystem::file_size(path.str()) + delta);
    // The header still names this campaign, so validate() lets it through;
    // the journal itself refuses the slots and starts fresh.
    ASSERT_TRUE(CampaignJournal::peek(path.str()).has_value());
    CampaignJournal resumed(path.str(), kFingerprint, 42,
                            CampaignJournal::Mode::Resume);
    EXPECT_EQ(resumed.resumed_count(), 0u);
    resumed.bind_plan(1000, 256, 4);
    EXPECT_FALSE(resumed.find(0).has_value());
  }
}

TEST(Journal, AFormatOneJournalIsNotResumed) {
  FailpointGuard off("");
  ScopedJournalPath path("test_durability_format1.journal");
  // A format-1 file: the same header fields with format word 1, then one
  // record appended straight after it.
  std::vector<unsigned char> bytes;
  const auto put = [&](auto word) {
    const auto* raw = reinterpret_cast<const unsigned char*>(&word);
    bytes.insert(bytes.end(), raw, raw + sizeof(word));
  };
  put(std::uint32_t{0x4A435352u});
  put(std::uint32_t{1});
  for (const std::uint64_t word : {kFingerprint, std::uint64_t{42},
                                   std::uint64_t{1000}, std::uint64_t{256},
                                   std::uint64_t{4}}) {
    put(word);
  }
  put(crc32(bytes.data(), bytes.size()));
  const std::size_t record_start = bytes.size();
  const JournalRecord record = make_record(0);
  put(record.shard_index);
  for (const std::uint64_t word : record.stats) put(word);
  for (const std::uint64_t word : record.telemetry) put(word);
  put(crc32(bytes.data() + record_start, bytes.size() - record_start));
  {
    std::FILE* file = std::fopen(path.str().c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
    std::fclose(file);
  }
  EXPECT_FALSE(CampaignJournal::peek(path.str()).has_value());
  CampaignJournal resumed(path.str(), kFingerprint, 42,
                          CampaignJournal::Mode::Resume);
  EXPECT_EQ(resumed.resumed_count(), 0u);
  resumed.bind_plan(1000, 256, 4);
  EXPECT_FALSE(resumed.find(0).has_value());
}

TEST(Journal, AppendOutsideTheBoundPlanThrows) {
  FailpointGuard off("");
  ScopedJournalPath path("test_durability_outside.journal");
  CampaignJournal journal(path.str(), kFingerprint, 42,
                          CampaignJournal::Mode::Truncate);
  EXPECT_THROW(journal.append(make_record(0)), Error);  // no plan bound yet
  // No file can hold a slot for every one of 2^64 - 1 shards.
  EXPECT_THROW(journal.bind_plan(~0ull, 1, ~0ull), Error);
  EXPECT_THROW(journal.append(make_record(0)), Error);
  journal.bind_plan(1000, 256, 4);
  EXPECT_THROW(journal.append(make_record(4)), Error);
  EXPECT_FALSE(journal.find(4).has_value());
  journal.append(make_record(3));
  EXPECT_TRUE(journal.find(3).has_value());
}

TEST(Journal, ResumedJournalKeepsAppending) {
  ScopedJournalPath path("test_durability_reappend.journal");
  {
    FailpointGuard off("");
    CampaignJournal journal(path.str(), kFingerprint, 42,
                            CampaignJournal::Mode::Truncate);
    journal.bind_plan(1000, 256, 4);
    journal.append(make_record(0));
    journal.append(make_record(1));
  }
  {
    FailpointGuard off("");
    CampaignJournal journal(path.str(), kFingerprint, 42,
                            CampaignJournal::Mode::Resume);
    journal.bind_plan(1000, 256, 4);
    EXPECT_EQ(journal.resumed_count(), 2u);
    journal.append(make_record(2));
    journal.append(make_record(3));
  }
  FailpointGuard off("");
  CampaignJournal resumed(path.str(), kFingerprint, 42,
                          CampaignJournal::Mode::Resume);
  resumed.bind_plan(1000, 256, 4);
  EXPECT_EQ(resumed.resumed_count(), 4u);
  EXPECT_EQ(resumed.dropped_count(), 0u);
}

// --- Campaign-layer cancellation, deadlines, resume -------------------------

TEST(DurableCampaign, PreCancelledTokenYieldsCancelledStatus) {
  FailpointGuard off("");
  parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = 2});
  CancelToken cancel;
  cancel.request_cancel();
  parallel::RunControls controls;
  controls.cancel = &cancel;
  const parallel::CampaignReport report =
      runner.run_fast(behavioral_config(), 1024, 128, controls);
  EXPECT_EQ(report.status, CampaignStatus::Cancelled);
  EXPECT_EQ(report.shards_completed, 0u);
  EXPECT_EQ(report.stats.sequences, 0u);
}

TEST(DurableCampaign, ExpiredDeadlineYieldsTimeoutStatus) {
  FailpointGuard off("");
  parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = 2});
  CancelToken deadline;
  deadline.set_deadline_ms(0);
  parallel::RunControls controls;
  controls.cancel = &deadline;
  const parallel::CampaignReport report =
      runner.run_fast(behavioral_config(), 1024, 128, controls);
  EXPECT_EQ(report.status, CampaignStatus::Timeout);
  EXPECT_EQ(report.shards_completed, 0u);
}

// The testbenches check the token before every trial, so a deadline stops
// a shard in flight instead of waiting for it: each run below is a single
// shard that would take minutes to finish.
TEST(DurableCampaign, DeadlineStopsTheShardInFlight) {
  FailpointGuard off("");
  parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = 1});
  const std::size_t behavioral = std::size_t{1} << 21;
  const std::size_t structural = std::size_t{1} << 18;
  const auto start = std::chrono::steady_clock::now();
  for (int tier = 0; tier < 3; ++tier) {
    CancelToken deadline;
    deadline.set_deadline_ms(50);
    parallel::RunControls controls;
    controls.cancel = &deadline;
    const ValidationConfig gate = structural_config(Schedule::Auto);
    const parallel::CampaignReport report =
        tier == 0   ? runner.run_fast(behavioral_config(), behavioral, behavioral, controls)
        : tier == 1 ? runner.run_structural(gate, structural, structural, controls)
                    : runner.run_structural_packed(gate, structural, structural,
                                                   controls);
    EXPECT_EQ(report.status, CampaignStatus::Timeout) << "tier " << tier;
    EXPECT_EQ(report.shard_count, 1u);
    EXPECT_EQ(report.shards_completed, 0u);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
}

// The shard loop consults the journal before the cancel token: journaled
// shards still merge (and report progress) after a cancel, while every
// shard the journal lacks is skipped unrun.
TEST(ShardLoop, JournaledShardsMergeAfterCancel) {
  FailpointGuard off("");
  const ScopedJournalPath path("shard_loop.journal");
  CampaignJournal journal(path.str(), kFingerprint, 1, CampaignJournal::Mode::Truncate);
  journal.bind_plan(8, 1, 8);
  journal.append(make_record(1));
  journal.append(make_record(3));

  CancelToken cancel;
  cancel.request_cancel();
  std::atomic<std::size_t> progress_calls{0};
  parallel::RunControls controls;
  controls.cancel = &cancel;
  controls.journal = &journal;
  controls.progress = [&](std::size_t, std::size_t total) {
    EXPECT_EQ(total, 8u);
    progress_calls.fetch_add(1);
  };
  const parallel::ShardCodec<std::uint64_t> codec{
      [](std::uint64_t index, const std::uint64_t&) { return make_record(index); },
      [](const JournalRecord& record) { return record.stats[0]; }};
  ThreadPool pool(2);
  const parallel::ShardReport<std::uint64_t> loop = parallel::run_shards<std::uint64_t>(
      pool, 8, 1, controls,
      [](const parallel::ShardRange&) -> std::uint64_t {
        ADD_FAILURE() << "a cancelled loop ran a shard";
        return 0;
      },
      codec);
  EXPECT_EQ(loop.status, CampaignStatus::Cancelled);
  EXPECT_EQ(loop.shards_completed, 2u);
  EXPECT_EQ(loop.shards_resumed, 2u);
  EXPECT_EQ(loop.merged, 100u + 300u);  // make_record(i).stats[0] == i * 100
  EXPECT_EQ(progress_calls.load(), 2u);
}

TEST(DurableCampaign, ThrowInterruptedCampaignResumesBitIdentically) {
  FailpointGuard off("");
  ScopedJournalPath path("test_durability_throw_resume.journal");
  const ValidationConfig config = behavioral_config();

  parallel::CampaignReport baseline;
  {
    parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = 2});
    baseline = runner.run_fast(config, 2048, 256);
  }
  ASSERT_EQ(baseline.status, CampaignStatus::Complete);

  {
    FailpointGuard arm("shard.run=throw@3");
    CampaignJournal journal(path.str(), kFingerprint, config.seed,
                            CampaignJournal::Mode::Truncate);
    parallel::RunControls controls;
    controls.journal = &journal;
    parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = 2});
    EXPECT_THROW(runner.run_fast(config, 2048, 256, controls), Error);
  }

  CampaignJournal journal(path.str(), kFingerprint, config.seed,
                          CampaignJournal::Mode::Resume);
  EXPECT_GE(journal.resumed_count(), 1u);
  parallel::RunControls controls;
  controls.journal = &journal;
  parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = 2});
  const parallel::CampaignReport resumed =
      runner.run_fast(config, 2048, 256, controls);
  EXPECT_EQ(resumed.status, CampaignStatus::Complete);
  EXPECT_GE(resumed.shards_resumed, 1u);
  EXPECT_TRUE(resumed.stats == baseline.stats);
  EXPECT_TRUE(resumed.telemetry == baseline.telemetry);
}

// --- The headline: SIGKILL mid-campaign, resume, bit-identical --------------

namespace {

/// Fork a child that runs the campaign with a checkpoint journal and a
/// `shard.run=kill@N` failpoint armed — the child dies by real SIGKILL with
/// the journal holding whatever shards completed. Returns once the parent
/// has reaped it and asserted the death was the SIGKILL.
template <typename RunCampaign>
void run_killed_child(const std::string& journal_path, std::uint64_t seed,
                      const char* kill_spec, const RunCampaign& run_campaign) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: arm the kill, run with a fresh journal, die mid-campaign. If
    // the failpoint never fires, exit with a sentinel the parent rejects.
    ::setenv("RETSCAN_FAILPOINTS", kill_spec, 1);
    failpoints_refresh();
    try {
      CampaignJournal journal(journal_path, kFingerprint, seed,
                              CampaignJournal::Mode::Truncate);
      parallel::RunControls controls;
      controls.journal = &journal;
      run_campaign(controls);
    } catch (...) {
    }
    ::_exit(42);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child was not killed (exit status " << status << ")";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

}  // namespace

TEST(CrashRecovery, KilledBehavioralCampaignResumesBitIdentically) {
  FailpointGuard off("");
  const ValidationConfig config = behavioral_config();
  constexpr std::size_t kSequences = 2048;
  constexpr std::size_t kShard = 256;

  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    parallel::CampaignReport baseline;
    {
      parallel::CampaignRunner runner(
          parallel::CampaignOptions{.threads = threads});
      baseline = runner.run_fast(config, kSequences, kShard);
    }

    ScopedJournalPath path("test_durability_kill_" + std::to_string(threads) +
                           ".journal");
    run_killed_child(path.str(), config.seed, "shard.run=kill@3",
                     [&](const parallel::RunControls& controls) {
                       parallel::CampaignRunner runner(
                           parallel::CampaignOptions{.threads = threads});
                       runner.run_fast(config, kSequences, kShard, controls);
                     });

    CampaignJournal journal(path.str(), kFingerprint, config.seed,
                            CampaignJournal::Mode::Resume);
    if (threads == 1) {
      // Serial child: shard hits are sequential, so exactly two shards
      // completed (and were durably journaled) before the third was killed.
      EXPECT_EQ(journal.resumed_count(), 2u);
    }
    parallel::RunControls controls;
    controls.journal = &journal;
    parallel::CampaignRunner runner(
        parallel::CampaignOptions{.threads = threads});
    const parallel::CampaignReport resumed =
        runner.run_fast(config, kSequences, kShard, controls);
    EXPECT_EQ(resumed.status, CampaignStatus::Complete);
    EXPECT_EQ(resumed.shards_completed, baseline.shards_completed);
    EXPECT_EQ(resumed.shards_resumed, journal.resumed_count());
    EXPECT_TRUE(resumed.stats == baseline.stats);
    EXPECT_TRUE(resumed.telemetry == baseline.telemetry);
  }
}

TEST(CrashRecovery, KilledStructuralCampaignResumesUnderBothSchedules) {
  FailpointGuard off("");
  constexpr std::size_t kSequences = 128;
  constexpr std::size_t kShard = 64;

  for (const Schedule schedule : {Schedule::Sweep, Schedule::Event}) {
    SCOPED_TRACE(to_string(schedule));
    const ValidationConfig config = structural_config(schedule);
    parallel::CampaignReport baseline;
    {
      parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = 1});
      baseline = runner.run_structural_packed(config, kSequences, kShard);
    }

    ScopedJournalPath path(std::string("test_durability_kill_structural_") +
                           to_string(schedule) + ".journal");
    run_killed_child(path.str(), config.seed, "shard.run=kill@2",
                     [&](const parallel::RunControls& controls) {
                       parallel::CampaignRunner runner(
                           parallel::CampaignOptions{.threads = 1});
                       runner.run_structural_packed(config, kSequences, kShard,
                                                    controls);
                     });

    CampaignJournal journal(path.str(), kFingerprint, config.seed,
                            CampaignJournal::Mode::Resume);
    EXPECT_EQ(journal.resumed_count(), 1u);
    parallel::RunControls controls;
    controls.journal = &journal;
    parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = 2});
    const parallel::CampaignReport resumed =
        runner.run_structural_packed(config, kSequences, kShard, controls);
    EXPECT_EQ(resumed.status, CampaignStatus::Complete);
    EXPECT_TRUE(resumed.stats == baseline.stats);
    // The schedule telemetry (event vs full sweeps, instruction counts) is
    // part of the result — resumed shards must carry the journaled counters,
    // not zeros or recomputed ones.
    EXPECT_TRUE(resumed.telemetry == baseline.telemetry);
  }
}

// --- API-level checkpoint/resume through CampaignSpec -----------------------

TEST(ApiDurability, CheckpointThenResumeReproducesCleanRun) {
  FailpointGuard off("");
  ScopedJournalPath path("test_durability_api.journal");
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.hamming_r = 3;
  protection.chain_count = 80;
  Session session(FifoSpec{32, 32}, protection);

  CampaignSpec spec;
  spec.kind = CampaignKind::Validation;
  spec.seed = 2024;
  spec.sequences = 4096;
  spec.shard_size = 512;

  const CampaignResult clean = run(session, spec);
  ASSERT_EQ(clean.status, CampaignStatus::Complete);
  EXPECT_TRUE(clean.passed());

  spec.checkpoint = path.str();
  const CampaignResult checkpointed = run(session, spec);
  EXPECT_EQ(checkpointed.status, CampaignStatus::Complete);
  EXPECT_EQ(checkpointed.shards_resumed, 0u);
  EXPECT_TRUE(checkpointed.validation == clean.validation);

  // Resume with every shard journaled: nothing reruns, same statistics.
  spec.resume = true;
  const CampaignResult resumed = run(session, spec);
  EXPECT_EQ(resumed.status, CampaignStatus::Complete);
  EXPECT_EQ(resumed.shards_resumed, resumed.shard_count);
  EXPECT_TRUE(resumed.validation == clean.validation);
  EXPECT_TRUE(resumed.passed());
}

namespace {

Session gate_session() {
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.hamming_r = 3;
  protection.chain_count = 8;
  protection.test_width = 4;
  return Session(FifoSpec{32, 2}, protection);
}

Session paper_session() {
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.hamming_r = 3;
  protection.chain_count = 80;
  return Session(FifoSpec{32, 32}, protection);
}

CampaignSpec pinned_spec() {
  CampaignSpec spec;
  spec.kind = CampaignKind::Validation;
  spec.seed = 2024;
  spec.sequences = 4096;
  spec.shard_size = 512;
  return spec;
}

}  // namespace

// A checkpointed Reference run (scalar gate-level shards) that a throwing
// shard stops resumes to exactly the uninterrupted result.
TEST(ApiDurability, ThrowInterruptedReferenceRunResumesBitIdentically) {
  FailpointGuard off("");
  ScopedJournalPath path("test_durability_reference.journal");
  Session session = gate_session();
  CampaignSpec spec;
  spec.kind = CampaignKind::Validation;
  spec.tier = ValidationTier::Structural;
  spec.backend = Backend::Reference;
  spec.mode = InjectionMode::MultipleBurst;
  spec.seed = 9;
  spec.threads = 2;
  spec.sequences = 384;
  spec.shard_size = 64;

  const CampaignResult clean = run(session, spec);
  ASSERT_EQ(clean.status, CampaignStatus::Complete);

  spec.checkpoint = path.str();
  {
    FailpointGuard arm("shard.run=throw@4");
    EXPECT_THROW(run(session, spec), Error);
  }
  spec.resume = true;
  const CampaignResult resumed = run(session, spec);
  EXPECT_EQ(resumed.status, CampaignStatus::Complete);
  EXPECT_GE(resumed.shards_resumed, 1u);
  EXPECT_LT(resumed.shards_resumed, resumed.shard_count);
  EXPECT_TRUE(resumed.validation == clean.validation);
  EXPECT_TRUE(resumed.activity == clean.activity);
}

// Only a Reference spec adds the backend word: an Auto / PackedParallel
// fingerprint is the one their journals on disk carry (this value was
// computed before Reference runs could checkpoint at all).
TEST(ApiDurability, PackedParallelFingerprintIsUnchanged) {
  Session session = paper_session();
  CampaignSpec spec = pinned_spec();
  spec.backend = Backend::PackedParallel;
  EXPECT_EQ(campaign_fingerprint(spec, session), 0x22d0a579dc84e842ull);
  spec.backend = Backend::Auto;
  EXPECT_EQ(campaign_fingerprint(spec, session), 0x22d0a579dc84e842ull);
  spec.backend = Backend::Reference;
  EXPECT_NE(campaign_fingerprint(spec, session), 0x22d0a579dc84e842ull);
}

TEST(ApiDurability, ReferenceRefusesAPackedParallelJournal) {
  FailpointGuard off("");
  ScopedJournalPath path("test_durability_backend.journal");
  Session session = paper_session();
  CampaignSpec spec = pinned_spec();
  spec.backend = Backend::PackedParallel;
  spec.checkpoint = path.str();
  ASSERT_EQ(run(session, spec).status, CampaignStatus::Complete);

  spec.backend = Backend::Reference;
  spec.resume = true;
  try {
    run(session, spec);
    ADD_FAILURE() << "a Reference run resumed a PackedParallel journal";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("different campaign"), std::string::npos)
        << error.what();
  }
}

TEST(ApiDurability, DeadlineYieldsTimeoutResultThatDoesNotPass) {
  FailpointGuard off("");
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.hamming_r = 3;
  protection.chain_count = 80;
  Session session(FifoSpec{32, 32}, protection);

  CampaignSpec spec;
  spec.kind = CampaignKind::Validation;
  spec.seed = 2024;
  spec.sequences = 65536;
  spec.deadline_ms = 1;

  const CampaignResult result = run(session, spec);
  EXPECT_EQ(result.status, CampaignStatus::Timeout);
  EXPECT_LT(result.shards_completed, result.shard_count);
  EXPECT_FALSE(result.passed());
}
