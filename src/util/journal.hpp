#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

namespace retscan {

/// One journaled shard outcome: the shard's ValidationStats counters and its
/// ScheduleTelemetry counters, flattened to raw u64 arrays so the journal
/// stays a pure util-layer facility (the parallel layer owns the
/// ShardOutcome ⇄ JournalRecord conversion). Merged in shard-index order on
/// resume, exactly like freshly run shards — which is why a resumed campaign
/// is bit-identical to an uninterrupted one.
struct JournalRecord {
  static constexpr std::size_t kStatsWords = 8;
  static constexpr std::size_t kTelemetryWords = 6;

  std::uint64_t shard_index = 0;
  std::uint64_t stats[kStatsWords] = {};
  std::uint64_t telemetry[kTelemetryWords] = {};
};

/// Crash-safe campaign checkpoint journal: one fixed record slot per shard
/// of the bound plan, in a file mapped MAP_SHARED.
///
/// On-disk format (host-endian, fixed-width little structs):
///
///     header:  magic 'RSCJ' u32 | format u32 | fingerprint u64 | seed u64
///              | total u64 | shard_size u64 | shard_count u64 | crc32 u32
///     slot i:  shard_index u64 | 8×u64 stats | 6×u64 telemetry | crc32 u32
///
/// Slot i sits at kHeaderBytes + i × kRecordBytes. bind_plan creates the
/// file once, through `path.tmp` and an atomic rename, with the header and
/// every slot zeroed; posix_fallocate reserves the whole file up front, so
/// a full disk is an Error before the first shard, not a SIGBUS mid-run.
/// An append is a memcpy into its shard's slot — no system call — and the
/// dirty pages belong to the file, so they survive a killed process. A slot
/// counts only when its CRC holds and its stored shard_index is its own
/// index; anything else (never written, or torn by a kill mid-copy) simply
/// reruns, and a torn slot hides no other. Nothing fsyncs: the journal
/// survives a killed process, not a power loss.
///
/// The mapping is the only copy of the journaled outcomes: find() reads the
/// slot straight from it.
///
/// The fingerprint (spec + design geometry + library version, computed by
/// the API layer) and seed bind a journal to one exact campaign; Resume
/// mode rejects mismatches with an actionable error instead of silently
/// merging foreign statistics.
class CampaignJournal {
 public:
  enum class Mode {
    Truncate, ///< start fresh, discarding any existing file at `path`
    Resume,   ///< map the existing file; validate header against args
  };

  /// Opens (Resume) or resets (Truncate) the journal. Resume with no file
  /// at `path` starts fresh; Resume with a mismatched fingerprint/seed
  /// throws retscan::Error.
  CampaignJournal(std::string path, std::uint64_t fingerprint,
                  std::uint64_t seed, Mode mode);

  ~CampaignJournal();
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  /// Bind the shard plan before the first append/find: creates and maps the
  /// file unless Resume already mapped one. On resume, rejects a journal
  /// written under a different (total, shard_size) plan — resumed records
  /// are only bit-exact under the identical shard decomposition. Throws
  /// retscan::Error when the file cannot be created, sized or mapped.
  void bind_plan(std::uint64_t total, std::uint64_t shard_size,
                 std::uint64_t shard_count);

  /// The journaled outcome of shard `shard_index`, or nullopt if that shard
  /// has not completed. Thread-safe against concurrent append().
  std::optional<JournalRecord> find(std::uint64_t shard_index) const;

  /// Copy one completed shard into its slot (see the class comment). A
  /// shard already journaled is not written again. Thread-safe. Throws
  /// retscan::Error when `record.shard_index` is outside the bound plan.
  void append(const JournalRecord& record);

  /// Valid slots found by Resume (before any append this run).
  std::size_t resumed_count() const { return resumed_count_; }
  /// Written but invalid slots found by Resume (torn copy / bad CRC).
  std::size_t dropped_count() const { return dropped_count_; }

  const std::string& path() const { return path_; }

  /// Read just the header of an existing journal — what validate() uses to
  /// reject a --resume against the wrong spec before any work starts.
  /// nullopt when the file is missing or its header is torn, corrupt or of
  /// an older format (all mean "no usable journal", not an error). The
  /// struct's five words are the header's bytes after magic and format.
  struct Header {
    std::uint64_t fingerprint = 0;
    std::uint64_t seed = 0;
    std::uint64_t total = 0;
    std::uint64_t shard_size = 0;
    std::uint64_t shard_count = 0;
  };
  static std::optional<Header> peek(const std::string& path);

 private:
  void load_existing();
  /// Slot `shard_index`'s bytes, or nullptr outside the mapped plan.
  unsigned char* slot(std::uint64_t shard_index) const;

  std::string path_;
  Header header_;
  std::size_t resumed_count_ = 0;
  std::size_t dropped_count_ = 0;

  mutable std::mutex mutex_;
  unsigned char* map_ = nullptr;  ///< the whole file; null until bound
  std::size_t map_bytes_ = 0;
};

/// CRC32 (reflected 0xEDB88320, the zlib polynomial) over `size` bytes —
/// the integrity check on every journal header and record.
std::uint32_t crc32(const void* data, std::size_t size);

}  // namespace retscan
