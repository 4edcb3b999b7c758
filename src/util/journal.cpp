#include "util/journal.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <type_traits>

#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace retscan {

namespace {
/// crc32 one byte at a time: entry b is the register after shifting the
/// eight bits of b through the reflected polynomial.
constexpr std::array<std::uint32_t, 256> kCrc32Table = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    table[b] = crc;
  }
  return table;
}();
}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ kCrc32Table[(crc ^ bytes[i]) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace {

constexpr std::uint32_t kMagic = 0x4A435352u;  // "RSCJ"
constexpr std::uint32_t kFormat = 2;

/// Serialized sizes: fixed-width fields, no padding, host endianness (a
/// journal is a local crash-recovery artifact, not an interchange format).
/// The header's five words and a slot's record are their structs' bytes.
constexpr std::size_t kHeaderBytes = 4 + 4 + sizeof(CampaignJournal::Header) + 4;
constexpr std::size_t kRecordBytes = sizeof(JournalRecord) + 4;
static_assert(std::is_trivially_copyable_v<CampaignJournal::Header> &&
              std::is_trivially_copyable_v<JournalRecord> &&
              sizeof(CampaignJournal::Header) == 5 * 8 &&
              sizeof(JournalRecord) ==
                  (1 + JournalRecord::kStatsWords + JournalRecord::kTelemetryWords) * 8);

template <typename Word>
Word load(const unsigned char* in) {
  Word value{};
  std::memcpy(&value, in, sizeof(Word));
  return value;
}

void store_u32(unsigned char* out, std::uint32_t value) {
  std::memcpy(out, &value, 4);
}

/// True when slot `bytes` hold shard `shard_index`'s record whole: the
/// stored index is the slot's own and the CRC holds. A zeroed (never
/// written) or torn slot fails.
bool holds_record(const unsigned char* bytes, std::uint64_t shard_index) {
  return load<std::uint64_t>(bytes) == shard_index &&
         load<std::uint32_t>(bytes + kRecordBytes - 4) ==
             crc32(bytes, kRecordBytes - 4);
}

/// An open file descriptor, closed when it goes out of scope (a mapping
/// outlives it).
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

/// Map `bytes` of `fd` read-write and shared, so stores land in the file's
/// own pages.
unsigned char* map_shared(const Fd& fd, std::size_t bytes, const std::string& path) {
  void* const map =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd.get(), 0);
  if (map == MAP_FAILED) {
    throw Error("checkpoint journal: cannot map '" + path + "': " +
                std::strerror(errno));
  }
  return static_cast<unsigned char*>(map);
}

std::string hex(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

CampaignJournal::CampaignJournal(std::string path, std::uint64_t fingerprint,
                                 std::uint64_t seed, Mode mode)
    : path_(std::move(path)) {
  header_.fingerprint = fingerprint;
  header_.seed = seed;
  if (mode == Mode::Resume) {
    load_existing();
  } else {
    std::remove(path_.c_str());  // Truncate: a stale journal must not linger
  }
}

CampaignJournal::~CampaignJournal() {
  if (map_ != nullptr) {
    ::munmap(map_, map_bytes_);
  }
}

void CampaignJournal::load_existing() {
  failpoint("journal.load");
  if (::access(path_.c_str(), F_OK) != 0) {
    return;  // no journal yet — resume degenerates to a fresh run
  }
  const auto ignore = [&] {
    std::fprintf(stderr,
                 "retscan: warning: checkpoint journal '%s' has a torn or "
                 "foreign header — ignoring it and starting fresh\n",
                 path_.c_str());
  };
  const std::optional<Header> loaded = peek(path_);
  if (!loaded) {
    ignore();
    return;
  }
  if (loaded->fingerprint != header_.fingerprint) {
    throw Error("checkpoint journal '" + path_ +
                "' was written by a different campaign, design or library "
                "version (journal fingerprint " + hex(loaded->fingerprint) +
                ", current " + hex(header_.fingerprint) +
                ") — rerun without --resume to discard it, or restore the "
                "original spec/netlist");
  }
  if (loaded->seed != header_.seed) {
    throw Error("checkpoint journal '" + path_ + "' was written with seed " +
                std::to_string(loaded->seed) + ", not the current seed " +
                std::to_string(header_.seed) +
                " — resumed shards are only bit-exact under the original "
                "seed; rerun without --resume to discard it");
  }
  // The file must hold exactly the header's plan; dividing, rather than
  // multiplying shard_count out, keeps a huge count from wrapping.
  const Fd fd(::open(path_.c_str(), O_RDWR | O_CLOEXEC));
  struct stat status {};
  if (fd.get() < 0 || ::fstat(fd.get(), &status) != 0 ||
      status.st_size < static_cast<off_t>(kHeaderBytes) ||
      (status.st_size - kHeaderBytes) % kRecordBytes != 0 ||
      (status.st_size - kHeaderBytes) / kRecordBytes != loaded->shard_count) {
    ignore();
    return;
  }
  map_bytes_ = static_cast<std::size_t>(status.st_size);
  map_ = map_shared(fd, map_bytes_, path_);
  header_ = *loaded;

  for (std::uint64_t shard = 0; shard < header_.shard_count; ++shard) {
    const unsigned char* const bytes = slot(shard);
    if (holds_record(bytes, shard)) {
      ++resumed_count_;
    } else if (std::any_of(bytes, bytes + kRecordBytes,
                           [](unsigned char byte) { return byte != 0; })) {
      ++dropped_count_;
    }
  }
  if (dropped_count_ != 0) {
    std::fprintf(stderr,
                 "retscan: warning: checkpoint journal '%s' has torn record "
                 "slots — kept %zu record(s), dropped %zu (those shards "
                 "rerun)\n",
                 path_.c_str(), resumed_count_, dropped_count_);
  }
}

void CampaignJournal::bind_plan(std::uint64_t total, std::uint64_t shard_size,
                                std::uint64_t shard_count) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (map_ != nullptr) {
    if (header_.total != total || header_.shard_size != shard_size ||
        header_.shard_count != shard_count) {
      throw Error("checkpoint journal '" + path_ + "' was written for " +
                  std::to_string(header_.total) + " trials in " +
                  std::to_string(header_.shard_count) + " shard(s) of " +
                  std::to_string(header_.shard_size) +
                  "; the current campaign plans " + std::to_string(total) +
                  " trials in " + std::to_string(shard_count) +
                  " shard(s) of " + std::to_string(shard_size) +
                  " — resumed shards are only bit-exact under the identical "
                  "shard plan; rerun with the original sequences/shard_size "
                  "or without --resume");
    }
    return;
  }
  header_.total = total;
  header_.shard_size = shard_size;
  header_.shard_count = shard_count;

  if (shard_count > (std::numeric_limits<off_t>::max() - kHeaderBytes) / kRecordBytes) {
    throw Error("checkpoint journal '" + path_ + "': " +
                std::to_string(shard_count) + " shards do not fit in one file");
  }
  const std::string tmp = path_ + ".tmp";
  const std::size_t bytes = kHeaderBytes + shard_count * kRecordBytes;
  const Fd fd(::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
  if (fd.get() < 0) {
    throw Error("checkpoint journal: cannot create '" + tmp +
                "' — check the directory exists and is writable");
  }
  // Zero-filled, so every slot starts empty.
  if (const int error = ::posix_fallocate(fd.get(), 0, static_cast<off_t>(bytes));
      error != 0) {
    std::remove(tmp.c_str());
    throw Error("checkpoint journal: cannot reserve " + std::to_string(bytes) +
                " bytes for '" + tmp + "': " + std::strerror(error));
  }
  unsigned char* const map = map_shared(fd, bytes, tmp);
  store_u32(map, kMagic);
  store_u32(map + 4, kFormat);
  std::memcpy(map + 8, &header_, sizeof(Header));
  store_u32(map + kHeaderBytes - 4, crc32(map, kHeaderBytes - 4));
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    ::munmap(map, bytes);
    std::remove(tmp.c_str());
    throw Error("checkpoint journal: cannot rename '" + tmp + "' over '" +
                path_ + "'");
  }
  map_ = map;
  map_bytes_ = bytes;
}

unsigned char* CampaignJournal::slot(std::uint64_t shard_index) const {
  if (map_ == nullptr || shard_index >= header_.shard_count) {
    return nullptr;
  }
  return map_ + kHeaderBytes + shard_index * kRecordBytes;
}

std::optional<JournalRecord> CampaignJournal::find(
    std::uint64_t shard_index) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const unsigned char* const bytes = slot(shard_index);
  if (bytes == nullptr || !holds_record(bytes, shard_index)) {
    return std::nullopt;
  }
  return load<JournalRecord>(bytes);
}

void CampaignJournal::append(const JournalRecord& record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  unsigned char* const bytes = slot(record.shard_index);
  if (bytes == nullptr) {
    throw Error("checkpoint journal '" + path_ + "': shard " +
                std::to_string(record.shard_index) +
                " is outside the bound plan of " +
                std::to_string(map_ == nullptr ? 0 : header_.shard_count) +
                " shard(s)");
  }
  if (holds_record(bytes, record.shard_index)) {
    return;  // already journaled
  }
  unsigned char encoded[kRecordBytes];
  std::memcpy(encoded, &record, sizeof(JournalRecord));
  store_u32(encoded + sizeof(JournalRecord), crc32(encoded, sizeof(JournalRecord)));
  // A torn slot is what a kill mid-copy leaves behind.
  const bool short_write = failpoint("journal.flush") == FailAction::ShortWrite;
  std::memcpy(bytes, encoded, short_write ? kRecordBytes / 2 : kRecordBytes);
}

std::optional<CampaignJournal::Header> CampaignJournal::peek(
    const std::string& path) {
  unsigned char bytes[kHeaderBytes];
  std::ifstream in(path, std::ios::binary);
  if (!in.read(reinterpret_cast<char*>(bytes), kHeaderBytes) ||
      load<std::uint32_t>(bytes) != kMagic || load<std::uint32_t>(bytes + 4) != kFormat ||
      load<std::uint32_t>(bytes + kHeaderBytes - 4) != crc32(bytes, kHeaderBytes - 4)) {
    return std::nullopt;  // missing, torn, foreign or older-format file
  }
  return load<Header>(bytes + 8);
}

}  // namespace retscan
