#include "util/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

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
constexpr std::uint32_t kFormat = 1;

/// Serialized sizes: fixed-width fields, no padding, host endianness (a
/// journal is a local crash-recovery artifact, not an interchange format).
constexpr std::size_t kHeaderBytes = 4 + 4 + 5 * 8 + 4;
constexpr std::size_t kRecordBytes =
    8 + (JournalRecord::kStatsWords + JournalRecord::kTelemetryWords) * 8 + 4;

void put_u32(std::vector<unsigned char>& out, std::uint32_t value) {
  const std::size_t at = out.size();
  out.resize(at + 4);
  std::memcpy(out.data() + at, &value, 4);
}

void put_u64(std::vector<unsigned char>& out, std::uint64_t value) {
  const std::size_t at = out.size();
  out.resize(at + 8);
  std::memcpy(out.data() + at, &value, 8);
}

std::uint32_t get_u32(const unsigned char* in) {
  std::uint32_t value;
  std::memcpy(&value, in, 4);
  return value;
}

std::uint64_t get_u64(const unsigned char* in) {
  std::uint64_t value;
  std::memcpy(&value, in, 8);
  return value;
}

void serialize_header(std::vector<unsigned char>& out,
                      const CampaignJournal::Header& header) {
  const std::size_t start = out.size();
  put_u32(out, kMagic);
  put_u32(out, kFormat);
  put_u64(out, header.fingerprint);
  put_u64(out, header.seed);
  put_u64(out, header.total);
  put_u64(out, header.shard_size);
  put_u64(out, header.shard_count);
  put_u32(out, crc32(out.data() + start, kHeaderBytes - 4));
}

void serialize_record(std::vector<unsigned char>& out,
                      const JournalRecord& record) {
  const std::size_t start = out.size();
  put_u64(out, record.shard_index);
  for (const std::uint64_t word : record.stats) {
    put_u64(out, word);
  }
  for (const std::uint64_t word : record.telemetry) {
    put_u64(out, word);
  }
  put_u32(out, crc32(out.data() + start, kRecordBytes - 4));
}

/// Header bytes → Header; false on bad magic/format/CRC (torn or foreign
/// file — callers treat that as "no usable journal").
bool parse_header(const unsigned char* bytes, std::size_t size,
                  CampaignJournal::Header& out) {
  if (size < kHeaderBytes || get_u32(bytes) != kMagic ||
      get_u32(bytes + 4) != kFormat ||
      get_u32(bytes + kHeaderBytes - 4) != crc32(bytes, kHeaderBytes - 4)) {
    return false;
  }
  out.fingerprint = get_u64(bytes + 8);
  out.seed = get_u64(bytes + 16);
  out.total = get_u64(bytes + 24);
  out.shard_size = get_u64(bytes + 32);
  out.shard_count = get_u64(bytes + 40);
  return true;
}

bool read_file(const std::string& path, std::vector<unsigned char>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  out.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  return true;
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

void CampaignJournal::load_existing() {
  failpoint("journal.load");
  std::vector<unsigned char> bytes;
  if (!read_file(path_, bytes)) {
    return;  // no journal yet — resume degenerates to a fresh run
  }
  Header loaded;
  if (!parse_header(bytes.data(), bytes.size(), loaded)) {
    std::fprintf(stderr,
                 "retscan: warning: checkpoint journal '%s' has a torn or "
                 "foreign header — ignoring it and starting fresh\n",
                 path_.c_str());
    return;
  }
  if (loaded.fingerprint != header_.fingerprint) {
    throw Error("checkpoint journal '" + path_ +
                "' was written by a different campaign, design or library "
                "version (journal fingerprint " + hex(loaded.fingerprint) +
                ", current " + hex(header_.fingerprint) +
                ") — rerun without --resume to discard it, or restore the "
                "original spec/netlist");
  }
  if (loaded.seed != header_.seed) {
    throw Error("checkpoint journal '" + path_ + "' was written with seed " +
                std::to_string(loaded.seed) + ", not the current seed " +
                std::to_string(header_.seed) +
                " — resumed shards are only bit-exact under the original "
                "seed; rerun without --resume to discard it");
  }
  header_ = loaded;
  plan_bound_ = header_.total != 0;

  std::size_t offset = kHeaderBytes;
  while (offset + kRecordBytes <= bytes.size()) {
    const unsigned char* record_bytes = bytes.data() + offset;
    if (get_u32(record_bytes + kRecordBytes - 4) !=
        crc32(record_bytes, kRecordBytes - 4)) {
      break;  // torn write: keep the valid prefix, rerun the rest
    }
    JournalRecord record;
    record.shard_index = get_u64(record_bytes);
    for (std::size_t i = 0; i < JournalRecord::kStatsWords; ++i) {
      record.stats[i] = get_u64(record_bytes + 8 + i * 8);
    }
    for (std::size_t i = 0; i < JournalRecord::kTelemetryWords; ++i) {
      record.telemetry[i] =
          get_u64(record_bytes + 8 + (JournalRecord::kStatsWords + i) * 8);
    }
    if (index_.emplace(record.shard_index, records_.size()).second) {
      records_.push_back(record);
    }
    offset += kRecordBytes;
  }
  resumed_count_ = records_.size();
  const std::size_t tail = bytes.size() - offset;
  if (tail != 0) {
    dropped_count_ = (tail + kRecordBytes - 1) / kRecordBytes;
    std::fprintf(stderr,
                 "retscan: warning: checkpoint journal '%s' ends in a torn "
                 "write — kept %zu record(s), dropped %zu (those shards "
                 "rerun)\n",
                 path_.c_str(), resumed_count_, dropped_count_);
  }
}

void CampaignJournal::bind_plan(std::uint64_t total, std::uint64_t shard_size,
                                std::uint64_t shard_count) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (plan_bound_) {
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
  plan_bound_ = true;
}

std::optional<JournalRecord> CampaignJournal::find(
    std::uint64_t shard_index) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(shard_index);
  if (it == index_.end()) {
    return std::nullopt;
  }
  return records_[it->second];
}

CampaignJournal::~CampaignJournal() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void CampaignJournal::append(const JournalRecord& record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!index_.emplace(record.shard_index, records_.size()).second) {
    return;  // already journaled: the file holds it
  }
  records_.push_back(record);
  const bool short_write = failpoint("journal.flush") == FailAction::ShortWrite;
  if (fd_ < 0) {
    rewrite_locked(short_write);
  } else {
    append_locked(record, short_write);
  }
}

void CampaignJournal::rewrite_locked(bool short_write) {
  std::vector<unsigned char> bytes;
  bytes.reserve(kHeaderBytes + records_.size() * kRecordBytes);
  serialize_header(bytes, header_);
  for (const JournalRecord& record : records_) {
    serialize_record(bytes, record);
  }
  std::size_t write_bytes = bytes.size();
  if (short_write) {
    // Simulate a torn write: ship a truncated file through the same atomic
    // rename, exactly what a crash mid-write leaves behind.
    write_bytes = kHeaderBytes + (bytes.size() - kHeaderBytes) / 2;
  }

  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out ||
        !out.write(reinterpret_cast<const char*>(bytes.data()),
                   static_cast<std::streamsize>(write_bytes))) {
      throw Error("checkpoint journal: cannot write '" + tmp +
                  "' — check the directory exists and is writable");
    }
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    throw Error("checkpoint journal: cannot rename '" + tmp + "' over '" +
                path_ + "'");
  }
  if (short_write) {
    return;  // fd_ stays closed: the next append rewrites and heals the tail
  }
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    throw Error("checkpoint journal: cannot reopen '" + path_ +
                "' for appending: " + std::strerror(errno));
  }
}

void CampaignJournal::append_locked(const JournalRecord& record, bool short_write) {
  std::vector<unsigned char> bytes;
  bytes.reserve(kRecordBytes);
  serialize_record(bytes, record);
  // A torn append is what a crash mid-write leaves behind.
  const std::size_t write_bytes = short_write ? kRecordBytes / 2 : kRecordBytes;
  const ssize_t written = ::write(fd_, bytes.data(), write_bytes);
  if (written == static_cast<ssize_t>(kRecordBytes)) {
    return;
  }
  // The file now ends in a torn record (or the write failed): close the fd
  // so the next append rewrites the file whole, which heals the tail.
  const int error = errno;
  ::close(fd_);
  fd_ = -1;
  if (!short_write) {
    throw Error("checkpoint journal: cannot append to '" + path_ + "': " +
                (written < 0 ? std::strerror(error) : "short write"));
  }
}

std::optional<CampaignJournal::Header> CampaignJournal::peek(
    const std::string& path) {
  std::vector<unsigned char> bytes;
  Header header;
  if (!read_file(path, bytes) ||
      !parse_header(bytes.data(), bytes.size(), header)) {
    return std::nullopt;
  }
  return header;
}

}  // namespace retscan
