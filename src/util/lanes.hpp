#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

// Lane-width selection. RETSCAN_LANE_WORDS is the number of 64-bit machine
// words ganged into one LaneBlock (the unit the compiled sweep kernels move
// per net). It is a PUBLIC compile definition of the retscan target: the
// LaneBlock layout is part of the installed API, so every consumer must see
// the same value the library was built with.
#ifndef RETSCAN_LANE_WORDS
#define RETSCAN_LANE_WORDS 4
#endif

#if defined(__AVX2__) && RETSCAN_LANE_WORDS == 4
#define RETSCAN_LANE_BLOCK_AVX2 1
#include <immintrin.h>
#else
#define RETSCAN_LANE_BLOCK_AVX2 0
#endif

namespace retscan {

/// One machine word of simulation lanes. Bit b of a LaneWord holds the value
/// of a net/state slot for lane b, so every bitwise gate operation evaluates
/// 64 independent pattern/seed slots at once — the classic word-level
/// bit-parallel technique of industrial fault simulators.
using LaneWord = std::uint64_t;

inline constexpr std::size_t kLaneCount = 64;
inline constexpr LaneWord kAllLanes = ~LaneWord{0};

/// Replicate a scalar boolean across all lanes.
constexpr LaneWord lane_broadcast(bool value) { return value ? kAllLanes : LaneWord{0}; }

/// Mask selecting lanes [0, count).
constexpr LaneWord lane_mask(std::size_t count) {
  return count >= kLaneCount ? kAllLanes : (LaneWord{1} << count) - 1;
}

/// Lane-wise 2:1 select: sel ? b : a.
constexpr LaneWord lane_mux(LaneWord sel, LaneWord a, LaneWord b) {
  return (sel & b) | (~sel & a);
}

/// Number of LaneWords ganged into one LaneBlock. W=4 (the default) makes a
/// 256-lane block that maps exactly onto one AVX2 register; W=1 degenerates
/// to the classic single-word datapath (the portable/no-SIMD build).
inline constexpr std::size_t kLaneWords = RETSCAN_LANE_WORDS;
static_assert(kLaneWords >= 1 && kLaneWords <= 8,
              "RETSCAN_LANE_WORDS must be in [1, 8]");

/// Lanes carried by one LaneBlock (256 at the default W=4).
inline constexpr std::size_t kLaneBlockBits = kLaneWords * kLaneCount;

/// A block of W adjacent lane words: the unit the block sweep kernels move
/// per net. Value storage is lane-major — within a slot's block the W words
/// are contiguous, so one sweep walks cache lines sequentially. Alignment is
/// fixed by W alone (32 bytes for W>=4), never by whether AVX2 is enabled,
/// so objects are ABI-compatible between -mavx2 and portable translation
/// units.
struct alignas(kLaneWords >= 4 ? std::size_t{32} : kLaneWords * sizeof(LaneWord)) LaneBlock {
  LaneWord w[kLaneWords];
};

#if RETSCAN_LANE_BLOCK_AVX2

// AVX2 specialization: one LaneBlock is exactly one 256-bit register, and
// alignas(32) guarantees aligned loads/stores even from std::vector storage.
inline __m256i block_load(const LaneBlock& b) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(b.w));
}

inline LaneBlock block_from(__m256i v) {
  LaneBlock out;
  _mm256_store_si256(reinterpret_cast<__m256i*>(out.w), v);
  return out;
}

inline LaneBlock operator&(const LaneBlock& a, const LaneBlock& b) {
  return block_from(_mm256_and_si256(block_load(a), block_load(b)));
}

inline LaneBlock operator|(const LaneBlock& a, const LaneBlock& b) {
  return block_from(_mm256_or_si256(block_load(a), block_load(b)));
}

inline LaneBlock operator^(const LaneBlock& a, const LaneBlock& b) {
  return block_from(_mm256_xor_si256(block_load(a), block_load(b)));
}

inline LaneBlock operator~(const LaneBlock& a) {
  return block_from(_mm256_xor_si256(block_load(a), _mm256_set1_epi64x(-1)));
}

/// Lane-wise 2:1 select: sel ? b : a (bitwise, via vpandn).
inline LaneBlock lane_mux(const LaneBlock& sel, const LaneBlock& a, const LaneBlock& b) {
  const __m256i s = block_load(sel);
  return block_from(_mm256_or_si256(_mm256_and_si256(s, block_load(b)),
                                    _mm256_andnot_si256(s, block_load(a))));
}

#else  // portable fallback: fixed-trip-count loops the compiler auto-vectorizes

inline LaneBlock operator&(const LaneBlock& a, const LaneBlock& b) {
  LaneBlock out;
  for (std::size_t i = 0; i < kLaneWords; ++i) out.w[i] = a.w[i] & b.w[i];
  return out;
}

inline LaneBlock operator|(const LaneBlock& a, const LaneBlock& b) {
  LaneBlock out;
  for (std::size_t i = 0; i < kLaneWords; ++i) out.w[i] = a.w[i] | b.w[i];
  return out;
}

inline LaneBlock operator^(const LaneBlock& a, const LaneBlock& b) {
  LaneBlock out;
  for (std::size_t i = 0; i < kLaneWords; ++i) out.w[i] = a.w[i] ^ b.w[i];
  return out;
}

inline LaneBlock operator~(const LaneBlock& a) {
  LaneBlock out;
  for (std::size_t i = 0; i < kLaneWords; ++i) out.w[i] = ~a.w[i];
  return out;
}

/// Lane-wise 2:1 select: sel ? b : a.
inline LaneBlock lane_mux(const LaneBlock& sel, const LaneBlock& a, const LaneBlock& b) {
  LaneBlock out;
  for (std::size_t i = 0; i < kLaneWords; ++i) {
    out.w[i] = (sel.w[i] & b.w[i]) | (~sel.w[i] & a.w[i]);
  }
  return out;
}

#endif  // RETSCAN_LANE_BLOCK_AVX2

/// Replicate a scalar boolean across all kLaneBlockBits lanes.
inline LaneBlock block_broadcast(bool value) {
  LaneBlock out;
  for (std::size_t i = 0; i < kLaneWords; ++i) out.w[i] = lane_broadcast(value);
  return out;
}

/// Replicate one 64-lane word into every word of the block. Used to apply a
/// per-domain clamp word (which is lane-agnostic) to a whole block.
inline LaneBlock block_fill(LaneWord word) {
  LaneBlock out;
  for (std::size_t i = 0; i < kLaneWords; ++i) out.w[i] = word;
  return out;
}

/// Mask selecting block lanes [0, count). count may be any value up to
/// kLaneBlockBits; partial last blocks use this to silence unused lanes.
inline LaneBlock block_lane_mask(std::size_t count) {
  LaneBlock out;
  for (std::size_t i = 0; i < kLaneWords; ++i) {
    const std::size_t base = i * kLaneCount;
    out.w[i] = count <= base ? LaneWord{0} : lane_mask(count - base);
  }
  return out;
}

/// True if any lane in the block is set.
inline bool block_any(const LaneBlock& b) {
  LaneWord acc = 0;
  for (std::size_t i = 0; i < kLaneWords; ++i) acc |= b.w[i];
  return acc != 0;
}

/// Index of the lowest set lane, or kLaneBlockBits if the block is empty.
/// Fault simulation uses this to recover the globally-first detecting
/// pattern, which is batch-width invariant by construction.
inline std::size_t block_first_lane(const LaneBlock& b) {
  for (std::size_t i = 0; i < kLaneWords; ++i) {
    if (b.w[i] != 0) {
      return i * kLaneCount + static_cast<std::size_t>(std::countr_zero(b.w[i]));
    }
  }
  return kLaneBlockBits;
}

inline bool operator==(const LaneBlock& a, const LaneBlock& b) {
  for (std::size_t i = 0; i < kLaneWords; ++i) {
    if (a.w[i] != b.w[i]) return false;
  }
  return true;
}

inline bool operator!=(const LaneBlock& a, const LaneBlock& b) { return !(a == b); }

}  // namespace retscan
