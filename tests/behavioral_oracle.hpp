#pragma once

// The behavioral validation tier's data path, kept as a test oracle.
//
// FastTestbench computes each sequence's outcome in the syndrome domain
// from the error pattern alone. This oracle runs the same sequence the long
// way: it draws the chain contents, encodes them with the public
// HammingChainProtector/CrcChainProtector, flips the upsets into the data,
// decodes and rechecks, and compares every chain against the golden copy.
// It makes the same RNG and injector draws in the same order, so for every
// configuration its statistics must equal FastTestbench's bit for bit.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "testbench/harness.hpp"

namespace retscan {

class BehavioralOracle {
 public:
  explicit BehavioralOracle(const ValidationConfig& config)
      : config_(config),
        chain_length_(config.fifo.flop_count() / config.chain_count),
        rng_(config.seed),
        injector_(config.chain_count, chain_length_,
                  Rng::derive_stream(config.seed, 0x494e4a4543544full)) {}

  ValidationStats run(std::size_t count) {
    ValidationStats stats;
    const bool use_hamming = config_.kind != CodeKind::CrcDetect;
    const bool use_crc = config_.kind != CodeKind::HammingCorrect;
    HammingChainProtector hamming(HammingCode(config_.hamming_r), config_.chain_count,
                                  chain_length_);
    CrcChainProtector crc(Crc16::ccitt(), config_.chain_count, chain_length_,
                          config_.chain_count);

    for (std::size_t seq = 0; seq < count; ++seq) {
      // Stage 1-2: reset + write identical random data to FIFO_A and FIFO_B.
      std::vector<BitVec> fifo_a;
      fifo_a.reserve(config_.chain_count);
      for (std::size_t c = 0; c < config_.chain_count; ++c) {
        fifo_a.push_back(rng_.next_bits(chain_length_));
      }
      const std::vector<BitVec> fifo_b = fifo_a;  // golden reference

      // Stage 3: sleep entry — encode.
      if (use_hamming) {
        hamming.encode(fifo_a);
      }
      if (use_crc) {
        crc.encode(fifo_a);
      }

      // Sleep: inject upsets into the retained state.
      std::vector<ErrorLocation> errors;
      switch (config_.mode) {
        case InjectionMode::None:
          break;
        case InjectionMode::SingleRandom:
          errors.push_back(injector_.random_single());
          break;
        case InjectionMode::MultipleBurst:
          errors = injector_.clustered_burst(config_.burst_size, config_.burst_spread);
          break;
        case InjectionMode::RushModel: {
          const RushCurrentModel rush(config_.rush);
          const CorruptionModel model(config_.corruption, rush);
          errors = model.sample(config_.chain_count, chain_length_, rng_);
          break;
        }
      }
      ErrorInjector::flip_chain_data(fifo_a, errors);

      // Stage 4: wake — decode, correct, recheck.
      bool detected = false;
      bool recheck_clean = true;
      if (use_hamming) {
        detected = hamming.decode_and_correct(fifo_a).any_error();
        recheck_clean = !hamming.decode_and_correct(fifo_a).any_error();
      }
      if (use_crc) {
        detected = detected || crc.check(fifo_a).any_error();
        recheck_clean = recheck_clean && !crc.check(fifo_a).any_error();
      }
      if (!use_hamming && detected) {
        recheck_clean = false;  // detection-only: nothing was repaired
      }

      // Stage 5: Comparator reads FIFO_A and FIFO_B.
      const bool matches = fifo_a == fifo_b;
      tally(stats, errors.size(), detected, recheck_clean, matches);
    }
    return stats;
  }

 private:
  static void tally(ValidationStats& stats, std::size_t errors, bool detected,
                    bool recheck_clean, bool matches) {
    ++stats.sequences;
    stats.errors_injected += errors;
    if (errors != 0) {
      ++stats.sequences_with_errors;
      if (detected) {
        ++stats.detected;
      }
      if (matches && recheck_clean) {
        ++stats.corrected;
      }
      if (detected && !recheck_clean) {
        ++stats.flagged_uncorrectable;
      }
      if (!matches) {
        ++stats.comparator_mismatches;
        if (!detected) {
          ++stats.silent_corruptions;
        }
      }
    } else if (!matches) {
      ++stats.comparator_mismatches;
      ++stats.silent_corruptions;
    }
  }

  ValidationConfig config_;
  std::size_t chain_length_;
  Rng rng_;
  ErrorInjector injector_;
};

}  // namespace retscan
