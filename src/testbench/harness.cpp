#include "testbench/harness.hpp"

#include <algorithm>
#include <limits>

#include "retscan/runtime.hpp"
#include "scan/scan_io.hpp"
#include "util/error.hpp"

namespace retscan {

namespace {
std::size_t chain_length_for(const ValidationConfig& config) {
  const std::size_t flops = config.fifo.flop_count();
  RETSCAN_CHECK(config.chain_count > 0 && flops % config.chain_count == 0,
                "ValidationConfig: flop count not divisible by chain count");
  return flops / config.chain_count;
}

/// Injector seed derived as an independent stream of the campaign seed.
/// (The old `seed | 1` collided for seeds differing only in bit 0 — fatal
/// for sharded campaigns whose per-shard seeds are dense.)
std::uint64_t injector_seed(const ValidationConfig& config) {
  return Rng::derive_stream(config.seed, 0x494e4a4543544full);  // "INJECTO"
}

/// The electrical corruption model RushModel samples from; null otherwise.
std::unique_ptr<CorruptionModel> corruption_model_for(const ValidationConfig& config) {
  if (config.mode != InjectionMode::RushModel) {
    return nullptr;
  }
  const RushCurrentModel rush(config.rush);
  return std::make_unique<CorruptionModel>(config.corruption, rush);
}

/// One sequence's upsets — the one sampler every testbench tier shares.
std::vector<ErrorLocation> sample_errors(const ValidationConfig& config,
                                         std::size_t chain_length,
                                         ErrorInjector& injector,
                                         const CorruptionModel* corruption, Rng& rng) {
  switch (config.mode) {
    case InjectionMode::None:
      return {};
    case InjectionMode::SingleRandom:
      return {injector.random_single()};
    case InjectionMode::MultipleBurst:
      return injector.clustered_burst(config.burst_size, config.burst_spread);
    case InjectionMode::RushModel:
      return corruption->sample(config.chain_count, chain_length, rng);
  }
  return {};
}

/// Sort `keys` and keep each key that occurs an odd number of times: the
/// set of bits a list of flips leaves flipped.
void xor_reduce(std::vector<std::size_t>& keys) {
  std::sort(keys.begin(), keys.end());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t j = i + 1;
    while (j < keys.size() && keys[j] == keys[i]) {
      ++j;
    }
    if ((j - i) % 2 != 0) {
      keys[kept++] = keys[i];
    }
    i = j;
  }
  keys.resize(kept);
}

constexpr std::size_t kParityPosition = std::numeric_limits<std::size_t>::max();

/// One sequence's contribution to the campaign statistics — the one tally
/// every testbench tier shares. `errors` is the number of injected upsets;
/// the monitor escalates to ErrorFlagged exactly when it detected errors and
/// the recheck did not come back clean, which is what flagged_uncorrectable
/// counts.
void tally(ValidationStats& stats, std::size_t errors, bool detected,
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
}  // namespace

FastTestbench::FastTestbench(const ValidationConfig& config)
    : config_(config),
      chain_length_(chain_length_for(config)),
      rng_(config.seed),
      injector_(std::make_unique<ErrorInjector>(config.chain_count, chain_length_,
                                                injector_seed(config))),
      corruption_(corruption_model_for(config)) {
  const std::size_t chains = config_.chain_count;
  const HammingCode code(config_.hamming_r);
  RETSCAN_CHECK(chains % code.k() == 0,
                "FastTestbench: chain count must be a multiple of the Hamming k");
  hamming_k_ = code.k();
  hamming_column_.resize(chains);
  for (std::size_t c = 0; c < chains; ++c) {
    hamming_column_[c] = code.data_position(c % hamming_k_);
  }
  syndrome_data_.assign(code.n() + 1, kParityPosition);
  for (std::size_t i = 0; i < hamming_k_; ++i) {
    syndrome_data_[code.data_position(i)] = i;
  }

  // The signature absorbs the fabric cycle-major: at shift cycle t every
  // chain emits its bit at position l-1-t, in chain order. So a lone upset
  // at (c, p) is followed by m = p*W + (W-1-c) zero bits. Shifting a 1 into
  // the zero register leaves the polynomial, and each zero bit after it
  // applies the zero-input step — one walk over m fills the table.
  const std::uint16_t polynomial = Crc16::ccitt().polynomial();
  crc_column_.resize(chains * chain_length_);
  std::uint16_t reg = polynomial;
  for (std::size_t p = 0; p < chain_length_; ++p) {
    for (std::size_t c = chains; c-- > 0;) {
      crc_column_[p * chains + c] = reg;
      reg = static_cast<std::uint16_t>((reg << 1) ^ ((reg & 0x8000u) != 0 ? polynomial : 0));
    }
  }
}

void FastTestbench::reseed(std::uint64_t seed) {
  config_.seed = seed;
  rng_ = Rng(seed);
  injector_ = std::make_unique<ErrorInjector>(config_.chain_count, chain_length_,
                                              injector_seed(config_));
}

ValidationStats FastTestbench::run(std::size_t count, const CancelToken* cancel) {
  ValidationStats stats;
  const bool use_hamming = config_.kind != CodeKind::CrcDetect;
  const bool use_crc = config_.kind != CodeKind::HammingCorrect;
  const std::size_t chains = config_.chain_count;
  const std::size_t data_draws = chains * ((chain_length_ + 63) / 64);

  for (std::size_t seq = 0; seq < count; ++seq) {
    if (cancel != nullptr) {
      cancel->check();
    }
    // Stages 1-2: the data written to FIFO_A and FIFO_B cancels out of
    // every verdict, but its draws (Rng::next_bits per chain) are still
    // made, so RushModel samples from the same point of the stream.
    for (std::size_t i = 0; i < data_draws; ++i) {
      rng_.next_u64();
    }

    // Sleep: the upset pattern e, as a set — two flips of one bit cancel.
    const std::vector<ErrorLocation> errors =
        sample_errors(config_, chain_length_, *injector_, corruption_.get(), rng_);
    residual_.clear();
    for (const ErrorLocation& loc : errors) {
      RETSCAN_CHECK(loc.chain < chains && loc.position < chain_length_,
                    "ErrorInjector: location outside fabric");
      residual_.push_back(loc.position * chains + loc.chain);
    }
    xor_reduce(residual_);

    // Stage 4: wake — each word's syndrome is the XOR of its upsets'
    // columns. A data syndrome flips that bit, which returns the word's
    // syndrome to zero; a parity-position syndrome flips nothing, so the
    // recheck sees exactly those words again.
    bool detected = false;
    bool recheck_clean = true;
    if (use_hamming) {
      const std::size_t upsets = residual_.size();
      for (std::size_t begin = 0; begin < upsets;) {
        const std::size_t word = residual_[begin] / hamming_k_;
        unsigned syndrome = 0;
        for (; begin < upsets && residual_[begin] / hamming_k_ == word; ++begin) {
          syndrome ^= hamming_column_[residual_[begin] % chains];
        }
        if (syndrome == 0) {
          continue;
        }
        detected = true;
        const std::size_t data = syndrome_data_[syndrome];
        if (data == kParityPosition) {
          recheck_clean = false;
        } else {
          residual_.push_back(word * hamming_k_ + data);
        }
      }
      xor_reduce(residual_);  // e′: what the corrections left flipped
    }
    // The stored signature is CRC(d) and the check reads CRC(d ⊕ e′), so
    // they differ exactly when CRC₀(e′) ≠ 0; the recheck reads the same.
    if (use_crc) {
      std::uint16_t signature = 0;
      for (const std::size_t key : residual_) {
        signature ^= crc_column_[key];
      }
      if (signature != 0) {
        detected = true;
        recheck_clean = false;
      }
    }

    // Stage 5: the Comparator matches exactly when nothing stays flipped.
    tally(stats, errors.size(), detected, recheck_clean, residual_.empty());
  }
  return stats;
}

StructuralTestbench::StructuralTestbench(const ValidationConfig& config)
    : config_(config), rng_(config.seed) {
  ProtectionConfig protection;
  protection.kind = config_.kind;
  protection.hamming_r = config_.hamming_r;
  protection.chain_count = config_.chain_count;
  protection.test_width = 4;
  design_ = std::make_unique<ProtectedDesign>(make_fifo(config_.fifo), protection);
  session_ = std::make_unique<RetentionSession>(*design_);
  // The schedule is resolved once against the environment here; reseed()
  // keeps it, so pooled reuse matches fresh construction. The session
  // constructor already ran its reset settle under the engine's default
  // schedule — drain that so telemetry reports only campaign settles under
  // the configured schedule.
  session_->sim().set_schedule(runtime_schedule(config_.schedule));
  session_->sim().invalidate_schedule_state();
  session_->sim().take_schedule_telemetry();
  injector_ = std::make_unique<ErrorInjector>(
      config_.chain_count, design_->chain_length(), injector_seed(config_));
  corruption_ = corruption_model_for(config_);
}

void StructuralTestbench::reseed(std::uint64_t seed) {
  config_.seed = seed;
  rng_ = Rng(seed);
  injector_ = std::make_unique<ErrorInjector>(
      config_.chain_count, design_->chain_length(), injector_seed(config_));
  // The session constructors perform nothing but a reset (controls low,
  // inputs zero, one settle), so resetting the simulators restores the
  // exact fresh-construction state without recompiling the design. The
  // explicit invalidate matches construction, which always enters the first
  // shard with a forced resync armed (reset()'s own settle consumes the one
  // it arms) — without it a warm engine's first settle could take the event
  // path where a fresh engine's runs a full sweep, and the shard's
  // telemetry would depend on workspace history.
  session_->sim().reset();
  session_->sim().invalidate_schedule_state();
  session_->reset_fsm();
  if (packed_session_) {
    packed_session_->sim().reset();
    packed_session_->sim().invalidate_schedule_state();
  }
}

ScheduleTelemetry StructuralTestbench::take_telemetry() {
  ScheduleTelemetry telemetry = session_->sim().take_schedule_telemetry();
  if (packed_session_) {
    telemetry += packed_session_->sim().take_schedule_telemetry();
  }
  return telemetry;
}

ValidationStats StructuralTestbench::run_packed(std::size_t count,
                                                const CancelToken* cancel) {
  ValidationStats stats;
  if (!packed_session_) {
    packed_session_ = std::make_unique<PackedRetentionSession>(*design_);
    packed_session_->sim().set_schedule(runtime_schedule(config_.schedule));
    packed_session_->sim().invalidate_schedule_state();
    packed_session_->sim().take_schedule_telemetry();  // construction settle
  }
  PackedSim& sim = packed_session_->sim();
  const Netlist& nl = design_->netlist();
  const std::size_t width = config_.fifo.width;
  const NetId wr_en = nl.input_net("wr_en");
  const NetId rd_en = nl.input_net("rd_en");
  std::vector<NetId> din(width), dout(width);
  for (std::size_t b = 0; b < width; ++b) {
    din[b] = nl.input_net("din" + std::to_string(b));
    dout[b] = nl.output_net("dout" + std::to_string(b));
  }

  for (std::size_t base = 0; base < count; base += PackedSim::lane_count()) {
    if (cancel != nullptr) {
      cancel->check();
    }
    const std::size_t lanes = std::min(PackedSim::lane_count(), count - base);

    // Stage 1: reset both FIFOs by blanking the retained state (all lanes).
    FifoModel fifo_b(config_.fifo);
    for (const auto& chain : design_->chains().chains) {
      for (const CellId flop : chain) {
        sim.set_flop_lanes(flop, 0);
      }
    }
    sim.refresh();

    // Stage 2: Stimulus writes the same random words to every lane and to
    // the golden model.
    sim.set_input_all(rd_en, false);
    const std::size_t words =
        config_.fifo.depth / 2 + rng_.next_below(config_.fifo.depth / 2);
    for (std::size_t w = 0; w < words; ++w) {
      const BitVec word = rng_.next_bits(width);
      sim.set_input_all(wr_en, true);
      for (std::size_t b = 0; b < width; ++b) {
        sim.set_input_all(din[b], word.get(b));
      }
      sim.step();
      fifo_b.step(true, false, word);
    }
    sim.set_input_all(wr_en, false);

    // Stages 3-4: one sleep/wake protocol run, 64 corruption trials.
    std::vector<std::vector<ErrorLocation>> upsets(lanes);
    for (auto& lane_upsets : upsets) {
      lane_upsets = sample_errors(config_, design_->chain_length(), *injector_,
                                  corruption_.get(), rng_);
    }
    const auto outcome = packed_session_->sleep_wake_cycle(upsets, &rng_);

    // Stage 5: Comparator reads every lane's FIFO against the golden model.
    LaneWord mismatch = 0;
    for (std::size_t w = 0; w < words; ++w) {
      sim.set_input_all(rd_en, true);
      sim.eval();
      const BitVec golden = fifo_b.front();
      for (std::size_t b = 0; b < width; ++b) {
        mismatch |= sim.net_lanes(dout[b]) ^ lane_broadcast(golden.get(b));
      }
      sim.step();
      fifo_b.step(false, true, BitVec(width));
    }
    sim.set_input_all(rd_en, false);

    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const bool detected = (outcome.errors_detected >> lane & 1u) != 0;
      const bool recheck_clean = (outcome.recheck_clean >> lane & 1u) != 0;
      const bool matches = (mismatch >> lane & 1u) == 0;
      tally(stats, upsets[lane].size(), detected, recheck_clean, matches);
    }
  }
  return stats;
}

ValidationStats StructuralTestbench::run(std::size_t count, const CancelToken* cancel) {
  ValidationStats stats;
  Simulator& sim = session_->sim();
  const std::size_t width = config_.fifo.width;

  for (std::size_t seq = 0; seq < count; ++seq) {
    if (cancel != nullptr) {
      cancel->check();
    }
    // Stage 1: reset both FIFOs by restoring a blank state.
    FifoModel fifo_b(config_.fifo);
    std::vector<BitVec> blank(config_.chain_count, BitVec(design_->chain_length()));
    scan_restore(sim, design_->chains(), blank);

    // Stage 2: Stimulus writes the same random words to both.
    sim.set_input("rd_en", false);
    const std::size_t words = config_.fifo.depth / 2 + rng_.next_below(config_.fifo.depth / 2);
    for (std::size_t w = 0; w < words; ++w) {
      const BitVec word = rng_.next_bits(width);
      sim.set_input("wr_en", true);
      for (std::size_t b = 0; b < width; ++b) {
        sim.set_input("din" + std::to_string(b), word.get(b));
      }
      sim.step();
      fifo_b.step(true, false, word);
    }
    sim.set_input("wr_en", false);

    // Stages 3-4: sleep request, wake, decode/correct.
    const auto errors = sample_errors(config_, design_->chain_length(), *injector_,
                                      corruption_.get(), rng_);
    const auto outcome = session_->sleep_wake_cycle(errors, &rng_);

    // Stage 5: Comparator reads both FIFOs word by word.
    bool matches = true;
    for (std::size_t w = 0; w < words; ++w) {
      sim.set_input("rd_en", true);
      sim.eval();
      BitVec dout(width);
      for (std::size_t b = 0; b < width; ++b) {
        dout.set(b, sim.output("dout" + std::to_string(b)));
      }
      if (dout != fifo_b.front()) {
        matches = false;
      }
      sim.step();
      fifo_b.step(false, true, BitVec(width));
    }
    sim.set_input("rd_en", false);

    tally(stats, errors.size(), outcome.errors_detected, outcome.recheck_clean,
          matches);
    // Fresh sleep episode next sequence.
    session_->reset_fsm();
  }
  return stats;
}

}  // namespace retscan
