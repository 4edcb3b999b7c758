#pragma once

#include <cstddef>
#include <deque>

#include "netlist/netlist.hpp"
#include "util/bitvec.hpp"

namespace retscan {

/// Parameters of the synchronous FIFO case-study circuit. The paper's
/// evaluation circuit is a 32x32-bit FIFO chosen for its high flip-flop
/// density and absence of error masking; with 5-bit read/write pointers and
/// a 6-bit occupancy counter it has exactly 32*32 + 16 = 1040 flip-flops,
/// matching the paper's 80 chains x 13 flops configuration.
struct FifoSpec {
  std::size_t depth = 32;  ///< number of words; must be a power of two >= 2
  std::size_t width = 32;  ///< bits per word; must be >= 1

  std::size_t pointer_bits() const;
  std::size_t counter_bits() const;
  /// Total flip-flop count: depth*width storage + 2 pointers + counter.
  std::size_t flop_count() const;

  bool operator==(const FifoSpec&) const = default;
};

/// Build the gate-level synchronous FIFO.
///
/// Ports:
///  * inputs `wr_en`, `rd_en`, `din{i}` for i in [0, width)
///  * outputs `dout{i}`, `full`, `empty`
///
/// Per-cycle behaviour (validated against FifoModel in tests):
///  * a write fires when wr_en && !full, storing din at the write pointer;
///  * a read fires when rd_en && !empty, advancing the read pointer;
///  * `dout` combinationally shows the word at the read pointer.
///
/// All flip-flops are plain Dff cells; scan/retention conversion is done
/// afterwards by the scan inserter.
Netlist make_fifo(const FifoSpec& spec);

/// Behavioral golden FIFO used as FIFO_B of the paper's testbench (Fig. 8)
/// and as a checker for the gate-level FIFO.
class FifoModel {
 public:
  explicit FifoModel(const FifoSpec& spec) : spec_(spec) {}

  const FifoSpec& spec() const { return spec_; }
  bool full() const { return words_.size() == spec_.depth; }
  bool empty() const { return words_.empty(); }
  std::size_t size() const { return words_.size(); }

  /// Word that `dout` shows this cycle (head of the queue; zero when empty).
  BitVec front() const;

  /// Apply one clock cycle with the given control/data inputs. Returns true
  /// if a write fired.
  bool step(bool wr_en, bool rd_en, const BitVec& din);

  void clear() { words_.clear(); }

 private:
  FifoSpec spec_;
  std::deque<BitVec> words_;
};

}  // namespace retscan
