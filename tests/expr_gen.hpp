#pragma once

// Seeded random generator of assign-expression modules over a fixed port
// set, shared by the frontend differential fuzz (test_expr_diff: lowered
// gates vs a uint64 oracle) and the PODEM differential test
// (test_podem_diff: compiled vs reference PODEM on the lowered frames).
// Seeds are deterministic; RETSCAN_FUZZ_SEEDS widens both sweeps.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace retscan::expr_fuzz {

// --- fixed port set -------------------------------------------------------

struct Signal {
  const char* name;
  int width;
};

constexpr Signal kSignals[] = {
    {"a", 8}, {"b", 8}, {"c", 4}, {"s", 1}, {"t", 1},
};
constexpr int kSignalCount = static_cast<int>(sizeof(kSignals) / sizeof(kSignals[0]));

inline std::uint64_t width_mask(int width) { return (std::uint64_t{1} << width) - 1; }

// --- expression AST -------------------------------------------------------

struct Expr {
  enum class Kind { Ref, Lit, Not, And, Or, Xor, Eq, Ne, Shl, Shr, Mux, Concat };

  Kind kind = Kind::Lit;
  int width = 1;
  int sig = 0;              // Ref: index into kSignals
  int lsb = 0;              // Ref: low bit of the select
  std::uint64_t value = 0;  // Lit
  bool binary_lit = false;  // Lit: emit as 'b instead of 'd
  int amount = 0;           // Shl / Shr
  std::vector<Expr> args;
};

inline std::string emit(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::Ref: {
      const Signal& sig = kSignals[e.sig];
      if (e.width == sig.width && e.lsb == 0) {
        return sig.name;
      }
      if (e.width == 1) {
        return std::string(sig.name) + "[" + std::to_string(e.lsb) + "]";
      }
      return std::string(sig.name) + "[" + std::to_string(e.lsb + e.width - 1) +
             ":" + std::to_string(e.lsb) + "]";
    }
    case Expr::Kind::Lit: {
      if (!e.binary_lit) {
        return std::to_string(e.width) + "'d" + std::to_string(e.value);
      }
      std::string bits;
      for (int i = e.width - 1; i >= 0; --i) {
        bits += ((e.value >> i) & 1) ? '1' : '0';
      }
      return std::to_string(e.width) + "'b" + bits;
    }
    case Expr::Kind::Not:
      return "(~" + emit(e.args[0]) + ")";
    case Expr::Kind::And:
      return "(" + emit(e.args[0]) + " & " + emit(e.args[1]) + ")";
    case Expr::Kind::Or:
      return "(" + emit(e.args[0]) + " | " + emit(e.args[1]) + ")";
    case Expr::Kind::Xor:
      return "(" + emit(e.args[0]) + " ^ " + emit(e.args[1]) + ")";
    case Expr::Kind::Eq:
      return "(" + emit(e.args[0]) + " == " + emit(e.args[1]) + ")";
    case Expr::Kind::Ne:
      return "(" + emit(e.args[0]) + " != " + emit(e.args[1]) + ")";
    case Expr::Kind::Shl:
      return "(" + emit(e.args[0]) + " << " + std::to_string(e.amount) + ")";
    case Expr::Kind::Shr:
      return "(" + emit(e.args[0]) + " >> " + std::to_string(e.amount) + ")";
    case Expr::Kind::Mux:
      return "(" + emit(e.args[0]) + " ? " + emit(e.args[1]) + " : " +
             emit(e.args[2]) + ")";
    case Expr::Kind::Concat: {
      std::string out = "{";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        out += (i ? ", " : "") + emit(e.args[i]);
      }
      return out + "}";
    }
  }
  return "";
}

// --- generator ------------------------------------------------------------

inline std::size_t pick(Rng& rng, std::size_t bound) { return rng.next_u64() % bound; }

inline Expr gen(Rng& rng, int width, int depth) {
  Expr e;
  e.width = width;
  if (depth == 0 || pick(rng, 6) == 0) {
    // Terminal: a (part-)select of a wide-enough signal, or a sized literal.
    std::vector<int> candidates;
    for (int i = 0; i < kSignalCount; ++i) {
      if (kSignals[i].width >= width) {
        candidates.push_back(i);
      }
    }
    if (!candidates.empty() && pick(rng, 3) != 0) {
      e.kind = Expr::Kind::Ref;
      e.sig = candidates[pick(rng, candidates.size())];
      e.lsb = static_cast<int>(pick(rng, kSignals[e.sig].width - width + 1));
    } else {
      e.kind = Expr::Kind::Lit;
      e.value = rng.next_u64() & width_mask(width);
      e.binary_lit = pick(rng, 2) == 0;
    }
    return e;
  }

  // Operator menu; == / != only produce one bit, concat needs two or more.
  std::vector<Expr::Kind> menu = {Expr::Kind::Not, Expr::Kind::And,
                                  Expr::Kind::Or,  Expr::Kind::Xor,
                                  Expr::Kind::Shl, Expr::Kind::Shr,
                                  Expr::Kind::Mux};
  if (width == 1) {
    menu.push_back(Expr::Kind::Eq);
    menu.push_back(Expr::Kind::Ne);
  }
  if (width >= 2) {
    menu.push_back(Expr::Kind::Concat);
  }
  e.kind = menu[pick(rng, menu.size())];
  switch (e.kind) {
    case Expr::Kind::Not:
      e.args.push_back(gen(rng, width, depth - 1));
      break;
    case Expr::Kind::And:
    case Expr::Kind::Or:
    case Expr::Kind::Xor:
      e.args.push_back(gen(rng, width, depth - 1));
      e.args.push_back(gen(rng, width, depth - 1));
      break;
    case Expr::Kind::Eq:
    case Expr::Kind::Ne: {
      const int operand_width = 1 + static_cast<int>(pick(rng, 8));
      e.args.push_back(gen(rng, operand_width, depth - 1));
      e.args.push_back(gen(rng, operand_width, depth - 1));
      break;
    }
    case Expr::Kind::Shl:
    case Expr::Kind::Shr:
      // Amounts up to the full width exercise the all-zero-fill edge.
      e.amount = static_cast<int>(pick(rng, width + 1));
      e.args.push_back(gen(rng, width, depth - 1));
      break;
    case Expr::Kind::Mux:
      e.args.push_back(gen(rng, 1, depth - 1));
      e.args.push_back(gen(rng, width, depth - 1));
      e.args.push_back(gen(rng, width, depth - 1));
      break;
    case Expr::Kind::Concat: {
      const int parts = width >= 3 && pick(rng, 2) == 0 ? 3 : 2;
      // Split `width` into MSB-first part widths, each at least one bit.
      std::vector<int> widths;
      int remaining = width;
      for (int p = parts; p > 1; --p) {
        const int w = 1 + static_cast<int>(pick(rng, remaining - (p - 1)));
        widths.push_back(w);
        remaining -= w;
      }
      widths.push_back(remaining);
      for (const int w : widths) {
        e.args.push_back(gen(rng, w, depth - 1));
      }
      break;
    }
    default:
      break;
  }
  return e;
}

// --- module assembly ------------------------------------------------------

inline std::string module_text(const std::vector<Expr>& outputs) {
  std::string text = "module fuzz(";
  for (int i = 0; i < kSignalCount; ++i) {
    text += std::string(i ? ", " : "") + kSignals[i].name;
  }
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    text += ", y" + std::to_string(i);
  }
  text += ");\n";
  for (const Signal& sig : kSignals) {
    text += sig.width > 1
                ? "  input [" + std::to_string(sig.width - 1) + ":0] " + sig.name + ";\n"
                : std::string("  input ") + sig.name + ";\n";
  }
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const int w = outputs[i].width;
    text += w > 1 ? "  output [" + std::to_string(w - 1) + ":0] y" +
                        std::to_string(i) + ";\n"
                  : "  output y" + std::to_string(i) + ";\n";
  }
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    text += "  assign y" + std::to_string(i) + " = " + emit(outputs[i]) + ";\n";
  }
  text += "endmodule\n";
  return text;
}

inline std::size_t fuzz_seed_count() {
  if (const char* env = std::getenv("RETSCAN_FUZZ_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  return 16;
}

}  // namespace retscan::expr_fuzz
