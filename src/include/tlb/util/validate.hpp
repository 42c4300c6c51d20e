#pragma once
// Config-boundary checks for real-valued parameters. NaN fails every
// ordered comparison, so a guard written `x <= 0.0` waves it through and a
// NaN eps or alpha runs as a silent wrong answer; these helpers reject NaN
// and ±inf together with the out-of-range values.

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>

namespace tlb::util {

/// `x` when it is finite and > 0; otherwise std::invalid_argument naming
/// `who` (e.g. "UserControlledEngine: alpha").
inline double require_finite_positive(double x, const char* who) {
  if (!std::isfinite(x) || !(x > 0.0)) {
    throw std::invalid_argument(std::string(who) + " must be finite and > 0");
  }
  return x;
}

/// `x` when it is finite and in [lo, hi] (hi may be +inf for an open upper
/// end); otherwise std::invalid_argument naming `who`.
inline double require_finite_in(double x, double lo, double hi,
                                const char* who) {
  if (!std::isfinite(x) || !(x >= lo && x <= hi)) {
    const auto text = [](double v) {
      char buf[32];
      const auto res = std::to_chars(buf, buf + sizeof buf, v);
      return std::string(buf, res.ptr);
    };
    throw std::invalid_argument(std::string(who) + " must be finite and in [" +
                                text(lo) + ", " + text(hi) + "]");
  }
  return x;
}

}  // namespace tlb::util
