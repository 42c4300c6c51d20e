#pragma once
// Fast exact Binomial(n, p) sampling.
//
// ClassLoads::sample, the phase 1 of the grouped and dynamic engines, is
// the one engine caller per (resource, weight class) pair: it draws the
// number of leaving tasks of an overloaded resource as Binomial(count, p).
// Counts can be as large as m (all tasks piled on one resource, the
// paper's initial condition), so a naive count-coin-flips loop would
// dominate the runtime. (The dynamic engine's default arrival count is one
// more draw per round; its completions use geometric skips instead.)
//
// Strategy:
//   * n*p small or n small  -> BINV (inversion by sequential search), O(1+np)
//   * otherwise             -> BTRS (transformed rejection, Hormann 1993),
//                              O(1) expected.
// Both are exact samplers (no normal approximation), so the grouped engine is
// distributionally identical to per-task coin flips.

#include <cstdint>

#include "tlb/util/rng.hpp"

namespace tlb::util {

/// Draw from Binomial(n, p). Exact for all n >= 0 and p in [0, 1].
std::uint64_t binomial(Rng& rng, std::uint64_t n, double p);

namespace detail {
/// Inversion sampler; efficient when n*p <= ~15. Exposed for tests. Exact
/// for all p in [0, 1]: degenerate endpoints short-circuit (p >= 1 -> n,
/// p <= 0 -> 0), p > 0.5 routes through the symmetric tail, and a q^n
/// underflow (n*p >~ 745) falls back to BTRS instead of returning n.
std::uint64_t binomial_inversion(Rng& rng, std::uint64_t n, double p);
/// Transformed-rejection sampler; requires n*p >= 10. Exposed for tests.
std::uint64_t binomial_btrs(Rng& rng, std::uint64_t n, double p);
}  // namespace detail

}  // namespace tlb::util
