#pragma once
// Tiny command-line flag parser for the bench/example binaries.
//
// Supported syntax: --name=value, --name value, --flag (boolean true),
// and positional arguments. Unknown flags are an error by default so typos
// in sweep scripts fail loudly.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tlb::util {

/// Parse all of `text` as a base-10 int64. Throws std::invalid_argument
/// naming `what` and `text` on an empty string, trailing characters, a
/// fraction, an exponent or a value outside int64.
std::int64_t parse_int(const std::string& text, const std::string& what);
/// Parse all of `text` as a double (strtod syntax, so "nan" and "inf" are
/// numbers; callers validate the domain). Throws std::invalid_argument
/// naming `what` and `text` on an empty string, leading blanks, trailing
/// characters or a value strtod reports out of range (overflow, or an
/// underflow such as the denormal 1e-320).
double parse_double(const std::string& text, const std::string& what);

/// Parsed command line with typed accessors and a generated --help text.
class Cli {
 public:
  /// Register expectations before parse(): name (without --), default value
  /// rendered into help, description.
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& description);

  /// Parse argv. Returns false (and prints help) if --help was given or an
  /// unknown flag was seen.
  bool parse(int argc, char** argv);

  /// Typed accessors; fall back to the registered default. The numeric ones
  /// parse the whole value with parse_int/parse_double and throw
  /// std::invalid_argument naming the flag and the value otherwise.
  std::string get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Comma-separated list of integers, e.g. --sizes=64,128,256. An empty
  /// value is an empty list; an empty item ("64,,128", "64,") throws.
  std::vector<std::int64_t> get_int_list(const std::string& name) const;
  /// Comma-separated list of doubles, with the same item rules.
  std::vector<double> get_double_list(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Render the help text.
  std::string help(const std::string& program) const;

 private:
  struct Spec {
    std::string default_value;
    std::string description;
  };
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The observability flag set shared by apps/tlb_sim and bench/perf_suite
/// (--metrics / --trace-out / --round-trace / --analytics[=every-k]). The
/// two binaries used to register and parse these independently and the
/// copies drifted; register_flags() + parse() are now the single source.
/// Deliberately knows nothing about tlb::obs — it carries plain values the
/// caller turns into registries/writers/observers.
struct ObsOptions {
  bool metrics = false;       ///< --metrics: attach an obs registry
  std::string trace_out;      ///< --trace-out=FILE: trace-event spans
  std::string round_trace;    ///< --round-trace=FILE (only where registered)
  long analytics_every = 0;   ///< --analytics[=k]: 0 = off, k >= 1 = sample
                              ///< a load-stats snapshot every k-th round

  /// Register the shared flags on `cli`. `with_round_trace` additionally
  /// registers --round-trace (tlb_sim's scenario mode only — the perf
  /// suite has no per-trial trace file).
  static void register_flags(Cli& cli, bool with_round_trace);

  /// Read the registered flags back. --analytics accepts bare (every
  /// round), =k for every k-th round, or =false/0 for off; anything else
  /// throws std::invalid_argument.
  static ObsOptions parse(const Cli& cli, bool with_round_trace);
};

}  // namespace tlb::util
