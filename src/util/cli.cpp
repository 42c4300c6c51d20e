#include "tlb/util/cli.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace tlb::util {

namespace {

[[noreturn]] void bad_number(const std::string& what, const std::string& text,
                             const char* want) {
  throw std::invalid_argument(what + ": expected " + want + ", got '" + text +
                              "'");
}

/// Split a comma-separated list; an empty `text` is an empty list, an
/// empty item is an error. A bad item's message quotes the whole list.
template <class Parse>
auto parse_list(const std::string& text, const std::string& what,
                Parse parse) {
  std::vector<decltype(parse(text, what))> out;
  if (text.empty()) return out;
  const std::string item_what = what + " list '" + text + "'";
  std::size_t begin = 0;
  for (;;) {
    const std::size_t comma = text.find(',', begin);
    const std::string item = text.substr(begin, comma - begin);
    if (item.empty()) bad_number(what, text, "a list without empty items");
    out.push_back(parse(item, item_what));
    if (comma == std::string::npos) return out;
    begin = comma + 1;
  }
}

}  // namespace

std::int64_t parse_int(const std::string& text, const std::string& what) {
  std::int64_t v = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (ec == std::errc::result_out_of_range) {
    bad_number(what, text, "an integer within int64 range");
  }
  if (ec != std::errc() || ptr != last) bad_number(what, text, "an integer");
  return v;
}

double parse_double(const std::string& text, const std::string& what) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    bad_number(what, text, "a number");
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) bad_number(what, text, "a number");
  if (errno == ERANGE) bad_number(what, text, "a number within double range");
  return v;
}

void Cli::add_flag(const std::string& name, const std::string& default_value,
                   const std::string& description) {
  specs_[name] = Spec{default_value, description};
}

bool Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      // tlb-lint: allow(D4): --help prints the generated usage text.
      std::fputs(help(argv[0]).c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    std::string name, value;
    if (auto eq = body.find('='); eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else {
      name = body;
      // "--name value" form, unless the next token is another flag or absent;
      // then treat as boolean true.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0 &&
          specs_.count(name) && specs_.at(name).default_value != "false" &&
          specs_.at(name).default_value != "true") {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (!specs_.count(name)) {
      // tlb-lint: allow(D4): typoed flags must fail loudly on stderr so
      // sweep scripts notice; the next line reprints the usage text.
      std::fprintf(stderr, "unknown flag --%s\n\n", name.c_str());
      // tlb-lint: allow(D4): usage text for the unknown-flag error above.
      std::fputs(help(argv[0]).c_str(), stderr);
      return false;
    }
    values_[name] = value;
  }
  return true;
}

std::string Cli::get_string(const std::string& name) const {
  if (auto it = values_.find(name); it != values_.end()) return it->second;
  if (auto it = specs_.find(name); it != specs_.end())
    return it->second.default_value;
  throw std::invalid_argument("unregistered flag: " + name);
}

std::int64_t Cli::get_int(const std::string& name) const {
  return parse_int(get_string(name), "--" + name);
}

double Cli::get_double(const std::string& name) const {
  return parse_double(get_string(name), "--" + name);
}

bool Cli::get_bool(const std::string& name) const {
  const std::string v = get_string(name);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::vector<std::int64_t> Cli::get_int_list(const std::string& name) const {
  return parse_list(get_string(name), "--" + name, parse_int);
}

std::vector<double> Cli::get_double_list(const std::string& name) const {
  return parse_list(get_string(name), "--" + name, parse_double);
}

void ObsOptions::register_flags(Cli& cli, bool with_round_trace) {
  cli.add_flag("metrics", "false",
               "collect the obs registry and append a deterministic "
               "\"metrics\" JSON block (plus \"metrics_timing\" unless "
               "--timings=false) to the report");
  cli.add_flag("trace-out", "",
               "write a chrome://tracing trace-event JSON file of the "
               "engine's per-phase spans (load in Perfetto)");
  cli.add_flag("analytics", "",
               "append a deterministic \"analytics\" JSON block of per-round "
               "load-distribution snapshots (max/mean/p50/p90/p99/overload "
               "mass/potential); --analytics samples every round, "
               "--analytics=k every k-th round");
  if (with_round_trace) {
    cli.add_flag("round-trace", "",
                 "scenario mode: attach a per-round JSON trace to trial 0 "
                 "and write the array to this file");
  }
}

ObsOptions ObsOptions::parse(const Cli& cli, bool with_round_trace) {
  ObsOptions o;
  o.metrics = cli.get_bool("metrics");
  o.trace_out = cli.get_string("trace-out");
  if (with_round_trace) o.round_trace = cli.get_string("round-trace");
  const std::string a = cli.get_string("analytics");
  if (a.empty() || a == "false" || a == "0" || a == "off") {
    o.analytics_every = 0;
  } else if (a == "true" || a == "on") {
    o.analytics_every = 1;
  } else {
    std::int64_t every = 0;
    try {
      every = parse_int(a, "--analytics");
    } catch (const std::invalid_argument&) {
      every = 0;
    }
    if (every < 1) {
      throw std::invalid_argument(
          "--analytics expects a sampling stride >= 1 (or bare/true/false), "
          "got '" + a + "'");
    }
    o.analytics_every = every;
  }
  return o;
}

std::string Cli::help(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name << " (default: " << spec.default_value << ")\n"
       << "      " << spec.description << "\n";
  }
  return os.str();
}

}  // namespace tlb::util
