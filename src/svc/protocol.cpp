#include "svc/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "support/string_utils.hpp"

namespace ilc::svc {

const char* source_name(Source s) {
  switch (s) {
    case Source::Error: return "error";
    case Source::WarmCache: return "warm";
    case Source::Search: return "search";
    case Source::TimedOut: return "timeout";
    case Source::Rejected: return "rejected";
    case Source::StaleCache: return "stale";
    case Source::Follower: return "follower";
  }
  return "?";
}

namespace {

Command invalid(const std::string& why) {
  Command c;
  c.kind = Command::Kind::Invalid;
  c.error = why;
  return c;
}

/// Whole-string decimal parse into `out`'s type; a value that does not
/// fit the type is an error, never a wrapped or truncated number.
template <typename T>
bool parse_field(const std::string& s, T& out) {
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, out);
  return ec == std::errc() && ptr == last && !s.empty();
}

/// True when `s` holds an embedded control character (anything below
/// 0x20, or DEL). The line protocol is text: control bytes smuggled into
/// option values would corrupt response lines and KB exports.
bool has_control_chars(const std::string& s) {
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x20 || u == 0x7f) return true;
  }
  return false;
}

/// Apply one key=value option to a request; empty return = accepted.
std::string apply_option(TuningRequest& req, const std::string& key,
                         const std::string& value) {
  if (has_control_chars(value))
    return "control character in value of '" + key + "'";
  if (key == "machine") {
    if (value == "amd") req.machine = sim::amd_like();
    else if (value == "c6713") req.machine = sim::c6713_like();
    else return "unknown machine '" + value + "' (amd|c6713)";
  } else if (key == "budget") {
    if (!parse_field(value, req.budget)) return "bad budget '" + value + "'";
    if (req.budget > kMaxBudget)
      return "bad budget '" + value + "' (max " + std::to_string(kMaxBudget) +
             ")";
  } else if (key == "objective") {
    if (value == "cycles") req.objective = search::Objective::Cycles;
    else if (value == "size") req.objective = search::Objective::CodeSize;
    else if (value == "pareto") req.objective = search::Objective::Pareto;
    else return "unknown objective '" + value + "' (cycles|size|pareto)";
  } else if (key == "seeding") {
    if (value == "on") req.seeding = true;
    else if (value == "off") req.seeding = false;
    else return "bad seeding '" + value + "' (on|off)";
  } else if (key == "strategy") {
    if (value == "random") req.strategy = Strategy::Random;
    else if (value == "greedy") req.strategy = Strategy::Greedy;
    else if (value == "genetic") req.strategy = Strategy::Genetic;
    else return "unknown strategy '" + value + "'";
  } else if (key == "priority") {
    if (!parse_field(value, req.priority))
      return "bad priority '" + value + "'";
  } else if (key == "seed") {
    if (!parse_field(value, req.seed)) return "bad seed '" + value + "'";
  } else if (key == "timeout_ms") {
    if (!parse_field(value, req.timeout_ms))
      return "bad timeout_ms '" + value + "'";
  } else {
    return "unknown option '" + key + "'";
  }
  return "";
}

}  // namespace

Command parse_command(const std::string& line) {
  if (line.size() > kMaxRequestLine)
    return invalid("request line too long (" + std::to_string(line.size()) +
                   " bytes, max " + std::to_string(kMaxRequestLine) + ")");
  const std::string text = support::trim(line);
  if (text.empty() || text[0] == '#') return Command{};

  const std::vector<std::string> words = support::split_ws(text);
  Command c;

  if (words[0] == "tune") {
    if (words.size() < 2) return invalid("tune: missing program name");
    c.kind = Command::Kind::Tune;
    c.request.program = words[1];
    for (std::size_t i = 2; i < words.size(); ++i) {
      const auto eq = words[i].find('=');
      if (eq == std::string::npos)
        return invalid("tune: expected key=value, got '" + words[i] + "'");
      const std::string err = apply_option(c.request, words[i].substr(0, eq),
                                           words[i].substr(eq + 1));
      if (!err.empty()) return invalid("tune: " + err);
    }
    return c;
  }
  if (words[0] == "module") {
    if (words.size() != 3) return invalid("module: want `module <name> <n>`");
    std::uint64_t n = 0;
    if (!parse_field(words[2], n))
      return invalid("module: bad line count '" + words[2] + "'");
    c.kind = Command::Kind::Module;
    c.module_name = words[1];
    c.module_lines = static_cast<std::size_t>(n);
    return c;
  }
  if (words[0] == "metrics") {
    c.kind = Command::Kind::Metrics;
    return c;
  }
  if (words[0] == "save") {
    c.kind = Command::Kind::Save;
    if (words.size() > 1) c.path = words[1];
    return c;
  }
  if (words[0] == "ping") {
    c.kind = Command::Kind::Ping;
    return c;
  }
  if (words[0] == "quit") {
    c.kind = Command::Kind::Quit;
    return c;
  }
  return invalid("unknown command '" + words[0] + "'");
}

namespace {

/// Escape a string for emission inside the protocol's double quotes:
/// backslashes and quotes get a backslash, control characters become
/// spaces (response lines must stay single lines).
std::string escape_quoted(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20 || u == 0x7f) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Error text travels unquoted: just keep it on one line.
std::string sanitize_line(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x20 || u == 0x7f) c = ' ';
  }
  return out;
}

}  // namespace

std::string format_response(const TuningResponse& r) {
  std::ostringstream os;
  if (!r.ok) {
    os << "err "
       << (r.error.empty() ? "request failed" : sanitize_line(r.error));
    return os.str();
  }
  os << "ok program=" << r.program << " source=" << source_name(r.source)
     << " config=\"" << escape_quoted(r.config)
     << "\" base=" << r.baseline_metric << " best=" << r.best_metric;
  os.precision(3);
  os << " speedup=" << std::fixed << r.speedup << " sims=" << r.simulations
     << " latency_us=" << r.latency_us;
  if (r.pareto_front > 0) {
    // Pareto-objective extras, appended so single-objective clients that
    // parse positionally keep working.
    os << " front=" << r.pareto_front << " hv=" << std::fixed
       << r.hypervolume;
  }
  return os.str();
}

std::string format_metrics(const obs::RegistrySnapshot& m) {
  // A reader can race a gauge's paired updates; the line stays unsigned.
  const auto level = [&m](const char* name) {
    return std::max<std::int64_t>(0, m.gauge_value(name));
  };
  const obs::HistogramSnapshot* latency = m.histogram("svc.latency_us");
  const auto latency_pct = [latency](double p) -> std::uint64_t {
    return latency ? static_cast<std::uint64_t>(latency->percentile(p)) : 0;
  };
  std::ostringstream os;
  os << "metrics requests=" << m.counter_value("svc.requests")
     << " warm_hits=" << m.counter_value("svc.warm_hits")
     << " coalesced=" << m.counter_value("svc.coalesced")
     << " searches=" << m.counter_value("svc.searches")
     << " errors=" << m.counter_value("svc.errors")
     << " rejected=" << m.counter_value("svc.rejected")
     << " timed_out=" << m.counter_value("svc.timed_out")
     << " shed=" << m.counter_value("svc.shed")
     << " persist_errors=" << m.counter_value("svc.persist_errors")
     << " queued=" << level("svc.queued")
     << " in_flight=" << level("svc.in_flight")
     << " simulations=" << m.counter_value("svc.simulations")
     << " p50_latency_us=" << latency_pct(50.0)
     << " p95_latency_us=" << latency_pct(95.0);
  return os.str();
}

}  // namespace ilc::svc
