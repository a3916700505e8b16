// Line-oriented request/response protocol of the tuning service, so any
// transport that can move text lines (stdin, a scripted request file,
// later a socket) can drive svc::TuningService.
//
// Request lines (`#` starts a comment; blank lines are ignored):
//   tune <program> [machine=amd|c6713] [budget=N] [objective=cycles|size]
//                  [strategy=random|greedy|genetic] [priority=N] [seed=N]
//                  [timeout_ms=N]            (budget at most kMaxBudget)
//   module <name> <n-lines>   — the next n-lines of input are inline IR
//                               text registered under <name>; a later
//                               "tune <name>" submits it
//   metrics                   — emit a metrics snapshot line
//   save [path]               — persist the knowledge base; with a path,
//                               export it as CSV there (console only: a
//                               TCP client naming a path gets `err`)
//   ping                      — liveness/identity probe: answered
//                               immediately (never queued), so health
//                               monitors can probe a busy server
//   quit
//
// Response lines:
//   ok program=<p> source=<warm|search|stale|follower> config="<seq>"
//      base=<n> best=<n> speedup=<x> sims=<n> latency_us=<n>
//                          (a request that joined an identical one in
//                          flight shares its reply: source=search)
//   err <message>          (also: timeout / rejection / persist failures)
//   metrics requests=<n> warm_hits=<n> coalesced=<n> searches=<n>
//      errors=<n> rejected=<n> timed_out=<n> shed=<n> persist_errors=<n> ...
//                          (the service's own svc.* registry, see
//                          TuningService::metrics)
//   ok pong shard=<i>/<n> read_only=<0|1>     (ping)
//
// Values inside config="..." escape embedded quotes and backslashes with
// a backslash; option values with embedded control characters are
// rejected at parse time.
#pragma once

#include <cstddef>
#include <string>

#include "obs/metrics.hpp"
#include "svc/request.hpp"

namespace ilc::svc {

/// Longest request line the protocol accepts, in bytes (terminator
/// excluded). parse_command rejects longer lines as Invalid, and the
/// socket transport additionally closes the connection after answering —
/// a client that streams an unterminated line cannot grow a server-side
/// buffer without bound. Generous for real commands: the largest
/// legitimate line is `tune` with every option spelled out, well under
/// 256 bytes.
inline constexpr std::size_t kMaxRequestLine = 4096;

/// Largest `budget` a tune request may ask for; parse_command refuses a
/// larger one like any other bad budget. A search holds a worker for its
/// whole budget, keeps 8 bytes of trace per evaluation, and random search
/// lists every candidate up front, so the unsigned range (4294967295)
/// would let one line hold a worker for hours and grow memory without
/// bound. 100,000 is about 16x the largest budget any client here sends
/// (the tuner benchmark's 6000-evaluation GA).
inline constexpr unsigned kMaxBudget = 100000;

struct Command {
  enum class Kind {
    Empty,    // blank or comment line: no response
    Tune,     // `request` is populated
    Module,   // read `module_lines` lines of IR as `module_name`
    Metrics,
    Save,     // `path` may be empty = service default
    Ping,     // liveness/identity probe (cluster health monitoring)
    Quit,
    Invalid,  // `error` says why
  };

  Kind kind = Kind::Empty;
  TuningRequest request;
  std::string module_name;
  std::size_t module_lines = 0;
  std::string path;
  std::string error;
};

/// Parse one request line. Never throws.
Command parse_command(const std::string& line);

std::string format_response(const TuningResponse& r);
/// The `metrics` line from a TuningService::metrics() snapshot. Its bytes
/// are frozen: gauges print clamped at 0, p50/p95 are interpolated from
/// svc.latency_us, and a name missing from the snapshot prints 0.
std::string format_metrics(const obs::RegistrySnapshot& m);

}  // namespace ilc::svc
