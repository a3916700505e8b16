// net::Session — the transport-agnostic request-handling loop of the
// tuning server: one instance per client (a TCP connection, or the
// process's stdin), fed one protocol line at a time, producing response
// lines in submission order. Both transports share this code path, so
// the stdin mode of examples/tuning_server and the epoll front-end
// cannot drift apart.
//
// Ordering under pipelining is the point. Every command that owes the
// client output claims a *slot* in a FIFO at feed time; synchronous
// commands (a parse error) fill their slot immediately, while a `tune`
// fills its slot from the service's completion callback — on a worker
// thread, at any later time. drain_ready() releases the contiguous run
// of filled slots at the head, so responses always come back in the
// order the commands went in, no matter how the service reorders the
// work behind them (priorities, coalescing, warm hits).
//
// `metrics` and `save` are *barriers*: they observe service state, so
// they must run after every earlier pipelined command has finished (a
// `save` after a burst of tunes persists those results; `metrics` counts
// them as completed — the historical stdin behaviour). Their slots carry
// a deferred action executed the moment the last preceding slot becomes
// ready — inline at feed time when nothing is pending, otherwise on the
// service worker that completes the final preceding tune. No transport
// thread ever blocks for a barrier.
//
// Threading: feed_line/drain_ready/wait_all are called by the owning
// transport (one thread at a time); completion callbacks arrive
// concurrently from service workers. The internal mutex covers the slot
// FIFO; the Hooks::wake callback is invoked *outside* it.
//
// Trust: a Remote session (a TCP client) may not name files on the
// server. `save <path>` would let any client write, or replace, any file
// the server process can write, so a Remote session answers it with
// `err` and writes nothing; bare `save` (sync the configured store) stays
// open to every client. A Console session (stdin or a script file, run by
// whoever started the server) keeps the path form.
//
// Lifetime: service callbacks hold weak_ptr — a Session dropped with
// requests still in flight (client disconnected mid-request) simply
// never hears the completions; the service's own completion guard
// retires the work. Hence create() and the enable_shared_from_this base.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "svc/service.hpp"

namespace ilc::net {

class Session : public std::enable_shared_from_this<Session> {
 public:
  struct Hooks {
    /// A deferred response became ready (slot filled by a service worker).
    /// May fire from any thread, including after the owning transport has
    /// begun tearing down — it must only signal (eventfd, condition
    /// variable), never touch the transport's single-threaded state.
    std::function<void()> wake;
  };

  /// Everything a transport may want to account per released response —
  /// the read-to-write latency sample and the request's trace span.
  struct Done {
    bool is_tune = false;
    std::string program;
    std::chrono::steady_clock::time_point start{};
    obs::SpanContext trace{};  // invalid unless tracing was enabled
  };

  /// Where a session's lines come from (see "Trust" above).
  enum class Origin { Console, Remote };

  static std::shared_ptr<Session> create(svc::TuningService& service,
                                         Hooks hooks,
                                         Origin origin = Origin::Remote) {
    return std::shared_ptr<Session>(
        new Session(service, std::move(hooks), origin));
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Feed one protocol line (terminator stripped). `start` is when the
  /// transport first saw the bytes (socket readability) — it anchors the
  /// request's latency sample and trace span. Consumes `module` body
  /// lines itself; submits `tune` asynchronously; fills synchronous
  /// slots inline. Never throws on bad input.
  void feed_line(const std::string& line,
                 std::chrono::steady_clock::time_point start =
                     std::chrono::steady_clock::now());

  /// Append the contiguous run of ready head slots to `out`, each
  /// newline-terminated, popping them. Per released slot, a Done record
  /// is appended to `done` when non-null. Returns the number released.
  std::size_t drain_ready(std::string& out, std::vector<Done>* done = nullptr);

  /// A `quit` command was fed: the transport should flush and close.
  bool quit_requested() const;

  /// No slot is waiting on the service (drained or unfilled — idle means
  /// nothing *pending*, there may be ready output to drain).
  bool idle() const;

  /// A metrics/save barrier is still waiting or executing. The stdin
  /// transport blocks on it (wait_all) to keep the historical behaviour
  /// of not reading past a sync point; the TCP transport never blocks.
  bool barrier_pending() const;

  /// Block until every claimed slot is ready (stdin transport at EOF/quit;
  /// bounded by the service's own request-lifecycle guarantee).
  void wait_all();

  /// Flush any partially-read `module` body (transport hit EOF mid-module:
  /// register what arrived, matching the historical stdin behaviour).
  void finish_input();

  /// Transport-detected protocol violation (an oversized request line):
  /// claim a ready `err` slot so the message flushes after every earlier
  /// pipelined response, in order.
  void fail(const std::string& message);

 private:
  Session(svc::TuningService& service, Hooks hooks, Origin origin)
      : service_(service), hooks_(std::move(hooks)), origin_(origin) {}

  struct Slot {
    bool ready = false;
    bool running = false;  // barrier action currently executing unlocked
    std::function<std::string()> deferred;  // barrier action, if any
    std::string text;  // response line, no terminator
    Done info;
  };

  /// Claim the next slot id (mu_ held).
  std::uint64_t claim_locked(Slot slot);
  /// Fill synchronously at feed time.
  void push_ready(std::string text);
  /// Barrier command: run `fn` inline if nothing is pending, else claim a
  /// deferred slot that settle_locked() executes later.
  void defer_or_run(std::function<std::string()> fn);
  /// Completion path: fill slot `id` from a service worker.
  void complete(std::uint64_t id, std::string text);
  /// Execute every barrier whose predecessors are all ready. Drops and
  /// re-takes `lock` around each action.
  void settle_locked(std::unique_lock<std::mutex>& lock);

  svc::TuningService& service_;
  Hooks hooks_;
  const Origin origin_;

  mutable std::mutex mu_;
  std::condition_variable all_ready_;
  std::deque<Slot> slots_;
  std::uint64_t head_id_ = 0;   // id of slots_.front()
  std::uint64_t next_id_ = 0;
  std::size_t unready_ = 0;     // slots with ready == false
  std::size_t barriers_ = 0;    // unready slots that are barriers
  bool quit_ = false;

  // Single-threaded transport state (no lock needed).
  std::unordered_map<std::string, std::string> modules_;
  bool in_module_ = false;
  std::string module_name_;
  std::size_t module_remaining_ = 0;
  std::string module_body_;
};

}  // namespace ilc::net
