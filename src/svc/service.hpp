// The tuning service — the persistent serving layer over the batch
// machinery (paper Fig. 1 as a long-running system). Requests are
// scheduled on a bounded worker pool through a priority queue with FIFO
// tie-breaking; concurrent duplicates are coalesced into a single search
// (single-flight, keyed by module fingerprint + machine + objective); and
// completed results land in a ResultCache, which is one kbstore::Store:
// a store directory at Options::kb_path (WAL + snapshots + crash
// recovery), so a service restarted — or crashed and restarted — against
// the same store answers repeat queries with zero simulations, or an
// in-memory store when no path is given. A replication follower answers
// from its replicated store instead (Options::follower_store) and never
// searches. A random search runs on its request worker plus the service's
// evaluation pool, which holds one thread per core the request workers
// leave idle.
//
// Request lifecycle — the service's guarantee is that **every submitted
// request resolves exactly once, in bounded time, on every path**:
//   submit() -> [warm KB hit or follower hit -> ready future]
//            -> [duplicate in flight -> share that future (coalesced)]
//            -> [queue full -> stale in-memory result (shed) or rejected]
//            -> [enqueue -> worker pops highest-priority job
//                -> deadline already passed? resolve TimedOut, no search
//                -> search -> write best back to KB (+autosave)
//                -> resolve future]
// A worker retires the job through an RAII completion guard: success,
// search failure, persist failure (fault-injectable via the
// "svc.persist" failpoint), non-std exceptions, and shutdown all erase
// the in-flight entry and set the promise — a client can hang only by
// never being scheduled, which bounded admission and deadlines prevent.
//
// Metrics: each service counts into an obs::Registry of its own (see
// metrics()). A resolved request is counted once, under the Source its
// reply names, before the reply reaches any callback or future — so a
// `metrics` line never disagrees with the replies clients were sent.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "search/evaluator.hpp"
#include "search/seedbank.hpp"
#include "svc/cache.hpp"
#include "svc/request.hpp"
#include "support/thread_pool.hpp"

namespace ilc::svc {

class TuningService {
 public:
  struct Options {
    std::size_t workers = 2;
    /// Threads that score one genetic search's generations, its request
    /// worker included; random searches share the evaluation pool
    /// (eval_pool_). Results are deterministic at any value. Only the tuner
    /// benchmark's layer probe sets it (to 1, 2 and 4), no server binary.
    unsigned search_workers = 1;
    /// Location of the persistent KB store (a kbstore directory, created
    /// on first use). A file here refuses to start: a CSV knowledge base
    /// converts with `kb_tool import <csv> <dir>`. Empty keeps the cache
    /// in an in-memory store.
    std::string kb_path;
    /// Make each completed search durable immediately (flush the store's
    /// WAL per write). When false, writes group-commit in batches and are
    /// flushed on save()/shutdown.
    bool autosave = true;
    /// Bounded admission: maximum queued (not yet running) jobs. A submit
    /// that finds the queue full is answered from the stale result map
    /// when possible (Source::StaleCache) and load-shed otherwise
    /// (Source::Rejected). 0 = unbounded.
    std::size_t max_queue = 256;
    /// Cap on cached evaluators (shared per fingerprint+machine); least
    /// recently used are evicted beyond it, so a long-running service
    /// tuning many distinct modules holds bounded memory. 0 = unbounded.
    std::size_t evaluator_cache = 64;
    /// Legacy-CSV knowledge base whose "sequence" records seed a
    /// search::SeedBank at startup (clustered KB seeding, ROADMAP item 3).
    /// Requests opting in with seeding=on warm-start from the cluster
    /// nearest to their module's static features. Empty = no seed bank;
    /// an unreadable file throws at construction.
    std::string seed_kb_path;

    // --- fingerprint sharding & replication (ilc::repl) -------------------
    /// When shard_count > 1 this instance owns only the fingerprints with
    /// fp % shard_count == shard_index; a request for any other
    /// fingerprint is refused with "wrong shard: owner=<k> shards=<n>" so
    /// a misrouted client learns where to go instead of polluting this
    /// shard's KB. 0 (and 1) = unsharded.
    std::size_t shard_index = 0;
    std::size_t shard_count = 0;
    /// Non-null makes this a read-only replication follower: requests are
    /// answered from this replicated store (Source::Follower), a miss is
    /// an error ("read-only follower") directing the client at the
    /// shard's primary, and no search runs and nothing is written. Not
    /// owned; must outlive the service. Exclusive with kb_path, so the
    /// replicated store keeps exactly one writer (its Applier).
    const kbstore::Store* follower_store = nullptr;
  };

  /// Opens Options::kb_path when present; a path that is not a store
  /// directory throws support::CheckError rather than silently starting
  /// cold.
  explicit TuningService(Options opts);
  ~TuningService();  // drains all queued work

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  /// Completion hook for transports that cannot block on a future (the
  /// epoll front-end): invoked exactly once per submit that registered
  /// one, with the same response the future resolves to. Runs on the
  /// worker thread that retires the request — or inline on the submitting
  /// thread for requests answered without scheduling (warm hit, stale,
  /// rejection, malformed input). Must not block; exceptions are swallowed
  /// so a throwing callback can never strand the request lifecycle.
  using ResponseCallback = std::function<void(const TuningResponse&)>;

  /// Schedule a request. The future is shared: duplicates of an in-flight
  /// request receive the same one. Never throws on bad input — malformed
  /// requests resolve to a response with ok=false. `on_done`, when
  /// non-null, fires exactly once (see ResponseCallback); a callback
  /// attached to a request that coalesces onto an in-flight duplicate
  /// fires when that flight resolves.
  std::shared_future<TuningResponse> submit(TuningRequest req,
                                            ResponseCallback on_done = nullptr);

  /// submit() + wait. Convenience for sequential clients.
  TuningResponse tune(TuningRequest req);

  /// Block until no request is queued or running.
  void drain();

  /// This service's counts, never mixed with another instance's:
  ///   svc.requests      every submit
  ///   svc.coalesced     joined an identical request in flight
  ///   svc.warm_hits     answered from the KB (follower hits included,
  ///                     also counted in svc.follower_hits)
  ///   svc.searches      searches that answered; their svc.simulations
  ///   svc.shed / svc.rejected / svc.timed_out   overload and deadlines
  ///   svc.errors        every other failure, svc.persist_errors and
  ///                     svc.wrong_shard among them
  ///   svc.queued, svc.in_flight   gauges
  ///   svc.latency_us    histogram over every resolved request
  /// Once drained, the outcome counters plus svc.coalesced add up to
  /// svc.requests. format_metrics renders the protocol's `metrics` line.
  obs::RegistrySnapshot metrics() const { return reg_.snapshot(); }
  /// Programs clustered into the seed bank (0 without seed_kb_path).
  std::size_t seed_bank_programs() const { return seed_bank_.num_programs(); }
  /// Evaluators currently cached (bounded by Options::evaluator_cache).
  std::size_t evaluator_count() const;
  /// Make the KB durable at Options::kb_path: syncs the store's WAL.
  /// False when none configured.
  bool save() const;
  /// Export the KB to an explicit path in the CSV format.
  bool save_to(const std::string& path) const;
  std::size_t kb_size() const;
  std::size_t workers() const { return pool_.size(); }

  /// Shard identity, for the protocol's `ping` reply (cluster health
  /// probes confirm they reached the endpoint they think they probed).
  std::size_t shard_index() const { return opts_.shard_index; }
  std::size_t shard_count() const { return opts_.shard_count; }
  bool read_only() const { return opts_.follower_store != nullptr; }

 private:
  struct Job;
  class Completion;
  /// Max-heap order: higher priority first, then FIFO by sequence number.
  struct JobOrder {
    bool operator()(const std::shared_ptr<Job>& a,
                    const std::shared_ptr<Job>& b) const;
  };
  using Clock = std::chrono::steady_clock;

  std::shared_future<TuningResponse> ready_response(TuningResponse r);
  /// Count a resolved request under its reply's Source, and its latency.
  /// Both resolution points (submit's inline answers and
  /// Completion::resolve) call it before any callback or promise runs.
  void count_resolved(const TuningResponse& r);
  void run_one();
  TuningResponse execute(const Job& job);
  /// The evaluation pool, started by the first random search: a service
  /// that never runs one (a follower, a GA-only or warm-only service)
  /// starts no helper threads. Null when the request workers fill the host.
  support::ThreadPool* eval_pool();
  /// Fetch-or-create the job's evaluator, bumping it in the LRU order and
  /// evicting beyond Options::evaluator_cache. Takes mu_.
  std::shared_ptr<search::Evaluator> evaluator_for(const Job& job);
  /// Remember a computed result for overload serving. Caller holds mu_.
  void remember_stale_locked(const std::string& flight_key,
                             const TuningResponse& resp);

  Options opts_;
  /// Immutable after construction; read concurrently by workers without
  /// locking (assign/seeds_for/estimator_for are const and pure).
  search::SeedBank seed_bank_;

  mutable std::mutex mu_;  // guards cache_, queue_, inflight_, evaluators_
  ResultCache cache_;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<std::shared_ptr<Job>, std::vector<std::shared_ptr<Job>>,
                      JobOrder> queue_;
  std::unordered_map<std::string, std::shared_ptr<Job>> inflight_;
  /// Evaluators are shared across requests keyed by module fingerprint +
  /// machine, so repeat searches reuse memoized simulations. LRU-bounded
  /// by Options::evaluator_cache; a running search keeps its (possibly
  /// evicted) evaluator alive through its shared_ptr.
  struct EvalSlot {
    std::shared_ptr<search::Evaluator> eval;
    std::list<std::string>::iterator lru_it;
  };
  std::unordered_map<std::string, EvalSlot> evaluators_;
  std::list<std::string> eval_lru_;  // front = most recently used
  /// Last computed result per flight key, kept in memory even when the
  /// KB persist failed — the overload path serves these as
  /// Source::StaleCache instead of shedding. Bounded alongside the
  /// evaluator cache (same cap, same LRU discipline).
  struct StaleSlot {
    CachedResult result;
    std::list<std::string>::iterator lru_it;
  };
  std::unordered_map<std::string, StaleSlot> stale_;
  std::list<std::string> stale_lru_;

  obs::Registry reg_;
  const obs::Counter requests_ = reg_.counter("svc.requests");
  const obs::Counter coalesced_ = reg_.counter("svc.coalesced");
  const obs::Counter warm_hits_ = reg_.counter("svc.warm_hits");
  const obs::Counter follower_hits_ = reg_.counter("svc.follower_hits");
  const obs::Counter searches_ = reg_.counter("svc.searches");
  const obs::Counter simulations_ = reg_.counter("svc.simulations");
  const obs::Counter shed_ = reg_.counter("svc.shed");
  const obs::Counter rejected_ = reg_.counter("svc.rejected");
  const obs::Counter timed_out_ = reg_.counter("svc.timed_out");
  const obs::Counter errors_ = reg_.counter("svc.errors");
  const obs::Counter persist_errors_ = reg_.counter("svc.persist_errors");
  const obs::Counter wrong_shard_ = reg_.counter("svc.wrong_shard");
  const obs::Gauge queued_ = reg_.gauge("svc.queued");
  const obs::Gauge in_flight_ = reg_.gauge("svc.in_flight");
  const obs::Histogram latency_us_ = reg_.histogram("svc.latency_us");

  /// Helpers for random searches, shared by every request for the
  /// service's lifetime: one thread per hardware thread the request pool
  /// leaves idle, none when it leaves none. A request's search runs on its
  /// own worker plus whichever helpers are free, so concurrent searches
  /// split the spare cores between them. Declared before pool_, so it
  /// outlives the requests that use it.
  std::once_flag eval_pool_once_;
  std::unique_ptr<support::ThreadPool> eval_pool_;
  // Destroyed first (reverse member order): the pool drains its queue on
  // destruction, and its jobs touch every field above.
  support::ThreadPool pool_;
};

}  // namespace ilc::svc
