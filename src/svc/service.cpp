#include "svc/service.hpp"

#include <exception>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "features/features.hpp"
#include "ir/fingerprint.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

namespace ilc::svc {

namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// A successful reply served from a remembered result, no search run:
/// a warm hit, a follower hit, or a stale result under overload.
TuningResponse cached_response(const std::string& program,
                               const CachedResult& hit, Source source,
                               std::chrono::steady_clock::time_point start) {
  TuningResponse r;
  r.ok = true;
  r.program = program;
  r.config = hit.config;
  r.baseline_metric = hit.baseline_metric;
  r.best_metric = hit.best_metric;
  r.speedup = hit.best_metric ? static_cast<double>(hit.baseline_metric) /
                                    static_cast<double>(hit.best_metric)
                              : 0.0;
  r.source = source;
  r.latency_us = elapsed_us(start);
  return r;
}

}  // namespace

struct TuningService::Job {
  TuningRequest request;
  std::string cache_key;   // module fingerprint + objective
  std::string flight_key;  // cache_key + machine: the single-flight key
  std::string eval_key;    // fingerprint + machine: evaluator sharing
  std::shared_ptr<ir::Module> module;
  int priority = 0;
  std::uint64_t seq = 0;
  Clock::time_point submitted;
  /// Deadline derived from TuningRequest::timeout_ms at submit time; none
  /// for a timeout the clock cannot represent.
  bool has_deadline = false;
  Clock::time_point deadline;
  /// The request's root span (the submit() span): workers adopt it, so
  /// scheduling, evaluation, and KB persistence share one trace ID.
  obs::SpanContext trace;
  std::promise<TuningResponse> promise;
  std::shared_future<TuningResponse> future;
  /// Completion hooks registered by the submitter and by any coalesced
  /// duplicates (guarded by TuningService::mu_; moved out, exactly once,
  /// when the flight resolves).
  std::vector<ResponseCallback> callbacks;
};

bool TuningService::JobOrder::operator()(
    const std::shared_ptr<Job>& a, const std::shared_ptr<Job>& b) const {
  if (a->priority != b->priority) return a->priority < b->priority;
  return a->seq > b->seq;  // earlier submissions first among equals
}

/// RAII owner of a dequeued job's retirement: resolve() (or, on any path
/// that skips it — an exception thrown past every catch, a logic error)
/// the destructor erases the in-flight entry and sets the promise, so a
/// client future can never be left dangling and a later identical submit
/// can never coalesce onto a dead flight.
class TuningService::Completion {
 public:
  Completion(TuningService& svc, std::shared_ptr<Job> job)
      : svc_(svc), job_(std::move(job)) {}

  Completion(const Completion&) = delete;
  Completion& operator=(const Completion&) = delete;

  /// The search phase started: the job is in flight until it resolves.
  void set_started() {
    started_ = true;
    svc_.in_flight_.add(1);
  }

  void resolve(TuningResponse resp) {
    if (done_) return;
    done_ = true;
    if (started_) svc_.in_flight_.sub(1);
    svc_.count_resolved(resp);
    std::vector<ResponseCallback> callbacks;
    {
      std::lock_guard<std::mutex> lock(svc_.mu_);
      svc_.inflight_.erase(job_->flight_key);
      // Claimed in the same critical section as the in-flight erase: a
      // concurrent duplicate either registered its callback before (it
      // fires below) or finds the flight gone and takes the cache path.
      callbacks = std::move(job_->callbacks);
    }
    // Outside the lock: waiters run continuations inline on .get(), and
    // completion hooks (the socket transport) may take their own locks.
    for (const ResponseCallback& cb : callbacks) {
      try {
        cb(resp);
      } catch (...) {
        // A throwing hook must not strand the promise below.
      }
    }
    job_->promise.set_value(std::move(resp));
  }

  ~Completion() {
    if (done_) return;
    TuningResponse r;
    r.ok = false;
    r.program = job_->request.program;
    r.error = "internal error: request abandoned by worker";
    r.source = Source::Error;
    r.latency_us = elapsed_us(job_->submitted);
    try {
      resolve(std::move(r));
    } catch (...) {
      // A promise that cannot be satisfied (impossible: resolve() runs at
      // most once) must not escape a destructor.
    }
  }

 private:
  TuningService& svc_;
  std::shared_ptr<Job> job_;
  bool started_ = false;
  bool done_ = false;
};

TuningService::TuningService(Options opts)
    : opts_(std::move(opts)), pool_(opts_.workers) {
  ILC_CHECK_MSG(opts_.follower_store == nullptr || opts_.kb_path.empty(),
                "a follower service serves its replicated store; it takes "
                "no kb_path");
  if (!opts_.kb_path.empty()) {
    ILC_CHECK_MSG(!std::filesystem::is_regular_file(opts_.kb_path),
                  opts_.kb_path +
                      " is a file, not a knowledge-base store directory; "
                      "convert a CSV knowledge base with `kb_tool import "
                      "<csv> <dir>`");
    kbstore::Options kopts;
    // autosave=true means "durable after every search": flush per write.
    // Otherwise group-commit in batches; save()/shutdown sync the rest.
    kopts.flush = opts_.autosave ? kbstore::Options::Flush::EveryAppend
                                 : kbstore::Options::Flush::Batched;
    auto cache = ResultCache::open_durable(opts_.kb_path, kopts);
    ILC_CHECK_MSG(cache.has_value(),
                  "not a valid knowledge base: " + opts_.kb_path);
    cache_ = std::move(*cache);
  }
  if (!opts_.seed_kb_path.empty()) {
    auto kb = kb::KnowledgeBase::load(opts_.seed_kb_path);
    ILC_CHECK_MSG(kb.has_value(),
                  "not a valid seed knowledge base: " + opts_.seed_kb_path);
    seed_bank_ = search::SeedBank(*kb, search::SequenceSpace{});
  }
}

TuningService::~TuningService() {
  pool_.wait_idle();
  if (!opts_.kb_path.empty()) save();
}

std::shared_future<TuningResponse> TuningService::ready_response(
    TuningResponse r) {
  std::promise<TuningResponse> p;
  p.set_value(std::move(r));
  return p.get_future().share();
}

std::shared_future<TuningResponse> TuningService::submit(
    TuningRequest req, ResponseCallback on_done) {
  const Clock::time_point start = Clock::now();
  // Parent onto the submitting thread's current span when it has one (the
  // socket front-end scopes a per-request span around submit); with no
  // enclosing span each request roots its own trace, so a plain client
  // thread submitting many requests never chains them together.
  obs::Span span("svc.submit");
  span.annotate("program", req.program);
  requests_.inc();

  // Requests answered without ever being scheduled still owe the
  // completion hook its exactly-once invocation — inline, on this thread.
  const auto resolved = [&on_done, this](TuningResponse r) {
    count_resolved(r);
    if (on_done) {
      try {
        on_done(r);
      } catch (...) {
      }
    }
    return ready_response(std::move(r));
  };

  auto module = std::make_shared<ir::Module>();
  try {
    if (!req.ir_text.empty()) {
      *module = ir::parse_module(req.ir_text);
      // The simulator engine trusts the code it runs: client IR must pass
      // the verifier before it is fingerprinted, cached, or queued.
      if (const std::string err = ir::verify(*module); !err.empty())
        throw std::invalid_argument("invalid module: " + err);
    } else {
      *module = wl::make_workload(req.program).module;
    }
  } catch (const std::exception& e) {
    TuningResponse r;
    r.program = req.program;
    r.error = e.what();
    r.latency_us = elapsed_us(start);
    return resolved(std::move(r));
  }

  const std::uint64_t fp = ir::fingerprint(*module);

  // Fingerprint sharding: refuse work another shard owns, before any
  // cache or queue state is touched — a misrouted search must never land
  // results in this shard's KB (its replicas would diverge from the
  // owning shard's).
  if (opts_.shard_count > 1 && fp % opts_.shard_count != opts_.shard_index) {
    TuningResponse r;
    r.program = req.program;
    r.error = "wrong shard: owner=" + std::to_string(fp % opts_.shard_count) +
              " shards=" + std::to_string(opts_.shard_count);
    r.latency_us = elapsed_us(start);
    wrong_shard_.inc();
    return resolved(std::move(r));
  }

  const std::string cache_key = ResultCache::key(fp, req.objective);
  const std::string flight_key = cache_key + '|' + req.machine.name;

  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    obs::Span lookup("svc.cache_lookup");

    auto it = inflight_.find(flight_key);
    if (it != inflight_.end()) {
      lookup.annotate("outcome", "coalesced");
      coalesced_.inc();
      if (on_done) it->second->callbacks.push_back(std::move(on_done));
      return it->second->future;
    }

    // A follower answers from the replicated store; its own cache stays
    // empty, since it never searches.
    const kbstore::Store* follower = opts_.follower_store;
    if (const auto hit =
            follower ? ResultCache::lookup_store(*follower, cache_key,
                                                 req.machine.name)
                     : cache_.lookup(cache_key, req.machine.name)) {
      lookup.annotate("outcome", follower ? "follower_hit" : "warm_hit");
      TuningResponse r = cached_response(
          req.program, *hit,
          follower ? Source::Follower : Source::WarmCache, start);
      return resolved(std::move(r));
    }
    if (follower) {
      lookup.annotate("outcome", "read_only_miss");
      TuningResponse r;
      r.program = req.program;
      r.error = "read-only follower: result not replicated yet; "
                "ask the owning shard's primary";
      r.latency_us = elapsed_us(start);
      return resolved(std::move(r));
    }
    // Bounded admission: a full queue sheds load instead of growing an
    // unbounded backlog of futures. Degrade gracefully when we can — the
    // stale map remembers the last computed result per flight (even one
    // whose KB persist failed), which beats an outright rejection.
    if (opts_.max_queue != 0 && queue_.size() >= opts_.max_queue) {
      if (const auto st = stale_.find(flight_key); st != stale_.end()) {
        lookup.annotate("outcome", "stale");
        TuningResponse r = cached_response(req.program, st->second.result,
                                           Source::StaleCache, start);
        return resolved(std::move(r));
      }
      lookup.annotate("outcome", "rejected");
      TuningResponse r;
      r.program = req.program;
      r.error = "overloaded: admission queue full (max_queue=" +
                std::to_string(opts_.max_queue) + ")";
      r.source = Source::Rejected;
      r.latency_us = elapsed_us(start);
      return resolved(std::move(r));
    }
    lookup.annotate("outcome", "miss");

    job = std::make_shared<Job>();
    job->request = std::move(req);
    job->cache_key = cache_key;
    job->flight_key = flight_key;
    {
      std::ostringstream os;
      os << std::hex << fp << '|' << job->request.machine.name;
      job->eval_key = os.str();
    }
    job->module = std::move(module);
    job->priority = job->request.priority;
    job->seq = next_seq_++;
    job->submitted = start;
    // A timeout past the clock's range (start + timeout would overflow)
    // is no deadline at all.
    const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::time_point::max() - start);
    if (job->request.timeout_ms > 0 &&
        job->request.timeout_ms <
            static_cast<std::uint64_t>(headroom.count())) {
      job->has_deadline = true;
      job->deadline =
          start + std::chrono::milliseconds(job->request.timeout_ms);
    }
    job->trace = span.context();
    job->future = job->promise.get_future().share();
    if (on_done) job->callbacks.push_back(std::move(on_done));
    inflight_.emplace(flight_key, job);
    queue_.push(job);
    queued_.add(1);
  }

  pool_.submit([this] { run_one(); });
  return job->future;
}

TuningResponse TuningService::tune(TuningRequest req) {
  return submit(std::move(req)).get();
}

void TuningService::drain() { pool_.wait_idle(); }

TuningResponse TuningService::execute(const Job& job) {
  const TuningRequest& req = job.request;
  obs::Span span("svc.eval");
  span.annotate("strategy", std::to_string(static_cast<int>(req.strategy)));
  span.annotate("budget", std::to_string(req.budget));

  // Test hooks: `svc.eval` can delay, park, or fail a search here —
  // deterministic worker-occupancy and failure-path tests hang off it.
  // `svc.eval_nonstd` throws a non-std exception, exercising the
  // catch (...) path that keeps such a throw from terminating the worker.
  if (support::failpoint("svc.eval"))
    throw support::FailpointError("injected svc.eval failure");
  struct InjectedNonStdError {};
  if (support::failpoint("svc.eval_nonstd")) throw InjectedNonStdError{};

  const std::shared_ptr<search::Evaluator> eval = evaluator_for(job);

  // Simulations attributed to this request. When two non-duplicate jobs
  // share an evaluator the split is approximate, but the metrics total is
  // exact because the evaluator's own counter is monotonic.
  const std::size_t sims_before = eval->simulations();

  const search::EvalResult baseline = eval->eval_sequence({});
  const std::uint64_t base_metric = metric_of(baseline, req.objective);

  support::Rng rng(req.seed);
  search::SequenceSpace space;
  search::SearchTrace trace;
  // Clustered KB seeding: resolve the module's cluster once, up front, so
  // both the GA population and the random-search warm start draw from it.
  search::Seeding seeding;
  const bool seeded = req.seeding && !seed_bank_.empty();
  if (seeded) {
    seeding = seed_bank_.seeding_for(feat::extract_static(*job.module));
    span.annotate("seeds", std::to_string(seeding.seeds.size()));
  }
  switch (req.strategy) {
    case Strategy::Random:
      if (seeded)
        trace = search::seeded_random_search(*eval, space, seeding, rng,
                                             req.budget, req.objective,
                                             eval_pool());
      else
        trace = search::random_search(*eval, space, rng, req.budget,
                                      req.objective, eval_pool());
      break;
    case Strategy::Greedy:
      trace = search::greedy_search(*eval, space, rng, req.budget,
                                    req.objective);
      break;
    case Strategy::Genetic: {
      // The GA keeps its own per-run pool sized by search_workers rather
      // than the evaluation pool (DESIGN.md, "Tuning service").
      search::GaParams ga;
      ga.workers = opts_.search_workers;
      if (seeded) {
        ga.seeds = seeding.seeds;
        ga.estimator = seeding.estimator;
      }
      trace = search::genetic_search(*eval, space, rng, req.budget,
                                     req.objective, ga);
      break;
    }
  }

  TuningResponse r;
  r.ok = true;
  r.program = req.program;
  if (trace.evaluations == 0 || trace.best_metric > base_metric) {
    // Zero budget or a search that never beat -O0: serve the baseline.
    r.config = "";
    r.best_metric = base_metric;
  } else {
    r.config = search::sequence_to_string(trace.best_seq);
    r.best_metric = trace.best_metric;
  }
  r.baseline_metric = base_metric;
  r.speedup = r.best_metric ? static_cast<double>(base_metric) /
                                  static_cast<double>(r.best_metric)
                            : 0.0;
  r.source = Source::Search;
  r.simulations = eval->simulations() - sims_before;
  if (req.objective == search::Objective::Pareto) {
    // The -O0 configuration is always an available answer; folding it in
    // means the served front never sits entirely above the baseline. The
    // reference point one past the baseline then credits any front that
    // at least matches -O0 with nonzero dominated area.
    trace.pareto.insert({{}, baseline.cycles, baseline.code_size});
    r.pareto_front = trace.pareto.size();
    r.hypervolume = trace.pareto.hypervolume(baseline.cycles + 1,
                                             baseline.code_size + 1);
  }
  span.annotate("simulations", std::to_string(r.simulations));
  return r;
}

support::ThreadPool* TuningService::eval_pool() {
  std::call_once(eval_pool_once_, [this] {
    // Never ThreadPool(0): that would start hardware_concurrency() threads.
    const std::size_t cores = std::thread::hardware_concurrency();
    if (cores > pool_.size())
      eval_pool_ = std::make_unique<support::ThreadPool>(cores - pool_.size());
  });
  return eval_pool_.get();
}

std::shared_ptr<search::Evaluator> TuningService::evaluator_for(
    const Job& job) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = evaluators_.find(job.eval_key);
      it != evaluators_.end()) {
    eval_lru_.splice(eval_lru_.begin(), eval_lru_, it->second.lru_it);
    return it->second.eval;
  }
  auto eval =
      std::make_shared<search::Evaluator>(*job.module, job.request.machine);
  eval_lru_.push_front(job.eval_key);
  evaluators_.emplace(job.eval_key, EvalSlot{eval, eval_lru_.begin()});
  if (opts_.evaluator_cache != 0 &&
      evaluators_.size() > opts_.evaluator_cache) {
    evaluators_.erase(eval_lru_.back());
    eval_lru_.pop_back();
  }
  return eval;
}

std::size_t TuningService::evaluator_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evaluators_.size();
}

void TuningService::remember_stale_locked(const std::string& flight_key,
                                          const TuningResponse& resp) {
  CachedResult result;
  result.config = resp.config;
  result.best_metric = resp.best_metric;
  result.baseline_metric = resp.baseline_metric;
  if (const auto it = stale_.find(flight_key); it != stale_.end()) {
    it->second.result = std::move(result);
    stale_lru_.splice(stale_lru_.begin(), stale_lru_, it->second.lru_it);
    return;
  }
  stale_lru_.push_front(flight_key);
  stale_.emplace(flight_key, StaleSlot{std::move(result), stale_lru_.begin()});
  if (opts_.evaluator_cache != 0 && stale_.size() > opts_.evaluator_cache) {
    stale_.erase(stale_lru_.back());
    stale_lru_.pop_back();
  }
}

void TuningService::run_one() {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ILC_ASSERT(!queue_.empty());
    job = queue_.top();
    queue_.pop();
    queued_.sub(1);
  }
  // From here the guard owns retirement: whatever happens below — search
  // failure, persist failure, a non-std exception, even a path that
  // forgets to resolve — the promise is set exactly once and the
  // in-flight entry erased, so no client can hang on this job.
  Completion done(*this, job);

  // Continue the request's trace on this worker thread: the queue wait is
  // recorded as a span over [submitted, now], and everything below —
  // evaluation spans included — parents onto the submit span.
  obs::TraceScope scope(job->trace);
  obs::Tracer::record("svc.sched.wait", job->trace, job->submitted,
                      Clock::now());
  obs::Span run_span("svc.request.run");

  // Cooperative cancellation: a job whose deadline passed while queued
  // resolves TimedOut without spending a single simulation on it.
  if (job->has_deadline && Clock::now() >= job->deadline) {
    run_span.annotate("outcome", "timeout");
    TuningResponse resp;
    resp.ok = false;
    resp.program = job->request.program;
    resp.error = "deadline exceeded (timeout_ms=" +
                 std::to_string(job->request.timeout_ms) + ")";
    resp.source = Source::TimedOut;
    resp.latency_us = elapsed_us(job->submitted);
    done.resolve(std::move(resp));
    return;
  }

  done.set_started();

  TuningResponse resp;
  bool failed = false;
  try {
    resp = execute(*job);
  } catch (const std::exception& e) {
    failed = true;
    resp.error = e.what();
  } catch (...) {
    // A non-std exception escaping into the pool worker would terminate
    // the process with every outstanding promise unresolved.
    failed = true;
    resp.error = "search failed: non-standard exception";
  }
  if (failed) {
    resp.ok = false;
    resp.program = job->request.program;
    resp.source = Source::Error;
    run_span.annotate("outcome", "search_error");
  }

  if (!failed) {
    // Publish to the cache under full exception protection: a throwing
    // store (disk-full WAL append, injected "svc.persist" fault) fails
    // this request — it must never strand it. The store and the
    // in-flight erase (inside Completion::resolve, which runs strictly
    // after this block) keep the submit-side invariant: a concurrent
    // duplicate observes "in flight" or "cached", never neither.
    obs::Span persist("svc.kb_persist");
    try {
      std::lock_guard<std::mutex> lock(mu_);
      // Remember the result in memory first: even when the durable
      // publish below fails, overload can still serve it as stale.
      remember_stale_locked(job->flight_key, resp);
      if (support::failpoint("svc.persist"))
        throw support::FailpointError("injected svc.persist failure");
      CachedResult cached;
      cached.config = resp.config;
      cached.best_metric = resp.best_metric;
      cached.baseline_metric = resp.baseline_metric;
      cache_.store(job->cache_key, job->request.machine.name, cached);
      // store() WAL-appends incrementally; autosave makes the result
      // durable before the client sees its response.
      if (opts_.autosave && !cache_.sync())
        throw std::runtime_error("knowledge-base sync failed");
    } catch (const std::exception& e) {
      failed = true;
      resp.error = std::string("persist failed: ") + e.what();
    } catch (...) {
      failed = true;
      resp.error = "persist failed: non-standard exception";
    }
    if (failed) {
      resp.ok = false;
      resp.source = Source::Error;
      persist.annotate("outcome", "error");
      persist_errors_.inc();
    }
  }
  resp.latency_us = elapsed_us(job->submitted);
  done.resolve(std::move(resp));
}

void TuningService::count_resolved(const TuningResponse& r) {
  switch (r.source) {
    case Source::Follower:
      follower_hits_.inc();
      [[fallthrough]];
    case Source::WarmCache:
      warm_hits_.inc();
      break;
    case Source::Search:
      searches_.inc();
      simulations_.add(r.simulations);
      break;
    case Source::StaleCache:
      shed_.inc();
      break;
    case Source::Rejected:
      rejected_.inc();
      break;
    case Source::TimedOut:
      timed_out_.inc();
      break;
    case Source::Error:
      errors_.inc();
      break;
  }
  latency_us_.record(r.latency_us);
}

bool TuningService::save() const {
  if (opts_.kb_path.empty()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.sync();
}

bool TuningService::save_to(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.save(path);
}

std::size_t TuningService::kb_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

}  // namespace ilc::svc
