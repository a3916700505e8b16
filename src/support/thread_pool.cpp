#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "support/assert.hpp"

namespace ilc::support {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_job_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    ILC_CHECK_MSG(!stop_, "submit after shutdown");
    jobs_.push(std::move(job));
  }
  cv_job_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return jobs_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_job_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (stop_ && jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop();
      ++in_flight_;
    }
    job();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (jobs_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

namespace {

/// One parallel_for call, shared with its helper jobs. A helper job may run
/// after the call returned (it waited in the queue behind other work), so it
/// holds this state by shared_ptr. `fn` refers into the caller's frame and
/// is called only for a claimed index, while the caller still waits.
struct Batch {
  Batch(std::size_t begin, std::size_t end,
        const std::function<void(std::size_t)>& fn)
      : next(begin), end(end), fn(fn) {}

  /// Run index `i` and every later one this thread claims. Pool threads
  /// have no handler of their own, so each iteration catches its
  /// exception; the first one resurfaces after the batch.
  void run_from(std::size_t i) {
    for (; i < end; i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  }

  /// A helper job's body. Its first claim and its count as "at work" move
  /// together under `mu`, where the caller waits: once the caller has
  /// claimed past the end, a helper either counts already or claims
  /// nothing.
  void help() {
    std::unique_lock<std::mutex> lock(mu);
    const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= end) return;
    ++helpers_at_work;
    lock.unlock();
    run_from(i);
    lock.lock();
    if (--helpers_at_work == 0) done.notify_all();
  }

  std::atomic<std::size_t> next;
  const std::size_t end;
  const std::function<void(std::size_t)>& fn;
  std::mutex mu;
  std::condition_variable done;
  std::size_t helpers_at_work = 0;  // guarded by mu
  std::exception_ptr first_error;   // guarded by mu
};

}  // namespace

void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  if (pool == nullptr || end - begin == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  const auto batch = std::make_shared<Batch>(begin, end, fn);
  const std::size_t helpers = std::min(pool->size(), end - begin - 1);
  for (std::size_t t = 0; t < helpers; ++t)
    pool->submit([batch] { batch->help(); });
  batch->run_from(batch->next.fetch_add(1, std::memory_order_relaxed));

  std::unique_lock<std::mutex> lock(batch->mu);
  batch->done.wait(lock, [&] { return batch->helpers_at_work == 0; });
  if (batch->first_error) std::rethrow_exception(batch->first_error);
}

}  // namespace ilc::support
