#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

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

void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t threads =
      pool == nullptr ? 1 : std::min(pool->size(), end - begin);
  if (threads <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // Pool workers have no handler of their own, so each iteration catches
  // its exception; the first one resurfaces after the batch.
  std::atomic<std::size_t> next{begin};
  std::exception_ptr first_error;
  std::mutex error_mu;
  const auto body = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  for (std::size_t t = 1; t < threads; ++t) pool->submit([&body] { body(); });
  body();
  pool->wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ilc::support
