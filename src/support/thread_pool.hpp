// Minimal work-stealing-free thread pool with a parallel_for helper.
//
// The simulator itself is single-threaded and deterministic; parallelism in
// this project lives entirely in the experiment harnesses, which evaluate
// many independent (sequence, program) pairs. parallel_for spreads an
// index range over a caller-owned pool plus the calling thread; with a
// single worker it degrades to an inline loop, so results never depend on
// the thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ilc::support {

/// Fixed-size thread pool executing std::function jobs FIFO.
class ThreadPool {
 public:
  /// threads == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> job);

  /// Block until every submitted job has finished.
  void wait_idle();

  std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mu_;
  std::condition_variable cv_job_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Apply fn(i) for i in [begin, end), fn safe to call concurrently for
/// distinct i. Indices come from a shared counter; the caller takes part,
/// and at most pool->size() threads run iterations, so repeated batches
/// (one per GA generation) reuse warm workers. The first exception thrown,
/// by the caller's iterations or a worker's, is rethrown after every
/// iteration has finished. A null pool, a one-worker pool or a one-index
/// range runs the loop inline, where an exception ends it at once. The
/// pool must carry no other jobs: wait_idle() is the batch barrier.
void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace ilc::support
