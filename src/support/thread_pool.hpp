// Minimal work-stealing-free thread pool with a parallel_for helper.
//
// The simulator itself is single-threaded and deterministic; parallelism
// comes from evaluating many independent (sequence, program) pairs at
// once. parallel_for spreads an index range over the calling thread plus
// helper jobs on a caller-owned pool. Each call has its own barrier, so
// several searches can share one pool: the tuning service keeps one
// evaluation pool for its lifetime, and a genetic search builds one per
// run. With no pool it degrades to an inline loop; results never depend on
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
/// distinct i. The caller takes part, helped by at most pool->size()
/// helper jobs on the pool; indices come from a counter the call shares
/// with its helpers. The call returns once every index has run: it waits
/// for the helpers that claimed one, never for the pool's other jobs, so
/// concurrent calls may share a pool. A helper that starts after its batch
/// ended claims nothing and never touches fn. The first exception thrown,
/// by the caller's iterations or a helper's, is rethrown after every
/// iteration has finished. A null pool or a one-index range runs the loop
/// inline, where an exception ends it at once.
void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace ilc::support
