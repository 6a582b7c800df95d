// A small work-stealing thread pool for the embarrassingly-parallel sweeps
// (risk scenarios, per-host drill loops). Each worker owns a deque; submit()
// distributes round-robin, idle workers steal from the back of their peers'
// deques. parallel_for() is the intended entry point for deterministic
// fan-out: invocations write to index-addressed slots, so results are
// bit-identical to a serial loop regardless of thread count — only the
// schedule is nondeterministic.
//
// Nesting: a parallel_for started from inside a body of a loop that fanned
// out on the same pool (or from any task a worker runs) runs inline on the
// calling thread. Nested loops therefore cannot deadlock waiting for
// workers that are all busy with the outer loop.
//
// Ownership: only top-level owners build a pool (the admission controller,
// the entitlement manager, the drill engine). What they drive borrows it
// as an Executor: the pool plus the width its loops may use.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace netent {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(std::size_t num_threads = default_thread_count());

  /// Drains every already-submitted task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// std::thread::hardware_concurrency(), never less than 1.
  [[nodiscard]] static std::size_t default_thread_count();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues one task. The future completes when the task ran; a thrown
  /// exception is captured and rethrown from future::get(). A single-thread
  /// pool executes submissions in FIFO order.
  std::future<void> submit(std::function<void()> task);

  /// Width of a loop that may use every worker plus the calling thread.
  static constexpr std::size_t kFullWidth = std::numeric_limits<std::size_t>::max();

  /// Runs body(i) exactly once for every i in [begin, end) and returns once
  /// all invocations finished. At most `width` invocations run at once: the
  /// calling thread plus up to width - 1 workers, so a width of 1 runs the
  /// loop on the calling thread without any hand-off. Indices are claimed
  /// dynamically (work stealing by atomic increment), so uneven per-index
  /// cost balances out. If any invocations throw, the exception of the
  /// lowest throwing index is rethrown. Called from inside a pool task or a
  /// fanned-out body of this pool, the loop runs inline (see Nesting).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t width = kFullWidth);

  /// As parallel_for(), but hands the body a worker slot in
  /// [0, min(width, size() + 1)) alongside the index: each concurrently
  /// draining thread owns a distinct slot (the calling thread included), so
  /// callers can pre-allocate that many scratch workspaces and index them
  /// without locking.
  void parallel_for_with_worker(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t worker, std::size_t index)>& body,
      std::size_t width = kFullWidth);

 private:
  /// One worker's deque. The owner pops from the front, thieves steal from
  /// the back.
  struct Queue {
    std::mutex mutex;
    std::deque<std::packaged_task<void()>> tasks;
  };

  void worker_loop(std::size_t self);
  bool try_pop(std::size_t self, std::packaged_task<void()>& out);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex wake_mutex_;
  std::condition_variable wake_;
  std::uint64_t epoch_ = 0;  ///< bumped per submit, guarded by wake_mutex_
  bool stop_ = false;        ///< guarded by wake_mutex_

  std::size_t next_queue_ = 0;  ///< round-robin cursor, guarded by submit_mutex_
  std::mutex submit_mutex_;
};

/// A pool lent by its owner together with the width loops on it may use.
/// The default (no pool) runs every loop inline on the calling thread.
struct Executor {
  ThreadPool* pool = nullptr;
  std::size_t width = 1;

  /// Number of worker slots for_each hands out: workers lie in [0, slots()).
  [[nodiscard]] std::size_t slots() const {
    return pool == nullptr || width <= 1 ? 1 : std::min(width, pool->size() + 1);
  }

  /// Runs body(worker, i) for every i in [0, count). Without a pool or at
  /// width 1 this is a plain loop on the calling thread (worker 0, no
  /// allocation, no hand-off); otherwise pool->parallel_for_with_worker at
  /// `width`.
  template <typename Body>
  void for_each(std::size_t count, Body&& body) const {
    if (pool == nullptr || width <= 1) {
      for (std::size_t i = 0; i < count; ++i) body(std::size_t{0}, i);
      return;
    }
    pool->parallel_for_with_worker(0, count, body, width);
  }
};

}  // namespace netent
