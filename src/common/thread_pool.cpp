#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <utility>

#include "common/check.h"

namespace netent {

namespace {

/// The pool whose loop body (or task) this thread is running, if any: a
/// parallel_for on that pool from here runs inline.
thread_local const ThreadPool* tls_running_pool = nullptr;

}  // namespace

std::size_t ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) queues_.push_back(std::make_unique<Queue>());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  NETENT_EXPECTS(task != nullptr);
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  std::size_t target = 0;
  {
    const std::lock_guard<std::mutex> lock(submit_mutex_);
    target = next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  {
    const std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(packaged));
  }
  {
    // Bump the epoch under the wake mutex so a worker that found every queue
    // empty and is about to sleep cannot miss this submission.
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    ++epoch_;
  }
  wake_.notify_one();
  return future;
}

bool ThreadPool::try_pop(std::size_t self, std::packaged_task<void()>& out) {
  {  // Own queue first: FIFO from the front.
    Queue& own = *queues_[self];
    const std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.front());
      own.tasks.pop_front();
      return true;
    }
  }
  // Steal from the back of the other queues.
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    Queue& victim = *queues_[(self + offset) % queues_.size()];
    const std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      out = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  tls_running_pool = this;
  for (;;) {
    std::packaged_task<void()> task;
    if (try_pop(self, task)) {
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    // Tasks are only ever added by submit(), which is forbidden once stop_
    // is set, so a failed scan over all queues after stop_ is conclusive.
    if (stop_) return;
    const std::uint64_t seen = epoch_;
    lock.unlock();
    if (try_pop(self, task)) {  // a submission raced the first scan
      task();
      continue;
    }
    lock.lock();
    wake_.wait(lock, [&] { return stop_ || epoch_ != seen; });
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body,
                              std::size_t width) {
  NETENT_EXPECTS(body != nullptr);
  parallel_for_with_worker(
      begin, end, [&body](std::size_t /*worker*/, std::size_t i) { body(i); }, width);
}

void ThreadPool::parallel_for_with_worker(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t worker, std::size_t index)>& body,
    std::size_t width) {
  NETENT_EXPECTS(body != nullptr);
  NETENT_EXPECTS(width >= 1);
  if (begin >= end) return;

  struct Shared {
    std::atomic<std::size_t> next;
    std::mutex mutex;
    std::size_t first_error_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr first_error;
  };
  auto shared = std::make_shared<Shared>();
  shared->next.store(begin, std::memory_order_relaxed);

  // Each drain call runs on exactly one thread and is the sole user of its
  // worker slot, so slot-indexed caller state is thread-confined.
  const auto drain = [shared, end, &body](std::size_t worker) {
    for (;;) {
      const std::size_t i = shared->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      try {
        body(worker, i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(shared->mutex);
        if (i < shared->first_error_index) {
          shared->first_error_index = i;
          shared->first_error = std::current_exception();
        }
      }
    }
  };

  // The calling thread participates, so the loop completes even when every
  // worker is busy with unrelated submissions. A loop nested in a task or a
  // fanned-out body of this pool gets no helpers: the workers may all be
  // busy with the loop around it.
  const std::size_t helpers =
      tls_running_pool == this ? 0 : std::min({width - 1, workers_.size(), end - begin - 1});
  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (std::size_t t = 0; t < helpers; ++t) {
    futures.push_back(submit([drain, t] { drain(t); }));
  }
  // While it drains beside helpers, the calling thread counts as running a
  // body of this pool, so loops nested in its bodies run inline too.
  const ThreadPool* const outer = tls_running_pool;
  if (helpers > 0) tls_running_pool = this;
  drain(helpers);  // the calling thread's slot
  tls_running_pool = outer;
  for (std::future<void>& future : futures) future.get();

  if (shared->first_error) std::rethrow_exception(shared->first_error);
}

}  // namespace netent
