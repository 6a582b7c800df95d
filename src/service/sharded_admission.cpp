#include "service/sharded_admission.h"

#include <algorithm>
#include <array>
#include <utility>

#include "obs/metrics.h"

namespace netent::service {

namespace {

struct ShardMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& jobs = reg.counter("service.admission.shard.jobs");
  obs::Gauge& workers = reg.gauge("service.admission.shard.workers");
  /// Queue depth observed by each post() — a persistent backlog means the
  /// shard count (or the realization spread) is the bottleneck.
  obs::Histogram& queue_depth = reg.histogram(
      "service.admission.shard.queue_depth", std::array{0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0});
};

ShardMetrics& metrics() {
  static ShardMetrics instance;
  return instance;
}

}  // namespace

ShardPool::ShardPool(const topology::Topology& topo, std::size_t shards,
                     std::size_t router_paths) {
  const std::size_t count = std::max<std::size_t>(1, shards);
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>(topo, router_paths));
  }
  // Workers start only after the shard array is final: a worker never sees
  // a partially built pool.
  for (auto& shard : shards_) {
    shard->worker = std::thread(&ShardPool::worker_loop, this, std::ref(*shard));
  }
  metrics().workers.set(static_cast<double>(count));
}

ShardPool::~ShardPool() {
  for (auto& shard : shards_) {
    {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      shard->stopping = true;
    }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

std::future<void> ShardPool::post(std::size_t shard_index, std::function<void()> job) {
  Shard& shard = *shards_[shard_index];
  std::packaged_task<void()> task(std::move(job));
  std::future<void> future = task.get_future();
  metrics().queue_depth.record(static_cast<double>(shard.queue.approx_size()));
  shard.queue.push(std::move(task));
  {
    // Empty critical section: pairs with the worker's predicate check under
    // the same mutex so the notify cannot race into a lost wakeup.
    const std::lock_guard<std::mutex> lock(shard.mutex);
  }
  shard.cv.notify_one();
  return future;
}

void ShardPool::worker_loop(Shard& shard) {
  for (;;) {
    std::packaged_task<void()> task;
    if (!shard.queue.pop(task)) {
      std::unique_lock<std::mutex> lock(shard.mutex);
      shard.cv.wait(lock, [&] { return shard.stopping || shard.queue.approx_size() > 0; });
      if (shard.queue.pop(task)) {
        lock.unlock();
      } else if (shard.stopping) {
        return;  // stopping with an empty queue: drain complete
      } else {
        continue;  // a push counted but not yet published: look again
      }
    }
    task();  // packaged_task routes exceptions into the caller's future
    metrics().jobs.add();
  }
}

}  // namespace netent::service
