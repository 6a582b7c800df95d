// `common::ExecConfig`: the one execution-resources knob shared by every
// parallel subsystem. Historically each subsystem grew its own thread count
// (`ApprovalConfig::risk_threads`, `DrillConfig::num_threads`, ad-hoc
// defaults in the lifecycle and the benches); those aliases are retired —
// every consumer resolves its effective count through this struct (with a
// per-consumer default) so one setting drives them all.
//
// Thread counts never change results anywhere in netent — sweeps merge
// deterministically — so this knob only trades wall-clock for cores.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>

#include "common/thread_pool.h"

namespace netent::common {

struct ExecConfig {
  /// Worker threads for the consumer's parallel sections. Unset (the
  /// default) falls back to the consumer's documented default (serial for
  /// the drill's per-host loops, hardware concurrency for risk sweeps).
  std::optional<std::size_t> threads;

  /// Width of the outer fan-out for consumers whose work splits into
  /// independent units (the admission plane assesses a window's
  /// realizations this many at a time, on the same pool as its `threads`
  /// loops; loops inside a unit then run inline). Unset or <= 1 assesses
  /// the units one after another. Results are bit-identical at any shard
  /// count.
  std::optional<std::size_t> shards;

  /// Effective thread count given the consumer's default (clamped to >= 1).
  [[nodiscard]] std::size_t resolve(std::size_t consumer_default) const {
    return std::max<std::size_t>(1, threads.value_or(consumer_default));
  }

  /// Effective thread count for consumers whose default is the hardware
  /// concurrency.
  [[nodiscard]] std::size_t resolve() const {
    return resolve(ThreadPool::default_thread_count());
  }

  /// Effective shard count (clamped to >= 1; unset means 1 — no sharding).
  [[nodiscard]] std::size_t resolve_shards() const {
    return std::max<std::size_t>(1, shards.value_or(1));
  }
};

}  // namespace netent::common
