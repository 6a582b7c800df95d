// `common::ExecConfig`: the execution-resources knob of the top-level
// owners: `service::AdmissionConfig`, `core::ManagerConfig` and
// `sim::DrillConfig`. Each owner resolves it (with its own default) into
// one ThreadPool and lends that pool, with a loop width, as an Executor to
// everything it drives; nothing below an owner builds a pool or has a
// thread knob of its own.
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
  /// Worker threads for the owner's parallel sections. Unset (the
  /// default) falls back to the owner's documented default (serial for the
  /// drill's per-host loops, hardware concurrency for the admission plane
  /// and the entitlement cycle).
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
