// `common::MpscQueue<T>`: an intrusive lock-free multi-producer /
// single-consumer queue — the request feed in front of each admission shard
// worker (service/sharded_admission.h).
//
// Producers push onto a Treiber stack with a link-then-CAS loop each — no
// locks, no waiting, any number of concurrent producers. The single
// consumer drains the whole stack with one exchange and reverses it into a
// private FIFO buffer, so pops come out in push order per producer (and in
// a consistent interleaving across producers: whatever order the pushes
// serialized in). Memory ordering: the successful CAS releases the node
// with its `next` link already set, the consumer's exchange acquires it —
// the consumer always observes fully-constructed, fully-linked nodes.
//
// The queue itself never blocks. Consumers that want to sleep pair it with
// their own mutex + condition variable: producers notify under that lock
// AFTER pushing, consumers re-check `approx_size()` under the lock before
// waiting — the classic no-lost-wakeup handshake (ShardPool does exactly
// this).
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace netent::common {

template <typename T>
class MpscQueue {
 public:
  MpscQueue() = default;
  ~MpscQueue() {
    // Drain leftovers (shutdown with queued work): both the consumer-side
    // buffer and the unclaimed stack.
    Node* node = head_.exchange(nullptr, std::memory_order_acquire);
    while (node != nullptr) {
      Node* const next = node->next;
      delete node;
      node = next;
    }
  }
  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Lock-free, safe from any number of threads. One allocation + one
  /// CAS loop per push.
  void push(T value) {
    Node* const node = new Node{std::move(value), nullptr};
    // Count BEFORE publishing: a consumer that pops the node and decrements
    // first would wrap the counter below zero, and a wait predicate reading
    // the wrapped value sees a huge backlog in an empty queue.
    depth_.fetch_add(1, std::memory_order_release);
    // Link BEFORE publishing: an exchange would expose the node to a
    // concurrently-draining consumer while its `next` still points
    // nowhere, truncating the stack behind it.
    Node* old_head = head_.load(std::memory_order_relaxed);
    do {
      node->next = old_head;
    } while (!head_.compare_exchange_weak(old_head, node, std::memory_order_release,
                                          std::memory_order_relaxed));
  }

  /// Single-consumer pop in FIFO order (per producer). Returns false when
  /// the queue is empty at the moment of the drain.
  bool pop(T& out) {
    if (buffer_.empty()) {
      Node* node = head_.exchange(nullptr, std::memory_order_acquire);
      // The stack is LIFO in push order; reversing it into the buffer (and
      // popping the buffer back-to-front) restores FIFO.
      while (node != nullptr) {
        buffer_.push_back(std::move(node->value));
        Node* const next = node->next;
        delete node;
        node = next;
      }
    }
    if (buffer_.empty()) return false;
    out = std::move(buffer_.back());
    buffer_.pop_back();
    depth_.fetch_sub(1, std::memory_order_release);
    return true;
  }

  /// Racy by nature (producers move it concurrently) but exact when no
  /// producer is mid-push — good for wait predicates and depth metrics.
  [[nodiscard]] std::size_t approx_size() const {
    return depth_.load(std::memory_order_acquire);
  }

 private:
  struct Node {
    T value;
    Node* next = nullptr;
  };

  std::atomic<Node*> head_{nullptr};
  std::atomic<std::size_t> depth_{0};
  std::vector<T> buffer_;  ///< consumer-private, reversed drain order
};

}  // namespace netent::common
