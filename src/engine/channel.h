// Inter-task channel: a bounded SPSC queue of envelopes, one per
// directed (producer instance → consumer instance) edge, paired with a
// reverse SPSC queue that recycles drained JumboTuple batches back to
// the producer (the BatchPool protocol — the engine's one way of
// reusing batch shells).
//
// Ownership protocol: the producer task allocates (or reuses) a batch,
// fills it, and pushes it downstream; the consumer drains it, calls
// Reset(), and hands the empty shell back through Recycle(). The
// producer prefers recycled shells in TryPopRecycled() over the
// allocator, so a channel allocates shells only until its pool holds
// every batch that can be in flight (ring capacity + 1), and nothing
// after — and, just as important on a NUMA machine, batches are freed
// by the socket that allocated them instead of cross-socket. With
// EngineConfig::recycle_batches off (the Storm/Flink-like presets)
// the consumer frees each drained batch and the producer allocates a
// fresh one per flush, which is the overhead those runtimes model.
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <vector>

#include "common/spsc_queue.h"
#include "common/tuple.h"
#include "engine/waker.h"

namespace brisk::engine {

/// What actually travels through a queue: a jumbo-tuple batch
/// (BriskStream's pass-by-reference path, Appendix A). Legacy modes
/// carry their serialized payload inside the batch (JumboTuple::bytes),
/// so the envelope itself is just a pointer plus two scalars and moves
/// trivially through the ring buffer.
struct Envelope {
  JumboTuplePtr batch;
  uint32_t count = 0;
  int32_t from_instance = -1;
};

class Channel {
 public:
  /// `ring_memory` backs both ring buffers' slot storage; the runtime
  /// passes the *consumer* socket's NumaArena so a batch pointer is
  /// read from memory local to the socket that pops it. The resource
  /// must outlive the channel (arena lifetime rule: arenas are owned by
  /// the runtime and destroyed after every channel and task).
  Channel(int from_instance, int to_instance, size_t capacity,
          std::pmr::memory_resource* ring_memory =
              std::pmr::get_default_resource())
      : from_instance_(from_instance),
        to_instance_(to_instance),
        queue_(capacity, ring_memory),
        recycled_(capacity + 1, ring_memory) {
    producer_full_threshold_ = queue_.capacity();
  }

  int from_instance() const { return from_instance_; }
  int to_instance() const { return to_instance_; }

  /// Only moves from `e` on success (safe to retry in a spin loop).
  /// Pushing into an empty queue wakes the consumer's worker (pool
  /// mode); under saturation the queue is never empty, so the hint is
  /// off the hot path.
  bool TryPush(Envelope&& e) {
    if (consumer_waker_ == nullptr) return queue_.TryPush(std::move(e));
    const bool was_empty = queue_.EmptyApprox();
    if (!queue_.TryPush(std::move(e))) return false;
    if (was_empty) consumer_waker_->Notify();
    return true;
  }

  /// Popping from a full queue wakes the producer's worker: it may be
  /// parked with a batch waiting on back-pressure (PollResult::kBlocked)
  /// and the pop just made room. "Full" is the producer's view
  /// (producer_full_threshold).
  bool TryPop(Envelope* e) {
    if (producer_waker_ == nullptr) return queue_.TryPop(e);
    const bool was_full = queue_.SizeApprox() >= producer_full_threshold_;
    if (!queue_.TryPop(e)) return false;
    if (was_full) producer_waker_->Notify();
    return true;
  }

  size_t SizeApprox() const { return queue_.SizeApprox(); }
  /// Racy emptiness probe for the quiesce monitors (graceful drain and
  /// the migration pause protocol).
  bool EmptyApprox() const { return queue_.EmptyApprox(); }

  /// Worker-pool wiring (pre-start; cleared when the pool shuts down).
  /// The refs are per task *instance*, not per worker: the executor
  /// repoints them when a steal migrates the endpoint task, so wake
  /// hints keep finding whichever worker currently runs it.
  /// Thread-per-task mode leaves both null and pays one branch.
  void SetWakers(WakerRef* consumer, WakerRef* producer) {
    consumer_waker_ = consumer;
    producer_waker_ = producer;
  }

  /// Occupancy at which the producer considers this channel full: its
  /// task parks the next envelope there, and pops crossing below it
  /// wake the producer. The executor that wires the channel decides it
  /// (pre-start): the worker pool sets its in-flight cap
  /// (EngineConfig::pool_inflight_batches), thread-per-task keeps the
  /// ring capacity.
  void SetProducerFullThreshold(size_t batches) {
    producer_full_threshold_ = batches;
  }
  size_t producer_full_threshold() const { return producer_full_threshold_; }

  // BatchPool return path. The roles flip: the channel's consumer task
  // produces into the recycle queue, its producer task consumes — so
  // both queues stay single-producer/single-consumer.

  /// Consumer side: hands a drained batch shell back to the producer.
  /// Capacity (envelope capacity + 1) covers every batch that can be
  /// in flight, so this cannot fail in the engine's protocol; if a
  /// caller overfills anyway the batch is simply freed.
  void Recycle(JumboTuplePtr&& batch) {
    // If the pool is unexpectedly full, TryPush leaves `batch` owning
    // and it is freed when the parameter goes out of scope.
    (void)recycled_.TryPush(std::move(batch));
  }

  /// Producer side: fetches an empty recycled batch, if any.
  bool TryPopRecycled(JumboTuplePtr* batch) {
    return recycled_.TryPop(batch);
  }

 private:
  int from_instance_;
  int to_instance_;
  SpscQueue<Envelope> queue_;
  SpscQueue<JumboTuplePtr> recycled_;
  WakerRef* consumer_waker_ = nullptr;
  WakerRef* producer_waker_ = nullptr;
  size_t producer_full_threshold_ = 0;  // set to ring capacity in ctor
};

}  // namespace brisk::engine
