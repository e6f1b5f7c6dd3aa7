// End-to-end coverage of the BatchPool protocol, the engine's one way
// of reusing JumboTuple shells: a consumer task drains a batch
// (Task::Consume), hands the empty shell back through the channel's
// reverse queue (Channel::Recycle), and the producer task — on another
// pool worker — reuses it at its next flush (Channel::TryPopRecycled).
//
// Every batch a producer pushes is either a recycled shell
// (batches_recycled) or a fresh allocation, so
// Σ(batches_out − batches_recycled) counts the shells the whole job
// ever allocated. A channel holds at most its ring's worth of batches
// plus one in the consumer's hands and one being filled, so with the
// pool working that count stays under channels × (ring capacity + 2)
// no matter how long the job runs.
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/word_count.h"
#include "common/logging.h"
#include "engine/runtime.h"
#include "model/execution_plan.h"

namespace brisk::engine {
namespace {

struct WcJob {
  std::shared_ptr<SinkTelemetry> telemetry;
  std::shared_ptr<const api::Topology> topo;
  std::unique_ptr<BriskRuntime> rt;
  size_t channels = 0;
};

/// Saturated word count (spout → parser → splitter → 2 counters →
/// sink) on two plan sockets, so the pool runs at least two workers
/// and producers and consumers sit on different ones.
WcJob MakeWcJob(EngineConfig config) {
  WcJob job;
  job.telemetry = std::make_shared<SinkTelemetry>();
  auto topo = apps::BuildWordCountDsl(job.telemetry);
  BRISK_CHECK(topo.ok()) << topo.status().ToString();
  job.topo = std::make_shared<const api::Topology>(std::move(topo).value());
  auto plan_or = model::ExecutionPlan::Create(job.topo.get(), {1, 1, 1, 2, 1});
  BRISK_CHECK(plan_or.ok()) << plan_or.status().ToString();
  model::ExecutionPlan plan = std::move(plan_or).value();
  for (int i = 0; i < plan.num_instances(); ++i) plan.SetSocket(i, i % 2);
  // One channel per (producer replica, consumer replica) of each edge,
  // as BriskRuntime::WireGraph wires them.
  for (const auto& e : job.topo->edges()) {
    const int consumers = e.grouping == api::GroupingType::kGlobal
                              ? 1
                              : plan.replication(e.consumer_op);
    job.channels += static_cast<size_t>(plan.replication(e.producer_op)) *
                    static_cast<size_t>(consumers);
  }
  auto rt = BriskRuntime::Create(job.topo.get(), plan, config);
  BRISK_CHECK(rt.ok()) << rt.status().ToString();
  job.rt = std::move(rt).value();
  return job;
}

struct BatchTotals {
  uint64_t out = 0;
  uint64_t recycled = 0;
};

BatchTotals Sum(const RunStats& stats) {
  BatchTotals t;
  for (const TaskStats& s : stats.tasks) {
    t.out += s.batches_out;
    t.recycled += s.batches_recycled;
  }
  return t;
}

/// Runs the job for at least `min_s`, and past that until producers
/// have pushed `min_batches` batches (sanitizer builds run slower) or
/// 20 s have gone by; returns the live counters.
BatchTotals RunSaturated(BriskRuntime* rt, double min_s,
                         uint64_t min_batches) {
  EXPECT_TRUE(rt->Start().ok());
  const auto t0 = std::chrono::steady_clock::now();
  BatchTotals totals;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    totals = Sum(rt->SnapshotStats());
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    if (elapsed >= 20.0) break;
    if (elapsed >= min_s && totals.out >= min_batches) break;
  }
  rt->Stop();
  return totals;
}

TEST(BatchRecycleTest, PoolBoundsShellAllocationsOnTheWorkerPool) {
  EngineConfig config = EngineConfig::Brisk();
  config.executor = ExecutorKind::kWorkerPool;
  config.workers_per_socket = 1;  // two plan sockets → two workers
  config.seed = 7;
  ASSERT_TRUE(config.recycle_batches);
  WcJob job = MakeWcJob(config);
  ASSERT_EQ(job.channels, 6u);

  const uint64_t bound = job.channels * (config.queue_capacity + 2);
  // Push well past the bound, so a leak of even one shell per hundred
  // flushes would exceed it.
  const BatchTotals totals = RunSaturated(job.rt.get(), 1.0, 10 * bound);
  ASSERT_GE(totals.out, 10 * bound) << "job too slow to fill the pools";
  ASSERT_GE(totals.out, totals.recycled);
  EXPECT_LT(totals.out - totals.recycled, bound)
      << "batches_out " << totals.out << ", batches_recycled "
      << totals.recycled;
  EXPECT_GT(job.telemetry->count(), 0u);
}

TEST(BatchRecycleTest, StormLikeAllocatesEveryBatch) {
  EngineConfig config = EngineConfig::StormLike();
  config.executor = ExecutorKind::kWorkerPool;
  config.workers_per_socket = 1;
  config.seed = 7;
  ASSERT_FALSE(config.recycle_batches);
  WcJob job = MakeWcJob(config);

  const BatchTotals totals = RunSaturated(job.rt.get(), 0.3, 1000);
  EXPECT_GT(totals.out, 0u);
  EXPECT_EQ(totals.recycled, 0u);
}

}  // namespace
}  // namespace brisk::engine
