// BriskRuntime: instantiates a placed execution plan into tasks +
// channels, executes them (worker pool or thread-per-task), reports
// run statistics — and, closing the paper's §5.3 loop, applies live
// plan migrations (ApplyMigration) produced by the dynamic
// re-optimizer without dropping or duplicating a tuple.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/topology.h"
#include "common/status.h"
#include "engine/channel.h"
#include "engine/checkpoint.h"
#include "engine/config.h"
#include "engine/executor.h"
#include "engine/task.h"
#include "hardware/numa_emulator.h"
#include "model/execution_plan.h"
#include "optimizer/dynamic.h"

namespace brisk::hw {
class ArenaSet;
}  // namespace brisk::hw

namespace brisk::engine {

/// Statistics for one engine run.
struct RunStats {
  double duration_s = 0.0;
  std::vector<TaskStats> tasks;  ///< indexed by plan instance id
  uint64_t total_emitted = 0;
  uint64_t total_consumed = 0;
  /// Graceful drain reached quiescence before stopping (always false
  /// when EngineConfig::graceful_drain is off).
  bool drained = false;
  double drain_seconds = 0.0;
  ExecutorStats executor;

  /// Live migrations applied during the run (plan epochs - 1).
  int migrations = 0;
  /// Checkpoints taken and checkpoint restores performed.
  int checkpoints = 0;
  int restores = 0;
  /// Sticky: some quiesce drain (migration pause, checkpoint pause or
  /// graceful stop) ran past EngineConfig::drain_timeout_s. The engine
  /// recovered via the residual sweep, but the timeout budget was
  /// blown — surfaced so callers can treat it as a soft failure.
  bool drain_timed_out = false;
  /// Per-operator counters accumulated across migration epochs,
  /// indexed by topology operator id: surviving replicas carry their
  /// counters across epochs and retired replicas fold in here at
  /// migration time, so edge-conservation invariants (splitter out ==
  /// counter in, ...) hold for the whole run no matter how the plan
  /// changed mid-flight. Filled by Stop()/SnapshotStats().
  std::vector<TaskStats> op_totals;
};

/// Liveness/failure view of one task, as sampled by ProbeHealth().
struct TaskHealth {
  int op = -1;
  int replica = 0;
  std::string op_name;
  bool spout = false;
  /// Progress counter: tuples consumed (bolts) / emitted shells seen
  /// (spouts count via tuples_in too — batches are self-consumed).
  uint64_t tuples_in = 0;
  /// Approximate tuples queued on this task's input channels.
  uint64_t backlog = 0;
  /// Envelopes parked on back-pressure inside the task.
  size_t pending_live = 0;
  /// The task contained an operator failure (exception or injected
  /// crash) and retired itself; `failure_message` says which operator
  /// replica threw and why.
  bool failed = false;
  std::string failure_message;
};

/// One supervisor probe: per-task health plus executor liveness.
struct HealthReport {
  bool running = false;
  /// A migration/restore failed past its point of no return; the
  /// engine is down until Restore() revives it.
  bool dead = false;
  std::vector<TaskHealth> tasks;
  /// Per-worker scheduling-pass counters (empty for thread-per-task).
  std::vector<uint64_t> worker_heartbeats;
  /// Per-worker run-queue depths, sampled with the heartbeats: a
  /// frozen heartbeat is only a stuck *worker* if that worker still
  /// holds queued tasks (empty for thread-per-task).
  std::vector<size_t> worker_queue_depths;
};

/// Owns tasks, channels and the executor for one deployed application.
///
/// Lifecycle: Create() -> Start() -> (workload runs, ApplyMigration()
/// zero or more times) -> Stop(). Start/Stop/ApplyMigration/
/// SnapshotStats are serialized by an internal mutex, so a controller
/// thread (Job autopilot) can drive migrations while another thread
/// owns Start/Stop. Throughput/latency are observed through the
/// application's SinkTelemetry (common/telemetry.h), which sink
/// operators update.
class BriskRuntime {
 public:
  /// Builds the runtime: instantiates every operator replica via its
  /// factory, wires one SPSC channel per (producer instance, consumer
  /// instance) edge, and prepares operators. The plan must be fully
  /// placed; the topology must outlive the runtime.
  static StatusOr<std::unique_ptr<BriskRuntime>> Create(
      const api::Topology* topo, const model::ExecutionPlan& plan,
      EngineConfig config, const hw::NumaEmulator* numa = nullptr);

  ~BriskRuntime();

  BriskRuntime(const BriskRuntime&) = delete;
  BriskRuntime& operator=(const BriskRuntime&) = delete;

  /// Stands up the configured executor (EngineConfig::executor): a
  /// socket-aware worker pool honoring the plan's placement, or one
  /// thread per task. Idempotent-error: fails if running.
  Status Start();

  /// Stops the engine and returns run statistics. With graceful_drain,
  /// spouts stop first and bolts drain in-flight envelopes (bounded by
  /// drain_timeout_s) before everything halts, so a bounded source's
  /// tuples all reach the sink.
  RunStats Stop();

  /// Convenience: Start, sleep `seconds` of wall-clock, Stop.
  StatusOr<RunStats> RunFor(double seconds);

  /// Live pause-and-migrate re-planning (§5.3): executes a
  /// MigrationPlan (kMove/kStart/kStop steps, as produced by
  /// DynamicReoptimizer/DiffPlans against the plan this runtime is
  /// currently running) on the live job. The protocol:
  ///
  ///   1. quiesce — spouts stop at a batch boundary, bolts drain
  ///      in-flight envelopes (the PR-4 park machinery idles the
  ///      workers), the executor joins;
  ///   2. residual sweep — repeated topological DrainResidual passes
  ///      push every remaining staged/parked/queued tuple through to
  ///      the sinks (operators are NOT flushed: the job continues);
  ///   3. harvest — operator instances move out of their tasks,
  ///      keeping all internal state; replicas of operators whose
  ///      replication changes export their keyed state
  ///      (api::Operator::ExportKeyedState);
  ///   4. rebuild — tasks and channels are rewired against the new
  ///      plan; surviving (op, replica) identities adopt their old
  ///      operator instance and cumulative stats, new replicas are
  ///      constructed and Prepared, retired replicas fold their stats
  ///      into the per-operator totals;
  ///   5. re-partition — exported keyed state is re-bucketed with the
  ///      fields-grouping hash over the new replica count and imported
  ///      into its new owners;
  ///   6. resume — a fresh executor (same ExecutorKind) starts, with
  ///      thread pinning derived from the *new* socket assignment.
  ///
  /// Step validation happens before the pause, so a rejected
  /// migration leaves the job running undisturbed. Fails if the
  /// engine is not running.
  Status ApplyMigration(const opt::MigrationPlan& migration);

  /// The plan currently executing (the migrated plan after
  /// ApplyMigration). Callers must not retain the reference across
  /// migrations.
  const model::ExecutionPlan& plan() const { return plan_; }

  /// Monotonic plan-epoch counter: 0 after Create, +1 per applied
  /// migration. A statistics observer uses it to notice that per-task
  /// indices changed under it.
  int epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Race-free snapshot of the running job's counters (tasks indexed
  /// by the *current* plan's instance ids, per-op totals across
  /// epochs) without stopping anything — the §5.3 "statistics are
  /// periodically collected during runtime" hook the autopilot feeds
  /// from.
  RunStats SnapshotStats();

  /// Takes a consistent snapshot of the running job: quiesces with the
  /// pause-and-migrate machinery (spouts stop at a batch boundary,
  /// in-flight envelopes drain/sweep to the sinks), captures every
  /// bolt's keyed state (api::Operator::SnapshotKeyedState — non-
  /// destructive) and every source's replay position, then resumes on
  /// a fresh executor. The pause cost is reported in
  /// JobCheckpoint::pause_seconds. Fails if the engine is not running.
  StatusOr<JobCheckpoint> Checkpoint();

  /// Recovers the job from `cp`: hard-halts whatever is left of the
  /// current graph (no drain — a failed graph may be wedged), folds
  /// its counters into the per-op totals, rebuilds tasks + channels to
  /// the checkpoint's plan with all-fresh operators, restores keyed
  /// state (re-bucketed by the fields-grouping hash), rewinds
  /// replayable sources to the captured positions and resumes.
  /// Delivery is at-least-once: tuples produced after the checkpoint
  /// replay. `replayed_tuples` (nullable) receives the total source
  /// positions rolled back — the duplicate-emission window. Valid from
  /// both a running (partially failed) and a dead engine.
  Status Restore(const JobCheckpoint& cp,
                 uint64_t* replayed_tuples = nullptr);

  /// Race-free liveness sample for the supervisor: per-task progress
  /// counters, input backlog, parked envelopes and contained-failure
  /// state, plus per-worker executor heartbeats.
  HealthReport ProbeHealth();

  int num_tasks() const { return static_cast<int>(tasks_.size()); }

 private:
  BriskRuntime() = default;

  /// Instantiates tasks + channels for `plan` and prepares operators.
  /// `reuse` (nullable) supplies the surviving operator instance and
  /// cumulative stats for an (op, replica) identity; fresh instances
  /// come from the topology factories and get Prepared.
  struct Harvested {
    std::unique_ptr<api::Spout> spout;
    std::unique_ptr<api::Operator> bolt;
    TaskStats stats;
    bool valid = false;
  };
  Status WireGraph(const model::ExecutionPlan& plan,
                   const std::function<Harvested(int op, int replica)>& reuse);

  /// Binds tasks and stands up a fresh executor for the current graph.
  Status StartExecutor();

  /// Stops spouts, waits for drain, halts and joins the executor, and
  /// folds its counters into the accumulated totals. Returns whether
  /// the drain reached quiescence (vs timed out). With
  /// `preserve_inflight` (the migration pause), the halt parks
  /// batches that would otherwise drop on a full ring, so the
  /// residual sweep can deliver them; plain Stop() keeps the legacy
  /// drop-at-halt semantics.
  bool QuiesceAndJoin(double* drain_seconds, bool preserve_inflight);

  /// Halts (stop_all), joins, and folds the executor's counters into
  /// the accumulated totals — the epilogue shared by every teardown.
  void JoinExecutorAndFold();

  /// Repeated topological DrainResidual passes until every channel is
  /// empty and nothing is parked (single-threaded; executor joined).
  void SweepResiduals();

  /// Polls until every channel is empty and consumption has stopped
  /// advancing (or `timeout_s` elapses). Spouts must already be
  /// stopped. Returns true on quiescence.
  bool WaitForDrain(double timeout_s);

  /// Sums current task stats (plus retired-replica carry-overs) into
  /// per-operator totals.
  std::vector<TaskStats> OpTotals() const;

  /// Fills the run-level counters every reporting path shares:
  /// duration since Start, migration count, per-task snapshots,
  /// cross-epoch per-op totals and the emitted/consumed sums.
  /// (ExecutorStats are the caller's concern — they are only safely
  /// readable once the executor joined.)
  void CollectStats(RunStats* stats) const;

  const api::Topology* topo_ = nullptr;
  EngineConfig config_;
  const hw::NumaEmulator* numa_ = nullptr;
  /// Per-plan-socket NUMA arenas backing channel rings (null when
  /// EngineConfig::numa_arena is off). Declared before channels_:
  /// members destroy in reverse order, so the arenas outlive every
  /// ring they handed out.
  std::unique_ptr<hw::ArenaSet> arenas_;
  model::ExecutionPlan plan_;  ///< the plan currently wired/running
  std::vector<int> instance_sockets_;
  std::vector<int> instance_op_;  ///< operator id per instance
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::unique_ptr<Executor> executor_;
  StopSignals signals_;
  bool running_ = false;
  /// A migration failed past its point of no return: the engine is
  /// down but its counters are still reportable through Stop().
  bool dead_ = false;
  std::chrono::steady_clock::time_point started_at_;

  /// Serializes Start/Stop/ApplyMigration/SnapshotStats.
  std::mutex lifecycle_mu_;
  std::atomic<int> epoch_{0};
  int migrations_ = 0;
  int checkpoints_ = 0;
  int restores_ = 0;
  /// Sticky drain-timeout flag (see RunStats::drain_timed_out).
  bool drain_timed_out_ = false;
  /// Fire count per EngineConfig::faults spec, accumulated across
  /// graph rebuilds (fresh tasks would otherwise re-arm and re-fire a
  /// one-shot fault after every recovery). Harvested from the old
  /// tasks at the top of WireGraph; arming honors trigger_limit.
  std::vector<int> fault_fires_;
  /// Stats of replicas retired by migrations, folded per operator.
  std::vector<TaskStats> retired_op_stats_;
  /// Park/wake counters of executors torn down by migrations.
  ExecutorStats retired_executor_;
};

}  // namespace brisk::engine
