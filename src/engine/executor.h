// Executors: how a placed plan's tasks get CPU time.
//
// Both executors drive tasks only through Task::Poll, and each decides
// the in-flight cap of the channels it runs (the producer-full
// threshold a task parks at). ThreadPerTaskExecutor is the legacy
// model — one dedicated OS thread per instance polling its task,
// spinning on back-pressure, channels filled to ring capacity.
// WorkerPoolExecutor is the native model: one worker
// group per plan socket (sized from the machine's cores-per-socket,
// capped by the host), each worker owning a bounded run-queue deque of
// Task::Poll quanta with morsel-style work stealing between workers
// (intra-socket first, cross-socket as a last resort), a
// spin→yield→park wait strategy, and Waker hints from the channels —
// so RLAS placement is honored at execution time as an affinity, and
// replication ≫ cores no longer collapses into OS scheduler thrash or
// onto the slowest socket group under skew.
#pragma once

#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/channel.h"
#include "engine/config.h"
#include "engine/task.h"
#include "engine/waker.h"
#include "hardware/machine_spec.h"

namespace brisk::hw {
class ArenaSet;
}  // namespace brisk::hw

namespace brisk::engine {

/// Aggregate executor-side counters for one run.
struct ExecutorStats {
  int threads = 0;        ///< OS threads the executor spawned
  int worker_groups = 0;  ///< socket groups (0 for thread-per-task)
  uint64_t parks = 0;     ///< times an idle worker parked on its Waker
  uint64_t wakes = 0;     ///< parks ended by a Notify (vs timeout)
  uint64_t steals_intra = 0;  ///< tasks taken from same-socket siblings
  uint64_t steals_cross = 0;  ///< tasks taken across socket groups
  uint64_t steal_failures = 0;  ///< idle steal rounds with no victim
  uint64_t repatriations = 0;  ///< idle migrants sent back home

  /// Per-worker run-queue depth at the time of the stats() call (the
  /// supervisor's view of scheduler load; empty for thread-per-task).
  /// A snapshot, not a counter: AccumulateCounters keeps the live
  /// epoch's shape.
  std::vector<size_t> queue_depths;

  /// Folds a finished epoch's counters into a running total. A live
  /// migration tears the executor down and stands up a new one per
  /// plan epoch; the run-level report keeps the latest epoch's shape
  /// (threads, worker groups, queue depths) but cumulative park/wake/
  /// steal counts — dropping steal counters here would zero the
  /// scheduler's history on every migration.
  void AccumulateCounters(const ExecutorStats& o) {
    parks += o.parks;
    wakes += o.wakes;
    steals_intra += o.steals_intra;
    steals_cross += o.steals_cross;
    steal_failures += o.steal_failures;
    repatriations += o.repatriations;
  }
};

/// CPU for a thread serving `slot` (0-based) on plan socket `socket`:
/// socket-major layout (socket × cores_per_socket + slot), wrapped to
/// the host's real cores. `cores_per_socket <= 0` (no machine spec)
/// degrades to treating the host as one socket.
int PinCpuForSocketSlot(int socket, int slot, int cores_per_socket,
                        int host_cores);

/// Worker-group size per socket: the config override, else the
/// machine's cores-per-socket capped by the host's real core count
/// split across the plan's sockets — an emulated many-socket plan on a
/// small host never spawns more workers than cores.
int WorkersPerSocketFor(const EngineConfig& config,
                        const hw::MachineSpec* machine, int sockets_used);

class Executor {
 public:
  virtual ~Executor() = default;

  /// Spawns execution threads. Tasks must already be Bind()-ed.
  virtual Status Start() = 0;

  /// Wakes every parked worker so a freshly flipped stop signal is
  /// observed promptly. No-op for thread-per-task.
  virtual void NotifyAll() {}

  /// Joins all threads; requires StopSignals::stop_all set.
  virtual void Join() = 0;

  virtual ExecutorStats stats() const = 0;

  /// One monotonically increasing counter per worker thread, bumped on
  /// every scheduling pass — the supervisor's liveness signal: a
  /// counter that stops advancing while the worker's tasks hold
  /// backlog means the worker (not the workload) is stuck. Executors
  /// without a central loop (thread-per-task) return empty; liveness
  /// then falls back to per-task progress counters.
  virtual std::vector<uint64_t> Heartbeats() const { return {}; }

  /// Per-worker run-queue depths, racy snapshot (pool mode only).
  /// Paired with Heartbeats(): a frozen heartbeat while the same
  /// worker's depth stays > 0 is a stuck worker, not an idle one.
  virtual std::vector<size_t> QueueDepths() const { return {}; }
};

/// Builds the executor selected by `config.executor`. `machine` (the
/// deployed MachineSpec, nullable) supplies cores-per-socket for
/// pinning and worker sizing; `channels` get Waker hints wired in pool
/// mode; `arenas` (nullable) supplies the detected host topology for
/// node-aware pinning. All pointers must
/// outlive the executor.
std::unique_ptr<Executor> MakeExecutor(const EngineConfig& config,
                                       StopSignals* signals,
                                       std::vector<Task*> tasks,
                                       std::vector<Channel*> channels,
                                       const hw::MachineSpec* machine,
                                       hw::ArenaSet* arenas = nullptr);

}  // namespace brisk::engine
