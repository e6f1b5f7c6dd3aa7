// Engine execution modes (§5, §6.5).
//
// BriskStream's own runtime passes tuple references through SPSC queues
// in jumbo-tuple batches. The legacy toggles re-introduce, as *real
// work*, the overheads distributed DSPSs pay per tuple — serialization,
// duplicated per-tuple headers and temporary objects, extra condition
// checking — which is how the Fig. 6/8/16 comparisons are reproduced on
// one machine.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "engine/fault.h"

namespace brisk::engine {

/// Spout token-bucket burst capacity, shared by the real engine
/// (Task::PollSpout) and the simulator so the model never drifts from
/// the runtime it predicts: enough headroom to recover the budget
/// accrued across a scheduler stall (tens of ms on a loaded host),
/// never less than a few batches.
inline constexpr double kSpoutBurstBatches = 4.0;
inline constexpr double kSpoutBurstHeadroomSec = 0.1;

inline double SpoutBurstCap(int batch_size, double rate_tps) {
  return std::max(kSpoutBurstBatches * batch_size,
                  kSpoutBurstHeadroomSec * rate_tps);
}

/// How placed instances are executed:
///   kWorkerPool    — one worker group per plan socket (sized from the
///                    machine's cores-per-socket, capped by the host),
///                    cooperatively round-robining Task::Poll quanta so
///                    replication ≫ cores never oversubscribes the OS
///                    scheduler. This is the native mode.
///   kThreadPerTask — the legacy model: one dedicated OS thread per
///                    instance polling Task::Poll, spinning on
///                    back-pressure. Kept for A/B benching
///                    (bench_executor) and as the behavioral reference.
enum class ExecutorKind { kThreadPerTask, kWorkerPool };

inline const char* ExecutorKindName(ExecutorKind kind) {
  return kind == ExecutorKind::kWorkerPool ? "worker-pool"
                                           : "thread-per-task";
}

struct EngineConfig {
  /// Tuples per jumbo tuple (§5.2); 1 disables batching.
  int batch_size = 64;

  /// Per-edge queue capacity in batches; full queues exert
  /// back-pressure on the producer.
  size_t queue_capacity = 128;

  /// Serialize every batch at the producer and deserialize at the
  /// consumer (what a cross-process runtime must do).
  bool serialize_tuples = false;

  /// Allocate + fill a per-tuple header object (duplicate metadata a
  /// jumbo tuple would share; §5.2).
  bool duplicate_headers = false;

  /// Run the per-tuple guard/bookkeeping work whose instruction
  /// footprint §5.1 eliminates (exception scaffolding, config checks).
  bool extra_condition_checks = false;

  /// Recycle drained JumboTuple batches back to the producer through
  /// the channel's return queue (BatchPool) instead of freeing them on
  /// the consumer's socket — the engine's one way of reusing batch
  /// shells. Off (the Storm/Flink-like presets) the consumer frees
  /// each drained batch and the producer allocates one per flush.
  bool recycle_batches = true;

  /// Dispatch whole batches through an operator's compiled pipeline
  /// (api::KernelBolt chains) instead of per-tuple Process calls.
  /// Only effective in the pass-by-reference mode (serialization and
  /// the per-tuple legacy overheads force the row-wise path, since
  /// those costs are precisely what they model). Off reproduces the
  /// interpreted engine bit-for-bit — the differential matrix runs
  /// both.
  bool compile_pipelines = true;

  /// Charge Formula-2 remote-fetch stalls (busy-wait) for batches that
  /// cross virtual sockets in the plan (hardware substitution — see
  /// DESIGN.md §1).
  bool numa_emulation = false;

  /// Pin execution threads to physical cores, derived from the plan's
  /// socket assignment (socket × cores-per-socket + slot) so RLAS
  /// placement is honored by the OS too. Meaningful only when the host
  /// has enough cores; defaults off for CI-sized machines.
  bool pin_threads = false;

  /// External ingress rate per topology (tuples/sec), 0 = saturated.
  double spout_rate_tps = 0.0;

  /// Job-level determinism seed. Nonzero: every operator replica
  /// receives a stable per-replica seed in OperatorContext::seed
  /// (DeriveSeed(seed, op, replica)), so seed-honoring sources make
  /// the whole run reproducible — the determinism the differential
  /// test layer builds on. 0 = unseeded (sources use their own
  /// workload-parameter defaults).
  uint64_t seed = 0;

  /// Execution model (see ExecutorKind).
  ExecutorKind executor = ExecutorKind::kWorkerPool;

  /// Worker threads per socket group in kWorkerPool mode. 0 derives it
  /// from the deployed MachineSpec's cores-per-socket, capped by the
  /// host's real core count split across the plan's sockets (so an
  /// emulated 8-socket plan on a laptop never spawns 144 workers).
  int workers_per_socket = 0;

  /// Worker-pool producers treat a channel already holding this many
  /// undelivered batches as full and park the next one (cooperative
  /// back-pressure) instead of filling the whole ring. This bounds the
  /// cold in-flight inventory so batches are consumed cache-warm soon
  /// after production — with deep rings a single core otherwise
  /// accumulates megabytes of queued tuples and pays a capacity miss
  /// per batch. Clamped to queue_capacity; <= 0 disables the cap.
  /// The pool applies it as each channel's producer-full threshold.
  /// (Thread-per-task mode ignores it: parking is what makes a short
  /// effective queue cheap, and legacy spinning would burn cores.)
  int pool_inflight_batches = 16;

  /// Morsel-style work stealing between pool workers: a worker whose
  /// own run queue yields no progress steals the least-recently-polled
  /// task from the deepest sibling in its socket group, and only after
  /// a few consecutive failed intra-socket rounds reaches across
  /// sockets — RLAS placement stays an affinity, not a straitjacket.
  /// Off pins every task to the worker the round-robin distribution
  /// gave it (the pre-stealing behavior, kept for A/B benching).
  bool steal_work = true;

  /// Back channel ring storage with per-plan-socket hugepage-backed
  /// arenas (hw::NumaArena) on the consumer's socket, mbind-placed on
  /// real multi-node hosts and first-touch everywhere else. Off =
  /// global allocator for everything (legacy modes keep it off:
  /// allocation cost is part of what they model).
  bool numa_arena = true;

  /// Stop() stops spouts first and lets bolts drain in-flight
  /// envelopes (bounded by drain_timeout_s) before halting, so a
  /// bounded source's tuples all reach the sink instead of being
  /// dropped with the queues.
  bool graceful_drain = true;
  double drain_timeout_s = 1.0;

  /// Injected failure scenario (engine/fault.h). Empty = no faults.
  /// Deterministic under `seed`: triggers are tuple-count based, so a
  /// seeded job fails identically on every run.
  FaultPlan faults;

  /// BriskStream's native configuration.
  static EngineConfig Brisk() { return EngineConfig{}; }

  /// Brisk minus jumbo tuples (Fig. 16's middle step).
  static EngineConfig BriskNoJumbo() {
    EngineConfig c;
    c.batch_size = 1;
    c.queue_capacity = 4096;
    return c;
  }

  /// Storm-like: per-tuple serialization, duplicated headers, extra
  /// condition checks, no jumbo batching.
  static EngineConfig StormLike() {
    EngineConfig c;
    c.batch_size = 4;  // Storm's small executor transfer batches
    c.queue_capacity = 1024;
    c.serialize_tuples = true;
    c.duplicate_headers = true;
    c.extra_condition_checks = true;
    c.recycle_batches = false;  // legacy runtimes allocate per transfer
    c.compile_pipelines = false;
    c.steal_work = false;  // legacy schedulers hash-pin executors
    c.numa_arena = false;
    return c;
  }

  /// Flink-like: network-stack serialization with larger buffers but
  /// still per-tuple headers.
  static EngineConfig FlinkLike() {
    EngineConfig c;
    c.batch_size = 16;
    c.queue_capacity = 512;
    c.serialize_tuples = true;
    c.duplicate_headers = true;
    c.recycle_batches = false;  // legacy runtimes allocate per transfer
    c.compile_pipelines = false;
    c.steal_work = false;  // legacy schedulers hash-pin executors
    c.numa_arena = false;
    return c;
  }
};

}  // namespace brisk::engine
