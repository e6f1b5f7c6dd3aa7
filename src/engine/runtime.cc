#include "engine/runtime.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory_resource>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/tuple.h"
#include "hardware/numa_arena.h"
#include "hardware/topology.h"

namespace brisk::engine {

StatusOr<std::unique_ptr<BriskRuntime>> BriskRuntime::Create(
    const api::Topology* topo, const model::ExecutionPlan& plan,
    EngineConfig config, const hw::NumaEmulator* numa) {
  if (topo == nullptr) return Status::InvalidArgument("null topology");
  if (!plan.FullyPlaced()) {
    return Status::FailedPrecondition(
        "cannot deploy a plan with unplaced instances");
  }
  if (config.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }

  auto rt = std::unique_ptr<BriskRuntime>(new BriskRuntime());
  rt->topo_ = topo;
  rt->config_ = config;
  rt->numa_ = numa;
  rt->retired_op_stats_.resize(topo->num_operators());
  if (config.numa_arena) {
    // One hugepage-backed arena per plan socket, bound to a real NUMA
    // node when the host has several. Channel rings allocate from the
    // consumer's arena, so the slots a task pops sit on the socket
    // RLAS placed it on.
    rt->arenas_ = std::make_unique<hw::ArenaSet>(
        hw::DetectHostTopology(), hw::kArenaChunkBytes);
  }
  BRISK_RETURN_NOT_OK(rt->WireGraph(plan, nullptr));
  return rt;
}

Status BriskRuntime::WireGraph(
    const model::ExecutionPlan& plan,
    const std::function<Harvested(int op, int replica)>& reuse) {
  // Fault fire-counts survive rebuilds: harvest what the outgoing
  // tasks fired before dropping them (every rebuild path joins the
  // executor first, so the fired flags are stable). Without this a
  // recovery would re-arm and re-fire the very fault it recovered
  // from, forever.
  if (fault_fires_.size() != config_.faults.specs.size()) {
    fault_fires_.assign(config_.faults.specs.size(), 0);
  }
  for (const auto& task : tasks_) {
    for (const int idx : task->FiredFaultIndices()) ++fault_fires_[idx];
  }
  // Tasks hold raw Channel pointers; drop them first.
  tasks_.clear();
  channels_.clear();

  const int n = plan.num_instances();
  instance_sockets_.assign(n, -1);
  instance_op_.assign(n, -1);
  int spout_instances = 0;
  for (int i = 0; i < n; ++i) {
    instance_sockets_[i] = plan.instance(i).socket;
    instance_op_[i] = plan.instance(i).op;
    if (topo_->op(plan.instance(i).op).is_spout) ++spout_instances;
  }

  // Instantiate tasks: surviving (op, replica) identities adopt their
  // harvested operator instance + cumulative stats, the rest come
  // fresh from the factories.
  std::vector<bool> fresh(n, true);
  for (int i = 0; i < n; ++i) {
    const auto& pi = plan.instance(i);
    const auto& op = topo_->op(pi.op);
    auto task = std::make_unique<Task>(i, pi.socket, config_, numa_);
    task->SetIdentity(pi.op, pi.replica, op.name);
    Harvested h;
    if (reuse) h = reuse(pi.op, pi.replica);
    if (op.is_spout) {
      task->SetSpout(h.valid && h.spout ? std::move(h.spout)
                                        : op.spout_factory());
      task->SetSpoutRate(config_.spout_rate_tps > 0
                             ? config_.spout_rate_tps / spout_instances
                             : 0.0);
    } else {
      task->SetBolt(h.valid && h.bolt ? std::move(h.bolt)
                                      : op.bolt_factory());
    }
    if (h.valid) {
      task->SeedStats(h.stats);
      fresh[i] = false;
    }
    task->SetInstanceSockets(&instance_sockets_);
    tasks_.push_back(std::move(task));
  }

  // Arm injected faults on their target (op, replica), honoring each
  // spec's remaining fire budget. kFailMigration is ApplyMigration's
  // business, not any task's.
  for (size_t fi = 0; fi < config_.faults.specs.size(); ++fi) {
    const FaultSpec& spec = config_.faults.specs[fi];
    if (spec.kind == FaultSpec::Kind::kFailMigration) continue;
    if (fault_fires_[fi] >= spec.trigger_limit) continue;
    if (spec.op < 0 || spec.op >= topo_->num_operators()) continue;
    if (spec.replica < 0 || spec.replica >= plan.replication(spec.op)) {
      continue;
    }
    tasks_[plan.InstanceId(spec.op, spec.replica)]->ArmFault(
        static_cast<int>(fi), spec);
  }

  // Wire channels per topology edge.
  for (const auto& e : topo_->edges()) {
    for (int pr = 0; pr < plan.replication(e.producer_op); ++pr) {
      const int pinst = plan.InstanceId(e.producer_op, pr);
      OutRoute route;
      route.stream_id = e.stream_id;
      route.grouping = e.grouping;
      route.key_field = e.key_field;
      const int consumers = e.grouping == api::GroupingType::kGlobal
                                ? 1
                                : plan.replication(e.consumer_op);
      for (int cr = 0; cr < consumers; ++cr) {
        const int cinst = plan.InstanceId(e.consumer_op, cr);
        std::pmr::memory_resource* ring_memory =
            arenas_ != nullptr
                ? static_cast<std::pmr::memory_resource*>(
                      arenas_->ForSocket(instance_sockets_[cinst]))
                : std::pmr::get_default_resource();
        channels_.push_back(std::make_unique<Channel>(
            pinst, cinst, config_.queue_capacity, ring_memory));
        Channel* ch = channels_.back().get();
        tasks_[cinst]->AddInput(ch);
        route.channels.push_back(ch);
        route.buffer_index.push_back(tasks_[pinst]->AddBuffer());
      }
      tasks_[pinst]->AddOutRoute(std::move(route));
    }
  }

  // Prepare fresh operator instances with their runtime context.
  // Surviving instances were Prepared in the epoch that created them
  // and keep their state — re-preparing would e.g. re-seed a source.
  for (int i = 0; i < n; ++i) {
    if (!fresh[i]) continue;
    const auto& pi = plan.instance(i);
    api::OperatorContext ctx;
    ctx.operator_name = topo_->op(pi.op).name;
    ctx.replica_index = pi.replica;
    ctx.num_replicas = plan.replication(pi.op);
    ctx.socket = pi.socket;
    ctx.seed =
        config_.seed != 0 ? DeriveSeed(config_.seed, pi.op, pi.replica) : 0;
    ctx.output_streams = topo_->op(pi.op).output_streams;
    BRISK_RETURN_NOT_OK(tasks_[i]->Prepare(ctx));
  }
  plan_ = plan;
  return Status::OK();
}

BriskRuntime::~BriskRuntime() {
  if (running_) Stop();
}

Status BriskRuntime::StartExecutor() {
  signals_.stop_all.store(false);
  signals_.stop_spouts.store(false);
  signals_.preserve_inflight.store(false);

  std::vector<Task*> task_ptrs;
  task_ptrs.reserve(tasks_.size());
  for (auto& task : tasks_) {
    task->Bind(&signals_);
    task_ptrs.push_back(task.get());
  }
  std::vector<Channel*> channel_ptrs;
  channel_ptrs.reserve(channels_.size());
  for (auto& ch : channels_) channel_ptrs.push_back(ch.get());

  executor_ = MakeExecutor(config_, &signals_, std::move(task_ptrs),
                           std::move(channel_ptrs),
                           numa_ != nullptr ? &numa_->machine() : nullptr,
                           arenas_.get());
  return executor_->Start();
}

Status BriskRuntime::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (running_) return Status::FailedPrecondition("already running");
  started_at_ = std::chrono::steady_clock::now();
  BRISK_RETURN_NOT_OK(StartExecutor());
  running_ = true;
  return Status::OK();
}

bool BriskRuntime::WaitForDrain(double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  uint64_t last_consumed = ~uint64_t{0};
  int stable_checks = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    bool channels_empty = true;
    for (const auto& ch : channels_) {
      if (!ch->EmptyApprox()) {
        channels_empty = false;
        break;
      }
    }
    // Relaxed reads are fine here: we require the sum to be *stable*
    // across consecutive checks with empty channels and no envelope
    // parked on back-pressure, which only a quiescent engine sustains.
    // (A parked envelope is invisible to the channels — its producer
    // may be waiting out a pool park timeout, longer than our window.)
    uint64_t consumed = 0;
    size_t parked = 0;
    for (const auto& task : tasks_) {
      consumed += task->stats().tuples_in;
      parked += task->pending_live();
    }
    if (channels_empty && parked == 0 && consumed == last_consumed) {
      if (++stable_checks >= 3) return true;
    } else {
      stable_checks = 0;
    }
    last_consumed = consumed;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

void BriskRuntime::JoinExecutorAndFold() {
  signals_.stop_all.store(true);
  executor_->NotifyAll();
  executor_->Join();
  ExecutorStats epoch_stats = executor_->stats();
  epoch_stats.AccumulateCounters(retired_executor_);
  retired_executor_ = epoch_stats;
  executor_.reset();
}

bool BriskRuntime::QuiesceAndJoin(double* drain_seconds,
                                  bool preserve_inflight) {
  const auto drain_start = std::chrono::steady_clock::now();
  signals_.stop_spouts.store(true);
  executor_->NotifyAll();
  const bool drained = WaitForDrain(config_.drain_timeout_s);
  if (!drained) drain_timed_out_ = true;
  if (drain_seconds != nullptr) {
    *drain_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - drain_start)
                         .count();
  }
  // Preserve mode only governs what a push does once it sees the halt
  // (park for the residual sweep instead of dropping), so it flips on
  // between the drain and the halt. Publication order is a contract
  // with Task::PushEnvelope — preserve_inflight stores strictly before
  // stop_all (both seq_cst), and readers check stop_all (acquire)
  // first, so no thread can observe the halt without the preserve
  // mode that governs it.
  if (preserve_inflight) signals_.preserve_inflight.store(true);
  JoinExecutorAndFold();
  return drained;
}

void BriskRuntime::SweepResiduals() {
  // Each pass moves every queued/staged/parked tuple at least one hop
  // (rings freed by downstream consumption within the same pass), so
  // the sweep terminates once the finite in-flight inventory reaches
  // the sinks. The cap is a defensive bound, not an expected exit.
  for (int pass = 0; pass < 64; ++pass) {
    for (const int op : topo_->topological_order()) {
      for (size_t i = 0; i < tasks_.size(); ++i) {
        if (instance_op_[i] == op) tasks_[i]->DrainResidual();
      }
    }
    bool quiescent = true;
    for (const auto& ch : channels_) {
      if (!ch->EmptyApprox()) {
        quiescent = false;
        break;
      }
    }
    if (quiescent) {
      for (const auto& task : tasks_) {
        if (task->pending_live() != 0) {
          quiescent = false;
          break;
        }
      }
    }
    if (quiescent) return;
  }
  BRISK_LOG(Warn) << "residual sweep did not reach quiescence";
}

Status BriskRuntime::ApplyMigration(const opt::MigrationPlan& migration) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!running_) {
    return Status::FailedPrecondition(
        "ApplyMigration requires a running engine");
  }
  if (migration.empty()) return Status::OK();

  // 1. Validate and reconstruct the target plan *before* pausing
  // anything, so a bad migration never disturbs the job.
  BRISK_ASSIGN_OR_RETURN(model::ExecutionPlan next,
                         opt::ApplyStepsToPlan(plan_, migration));

  // An armed kFailMigration fault (with fire budget left) fires at its
  // configured phase of this protocol.
  int fm_index = -1;
  const FaultSpec* fm = nullptr;
  for (size_t fi = 0; fi < config_.faults.specs.size(); ++fi) {
    const FaultSpec& spec = config_.faults.specs[fi];
    if (spec.kind != FaultSpec::Kind::kFailMigration) continue;
    if (fi < fault_fires_.size() && fault_fires_[fi] >= spec.trigger_limit) {
      continue;
    }
    fm_index = static_cast<int>(fi);
    fm = &spec;
    break;
  }
  if (fm != nullptr && fm->at_phase == 0) {
    // Before the pause: a clean rejection, job undisturbed.
    ++fault_fires_[fm_index];
    return Status::Internal(
        "injected migration failure before the pause; job undisturbed");
  }

  // 2. Quiesce at a batch boundary and join the executor (in-flight
  // batches are preserved — parked, not dropped — even if the
  // cooperative drain times out), then sweep residuals to the sinks
  // single-threaded. After this, no tuple is in flight anywhere.
  if (!QuiesceAndJoin(nullptr, /*preserve_inflight=*/true)) {
    BRISK_LOG(Warn) << "migration drain timed out after "
                    << config_.drain_timeout_s
                    << " s; residual sweep delivers the backlog";
  }
  SweepResiduals();

  if (fm != nullptr && fm->at_phase == 1) {
    // After the pause, before the rebuild: nothing was dismantled —
    // the old graph is intact and fully drained, so roll back by
    // resuming it. Zero tuples were lost either way.
    ++fault_fires_[fm_index];
    const Status resumed = StartExecutor();
    if (!resumed.ok()) {
      running_ = false;
      dead_ = true;
      return resumed;
    }
    return Status::Internal(
        "injected migration failure after the pause; rolled back");
  }

  // 3. Harvest operator instances and stats by (op, replica), and
  // export keyed state wherever the replication level changes (the
  // key → replica mapping changes for every key there).
  const model::ExecutionPlan old_plan = plan_;
  std::map<std::pair<int, int>, Harvested> harvested;
  for (size_t i = 0; i < tasks_.size(); ++i) {
    const auto& pi = old_plan.instance(static_cast<int>(i));
    Harvested h;
    h.spout = tasks_[i]->TakeSpout();
    h.bolt = tasks_[i]->TakeBolt();
    h.stats = tasks_[i]->stats();
    h.valid = true;
    harvested[{pi.op, pi.replica}] = std::move(h);
  }
  std::vector<std::vector<api::KeyedStateEntry>> exported(
      topo_->num_operators());
  for (int op = 0; op < topo_->num_operators(); ++op) {
    const int old_repl = old_plan.replication(op);
    const int new_repl = next.replication(op);
    if (old_repl == new_repl) continue;
    for (int r = 0; r < old_repl; ++r) {
      Harvested& h = harvested[{op, r}];
      if (h.bolt != nullptr) {
        auto entries = h.bolt->ExportKeyedState();
        exported[op].insert(exported[op].end(),
                            std::make_move_iterator(entries.begin()),
                            std::make_move_iterator(entries.end()));
      }
      // Retired replicas: counters fold into the per-op totals so
      // run-level conservation invariants keep holding.
      if (r >= new_repl) retired_op_stats_[op].Accumulate(h.stats);
    }
  }

  // 4. Rebuild tasks + channels against the new plan; surviving
  // identities adopt their harvested instance, new replicas Prepare.
  auto reuse = [&harvested](int op, int replica) -> Harvested {
    auto it = harvested.find({op, replica});
    if (it == harvested.end()) return Harvested{};
    return std::move(it->second);
  };
  const Status rebuilt = WireGraph(next, reuse);
  if (!rebuilt.ok()) {
    // Past the point of no return: the executor is down and the old
    // graph was dismantled. Mark the job dead (safe to Stop()/destroy,
    // and Stop still reports the accumulated counters) instead of
    // pretending the old plan still runs.
    running_ = false;
    dead_ = true;
    return rebuilt;
  }

  // 5. Re-partition exported keyed state with the same hash the
  // fields grouping applies to tuples: entry → replica
  // HashField(key) % new_replication.
  for (int op = 0; op < topo_->num_operators(); ++op) {
    if (exported[op].empty()) continue;
    const int new_repl = plan_.replication(op);
    std::vector<std::vector<api::KeyedStateEntry>> buckets(new_repl);
    for (auto& entry : exported[op]) {
      const size_t target =
          HashField(entry.key) % static_cast<size_t>(new_repl);
      buckets[target].push_back(std::move(entry));
    }
    for (int r = 0; r < new_repl; ++r) {
      if (buckets[r].empty()) continue;
      api::Operator* bolt = tasks_[plan_.InstanceId(op, r)]->bolt();
      BRISK_CHECK(bolt != nullptr) << "keyed state exported by a spout";
      bolt->ImportKeyedState(std::move(buckets[r]));
    }
  }

  if (fm != nullptr && fm->at_phase >= 2) {
    // Past the point of no return: the old graph is gone and the new
    // one never starts. The job is down until a checkpoint Restore
    // (the supervisor's recovery path) revives it.
    ++fault_fires_[fm_index];
    running_ = false;
    dead_ = true;
    return Status::Internal(
        "injected migration failure after the rebuild; job down");
  }

  // 6. Resume on a fresh executor honoring the new placement.
  const Status resumed = StartExecutor();
  if (!resumed.ok()) {
    running_ = false;  // as above: quiesced and cannot resume
    dead_ = true;
    return resumed;
  }
  ++migrations_;
  epoch_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

StatusOr<JobCheckpoint> BriskRuntime::Checkpoint() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!running_) {
    return Status::FailedPrecondition("Checkpoint requires a running engine");
  }
  // Source veto, checked before the (expensive) pause: an external
  // non-replayable source (socket without an egress journal) refuses
  // checkpointing outright — a snapshot of its job could never replay
  // the gap, so refusing beats a silently-inconsistent capture.
  for (const auto& task : tasks_) {
    if (api::Spout* spout = task->spout()) {
      const Status guard = spout->CheckpointGuard();
      if (!guard.ok()) return guard;
    }
  }
  const auto pause_start = std::chrono::steady_clock::now();
  // Same pause as a migration: quiesce at a batch boundary preserving
  // in-flight envelopes, then sweep residuals to the sinks. After the
  // sweep, keyed state and source positions are mutually consistent —
  // every produced tuple has fully taken effect, none is half-applied.
  if (!QuiesceAndJoin(nullptr, /*preserve_inflight=*/true)) {
    BRISK_LOG(Warn) << "checkpoint drain timed out after "
                    << config_.drain_timeout_s
                    << " s; residual sweep delivers the backlog";
  }
  SweepResiduals();

  // Consistency guard: a snapshot is only valid if every produced
  // tuple reached its state. A failed replica discards the input the
  // sweep hands it, and a wedged push keeps its envelope parked past
  // the sweep — either way the source positions would run ahead of the
  // captured state, and restoring such a snapshot would silently lose
  // the gap. Refuse, resume, and let the supervisor keep its last good
  // checkpoint (it is about to detect the failure anyway).
  bool consistent = true;
  for (const auto& task : tasks_) {
    if (task->failed() || task->pending_live() != 0) {
      consistent = false;
      break;
    }
  }
  for (const auto& ch : channels_) {
    if (!ch->EmptyApprox()) {
      consistent = false;
      break;
    }
  }
  if (!consistent) {
    const Status resumed = StartExecutor();
    if (!resumed.ok()) {
      running_ = false;
      dead_ = true;
      return resumed;
    }
    return Status::Unavailable(
        "checkpoint refused: a replica failed or holds undelivered input, "
        "so captured state would trail the source positions");
  }

  JobCheckpoint cp;
  cp.epoch = epoch_.load(std::memory_order_acquire);
  cp.plan = plan_;
  for (size_t i = 0; i < tasks_.size(); ++i) {
    const auto& pi = plan_.instance(static_cast<int>(i));
    if (api::Spout* spout = tasks_[i]->spout()) {
      cp.positions.push_back(
          {pi.op, pi.replica, spout->Position(), spout->Replayable()});
    } else if (api::Operator* bolt = tasks_[i]->bolt()) {
      auto entries = bolt->SnapshotKeyedState();
      if (!entries.empty()) {
        cp.state.push_back({pi.op, pi.replica, std::move(entries)});
      }
    }
  }

  // Resume on a fresh executor — same graph, same plan, no epoch bump.
  const Status resumed = StartExecutor();
  if (!resumed.ok()) {
    running_ = false;
    dead_ = true;
    return resumed;
  }
  ++checkpoints_;
  cp.pause_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - pause_start)
                         .count();
  return cp;
}

Status BriskRuntime::Restore(const JobCheckpoint& cp,
                             uint64_t* replayed_tuples) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!running_ && !dead_) {
    return Status::FailedPrecondition(
        "Restore requires a running or failed engine");
  }
  // Validate the checkpoint against the topology before touching the
  // live graph, so a corrupt checkpoint leaves the job as it was.
  if (!cp.plan.FullyPlaced()) {
    return Status::InvalidArgument("checkpoint plan is not fully placed");
  }
  for (const auto& s : cp.state) {
    if (s.op < 0 || s.op >= topo_->num_operators() ||
        topo_->op(s.op).is_spout) {
      return Status::InvalidArgument(
          "checkpoint keyed state targets an operator that is not a bolt");
    }
  }
  for (const auto& p : cp.positions) {
    if (p.op < 0 || p.op >= topo_->num_operators() ||
        !topo_->op(p.op).is_spout || p.replica < 0 ||
        p.replica >= cp.plan.replication(p.op)) {
      return Status::InvalidArgument(
          "checkpoint position does not name a source replica");
    }
  }

  // Hard halt — no graceful drain. A failed graph may be wedged (a
  // crashed bolt consumes nothing; its producers park forever), so a
  // drain could never converge. Abandoning in-flight envelopes is
  // safe: everything after the checkpoint replays anyway.
  if (executor_ != nullptr) JoinExecutorAndFold();

  // Duplicate-window accounting: how far past the captured positions
  // did the replayable sources get before the halt? Everything in
  // that window is emitted twice (at-least-once delivery).
  uint64_t replayed = 0;
  for (size_t i = 0; i < tasks_.size(); ++i) {
    const auto& pi = plan_.instance(static_cast<int>(i));
    api::Spout* spout = tasks_[i]->spout();
    if (spout == nullptr || !spout->Replayable()) continue;
    const api::SourcePosition live_pos = spout->Position();
    for (const auto& p : cp.positions) {
      if (p.op == pi.op && p.replica == pi.replica && p.replayable &&
          live_pos.kind == p.position.kind &&
          live_pos.offset > p.position.offset) {
        // Window units follow the position kind: tuples for synthetic
        // and socket sources, bytes for file sources.
        replayed += live_pos.offset - p.position.offset;
      }
    }
  }
  if (replayed_tuples != nullptr) *replayed_tuples = replayed;

  // The dying epoch's counters fold into the per-op totals so the
  // run-level report stays cumulative across the failure.
  for (size_t i = 0; i < tasks_.size(); ++i) {
    retired_op_stats_[instance_op_[i]].Accumulate(tasks_[i]->stats());
  }

  // Rebuild all-fresh to the checkpoint's plan. (WireGraph harvests
  // fault fire-counts from the dying tasks first, so a one-shot
  // injected fault does not re-fire after the recovery it caused.)
  const Status rebuilt = WireGraph(cp.plan, nullptr);
  if (!rebuilt.ok()) {
    running_ = false;
    dead_ = true;
    return rebuilt;
  }

  // Re-partition captured keyed state exactly like a fields grouping
  // routes tuples: entry → replica HashField(key) % replication.
  std::vector<std::vector<api::CheckpointEntry>> per_op(
      topo_->num_operators());
  for (const auto& s : cp.state) {
    per_op[s.op].insert(per_op[s.op].end(), s.entries.begin(),
                        s.entries.end());
  }
  for (int op = 0; op < topo_->num_operators(); ++op) {
    if (per_op[op].empty()) continue;
    const int repl = plan_.replication(op);
    std::vector<std::vector<api::CheckpointEntry>> buckets(repl);
    for (auto& entry : per_op[op]) {
      buckets[HashField(entry.key) % static_cast<size_t>(repl)].push_back(
          std::move(entry));
    }
    for (int r = 0; r < repl; ++r) {
      if (buckets[r].empty()) continue;
      api::Operator* bolt = tasks_[plan_.InstanceId(op, r)]->bolt();
      BRISK_CHECK(bolt != nullptr) << "validated above";
      bolt->RestoreKeyedState(std::move(buckets[r]));
    }
  }

  // Rewind replayable sources to the captured positions. A source
  // that refuses resumes from scratch (it was rebuilt fresh) — that
  // is a gap on its stream, and we say so.
  for (const auto& p : cp.positions) {
    api::Spout* spout = tasks_[plan_.InstanceId(p.op, p.replica)]->spout();
    BRISK_CHECK(spout != nullptr) << "validated above";
    if (p.replayable && !spout->Rewind(p.position)) {
      BRISK_LOG(Warn) << "source op " << p.op << " replica " << p.replica
                      << " refused Rewind("
                      << api::SourcePositionKindName(p.position.kind) << " "
                      << p.position.offset
                      << "); its stream restarts with a gap";
    }
  }

  const Status resumed = StartExecutor();
  if (!resumed.ok()) {
    running_ = false;
    dead_ = true;
    return resumed;
  }
  running_ = true;
  dead_ = false;
  ++restores_;
  epoch_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

HealthReport BriskRuntime::ProbeHealth() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  HealthReport report;
  report.running = running_;
  report.dead = dead_;
  // Input backlog per instance, sampled from the channel side (SPSC
  // rings expose approximate sizes safely cross-thread).
  std::vector<uint64_t> backlog(tasks_.size(), 0);
  for (const auto& ch : channels_) {
    backlog[static_cast<size_t>(ch->to_instance())] += ch->SizeApprox();
  }
  report.tasks.reserve(tasks_.size());
  for (size_t i = 0; i < tasks_.size(); ++i) {
    Task& t = *tasks_[i];
    TaskHealth h;
    h.op = t.op();
    h.replica = t.replica();
    h.op_name = t.op_name();
    h.spout = t.is_spout();
    h.tuples_in = t.stats().tuples_in;
    h.backlog = backlog[i];
    h.pending_live = t.pending_live();
    h.failed = t.failed();
    if (h.failed) h.failure_message = t.failure_message();
    report.tasks.push_back(std::move(h));
  }
  if (executor_ != nullptr) {
    report.worker_heartbeats = executor_->Heartbeats();
    report.worker_queue_depths = executor_->QueueDepths();
  }
  return report;
}

std::vector<TaskStats> BriskRuntime::OpTotals() const {
  std::vector<TaskStats> totals = retired_op_stats_;
  totals.resize(topo_->num_operators());
  for (size_t i = 0; i < tasks_.size(); ++i) {
    totals[instance_op_[i]].Accumulate(tasks_[i]->stats());
  }
  return totals;
}

void BriskRuntime::CollectStats(RunStats* stats) const {
  stats->duration_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - started_at_)
                          .count();
  stats->migrations = migrations_;
  stats->checkpoints = checkpoints_;
  stats->restores = restores_;
  stats->drain_timed_out = drain_timed_out_;
  stats->tasks.reserve(tasks_.size());
  for (const auto& task : tasks_) stats->tasks.push_back(task->stats());
  stats->op_totals = OpTotals();
  for (const auto& s : stats->op_totals) {
    stats->total_emitted += s.tuples_out;
    stats->total_consumed += s.tuples_in;
  }
}

RunStats BriskRuntime::SnapshotStats() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  RunStats stats;
  CollectStats(&stats);
  // Executor counters are observable live (single-writer relaxed
  // atomics in the pool workers): fold the retired epochs' totals into
  // the running epoch's snapshot so a mid-run observer sees cumulative
  // steal/park counts across migrations, same as Stop() reports.
  stats.executor = retired_executor_;
  if (executor_ != nullptr) {
    ExecutorStats live = executor_->stats();
    live.AccumulateCounters(retired_executor_);
    stats.executor = live;
  }
  if (!running_) stats.duration_s = 0.0;
  return stats;
}

RunStats BriskRuntime::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  RunStats stats;
  if (!running_) {
    if (!dead_) return stats;  // never started or already stopped
    // Migration-dead: the executor is already down and the graph may
    // be partial, but the run's counters (surviving tasks + retired
    // fold-ins) are intact — report them instead of pretending the
    // run never happened.
    dead_ = false;
    stats.executor = retired_executor_;
    CollectStats(&stats);
    return stats;
  }
  if (config_.graceful_drain) {
    // Phase 1: stop production, let bolts drain what is in flight.
    stats.drained =
        QuiesceAndJoin(&stats.drain_seconds, /*preserve_inflight=*/false);
  } else {
    JoinExecutorAndFold();
  }
  // Phase 2: run the shutdown epilogue in topological operator order:
  // each task consumes what is left on its inputs and flushes its
  // operator, so stateful bolts' finals propagate all the way to the
  // sinks even though no execution thread is running anymore.
  for (const int op : topo_->topological_order()) {
    for (size_t i = 0; i < tasks_.size(); ++i) {
      if (instance_op_[i] == op) tasks_[i]->Finalize();
    }
  }
  stats.executor = retired_executor_;
  running_ = false;
  CollectStats(&stats);
  return stats;
}

StatusOr<RunStats> BriskRuntime::RunFor(double seconds) {
  BRISK_RETURN_NOT_OK(Start());
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  return Stop();
}

}  // namespace brisk::engine
