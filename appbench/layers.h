// Harness-side instrumentation of a brisk topology, all built from the
// public operator API:
//   * Tracer        — in-memory span/counter recorder written out as
//                     Chrome trace-event JSON (loads in ui.perfetto.dev);
//   * PacedSpout    — open-loop pacer around an application's spout;
//   * TracedSpout / TracedOperator — forwarding decorators that record
//                     spans around NextBatch, Process and Flush;
//   * Rebuild       — re-declares a topology through api::TopologyBuilder
//                     with wrapped factories.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/operator.h"
#include "api/topology.h"
#include "common/status.h"

namespace appbench {

using Clock = int64_t (*)();

/// `s` as a JSON string literal, quotes included.
std::string JsonQuote(const std::string& s);

/// One recorded span (ns on the steady clock).
struct Span {
  const char* name = nullptr;  ///< static label ("Process", "NextBatch")
  int tid = 0;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

/// Span buffer of one operator replica. Written by whichever worker
/// polls the replica (one at a time), read after the executor joined.
struct SpanBuffer {
  static constexpr size_t kCap = 4096;
  static constexpr uint64_t kKeepEvery = 256;  ///< sampled into `spans`

  explicit SpanBuffer(std::string op_name) : op(std::move(op_name)) {}

  const std::string op;
  uint64_t calls = 0;  ///< every traced call, sampled or not
  std::vector<Span> spans;

  void Record(const char* name, int64_t start, int64_t end);
};

/// Collects spans from decorators and the harness, plus counter
/// samples, and writes them as Chrome trace-event JSON.
class Tracer {
 public:
  /// A fresh buffer for one replica of operator `op` (called from
  /// operator factories, on the deploying thread).
  std::shared_ptr<SpanBuffer> NewBuffer(const std::string& op);

  /// Harness-thread spans (Deploy, Stop, ...).
  void HarnessSpan(const char* name, int64_t start, int64_t end);

  /// One counter track sample ("C" event).
  void Counter(const std::string& name, int64_t at_ns, double value);

  /// Writes every span and counter; returns false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

  /// Spans held in memory (sampled).
  size_t span_count() const;

 private:
  struct CounterSample {
    std::string name;
    int64_t at_ns;
    double value;
  };
  mutable std::mutex mu_;  ///< guards buffers_, harness_, counters_
  std::vector<std::shared_ptr<SpanBuffer>> buffers_;
  std::vector<Span> harness_;
  std::vector<CounterSample> counters_;
};

/// Shared state of all replicas of one paced source.
struct PacerState {
  PacerState(double rate_tps, Clock clock) : rate_tps(rate_tps), clock(clock) {}

  const double rate_tps;  ///< whole-source rate, split across replicas
  const Clock clock;
  std::atomic<int64_t> t0_ns{0};  ///< first poll of any replica
  std::atomic<uint64_t> emitted{0};
  std::atomic<int64_t> max_lag_ns{0};

  /// Tuples due over all replicas by `now` (tuple i is due at
  /// t0 + i / rate).
  uint64_t DueBy(int64_t now) const;
  /// Due minus emitted at `now` (clamped at 0).
  uint64_t Pending(int64_t now) const;
  void ResetLag() { max_lag_ns.store(0, std::memory_order_relaxed); }
};

/// Open-loop pacer: emits only tuples whose due time has passed and
/// stamps each with its due time, so sink latency includes any wait a
/// stall imposes on later tuples. Never exhausted: with nothing due,
/// NextBatch returns 0 and the engine idles the source.
class PacedSpout final : public brisk::api::Spout {
 public:
  PacedSpout(std::unique_ptr<brisk::api::Spout> inner,
             std::shared_ptr<PacerState> state);

  brisk::Status Prepare(const brisk::api::OperatorContext& ctx) override;
  size_t NextBatch(size_t max_tuples,
                   brisk::api::OutputCollector* out) override;
  bool Exhausted() const override { return false; }

  /// Due time of this replica's tuple `i`.
  int64_t DueNs(uint64_t i) const;

 private:
  std::unique_ptr<brisk::api::Spout> inner_;
  std::shared_ptr<PacerState> state_;
  double period_ns_ = 0.0;  ///< this replica's inter-tuple gap
  double phase_ns_ = 0.0;   ///< replica offset inside one global gap
  uint64_t produced_ = 0;
};

class TracedSpout final : public brisk::api::Spout {
 public:
  TracedSpout(std::unique_ptr<brisk::api::Spout> inner,
              std::shared_ptr<SpanBuffer> buf);

  brisk::Status Prepare(const brisk::api::OperatorContext& ctx) override {
    return inner_->Prepare(ctx);
  }
  size_t NextBatch(size_t max_tuples,
                   brisk::api::OutputCollector* out) override;
  bool Exhausted() const override { return inner_->Exhausted(); }
  bool Replayable() const override { return inner_->Replayable(); }
  brisk::api::SourcePosition Position() const override {
    return inner_->Position();
  }
  bool Rewind(const brisk::api::SourcePosition& p) override {
    return inner_->Rewind(p);
  }
  brisk::Status CheckpointGuard() const override {
    return inner_->CheckpointGuard();
  }

 private:
  std::unique_ptr<brisk::api::Spout> inner_;
  std::shared_ptr<SpanBuffer> buf_;
};

/// Compiled operators forward pipeline(), so the engine dispatches
/// their batches directly and no Process span is recorded; their cost
/// shows in the engine's busy_ns instead.
class TracedOperator final : public brisk::api::Operator {
 public:
  TracedOperator(std::unique_ptr<brisk::api::Operator> inner,
                 std::shared_ptr<SpanBuffer> buf);

  brisk::api::CompiledPipeline* pipeline() override {
    return inner_->pipeline();
  }
  brisk::Status Prepare(const brisk::api::OperatorContext& ctx) override {
    return inner_->Prepare(ctx);
  }
  void Process(const brisk::Tuple& in,
               brisk::api::OutputCollector* out) override;
  void Flush(brisk::api::OutputCollector* out) override;
  std::vector<brisk::api::KeyedStateEntry> ExportKeyedState() override {
    return inner_->ExportKeyedState();
  }
  void ImportKeyedState(
      std::vector<brisk::api::KeyedStateEntry> entries) override {
    inner_->ImportKeyedState(std::move(entries));
  }
  std::vector<brisk::api::CheckpointEntry> SnapshotKeyedState() override {
    return inner_->SnapshotKeyedState();
  }
  void RestoreKeyedState(
      std::vector<brisk::api::CheckpointEntry> entries) override {
    inner_->RestoreKeyedState(std::move(entries));
  }

 private:
  std::unique_ptr<brisk::api::Operator> inner_;
  std::shared_ptr<SpanBuffer> buf_;
};

/// Factory rewriting hooks; a null hook keeps the original factory.
struct Wrap {
  std::function<brisk::api::SpoutFactory(const brisk::api::OperatorDecl&)>
      spout;
  std::function<brisk::api::OperatorFactory(const brisk::api::OperatorDecl&)>
      bolt;
};

/// Re-declares `topo` operator by operator (same ids, streams,
/// subscriptions and kernel declarations) with wrapped factories.
brisk::StatusOr<std::shared_ptr<const brisk::api::Topology>> Rebuild(
    const brisk::api::Topology& topo, const Wrap& wrap);

/// Spout and bolt hooks that trace every replica into `tracer`.
Wrap TracingWrap(std::shared_ptr<Tracer> tracer);

/// Spout hook that paces every spout through `state`, optionally
/// composed with an outer hook (tracing).
Wrap PacingWrap(std::shared_ptr<PacerState> state, Wrap outer = {});

}  // namespace appbench
