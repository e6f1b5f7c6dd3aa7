#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "apps/common_ops.h"

namespace appbench {

namespace {

using brisk::api::GroupingType;
using brisk::api::OperatorDecl;

/// Small dense thread ids for the trace's tid column.
int ThreadId() {
  static std::atomic<int> next{1};
  thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';  // newlines in failure messages, for one
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void SpanBuffer::Record(const char* name, int64_t start, int64_t end) {
  const uint64_t n = calls++;
  if (n % kKeepEvery == 0 && spans.size() < kCap) {
    spans.push_back({name, ThreadId(), start, end - start});
  }
}

std::shared_ptr<SpanBuffer> Tracer::NewBuffer(const std::string& op) {
  auto buf = std::make_shared<SpanBuffer>(op);
  buf->spans.reserve(1024);
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(buf);
  return buf;
}

void Tracer::HarnessSpan(const char* name, int64_t start, int64_t end) {
  std::lock_guard<std::mutex> lock(mu_);
  harness_.push_back({name, 0, start, end - start});
}

void Tracer::Counter(const std::string& name, int64_t at_ns, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.push_back({name, at_ns, value});
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = harness_.size();
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t t0 = INT64_MAX;
  for (const Span& s : harness_) t0 = std::min(t0, s.start_ns);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) t0 = std::min(t0, s.start_ns);
  }
  for (const auto& c : counters_) t0 = std::min(t0, c.at_ns);
  if (t0 == INT64_MAX) t0 = 0;

  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  sep();
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
               "\"args\":{\"name\":\"harness\"}}");
  auto span = [&](const Span& s, const std::string& label, const char* cat) {
    sep();
    std::fprintf(f,
                 "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":%s,"
                 "\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f}",
                 s.tid, JsonQuote(label).c_str(), cat,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3);
  };
  for (const Span& s : harness_) span(s, s.name, "harness");
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) span(s, b->op + "." + s.name, "op");
  }
  for (const auto& c : counters_) {
    sep();
    std::fprintf(f,
                 "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":%s,"
                 "\"ts\":%.3f,\"args\":{\"value\":%.10g}}",
                 JsonQuote(c.name).c_str(),
                 static_cast<double>(c.at_ns - t0) / 1e3, c.value);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

uint64_t PacerState::DueBy(int64_t now) const {
  const int64_t t0 = t0_ns.load(std::memory_order_acquire);
  if (t0 == 0 || now < t0) return 0;
  return static_cast<uint64_t>(
             std::floor(static_cast<double>(now - t0) * rate_tps / 1e9)) +
         1;
}

uint64_t PacerState::Pending(int64_t now) const {
  const uint64_t due = DueBy(now);
  const uint64_t done = emitted.load(std::memory_order_relaxed);
  return due > done ? due - done : 0;
}

namespace {

/// Restamps every tuple the inner spout emits with its due time.
class StampingCollector final : public brisk::api::OutputCollector {
 public:
  StampingCollector(brisk::api::OutputCollector* out, const PacedSpout* pacer,
                    uint64_t first)
      : out_(out), pacer_(pacer), next_(first) {}

  void Emit(brisk::Tuple t) override {
    t.origin_ts_ns = pacer_->DueNs(next_++);
    out_->Emit(std::move(t));
  }
  void EmitTo(uint16_t stream_id, brisk::Tuple t) override {
    t.origin_ts_ns = pacer_->DueNs(next_++);
    out_->EmitTo(stream_id, std::move(t));
  }

 private:
  brisk::api::OutputCollector* out_;
  const PacedSpout* pacer_;
  uint64_t next_;
};

}  // namespace

PacedSpout::PacedSpout(std::unique_ptr<brisk::api::Spout> inner,
                       std::shared_ptr<PacerState> state)
    : inner_(std::move(inner)), state_(std::move(state)) {}

brisk::Status PacedSpout::Prepare(const brisk::api::OperatorContext& ctx) {
  // Replica r of n owns global tuples r, r + n, r + 2n, ...
  const double gap = 1e9 / state_->rate_tps;
  period_ns_ = gap * std::max(1, ctx.num_replicas);
  phase_ns_ = gap * ctx.replica_index;
  return inner_->Prepare(ctx);
}

int64_t PacedSpout::DueNs(uint64_t i) const {
  return state_->t0_ns.load(std::memory_order_acquire) +
         static_cast<int64_t>(phase_ns_ + period_ns_ * static_cast<double>(i));
}

size_t PacedSpout::NextBatch(size_t max_tuples,
                             brisk::api::OutputCollector* out) {
  const int64_t now = state_->clock();
  int64_t expected = 0;
  state_->t0_ns.compare_exchange_strong(expected, now,
                                        std::memory_order_acq_rel);
  const int64_t since =
      now - state_->t0_ns.load(std::memory_order_acquire);
  const double span = static_cast<double>(since) - phase_ns_;
  const uint64_t due =
      span < 0 ? 0 : static_cast<uint64_t>(std::floor(span / period_ns_)) + 1;
  if (due <= produced_) return 0;
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(max_tuples, due - produced_));
  const int64_t lag = now - DueNs(produced_);
  int64_t prev = state_->max_lag_ns.load(std::memory_order_relaxed);
  while (lag > prev && !state_->max_lag_ns.compare_exchange_weak(
                           prev, lag, std::memory_order_relaxed)) {
  }
  StampingCollector stamping(out, this, produced_);
  const size_t made = inner_->NextBatch(n, &stamping);
  produced_ += made;
  state_->emitted.fetch_add(made, std::memory_order_relaxed);
  return made;
}

TracedSpout::TracedSpout(std::unique_ptr<brisk::api::Spout> inner,
                         std::shared_ptr<SpanBuffer> buf)
    : inner_(std::move(inner)), buf_(std::move(buf)) {}

size_t TracedSpout::NextBatch(size_t max_tuples,
                              brisk::api::OutputCollector* out) {
  const int64_t t0 = brisk::apps::NowNs();
  const size_t n = inner_->NextBatch(max_tuples, out);
  if (n > 0) buf_->Record("NextBatch", t0, brisk::apps::NowNs());
  return n;
}

TracedOperator::TracedOperator(std::unique_ptr<brisk::api::Operator> inner,
                               std::shared_ptr<SpanBuffer> buf)
    : inner_(std::move(inner)), buf_(std::move(buf)) {}

void TracedOperator::Process(const brisk::Tuple& in,
                             brisk::api::OutputCollector* out) {
  const int64_t t0 = brisk::apps::NowNs();
  inner_->Process(in, out);
  buf_->Record("Process", t0, brisk::apps::NowNs());
}

void TracedOperator::Flush(brisk::api::OutputCollector* out) {
  const int64_t t0 = brisk::apps::NowNs();
  inner_->Flush(out);
  buf_->Record("Flush", t0, brisk::apps::NowNs());
}

brisk::StatusOr<std::shared_ptr<const brisk::api::Topology>> Rebuild(
    const brisk::api::Topology& topo, const Wrap& wrap) {
  brisk::api::TopologyBuilder b(topo.name());
  for (const OperatorDecl& op : topo.ops()) {
    if (!op.chain_members.empty()) {
      return brisk::Status::InvalidArgument(
          "Rebuild: fused operator '" + op.name + "' is not supported");
    }
    if (op.is_spout) {
      auto d = b.AddSpout(op.name,
                          wrap.spout ? wrap.spout(op) : op.spout_factory,
                          op.base_parallelism);
      for (size_t s = 1; s < op.output_streams.size(); ++s) {
        d.DeclareStream(op.output_streams[s]);
      }
      continue;
    }
    auto d = b.AddBolt(op.name, wrap.bolt ? wrap.bolt(op) : op.bolt_factory,
                       op.base_parallelism);
    for (size_t s = 1; s < op.output_streams.size(); ++s) {
      d.DeclareStream(op.output_streams[s]);
    }
    for (const auto& in : op.inputs) {
      const OperatorDecl& producer = topo.op(in.producer_op);
      const std::string& stream = producer.output_streams[in.stream_id];
      switch (in.grouping) {
        case GroupingType::kShuffle:
          d.ShuffleFrom(producer.name, stream);
          break;
        case GroupingType::kFields:
          d.FieldsFrom(producer.name, in.key_field, stream);
          break;
        case GroupingType::kBroadcast:
          d.BroadcastFrom(producer.name, stream);
          break;
        case GroupingType::kGlobal:
          d.GlobalFrom(producer.name, stream);
          break;
      }
    }
    if (!op.kernels.empty()) d.WithKernels(op.kernels);
  }
  auto built = std::move(b).Build();
  if (!built.ok()) return built.status();
  return std::shared_ptr<const brisk::api::Topology>(
      std::make_shared<brisk::api::Topology>(std::move(built).value()));
}

Wrap TracingWrap(std::shared_ptr<Tracer> tracer) {
  Wrap w;
  w.spout = [tracer](const OperatorDecl& op) -> brisk::api::SpoutFactory {
    return [tracer, inner = op.spout_factory, name = op.name] {
      return std::make_unique<TracedSpout>(inner(), tracer->NewBuffer(name));
    };
  };
  w.bolt = [tracer](const OperatorDecl& op) -> brisk::api::OperatorFactory {
    return [tracer, inner = op.bolt_factory, name = op.name] {
      return std::make_unique<TracedOperator>(inner(), tracer->NewBuffer(name));
    };
  };
  return w;
}

Wrap PacingWrap(std::shared_ptr<PacerState> state, Wrap outer) {
  Wrap w = outer;
  w.spout = [state, outer](const OperatorDecl& op) -> brisk::api::SpoutFactory {
    brisk::api::SpoutFactory paced = [state, inner = op.spout_factory] {
      return std::make_unique<PacedSpout>(inner(), state);
    };
    if (!outer.spout) return paced;
    OperatorDecl copy = op;
    copy.spout_factory = std::move(paced);
    return outer.spout(copy);
  };
  return w;
}

}  // namespace appbench
