// Compiled-pipeline microbenchmark — the vectorized execution path in
// isolation: one fused filter+map chain over a 64-tuple JumboTuple,
// run batch-at-a-time (CompiledPipeline::RunBatch, the engine's
// compiled mode) and row-at-a-time (RunRow, the interpreted fallback)
// over identical data.
//
// Reports tuples/s and ns/tuple for both modes, the compiled:interpreted
// speedup, and — via the same interposing counting allocator the
// emit-path bench uses — heap allocations in the measured compiled
// loop, which must be exactly zero (selection vector and scratch
// batches retain capacity across calls).
//
// The two modes run as kTrials alternating (compiled, interpreted)
// trial pairs, so a noisy moment on the host lands on both modes
// rather than on one. CI gates (exit code) judge medians over the
// trials: median compiled throughput >= 100M tuples/s, median
// compiled:interpreted speedup >= 3x; and zero allocs in the compiled
// loop of every trial.
//
// Flags: --quick (CI-sized round count), --out <path> (JSON location).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "api/kernels.h"
#include "api/pipeline.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/tuple.h"

// ---------------------------------------------------------------------------
// Interposing counting allocator (same contract as bench_emit_path):
// every path to the heap bumps one relaxed atomic, so the compiled
// loop's alloc count is a real allocator round-trip count.
// ---------------------------------------------------------------------------
namespace {
std::atomic<uint64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace brisk {
namespace {

using api::CmpOp;
using api::CompiledPipeline;
using api::KernelDesc;
using api::NumOp;
using api::OutputCollector;
using api::PipelineSink;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Terminal for the compiled mode: folds survivors into a checksum
/// without moving tuples out, so the source batch can be replayed.
class ChecksumSink final : public PipelineSink {
 public:
  void ConsumeSelected(JumboTuple* batch, const SelectionVector& sel) override {
    sel.ForEachSet([&](size_t i) {
      sum += batch->tuples[i].GetInt(1);
      ++count;
    });
  }
  uint64_t count = 0;
  int64_t sum = 0;
};

/// Terminal for the interpreted mode: same fold, collector-shaped.
class ChecksumCollector final : public OutputCollector {
 public:
  void Emit(Tuple t) override {
    sum += t.GetInt(1);
    ++count;
  }
  void EmitTo(uint16_t, Tuple t) override { Emit(std::move(t)); }
  uint64_t count = 0;
  int64_t sum = 0;
};

/// The fused chain under test: `keep iff fields[0] > 31` (50%
/// selectivity over the 0..63 value pattern below) then
/// `fields[1] += 1`. Both stages carry dense batch loops, so the
/// compiled mode is two tight passes over the batch; the interpreted
/// mode pays one virtual Process-shaped call per tuple.
std::vector<KernelDesc> Chain() {
  return {api::FilterCmpConst(0, CmpOp::kGt, 31, 0.5),
          api::MapNumConst(1, NumOp::kAdd, 1)};
}

/// 64 two-int-field tuples, fields[0] = 0..63 (filter keeps the top
/// half every round — field 0 is never rewritten, so the selection is
/// identical across replays).
JumboTuple MakeBatch(size_t n) {
  JumboTuple batch;
  batch.tuples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Tuple t;
    t.fields.push_back(Field(static_cast<int64_t>(i)));
    t.fields.push_back(Field(static_cast<int64_t>(0)));
    t.origin_ts_ns = 1;  // pre-stamped: the bench measures compute only
    batch.tuples.push_back(std::move(t));
  }
  return batch;
}

struct ModeResult {
  double tuples_per_sec = 0.0;
  double ns_per_tuple = 0.0;
  uint64_t tuples = 0;
  uint64_t survivors = 0;
  uint64_t allocs = 0;
};

ModeResult RunCompiled(uint64_t rounds, size_t batch_size) {
  auto pipe = CompiledPipeline::Compile(Chain());
  BRISK_CHECK(pipe.ok()) << pipe.status().ToString();
  JumboTuple batch = MakeBatch(batch_size);
  ChecksumSink sink;

  // Warm-up: first RunBatch sizes the selection vector's word array.
  for (int r = 0; r < 64; ++r) (*pipe)->RunBatch(&batch, &sink);
  sink.count = 0;
  sink.sum = 0;

  const uint64_t allocs_before = g_heap_allocs.load();
  const int64_t t0 = NowNs();
  for (uint64_t r = 0; r < rounds; ++r) (*pipe)->RunBatch(&batch, &sink);
  const int64_t t1 = NowNs();
  ModeResult res;
  res.tuples = rounds * batch_size;
  res.survivors = sink.count;
  res.allocs = g_heap_allocs.load() - allocs_before;
  res.ns_per_tuple = static_cast<double>(t1 - t0) /
                     static_cast<double>(res.tuples);
  res.tuples_per_sec = 1e9 * static_cast<double>(res.tuples) /
                       static_cast<double>(t1 - t0);
  BRISK_CHECK(sink.sum != 0) << "checksum sank to zero — dead-code risk";
  return res;
}

ModeResult RunInterpreted(uint64_t rounds, size_t batch_size) {
  auto pipe = CompiledPipeline::Compile(Chain());
  BRISK_CHECK(pipe.ok()) << pipe.status().ToString();
  JumboTuple batch = MakeBatch(batch_size);
  ChecksumCollector out;

  for (int r = 0; r < 64; ++r) {
    for (const Tuple& t : batch.tuples) (*pipe)->RunRow(t, &out);
  }
  out.count = 0;
  out.sum = 0;

  const uint64_t allocs_before = g_heap_allocs.load();
  const int64_t t0 = NowNs();
  for (uint64_t r = 0; r < rounds; ++r) {
    for (const Tuple& t : batch.tuples) (*pipe)->RunRow(t, &out);
  }
  const int64_t t1 = NowNs();
  ModeResult res;
  res.tuples = rounds * batch_size;
  res.survivors = out.count;
  res.allocs = g_heap_allocs.load() - allocs_before;
  res.ns_per_tuple = static_cast<double>(t1 - t0) /
                     static_cast<double>(res.tuples);
  res.tuples_per_sec = 1e9 * static_cast<double>(res.tuples) /
                       static_cast<double>(t1 - t0);
  BRISK_CHECK(out.sum != 0) << "checksum sank to zero — dead-code risk";
  return res;
}

/// Median, min and max of a sample (copied: the caller's order is the
/// trial order and stays intact).
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread SpreadOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  Spread s;
  s.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  s.min = v.front();
  s.max = v.back();
  return s;
}

uint64_t MaxAllocs(const std::vector<ModeResult>& runs) {
  uint64_t worst = 0;
  for (const ModeResult& r : runs) worst = std::max(worst, r.allocs);
  return worst;
}

bench::JsonObj SpreadJson(const Spread& s) {
  bench::JsonObj o;
  o.Add("median", s.median).Add("min", s.min).Add("max", s.max);
  return o;
}

std::string Mps(double tps) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1fM", tps / 1e6);
  return buf;
}

}  // namespace
}  // namespace brisk

int main(int argc, char** argv) {
  using namespace brisk;

  bool quick = false;
  std::string out_path = "BENCH_pipeline.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  constexpr size_t kBatch = 64;
  constexpr int kTrials = 5;
  const uint64_t rounds = quick ? 400'000 : 4'000'000;

  bench::Banner("pipeline",
                "compiled (batch) vs interpreted (row) fused filter+map");

  std::vector<ModeResult> compiled;
  std::vector<ModeResult> interp;
  std::vector<double> compiled_tps, interp_tps, speedups;
  for (int t = 0; t < kTrials; ++t) {
    compiled.push_back(RunCompiled(rounds, kBatch));
    interp.push_back(RunInterpreted(rounds, kBatch));
    compiled_tps.push_back(compiled.back().tuples_per_sec);
    interp_tps.push_back(interp.back().tuples_per_sec);
    speedups.push_back(compiled_tps.back() / interp_tps.back());
  }
  const Spread compiled_spread = SpreadOf(compiled_tps);
  const Spread interp_spread = SpreadOf(interp_tps);
  const Spread speedup = SpreadOf(speedups);

  const std::vector<int> widths = {26, 14, 10, 8};
  bench::PrintRule(widths);
  bench::PrintRow({"trial / mode", "tuples/s", "ns/tuple", "allocs"}, widths);
  bench::PrintRule(widths);
  char buf[64];
  auto row = [&](const std::string& name, const ModeResult& r) {
    std::snprintf(buf, sizeof(buf), "%.1f", r.ns_per_tuple);
    bench::PrintRow({name, Mps(r.tuples_per_sec), buf,
                     std::to_string(r.allocs)},
                    widths);
  };
  for (int t = 0; t < kTrials; ++t) {
    row(std::to_string(t) + " compiled (RunBatch)", compiled[t]);
    row(std::to_string(t) + " interpreted (RunRow)", interp[t]);
  }
  bench::PrintRule(widths);
  std::printf("median compiled %s, interpreted %s; speedup median %.2fx "
              "[min %.2fx, max %.2fx]\n",
              Mps(compiled_spread.median).c_str(),
              Mps(interp_spread.median).c_str(), speedup.median, speedup.min,
              speedup.max);

  bench::JsonObj workload;
  workload.Add("chain", "filter(f0 > 31) | map(f1 += 1)")
      .Add("batch_size", static_cast<int>(kBatch))
      .Add("rounds_per_trial", rounds)
      .Add("trials", kTrials)
      .Add("selectivity", 0.5)
      .Add("quick", quick);
  // Per-mode figures: tuples/s spread over the trials, plus the
  // per-trial constants (tuples, survivors) and the worst trial's
  // alloc count.
  auto mode_json = [](const std::vector<ModeResult>& runs,
                      const Spread& tps) {
    bench::JsonObj o;
    o.Add("tuples_per_sec", SpreadJson(tps))
        .Add("ns_per_tuple_median", 1e9 / tps.median)
        .Add("tuples_per_trial", runs.front().tuples)
        .Add("survivors_per_trial", runs.front().survivors)
        .Add("max_allocs_in_measured_loop", MaxAllocs(runs));
    return o;
  };
  bench::JsonObj doc;
  doc.Add("bench", "pipeline")
      .Add("workload", workload)
      .Add("compiled", mode_json(compiled, compiled_spread))
      .Add("interpreted", mode_json(interp, interp_spread))
      .Add("speedup_compiled_vs_interpreted", SpreadJson(speedup));
  bench::WriteJsonFile(out_path, doc);
  std::printf("wrote %s\n", out_path.c_str());

  // CI gates. The 100M tuples/s floor is the issue's acceptance bar
  // (~3x the 34M row-wise baseline); the throughput and speedup gates
  // judge medians, so one trial that lands on a noisy moment cannot
  // fail the run. The zero-alloc gate pins the steady-state property
  // RunBatch is designed around, and holds on every trial.
  int rc = 0;
  if (compiled_spread.median < 100e6) {
    std::fprintf(stderr,
                 "FAIL: median compiled pipeline below 100M tuples/s (%.1fM)\n",
                 compiled_spread.median / 1e6);
    rc = 1;
  }
  if (speedup.median < 3.0) {
    std::fprintf(stderr, "FAIL: median compiled speedup below 3x (%.2fx)\n",
                 speedup.median);
    rc = 1;
  }
  const uint64_t max_compiled_allocs = MaxAllocs(compiled);
  if (max_compiled_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: compiled loop touched the allocator (%llu allocs in "
                 "the worst trial)\n",
                 static_cast<unsigned long long>(max_compiled_allocs));
    rc = 1;
  }
  return rc;
}
