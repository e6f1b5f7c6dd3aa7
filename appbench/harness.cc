// appbench: runs one BriskStream application workload through
// brisk::Job on the real engine, checks its outputs and prints its
// metrics as one JSON line (the last line of stdout).
//
//   appbench --workload wc-saturated|lr-saturated|wc-openloop
//            --seed N --seconds S --trace 0|1
//            [--trace-out trace.json] [--plan-file plan.txt]
//   appbench --list-metrics      metric names and units, as JSON
//   appbench --selftest-pacer    unit check of the open-loop pacer
//
// With --trace 0 it prints the end-to-end metrics, measured untraced;
// with --trace 1 the per-layer metrics, from separate traced passes.
// README.md in this directory describes workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/job.h"
#include "apps/apps.h"
#include "apps/linear_road.h"
#include "apps/word_count.h"
#include "checks.h"
#include "common/rng.h"
#include "layers.h"

namespace appbench {
namespace {

using brisk::Status;
using brisk::engine::RunStats;

// ---------------------------------------------------------------------------
// Metric catalogue: every name the harness prints, with its unit.
// ---------------------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"throughput_tps", "1/s"},   {"cpu_ns_per_tuple", "ns"},
      {"latency_p50_ms", "ms"},    {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

/// Operators of both applications; a per-operator metric of an
/// operator the workload's application does not have reads 0.
const std::vector<std::string>& OpNames() {
  static const std::vector<std::string> names = {
      "spout",         "parser",          "splitter",      "counter",
      "dispatcher",    "avg_speed",       "las_avg_speed", "accident_detect",
      "count_vehicle", "accident_notify", "toll_notify",   "daily_expense",
      "account_balance", "sink"};
  return names;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"api.vectorized_ratio", "ratio"},
        {"engine.task.batch_fill", "ratio"},
        {"engine.task.recycle_hit_ratio", "ratio"},
        {"engine.executor.parks_per_s", "1/s"},
        {"engine.executor.wakes_per_park", "ratio"},
        {"engine.executor.steals_cross", "count"},
        {"engine.executor.steal_success_ratio", "ratio"},
        {"engine.executor.repatriations", "count"},
        {"os.ctx_switches_voluntary_per_s", "1/s"},
        {"os.ctx_switches_involuntary_per_s", "1/s"},
        {"engine.channel.backlog_tuples_p50", "count"},
        {"engine.channel.backlog_tuples_max", "count"},
        {"engine.runtime.create_s", "s"},
        {"engine.runtime.start_s", "s"},
        {"engine.runtime.drain_s", "s"},
        {"optimizer.rlas_s", "s"},
        {"optimizer.plan_instances", "count"},
        {"hardware.minor_faults_per_s", "1/s"},
        {"hardware.rma_ns_per_tuple", "ns"},
        {"model.measured_over_predicted", "ratio"},
        {"profiler.profile_s", "s"},
        {"gen.lag_ms_max", "ms"},
        {"sink.latency_p99_ms", "ms"},
        {"host.steal_pct", "%"},
        {"trace.overhead_ratio", "ratio"},
    };
    for (const std::string& op : OpNames()) {
      d.push_back({"engine.task.busy_ns_per_tuple." + op, "ns"});
      d.push_back({"engine.task.busy_frac." + op, "ratio"});
      d.push_back({"engine.task.backpressure_parks_per_s." + op, "1/s"});
    }
    return d;
  }();
  return defs;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  bool linear_road = false;
  double rate_tps = 0.0;  ///< open-loop source rate; 0 = saturated
};

/// Sentences/s of the open-loop WC feed: about a quarter of the
/// saturated WC capacity on a 4-vCPU host (0.5M of 2.1M sink tuples/s).
constexpr double kOpenLoopRate = 50000.0;

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = {
      {"wc-saturated", false, 0.0},
      {"lr-saturated", true, 0.0},
      {"wc-openloop", false, kOpenLoopRate},
  };
  return all;
}

/// Emulated machines: WC on a 2-socket box, LR on 2x8 so its 11
/// operators fit the planner's core budget.
brisk::hw::MachineSpec MachineFor(const Workload& w) {
  return w.linear_road
             ? brisk::hw::MachineSpec::Symmetric(2, 8, 2.0, 100, 300, 40, 12)
             : brisk::hw::MachineSpec::Symmetric(2, 4, 2.0, 100, 300, 40, 12);
}

/// One deployable job: topology + sink telemetry + calibrated profiles.
struct App {
  std::shared_ptr<const brisk::api::Topology> topo;
  std::shared_ptr<brisk::SinkTelemetry> telemetry;
  brisk::model::ProfileSet profiles;
  std::shared_ptr<PacerState> pacer;  ///< open loop only
};

/// Builds a fresh App (fresh pacer state per deployment). `tracer`
/// non-null wraps every operator in tracing decorators; `paced` false
/// drops the open-loop pacer (the profiler needs a free-running source).
brisk::StatusOr<App> BuildApp(const Workload& w, uint64_t job_seed,
                              const std::shared_ptr<Tracer>& tracer,
                              bool paced = true) {
  App app;
  BRISK_ASSIGN_OR_RETURN(
      brisk::apps::AppBundle bundle,
      brisk::apps::MakeApp(w.linear_road ? brisk::apps::AppId::kLinearRoad
                                         : brisk::apps::AppId::kWordCount));
  app.telemetry = bundle.telemetry;
  app.profiles = bundle.profiles;
  app.topo = bundle.topology_ptr;
  if (w.linear_road) {
    // LR's spout seeds from its params, not from the job seed.
    brisk::apps::LinearRoadParams params;
    params.seed = job_seed;
    BRISK_ASSIGN_OR_RETURN(brisk::api::Topology t,
                           brisk::apps::BuildLinearRoad(app.telemetry, params));
    app.topo = std::make_shared<const brisk::api::Topology>(std::move(t));
  }
  Wrap wrap = tracer ? TracingWrap(tracer) : Wrap{};
  if (paced && w.rate_tps > 0) {
    app.pacer = std::make_shared<PacerState>(w.rate_tps, &brisk::apps::NowNs);
    wrap = PacingWrap(app.pacer, wrap);
  }
  if (wrap.spout || wrap.bolt) {
    BRISK_ASSIGN_OR_RETURN(app.topo, Rebuild(*app.topo, wrap));
  }
  return app;
}

brisk::engine::EngineConfig ConfigFor(bool emulate) {
  brisk::engine::EngineConfig c = brisk::engine::EngineConfig::Brisk();
  c.numa_emulation = emulate;
  c.workers_per_socket = 1;  // at most 2 workers: below nproc on 4 vCPUs
  return c;
}

brisk::Job JobFor(const Workload& w, const App& app, uint64_t job_seed,
                  bool emulate) {
  brisk::Job job = brisk::Job::Of(app.topo);
  job.WithMachine(MachineFor(w))
      .WithConfig(ConfigFor(emulate))
      .WithProfiles(app.profiles)
      .WithTelemetry(app.telemetry)
      .WithSeed(job_seed);
  return job;
}

// ---------------------------------------------------------------------------
// Host probes.
// ---------------------------------------------------------------------------

int64_t NowNs() { return brisk::apps::NowNs(); }

struct Usage {
  double cpu_s = 0;
  long minflt = 0;
  long nvcsw = 0;
  long nivcsw = 0;
  long maxrss_kb = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.minflt = ru.ru_minflt;
  u.nvcsw = ru.ru_nvcsw;
  u.nivcsw = ru.ru_nivcsw;
  u.maxrss_kb = ru.ru_maxrss;
  return u;
}

/// Aggregate jiffies from the first line of /proc/stat: total and steal.
struct CpuJiffies {
  double total = 0;
  double steal = 0;
};

CpuJiffies ReadJiffies() {
  CpuJiffies j;
  std::ifstream in("/proc/stat");
  std::string cpu;
  if (!(in >> cpu) || cpu != "cpu") return j;
  double v = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    j.total += v;
    if (i == 7) j.steal = v;
  }
  return j;
}

double StealPct(const CpuJiffies& a, const CpuJiffies& b) {
  const double total = b.total - a.total;
  return total > 0 ? 100.0 * (b.steal - a.steal) / total : 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1))];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Steal arrives in bursts lasting seconds, and a slice inside a burst
/// measures the hypervisor rather than the engine. The window's figures
/// are therefore medians over its quiet slices: those with at most
/// kQuietStealPct host steal, or, when fewer than a tenth of the slices
/// are that quiet, the tenth with the least steal.
constexpr double kQuietStealPct = 2.0;

std::vector<size_t> QuietSlices(const std::vector<double>& steal) {
  std::vector<size_t> idx(steal.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  size_t keep = 0;
  while (keep < idx.size() && steal[idx[keep]] <= kQuietStealPct) ++keep;
  idx.resize(std::max(keep, std::max<size_t>(1, idx.size() / 10)));
  return idx;
}

double MedianAt(const std::vector<double>& v, const std::vector<size_t>& idx) {
  std::vector<double> picked;
  for (size_t i : idx) picked.push_back(v[i]);
  return Median(picked);
}

// ---------------------------------------------------------------------------
// A run: operations, checks and metrics.
// ---------------------------------------------------------------------------

struct Run {
  Workload workload;
  uint64_t job_seed = 0;
  double seconds = 0;
  std::string plan_fp;  ///< first deployed plan
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> info;

  /// Counts one engine run as an operation; a non-OK check fails it.
  void Outcome(const std::string& what, const Status& s) {
    ++attempted;
    if (!s.ok()) {
      ++failed;
      failures.push_back(what + ": " + s.ToString());
      std::fprintf(stderr, "appbench: FAILED %s: %s\n", what.c_str(),
                   s.ToString().c_str());
    }
  }

  /// Every deployment of the workload must get the first one's plan.
  Status CheckPlan(const brisk::model::ExecutionPlan& plan) {
    const std::string fp = PlanFingerprint(plan);
    if (plan_fp.empty()) plan_fp = fp;
    if (fp != plan_fp) {
      return Status::Internal("plan changed: " + fp + " vs " + plan_fp);
    }
    return Status::OK();
  }
};

Status Join(Status a, const Status& b) { return a.ok() ? b : a; }

/// Busy-waits (yielding) until the sink has seen a tuple.
bool WaitFirstSinkTuple(const brisk::SinkTelemetry& t, double timeout_s) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (t.count() == 0) {
    if (NowNs() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Set-up times with the host steal seen during each.
struct Setups {
  std::vector<double> seconds;
  std::vector<double> steal_pct;
};

/// Set-up time, repeated: Job::Deploy to the first sink tuple, then a
/// graceful Stop. Appends to `out`; fills RLAS times when asked.
void SetupReps(Run& run, int reps, Setups* out,
               std::vector<double>* rlas_s = nullptr) {
  for (int i = 0; i < reps; ++i) {
    const std::string what = "setup rep " + std::to_string(i);
    auto app = BuildApp(run.workload, run.job_seed, nullptr);
    if (!app.ok()) {
      run.Outcome(what, app.status());
      continue;
    }
    const CpuJiffies j0 = ReadJiffies();
    const int64_t t0 = NowNs();
    auto dep = JobFor(run.workload, *app, run.job_seed, true).Deploy();
    if (!dep.ok()) {
      run.Outcome(what, dep.status());
      continue;
    }
    const bool seen = WaitFirstSinkTuple(*app->telemetry, 10.0);
    const int64_t t1 = NowNs();
    const CpuJiffies j1 = ReadJiffies();
    Status s = seen ? Status::OK()
                    : Status::DeadlineExceeded("no sink tuple within 10 s");
    s = Join(s, run.CheckPlan((*dep)->report().plan));
    const brisk::JobReport& report = (*dep)->Stop();
    s = Join(s, CheckConservation(*app->topo, report.plan, report.stats));
    run.Outcome(what, s);
    if (out) {
      out->seconds.push_back(static_cast<double>(t1 - t0) * 1e-9);
      out->steal_pct.push_back(StealPct(j0, j1));
    }
    if (rlas_s) rlas_s->push_back(report.optimize_seconds);
  }
}

/// The runtime's own lifecycle, timed call by call on the plan the Job
/// deployed: BriskRuntime::Create, Start, first sink tuple, Stop.
void RuntimeLadder(Run& run, int reps) {
  std::vector<double> create_s, start_s, drain_s;
  const brisk::hw::MachineSpec machine = MachineFor(run.workload);
  for (int i = 0; i < reps; ++i) {
    const std::string what = "runtime rep " + std::to_string(i);
    auto app = BuildApp(run.workload, run.job_seed, nullptr);
    if (!app.ok()) {
      run.Outcome(what, app.status());
      continue;
    }
    // Plan from a Job deployment that is stopped right away.
    brisk::model::ExecutionPlan plan;
    {
      auto dep = JobFor(run.workload, *app, run.job_seed, true).Deploy();
      if (!dep.ok()) {
        run.Outcome(what, dep.status());
        continue;
      }
      plan = (*dep)->report().plan;
      (*dep)->Stop();
    }
    app->telemetry->Reset();
    brisk::hw::NumaEmulator numa(machine);
    brisk::engine::EngineConfig config = ConfigFor(true);
    config.seed = run.job_seed;
    const int64_t t0 = NowNs();
    auto rt = brisk::engine::BriskRuntime::Create(app->topo.get(), plan,
                                                  config, &numa);
    const int64_t t1 = NowNs();
    if (!rt.ok()) {
      run.Outcome(what, rt.status());
      continue;
    }
    Status s = (*rt)->Start();
    const int64_t t2 = NowNs();
    if (s.ok() && !WaitFirstSinkTuple(*app->telemetry, 10.0)) {
      s = Status::DeadlineExceeded("no sink tuple within 10 s");
    }
    const RunStats stats = (*rt)->Stop();
    s = Join(s, CheckConservation(*app->topo, plan, stats));
    run.Outcome(what, s);
    create_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    start_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    drain_s.push_back(stats.drain_seconds);
  }
  run.metrics["engine.runtime.create_s"] = Median(create_s);
  run.metrics["engine.runtime.start_s"] = Median(start_s);
  run.metrics["engine.runtime.drain_s"] = Median(drain_s);
}

/// Exact WC output on a bounded, seeded run: the sink's (word, count)
/// stream against counts recomputed from the same seeded SentenceSpout.
void CheckWordCountOutput(Run& run) {
  constexpr uint64_t kSentences = 20000;  // per spout replica
  brisk::apps::WordCountParams params;
  params.max_sentences = kSentences;
  auto telemetry = std::make_shared<brisk::SinkTelemetry>();
  auto seen = std::make_shared<SinkWordCounts>();
  auto mu = std::make_shared<std::mutex>();
  auto topo = brisk::apps::BuildWordCountDsl(
      telemetry, params, [seen, mu](const brisk::Tuple& t) {
        const std::string word(t.GetString(0));
        const int64_t count = t.GetInt(1);
        std::lock_guard<std::mutex> lock(*mu);
        int64_t& m = seen->max_count[word];
        m = std::max(m, count);
        ++seen->tuples[word];
      });
  if (!topo.ok()) {
    run.Outcome("wc exact counts", topo.status());
    return;
  }
  App app;
  app.topo = std::make_shared<const brisk::api::Topology>(std::move(*topo));
  app.telemetry = telemetry;
  app.profiles = brisk::apps::WordCountProfiles(params);
  auto dep = JobFor(run.workload, app, run.job_seed, true).Deploy();
  if (!dep.ok()) {
    run.Outcome("wc exact counts", dep.status());
    return;
  }
  const brisk::model::ExecutionPlan& plan = (*dep)->report().plan;
  Status s = run.CheckPlan(plan);
  const int spout = *app.topo->OpId("spout");
  const auto ref = ReferenceWordCounts(params, run.job_seed, spout,
                                       plan.replication(spout));
  uint64_t words = 0;
  for (const auto& [w, c] : ref) words += static_cast<uint64_t>(c);
  const int64_t deadline = NowNs() + 30'000'000'000;
  while (telemetry->count() < words && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const brisk::JobReport& report = (*dep)->Stop();
  s = Join(s, CheckConservation(*app.topo, plan, report.stats));
  {
    std::lock_guard<std::mutex> lock(*mu);
    s = Join(s, CompareWordCounts(ref, *seen));
  }
  run.Outcome("wc exact counts", s);
}

/// What one measured pass saw.
struct Pass {
  bool ok = false;
  double window_s = 0;
  double throughput_tps = 0;    ///< median over slices
  double cpu_ns_per_tuple = 0;  ///< median over slices
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  double steal_pct = 0;
  double lag_ms_max = 0;
  double predicted_tps = 0;
  Usage usage_delta;
  std::vector<double> backlog;  ///< sampled total channel backlog
  RunStats base, end;           ///< SnapshotStats at window edges
  brisk::model::ExecutionPlan plan;
  std::shared_ptr<const brisk::api::Topology> topo;
};

constexpr double kWarmupS = 1.0;
constexpr int kProbeMs = 25;         ///< backlog sampling interval
constexpr int kProbesPerSlice = 10;  ///< 0.25 s slices

Pass MeasurePass(Run& run, const std::string& what, bool emulate,
                 double window_s, const std::shared_ptr<Tracer>& tracer) {
  Pass pass;
  pass.window_s = window_s;
  auto app = BuildApp(run.workload, run.job_seed, tracer);
  if (!app.ok()) {
    run.Outcome(what, app.status());
    return pass;
  }
  pass.topo = app->topo;
  const int64_t d0 = NowNs();
  auto dep = JobFor(run.workload, *app, run.job_seed, emulate).Deploy();
  if (tracer) tracer->HarnessSpan("Job::Deploy", d0, NowNs());
  if (!dep.ok()) {
    run.Outcome(what, dep.status());
    return pass;
  }
  brisk::engine::BriskRuntime& rt = (*dep)->runtime();
  pass.plan = (*dep)->report().plan;
  pass.predicted_tps = (*dep)->report().model.throughput;
  Status s = run.CheckPlan(pass.plan);

  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupS));
  // Slices: sink tuples (exact, from the sink operators' counters),
  // process CPU, host steal and the sink latency histogram per slice.
  struct Slice {
    int64_t wall;
    double cpu;
    uint64_t sink;
    CpuJiffies jiffies;
  };
  auto sink_tuples = [&rt, &topo = *app->topo] {
    const RunStats st = rt.SnapshotStats();
    uint64_t n = 0;
    for (int op : topo.sinks()) n += st.op_totals[op].tuples_in;
    return n;
  };
  std::vector<Slice> slices;
  std::vector<brisk::Histogram> slice_lat;
  const Usage u0 = ReadUsage();
  pass.base = rt.SnapshotStats();
  app->telemetry->Reset();
  if (app->pacer) app->pacer->ResetLag();
  const int64_t w0 = NowNs();
  slices.push_back({w0, u0.cpu_s, sink_tuples(), ReadJiffies()});
  const int64_t end = w0 + static_cast<int64_t>(window_s * 1e9);
  auto tick = std::chrono::steady_clock::now();
  for (int probe = 1;; ++probe) {
    tick += std::chrono::milliseconds(kProbeMs);
    std::this_thread::sleep_until(tick);
    const int64_t now = NowNs();
    uint64_t backlog = 0;
    for (const auto& t : rt.ProbeHealth().tasks) backlog += t.backlog;
    pass.backlog.push_back(static_cast<double>(backlog));
    const bool last = now >= end;
    if (probe % kProbesPerSlice == 0 || last) {
      slices.push_back({now, ReadUsage().cpu_s, sink_tuples(), ReadJiffies()});
      slice_lat.push_back(app->telemetry->LatencySnapshot());
      app->telemetry->Reset();
      if (tracer) {
        tracer->Counter("sink_tuples", now,
                        static_cast<double>(slices.back().sink));
      }
    }
    if (tracer) tracer->Counter("backlog_tuples", now, backlog);
    if (last) break;
  }
  pass.end = rt.SnapshotStats();
  const Usage u1 = ReadUsage();
  pass.window_s = static_cast<double>(slices.back().wall - w0) * 1e-9;
  pass.steal_pct = StealPct(slices.front().jiffies, slices.back().jiffies);
  pass.usage_delta = {u1.cpu_s - u0.cpu_s, u1.minflt - u0.minflt,
                      u1.nvcsw - u0.nvcsw, u1.nivcsw - u0.nivcsw, 0};
  brisk::Histogram lat;
  for (const auto& h : slice_lat) lat.Merge(h);
  pass.latency_p99_ms = lat.Percentile(0.99) / 1e6;
  if (app->pacer) {
    pass.lag_ms_max =
        static_cast<double>(app->pacer->max_lag_ns.load()) / 1e6;
    // Open loop: every due tuple left the generator, and the backlog
    // did not grow. Both limits are 0.1 s of input, far above what a
    // source running at a quarter of capacity leaves behind.
    const double rate = run.workload.rate_tps;
    const uint64_t pending = app->pacer->Pending(NowNs());
    if (static_cast<double>(pending) > 0.1 * rate) {
      s = Join(s, Status::Internal("open loop: " + std::to_string(pending) +
                                   " due tuples not emitted"));
    }
    const std::vector<double> tail(
        pass.backlog.begin() + static_cast<long>(pass.backlog.size() * 3 / 4),
        pass.backlog.end());
    const double words = brisk::apps::WordCountParams{}.words_per_sentence;
    if (Median(tail) > 0.1 * rate * words) {
      s = Join(s, Status::Internal("open loop: backlog grew to " +
                                   std::to_string(Median(tail))));
    }
  }
  std::vector<double> tput, cpu, steal, p50;
  for (size_t i = 1; i < slices.size(); ++i) {
    const double dt = static_cast<double>(slices[i].wall - slices[i - 1].wall);
    const double dn =
        static_cast<double>(slices[i].sink - slices[i - 1].sink);
    if (dt < 0.1e9 || dn <= 0) continue;  // runt final slice
    tput.push_back(dn / (dt * 1e-9));
    cpu.push_back((slices[i].cpu - slices[i - 1].cpu) * 1e9 / dn);
    steal.push_back(StealPct(slices[i - 1].jiffies, slices[i].jiffies));
    p50.push_back(slice_lat[i - 1].Percentile(0.5) / 1e6);
  }
  const std::vector<size_t> quiet = QuietSlices(steal);
  pass.throughput_tps = MedianAt(tput, quiet);
  pass.cpu_ns_per_tuple = MedianAt(cpu, quiet);
  pass.latency_p50_ms = MedianAt(p50, quiet);
  run.info[what + ": quiet_slices"] = std::to_string(quiet.size());
  auto join = [](const std::vector<double>& v) {
    std::ostringstream os;
    os.precision(4);
    for (size_t i = 0; i < v.size(); ++i) os << (i ? " " : "") << v[i];
    return os.str();
  };
  run.info[what + ": slice_tput"] = join(tput);
  run.info[what + ": slice_cpu_ns"] = join(cpu);
  run.info[what + ": slice_steal_pct"] = join(steal);
  run.info[what + ": slice_p50_ms"] = join(p50);
  if (tput.empty()) s = Join(s, Status::Internal("no sink progress"));

  const int64_t st0 = NowNs();
  const brisk::JobReport& report = (*dep)->Stop();
  if (tracer) tracer->HarnessSpan("Deployment::Stop", st0, NowNs());
  s = Join(s, CheckConservation(*app->topo, report.plan, report.stats));
  run.Outcome(what, s);
  pass.ok = s.ok();
  return pass;
}

/// Per-layer metrics from one traced pass's window deltas.
void LayerMetrics(Run& run, const Pass& p) {
  auto& m = run.metrics;
  const auto& topo = *p.topo;
  const double w = p.window_s;
  const int batch = ConfigFor(true).batch_size;
  uint64_t vec = 0, in_all = 0, bolt_in = 0, bolt_batches = 0, recycled = 0,
           out_batches = 0;
  for (int op = 0; op < topo.num_operators(); ++op) {
    const auto& a = p.base.op_totals[op];
    const auto& b = p.end.op_totals[op];
    const double busy = static_cast<double>(b.busy_ns - a.busy_ns);
    const double tin = static_cast<double>(b.tuples_in - a.tuples_in);
    const std::string& name = topo.op(op).name;
    m["engine.task.busy_ns_per_tuple." + name] = Ratio(busy, tin);
    m["engine.task.busy_frac." + name] =
        Ratio(busy, w * 1e9 * p.plan.replication(op));
    m["engine.task.backpressure_parks_per_s." + name] = Ratio(
        static_cast<double>(b.backpressure_parks - a.backpressure_parks), w);
    vec += b.tuples_vec - a.tuples_vec;
    in_all += b.tuples_in - a.tuples_in;
    recycled += b.batches_recycled - a.batches_recycled;
    out_batches += b.batches_out - a.batches_out;
    if (!topo.op(op).is_spout) {
      bolt_in += b.tuples_in - a.tuples_in;
      bolt_batches += b.batches_in - a.batches_in;
    }
  }
  m["api.vectorized_ratio"] = Ratio(static_cast<double>(vec), in_all);
  m["engine.task.batch_fill"] =
      Ratio(static_cast<double>(bolt_in),
            static_cast<double>(bolt_batches) * batch);
  m["engine.task.recycle_hit_ratio"] =
      Ratio(static_cast<double>(recycled), out_batches);
  const auto& ea = p.base.executor;
  const auto& eb = p.end.executor;
  const double parks = static_cast<double>(eb.parks - ea.parks);
  const double steals = static_cast<double>(
      eb.steals_intra - ea.steals_intra + eb.steals_cross - ea.steals_cross);
  m["engine.executor.parks_per_s"] = Ratio(parks, w);
  m["engine.executor.wakes_per_park"] =
      Ratio(static_cast<double>(eb.wakes - ea.wakes), parks);
  m["engine.executor.steals_cross"] =
      static_cast<double>(eb.steals_cross - ea.steals_cross);
  m["engine.executor.steal_success_ratio"] = Ratio(
      steals, steals + static_cast<double>(eb.steal_failures -
                                           ea.steal_failures));
  m["engine.executor.repatriations"] =
      static_cast<double>(eb.repatriations - ea.repatriations);
  m["os.ctx_switches_voluntary_per_s"] =
      Ratio(static_cast<double>(p.usage_delta.nvcsw), w);
  m["os.ctx_switches_involuntary_per_s"] =
      Ratio(static_cast<double>(p.usage_delta.nivcsw), w);
  m["engine.channel.backlog_tuples_p50"] = Median(p.backlog);
  m["engine.channel.backlog_tuples_max"] = Quantile(p.backlog, 1.0);
  m["optimizer.plan_instances"] = p.plan.num_instances();
  m["hardware.minor_faults_per_s"] =
      Ratio(static_cast<double>(p.usage_delta.minflt), w);
  m["model.measured_over_predicted"] =
      Ratio(p.throughput_tps, p.predicted_tps);
  m["gen.lag_ms_max"] = p.lag_ms_max;
  m["sink.latency_p99_ms"] = p.latency_p99_ms;
  m["host.steal_pct"] = p.steal_pct;
}

/// Job::Deploy without calibrated profiles: the profiler runs first.
void ProfileCost(Run& run) {
  auto app = BuildApp(run.workload, run.job_seed, nullptr, /*paced=*/false);
  if (!app.ok()) {
    run.Outcome("profiled deploy", app.status());
    return;
  }
  brisk::Job job = brisk::Job::Of(app->topo);
  job.WithMachine(MachineFor(run.workload))
      .WithConfig(ConfigFor(true))
      .WithTelemetry(app->telemetry)
      .WithSeed(run.job_seed);
  const int64_t t0 = NowNs();
  auto dep = job.Deploy();
  const int64_t t1 = NowNs();
  if (!dep.ok()) {
    run.Outcome("profiled deploy", dep.status());
    return;
  }
  const brisk::JobReport& report = (*dep)->Stop();
  run.Outcome("profiled deploy",
              CheckConservation(*app->topo, report.plan, report.stats));
  run.metrics["profiler.profile_s"] = static_cast<double>(t1 - t0) * 1e-9;
}

/// Deployments per run for setup_s, half before and half after the
/// measured pass, so one steal burst cannot cover all of them.
constexpr int kSetupReps = 100;

void RunEndToEnd(Run& run) {
  Setups setup;
  SetupReps(run, kSetupReps / 2, &setup);
  if (!run.workload.linear_road) CheckWordCountOutput(run);
  const Pass p = MeasurePass(run, "measured pass", true, run.seconds, nullptr);
  SetupReps(run, kSetupReps / 2, &setup);
  const std::vector<size_t> quiet = QuietSlices(setup.steal_pct);
  run.metrics["throughput_tps"] = p.throughput_tps;
  run.metrics["cpu_ns_per_tuple"] = p.cpu_ns_per_tuple;
  run.metrics["latency_p50_ms"] = p.latency_p50_ms;
  run.metrics["setup_s"] = MedianAt(setup.seconds, quiet);
  run.info["sink_latency_p99_ms"] = std::to_string(p.latency_p99_ms);
  run.info["host_steal_pct"] = std::to_string(p.steal_pct);
  run.info["gen_lag_ms_max"] = std::to_string(p.lag_ms_max);
  run.info["setup_s_p10_p50_p90"] =
      std::to_string(Quantile(setup.seconds, 0.1)) + " " +
      std::to_string(Median(setup.seconds)) + " " +
      std::to_string(Quantile(setup.seconds, 0.9));
  run.info["setup_quiet_reps"] = std::to_string(quiet.size());
}

void RunTraced(Run& run, const std::string& trace_out) {
  std::vector<double> rlas;
  SetupReps(run, 5, nullptr, &rlas);
  run.metrics["optimizer.rlas_s"] = Median(rlas);
  RuntimeLadder(run, 5);
  if (!run.workload.linear_road) CheckWordCountOutput(run);

  // The three passes share the run's --seconds: half traced, a quarter
  // each for the emulation-off and untraced comparisons.
  auto tracer = std::make_shared<Tracer>();
  const Pass on = MeasurePass(run, "traced pass", true,
                              std::max(1.0, run.seconds / 2), tracer);
  if (on.ok) LayerMetrics(run, on);
  const double short_s = std::max(1.0, run.seconds / 4);
  const Pass off = MeasurePass(run, "traced pass, emulation off", false, short_s,
                               std::make_shared<Tracer>());
  const Pass plain = MeasurePass(run, "untraced pass", true, short_s, nullptr);
  run.metrics["hardware.rma_ns_per_tuple"] =
      on.cpu_ns_per_tuple - off.cpu_ns_per_tuple;
  run.metrics["trace.overhead_ratio"] =
      Ratio(on.cpu_ns_per_tuple, plain.cpu_ns_per_tuple);
  ProfileCost(run);
  run.info["trace_spans"] = std::to_string(tracer->span_count());
  if (!trace_out.empty()) {
    run.Outcome("trace write",
                tracer->WriteChromeJson(trace_out)
                    ? Status::OK()
                    : Status::Internal("cannot write " + trace_out));
    run.info["trace_file"] = trace_out;
  }
}

/// Cross-invocation plan determinism: the first run in a checkout
/// records its plan; later runs must deploy the same one.
Status CheckPlanFile(const std::string& path, const std::string& fp) {
  std::ifstream in(path);
  std::string recorded;
  if (in && std::getline(in, recorded)) {
    if (recorded != fp) {
      return Status::Internal("plan differs from the first run's: " + fp +
                              " vs " + recorded);
    }
    return Status::OK();
  }
  std::ofstream out(path);
  out << fp << "\n";
  return out ? Status::OK() : Status::Internal("cannot write " + path);
}

void PrintResult(const Run& run, const std::vector<MetricDef>& defs) {
  std::ostringstream os;
  os.precision(10);
  os << "{\"correct\": " << (run.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = run.metrics.find(d.name);
    const double v = it == run.metrics.end() ? 0.0 : it->second;
    os << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
       << (std::isfinite(v) ? v : 0.0) << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  os << "}, \"info\": {\"plan\": " << JsonQuote(run.plan_fp)
     << ", \"compiler\": " << JsonQuote(__VERSION__);
  for (const auto& [k, v] : run.info) {
    os << ", " << JsonQuote(k) << ": " << JsonQuote(v);
  }
  os << ", \"failures\": [";
  for (size_t i = 0; i < run.failures.size(); ++i) {
    os << (i ? ", " : "") << JsonQuote(run.failures[i]);
  }
  os << "]}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

void ListMetrics() {
  auto list = [](const std::vector<MetricDef>& defs) {
    std::string s = "[";
    for (size_t i = 0; i < defs.size(); ++i) {
      s += (i ? ", " : "") + std::string("{\"name\": \"") + defs[i].name +
           "\", \"unit\": \"" + defs[i].unit + "\"}";
    }
    return s + "]";
  };
  std::string workloads = "[";
  for (size_t i = 0; i < Workloads().size(); ++i) {
    workloads += (i ? ", \"" : "\"") + Workloads()[i].name + "\"";
  }
  std::printf("{\"workloads\": %s], \"end_to_end\": %s, \"per_layer\": %s}\n",
              workloads.c_str(), list(EndToEndMetrics()).c_str(),
              list(PerLayerMetrics()).c_str());
}

// ---------------------------------------------------------------------------
// Pacer self-test on a fake clock.
// ---------------------------------------------------------------------------

int64_t g_fake_now = 0;
int64_t FakeNow() { return g_fake_now; }

class CountingSpout final : public brisk::api::Spout {
 public:
  size_t NextBatch(size_t max_tuples,
                   brisk::api::OutputCollector* out) override {
    for (size_t i = 0; i < max_tuples; ++i) {
      brisk::Tuple t;
      t.fields.emplace_back(static_cast<int64_t>(n_++));
      out->Emit(std::move(t));
    }
    return max_tuples;
  }

 private:
  int64_t n_ = 0;
};

class Capture final : public brisk::api::OutputCollector {
 public:
  void Emit(brisk::Tuple t) override { got.push_back(std::move(t)); }
  void EmitTo(uint16_t, brisk::Tuple t) override { got.push_back(std::move(t)); }
  std::vector<brisk::Tuple> got;
};

int SelftestPacer() {
  int errors = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "pacer selftest: %s\n", what);
      ++errors;
    }
  };
  const int64_t t0 = 1'000'000'000;
  const int64_t gap = 1'000'000;  // 1000 tuples/s
  auto state = std::make_shared<PacerState>(1000.0, &FakeNow);
  PacedSpout pacer(std::make_unique<CountingSpout>(), state);
  brisk::api::OperatorContext ctx;
  expect(pacer.Prepare(ctx).ok(), "prepare");
  Capture out;
  g_fake_now = t0;
  expect(pacer.NextBatch(64, &out) == 1, "tuple 0 is due at t0");
  expect(pacer.NextBatch(64, &out) == 0, "nothing due returns 0");
  expect(!pacer.Exhausted(), "never exhausted");
  g_fake_now = t0 + 10 * gap;
  expect(pacer.NextBatch(64, &out) == 10, "ten more due after 10 gaps");
  for (size_t i = 0; i < out.got.size(); ++i) {
    expect(out.got[i].origin_ts_ns == t0 + static_cast<int64_t>(i) * gap,
           "tuple i stamped t0 + i/rate");
  }
  // Starved: 100 gaps pass but the engine asks for 5 at a time.
  g_fake_now = t0 + 110 * gap;
  state->ResetLag();
  expect(pacer.NextBatch(5, &out) == 5, "capped at max_tuples");
  expect(state->max_lag_ns.load() == 110 * gap - 11 * gap,
         "lag = now - due time of the first late tuple");
  expect(state->Pending(g_fake_now) == 111 - 16, "pending = due - emitted");
  expect(out.got.back().origin_ts_ns == t0 + 15 * gap,
         "late tuples keep their due stamps");
  // Two replicas split the rate and interleave due times.
  auto shared = std::make_shared<PacerState>(1000.0, &FakeNow);
  PacedSpout r0(std::make_unique<CountingSpout>(), shared);
  PacedSpout r1(std::make_unique<CountingSpout>(), shared);
  brisk::api::OperatorContext c0, c1;
  c0.num_replicas = c1.num_replicas = 2;
  c1.replica_index = 1;
  expect(r0.Prepare(c0).ok() && r1.Prepare(c1).ok(), "prepare replicas");
  g_fake_now = t0;
  Capture a, b;
  r0.NextBatch(64, &a);
  r1.NextBatch(64, &b);
  g_fake_now = t0 + 9 * gap;
  r0.NextBatch(64, &a);
  r1.NextBatch(64, &b);
  expect(a.got.size() == 5 && b.got.size() == 5, "replicas split the rate");
  expect(!b.got.empty() && b.got[0].origin_ts_ns == t0 + gap,
         "replica 1 owns the odd due times");
  expect(shared->emitted.load() == 10 && shared->Pending(g_fake_now) == 0,
         "shared emitted count");
  std::printf("pacer selftest: %s\n", errors == 0 ? "ok" : "FAILED");
  return errors == 0 ? 0 : 1;
}

int PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--plan-file FILE]\n"
               "       %s --list-metrics | --selftest-pacer\n",
               argv0, argv0);
  return 2;
}

}  // namespace
}  // namespace appbench

int main(int argc, char** argv) {
  using namespace appbench;
  std::string workload, trace_out, plan_file;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      ListMetrics();
      return 0;
    }
    if (a == "--selftest-pacer") return SelftestPacer();
    if (i + 1 >= argc) return PrintUsage(argv[0]);
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::atoll(v);
    } else if (a == "--seconds") {
      seconds = std::atof(v);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (a == "--plan-file") {
      plan_file = v;
    } else {
      return PrintUsage(argv[0]);
    }
  }
  const Workload* w = nullptr;
  for (const Workload& x : Workloads()) {
    if (x.name == workload) w = &x;
  }
  if (w == nullptr || seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return PrintUsage(argv[0]);
  }

  Run run;
  run.workload = *w;
  // Job seed 0 would mean "unseeded"; DeriveSeed never returns 0.
  run.job_seed = brisk::DeriveSeed(static_cast<uint64_t>(seed), 0, 0);
  run.seconds = seconds;
  if (trace == 0) {
    RunEndToEnd(run);
  } else {
    RunTraced(run, trace_out);
  }
  if (!plan_file.empty() && !run.plan_fp.empty()) {
    run.Outcome("plan file", CheckPlanFile(plan_file, run.plan_fp));
  }
  run.metrics["peak_rss_mb"] =
      static_cast<double>(ReadUsage().maxrss_kb) / 1024.0;
  PrintResult(run, trace == 0 ? EndToEndMetrics() : PerLayerMetrics());
  return 0;
}
