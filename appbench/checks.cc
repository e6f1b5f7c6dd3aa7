#include "checks.h"

#include <sstream>

#include "common/rng.h"

namespace appbench {

namespace {

/// Collects a spout's output in memory.
class VectorCollector final : public brisk::api::OutputCollector {
 public:
  void Emit(brisk::Tuple t) override { tuples.push_back(std::move(t)); }
  void EmitTo(uint16_t, brisk::Tuple t) override {
    tuples.push_back(std::move(t));
  }
  std::vector<brisk::Tuple> tuples;
};

}  // namespace

brisk::Status CheckConservation(const brisk::api::Topology& topo,
                                const brisk::model::ExecutionPlan& plan,
                                const brisk::engine::RunStats& stats) {
  const int n = topo.num_operators();
  if (static_cast<int>(stats.op_totals.size()) != n) {
    return brisk::Status::FailedPrecondition(
        "conservation: op_totals missing");
  }
  if (!stats.drained) {
    return brisk::Status::FailedPrecondition(
        "conservation: graceful drain did not reach quiescence");
  }
  // Unknowns: tuples emitted per (producer, stream).
  std::vector<std::vector<int64_t>> emitted(static_cast<size_t>(n));
  std::vector<std::vector<bool>> known(static_cast<size_t>(n));
  for (int p = 0; p < n; ++p) {
    const size_t streams = topo.op(p).output_streams.size();
    emitted[p].assign(streams, 0);
    known[p].assign(streams, false);
  }
  auto out = [&](int p) {
    return static_cast<int64_t>(stats.op_totals[p].tuples_out.value());
  };
  auto in = [&](int c) {
    return static_cast<int64_t>(stats.op_totals[c].tuples_in.value());
  };
  auto mult = [&](const brisk::api::StreamEdge& e) -> int64_t {
    return e.grouping == brisk::api::GroupingType::kBroadcast
               ? plan.replication(e.consumer_op)
               : 1;
  };

  // Propagate: any equation with one unknown term determines it.
  for (bool progress = true; progress;) {
    progress = false;
    for (int p = 0; p < n; ++p) {  // sum over streams == tuples_out
      int unknown = -1;
      int count = 0;
      int64_t rest = out(p);
      for (size_t s = 0; s < emitted[p].size(); ++s) {
        if (known[p][s]) {
          rest -= emitted[p][s];
        } else {
          unknown = static_cast<int>(s);
          ++count;
        }
      }
      if (count == 1) {
        emitted[p][unknown] = rest;
        known[p][unknown] = true;
        progress = true;
      }
    }
    for (int c = 0; c < n; ++c) {  // consumer in == sum of its edges
      if (topo.op(c).is_spout) continue;
      int up = -1;  // the one unknown (producer, stream), if unique
      int us = -1;
      bool several = false;
      int64_t coeff = 0;
      int64_t rest = in(c);
      for (const auto& e : topo.InEdges(c)) {
        if (known[e.producer_op][e.stream_id]) {
          rest -= mult(e) * emitted[e.producer_op][e.stream_id];
          continue;
        }
        if (up >= 0 && (up != e.producer_op || us != e.stream_id)) {
          several = true;
        }
        up = e.producer_op;
        us = e.stream_id;
        coeff += mult(e);
      }
      if (up >= 0 && !several && rest % coeff == 0) {
        emitted[up][us] = rest / coeff;
        known[up][us] = true;
        progress = true;
      }
    }
  }

  std::ostringstream err;
  for (int p = 0; p < n; ++p) {
    for (size_t s = 0; s < emitted[p].size(); ++s) {
      if (!known[p][s]) {
        err << topo.op(p).name << "." << topo.op(p).output_streams[s]
            << " undecidable; ";
      } else if (emitted[p][s] < 0) {
        err << topo.op(p).name << "." << topo.op(p).output_streams[s]
            << " negative (" << emitted[p][s] << "); ";
      }
    }
    int64_t sum = 0;
    for (int64_t v : emitted[p]) sum += v;
    if (sum != out(p)) {
      err << topo.op(p).name << " out " << out(p) << " != streams " << sum
          << "; ";
    }
  }
  for (int c = 0; c < n; ++c) {
    if (topo.op(c).is_spout) continue;
    int64_t expect = 0;
    for (const auto& e : topo.InEdges(c)) {
      expect += mult(e) * emitted[e.producer_op][e.stream_id];
    }
    if (expect != in(c)) {
      err << topo.op(c).name << " in " << in(c) << " != edges " << expect
          << "; ";
    }
  }
  const std::string msg = err.str();
  if (!msg.empty()) {
    return brisk::Status::Internal("conservation: " + msg);
  }
  return brisk::Status::OK();
}

std::string PlanFingerprint(const brisk::model::ExecutionPlan& plan) {
  std::ostringstream os;
  const auto& topo = plan.topology();
  for (int op = 0; op < topo.num_operators(); ++op) {
    if (op > 0) os << ";";
    os << topo.op(op).name << ":" << plan.replication(op) << "@";
    for (int r = 0; r < plan.replication(op); ++r) {
      if (r > 0) os << ",";
      os << plan.SocketOf(plan.InstanceId(op, r));
    }
  }
  return os.str();
}

std::map<std::string, int64_t> ReferenceWordCounts(
    const brisk::apps::WordCountParams& params, uint64_t job_seed,
    int spout_op, int spout_replicas) {
  std::map<std::string, int64_t> counts;
  for (int r = 0; r < spout_replicas; ++r) {
    brisk::apps::SentenceSpout spout(params);
    brisk::api::OperatorContext ctx;
    ctx.operator_name = "spout";
    ctx.replica_index = r;
    ctx.num_replicas = spout_replicas;
    ctx.seed = brisk::DeriveSeed(job_seed, spout_op, r);
    if (!spout.Prepare(ctx).ok()) return {};
    VectorCollector sentences;
    while (spout.NextBatch(256, &sentences) > 0) {
    }
    for (const brisk::Tuple& t : sentences.tuples) {
      const std::string_view s = t.GetString(0);
      for (size_t start = 0; start < s.size();) {
        size_t end = s.find(' ', start);
        if (end == std::string_view::npos) end = s.size();
        if (end > start) ++counts[std::string(s.substr(start, end - start))];
        start = end + 1;
      }
    }
  }
  return counts;
}

brisk::Status CompareWordCounts(const std::map<std::string, int64_t>& ref,
                                const SinkWordCounts& got) {
  if (ref.empty()) {
    return brisk::Status::Internal("word counts: empty reference");
  }
  if (got.max_count.size() != ref.size()) {
    return brisk::Status::Internal(
        "word counts: sink saw " + std::to_string(got.max_count.size()) +
        " distinct words, reference has " + std::to_string(ref.size()));
  }
  for (const auto& [word, count] : ref) {
    const auto m = got.max_count.find(word);
    const auto t = got.tuples.find(word);
    if (m == got.max_count.end() || t == got.tuples.end() ||
        m->second != count || t->second != count) {
      return brisk::Status::Internal("word counts: '" + word +
                                     "' expected " + std::to_string(count));
    }
  }
  return brisk::Status::OK();
}

}  // namespace appbench
