// Output checks the harness runs on every engine run it makes. Each
// returns OK or a message naming what did not hold; the harness counts
// a run with any failed check as a failed operation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/topology.h"
#include "apps/word_count.h"
#include "common/status.h"
#include "engine/runtime.h"
#include "model/execution_plan.h"

namespace appbench {

/// Per-edge tuple conservation after a graceful drain: for every
/// consumer, tuples in == sum over its input edges of the tuples its
/// producers emitted on that stream (times the replica count on
/// broadcast edges). Per-stream emit counts are solved from the
/// per-operator totals (RunStats::op_totals); every equation must be
/// decidable and hold exactly.
brisk::Status CheckConservation(const brisk::api::Topology& topo,
                                const brisk::model::ExecutionPlan& plan,
                                const brisk::engine::RunStats& stats);

/// Instances per operator and their sockets, e.g.
/// "spout:1@0;splitter:2@0,1;..." — equal strings mean equal plans.
std::string PlanFingerprint(const brisk::model::ExecutionPlan& plan);

/// Reference word counts: regenerates the sentences every spout
/// replica of a seeded job emits (SentenceSpout with the per-replica
/// seed the engine derives) and counts their words.
std::map<std::string, int64_t> ReferenceWordCounts(
    const brisk::apps::WordCountParams& params, uint64_t job_seed,
    int spout_op, int spout_replicas);

/// What a WC sink saw, per word: the (word, count) pairs it received.
struct SinkWordCounts {
  std::map<std::string, int64_t> max_count;
  std::map<std::string, int64_t> tuples;
};

/// Exact match: every reference word reached the sink once per
/// occurrence and its last count equals the reference count.
brisk::Status CompareWordCounts(const std::map<std::string, int64_t>& ref,
                                const SinkWordCounts& got);

}  // namespace appbench
