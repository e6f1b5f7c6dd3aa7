// Unit tests for engine internals: channels, task wiring/routing, and
// the execution-mode configurations.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "engine/channel.h"
#include "engine/config.h"
#include "engine/task.h"

namespace brisk::engine {
namespace {

Tuple WordTuple(const std::string& w) {
  Tuple t;
  t.fields.emplace_back(w);
  return t;
}

TEST(ChannelTest, RoundTripsEnvelopes) {
  Channel ch(0, 1, 4);
  EXPECT_EQ(ch.from_instance(), 0);
  EXPECT_EQ(ch.to_instance(), 1);
  Envelope env;
  env.count = 3;
  env.batch = std::make_unique<JumboTuple>();
  env.batch->tuples.push_back(WordTuple("a"));
  ASSERT_TRUE(ch.TryPush(std::move(env)));
  Envelope out;
  ASSERT_TRUE(ch.TryPop(&out));
  EXPECT_EQ(out.count, 3u);
  ASSERT_NE(out.batch, nullptr);
  EXPECT_EQ(out.batch->tuples[0].GetString(0), "a");
  EXPECT_FALSE(ch.TryPop(&out));
}

TEST(ChannelTest, RecycleReturnsShellsToTheProducerSide) {
  Channel ch(0, 1, 4);
  // Nothing recycled yet.
  JumboTuplePtr shell;
  EXPECT_FALSE(ch.TryPopRecycled(&shell));
  // Consumer hands back two drained shells; producer gets both, FIFO.
  auto a = std::make_unique<JumboTuple>();
  a->batch_seq = 1;
  auto b = std::make_unique<JumboTuple>();
  b->batch_seq = 2;
  ch.Recycle(std::move(a));
  ch.Recycle(std::move(b));
  ASSERT_TRUE(ch.TryPopRecycled(&shell));
  EXPECT_EQ(shell->batch_seq, 1u);
  ASSERT_TRUE(ch.TryPopRecycled(&shell));
  EXPECT_EQ(shell->batch_seq, 2u);
  EXPECT_FALSE(ch.TryPopRecycled(&shell));
}

TEST(ChannelTest, RecycledShellKeepsCapacityAfterReset) {
  Channel ch(0, 1, 4);
  auto batch = std::make_unique<JumboTuple>();
  for (int i = 0; i < 64; ++i) batch->tuples.push_back(WordTuple("w"));
  const size_t cap = batch->tuples.capacity();
  batch->Reset();
  EXPECT_TRUE(batch->empty());
  ch.Recycle(std::move(batch));
  JumboTuplePtr shell;
  ASSERT_TRUE(ch.TryPopRecycled(&shell));
  EXPECT_EQ(shell->tuples.capacity(), cap);  // the point of the pool
}

TEST(ChannelTest, RetryAfterFullPushKeepsEnvelope) {
  Channel ch(0, 1, 2);
  size_t pushed = 0;
  while (true) {
    Envelope env;
    env.count = 1;
    env.batch = std::make_unique<JumboTuple>();
    if (!ch.TryPush(std::move(env))) {
      // The failed envelope must still be intact for a retry.
      ASSERT_NE(env.batch, nullptr);
      break;
    }
    ++pushed;
  }
  EXPECT_GE(pushed, 2u);
}

TEST(EngineConfigTest, FactoriesEncodeSystemTraits) {
  const EngineConfig brisk = EngineConfig::Brisk();
  EXPECT_GT(brisk.batch_size, 1);
  EXPECT_FALSE(brisk.serialize_tuples);
  EXPECT_FALSE(brisk.duplicate_headers);
  EXPECT_TRUE(brisk.recycle_batches);

  const EngineConfig nojumbo = EngineConfig::BriskNoJumbo();
  EXPECT_EQ(nojumbo.batch_size, 1);
  EXPECT_FALSE(nojumbo.serialize_tuples);

  const EngineConfig storm = EngineConfig::StormLike();
  EXPECT_TRUE(storm.serialize_tuples);
  EXPECT_TRUE(storm.duplicate_headers);
  EXPECT_TRUE(storm.extra_condition_checks);
  EXPECT_LT(storm.batch_size, brisk.batch_size);
  EXPECT_FALSE(storm.recycle_batches);  // allocate per transfer

  const EngineConfig flink = EngineConfig::FlinkLike();
  EXPECT_TRUE(flink.serialize_tuples);
  EXPECT_FALSE(flink.extra_condition_checks);
  EXPECT_FALSE(flink.recycle_batches);
}

/// Drives a Task directly (no thread) to verify collector routing.
class RoutingFixture : public ::testing::Test {
 protected:
  /// Builds a producer task with one route of `consumers` channels
  /// under the given grouping.
  void Wire(api::GroupingType grouping, int consumers, int batch_size,
            size_t key_field = 0) {
    config_ = EngineConfig::Brisk();
    config_.batch_size = batch_size;
    task_ = std::make_unique<Task>(0, 0, config_, nullptr);
    OutRoute route;
    route.stream_id = 0;
    route.grouping = grouping;
    route.key_field = key_field;
    for (int c = 0; c < consumers; ++c) {
      channels_.push_back(std::make_unique<Channel>(0, c + 1, 64));
      route.channels.push_back(channels_.back().get());
      route.buffer_index.push_back(task_->AddBuffer());
    }
    task_->AddOutRoute(std::move(route));
  }

  /// Pops every batch from channel `c` and returns the tuples,
  /// recycling the drained shells like a consumer task would.
  std::vector<Tuple> Drain(int c) {
    std::vector<Tuple> out;
    Envelope env;
    while (channels_[c]->TryPop(&env)) {
      for (auto& t : env.batch->tuples) out.push_back(t);
      env.batch->Reset();
      channels_[c]->Recycle(std::move(env.batch));
    }
    return out;
  }

  EngineConfig config_;
  std::unique_ptr<Task> task_;
  std::vector<std::unique_ptr<Channel>> channels_;
};

TEST_F(RoutingFixture, ShuffleRoundRobinsAcrossConsumers) {
  Wire(api::GroupingType::kShuffle, 3, /*batch_size=*/2);
  for (int i = 0; i < 12; ++i) task_->EmitTo(0, WordTuple("w"));
  // 12 tuples over 3 consumers round-robin = 4 each (batch size 2 =>
  // every full batch was flushed).
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(Drain(c).size(), 4u) << "consumer " << c;
  }
}

TEST_F(RoutingFixture, FieldsGroupingRoutesSameKeyToSameConsumer) {
  Wire(api::GroupingType::kFields, 4, /*batch_size=*/1);
  const char* words[] = {"alpha", "beta", "gamma", "delta", "alpha",
                         "beta",  "alpha"};
  for (const char* w : words) task_->EmitTo(0, WordTuple(w));
  // Collect word->consumer mapping; each word must map to exactly one.
  std::map<std::string, std::set<int>> where;
  for (int c = 0; c < 4; ++c) {
    for (const auto& t : Drain(c)) {
      where[std::string(t.GetString(0))].insert(c);
    }
  }
  EXPECT_EQ(where.size(), 4u);  // four distinct words
  for (const auto& [word, consumers] : where) {
    EXPECT_EQ(consumers.size(), 1u) << word << " split across consumers";
  }
}

TEST_F(RoutingFixture, BroadcastCopiesToEveryConsumer) {
  Wire(api::GroupingType::kBroadcast, 3, /*batch_size=*/1);
  for (int i = 0; i < 5; ++i) task_->EmitTo(0, WordTuple("b"));
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(Drain(c).size(), 5u) << "consumer " << c;
  }
}

TEST_F(RoutingFixture, GlobalGoesToFirstReplicaOnly) {
  Wire(api::GroupingType::kGlobal, 1, /*batch_size=*/1);
  for (int i = 0; i < 5; ++i) task_->EmitTo(0, WordTuple("g"));
  EXPECT_EQ(Drain(0).size(), 5u);
}

TEST_F(RoutingFixture, PartialBatchesStayBufferedUntilFull) {
  Wire(api::GroupingType::kShuffle, 1, /*batch_size=*/8);
  for (int i = 0; i < 7; ++i) task_->EmitTo(0, WordTuple("p"));
  EXPECT_TRUE(Drain(0).empty());  // below the jumbo size: not flushed
  task_->EmitTo(0, WordTuple("p"));
  EXPECT_EQ(Drain(0).size(), 8u);  // 8th tuple completed the batch
}

TEST_F(RoutingFixture, StatsCountEmissions) {
  Wire(api::GroupingType::kShuffle, 2, /*batch_size=*/2);
  for (int i = 0; i < 10; ++i) task_->EmitTo(0, WordTuple("s"));
  EXPECT_EQ(task_->stats().tuples_out, 10u);
  EXPECT_EQ(task_->stats().batches_out, 4u);  // 2 full batches each side
}

TEST_F(RoutingFixture, FlushReusesRecycledBatchShells) {
  Wire(api::GroupingType::kShuffle, 1, /*batch_size=*/4);
  // First flush: pool empty, shell is allocated.
  for (int i = 0; i < 4; ++i) task_->EmitTo(0, WordTuple("a"));
  EXPECT_EQ(task_->stats().batches_out, 1u);
  EXPECT_EQ(task_->stats().batches_recycled, 0u);
  EXPECT_EQ(Drain(0).size(), 4u);  // drain hands the shell back
  // Every subsequent flush reuses the recycled shell: steady state
  // never touches the allocator.
  for (int round = 1; round <= 3; ++round) {
    for (int i = 0; i < 4; ++i) task_->EmitTo(0, WordTuple("b"));
    EXPECT_EQ(Drain(0).size(), 4u);
    EXPECT_EQ(task_->stats().batches_recycled,
              static_cast<uint64_t>(round));
  }
}

TEST_F(RoutingFixture, RecyclingDisabledStillFlows) {
  config_ = EngineConfig::Brisk();
  config_.batch_size = 2;
  config_.recycle_batches = false;
  task_ = std::make_unique<Task>(0, 0, config_, nullptr);
  OutRoute route;
  route.stream_id = 0;
  route.grouping = api::GroupingType::kShuffle;
  channels_.push_back(std::make_unique<Channel>(0, 1, 64));
  route.channels.push_back(channels_.back().get());
  route.buffer_index.push_back(task_->AddBuffer());
  task_->AddOutRoute(std::move(route));
  for (int i = 0; i < 6; ++i) task_->EmitTo(0, WordTuple("c"));
  EXPECT_EQ(Drain(0).size(), 6u);
  EXPECT_EQ(task_->stats().batches_recycled, 0u);  // pool bypassed
}

/// Two routes on the same stream: every route must see every tuple —
/// earlier routes receive copies, the last one the moved original.
TEST_F(RoutingFixture, MultipleRoutesOnOneStreamAllReceiveTheTuple) {
  config_ = EngineConfig::Brisk();
  config_.batch_size = 1;
  task_ = std::make_unique<Task>(0, 0, config_, nullptr);
  for (int r = 0; r < 2; ++r) {
    OutRoute route;
    route.stream_id = 0;
    route.grouping = api::GroupingType::kGlobal;
    channels_.push_back(std::make_unique<Channel>(0, r + 1, 64));
    route.channels.push_back(channels_.back().get());
    route.buffer_index.push_back(task_->AddBuffer());
    task_->AddOutRoute(std::move(route));
  }
  const std::string long_word(100, 'x');  // heap string: copies must be deep
  for (int i = 0; i < 3; ++i) task_->EmitTo(0, WordTuple(long_word));
  for (int c = 0; c < 2; ++c) {
    const std::vector<Tuple> got = Drain(c);
    ASSERT_EQ(got.size(), 3u) << "route " << c;
    for (const Tuple& t : got) EXPECT_EQ(t.GetString(0), long_word);
  }
}

TEST_F(RoutingFixture, EmitOnStreamWithoutRoutesIsDropped) {
  Wire(api::GroupingType::kShuffle, 1, /*batch_size=*/1);
  task_->EmitTo(7, WordTuple("nowhere"));  // no route on stream 7
  task_->EmitTo(0, WordTuple("routed"));
  EXPECT_EQ(Drain(0).size(), 1u);
  EXPECT_EQ(task_->stats().tuples_out, 2u);
}

}  // namespace
}  // namespace brisk::engine
