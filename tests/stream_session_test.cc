// Online translation: records fed one at a time into a stream session of a
// core::Service, flushed by idleness, buffer cap or the final drain.
#include <gtest/gtest.h>

#include <memory>

#include "core/result_io.h"
#include "core/service.h"
#include "dsm/sample_spaces.h"
#include "mobility/generator.h"

namespace trips::core {
namespace {

class OnlineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto mall = dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2});
    ASSERT_TRUE(mall.ok());
    dsm_ = std::make_unique<dsm::Dsm>(std::move(mall).ValueOrDie());
    auto engine = Engine::Builder().BorrowDsm(dsm_.get()).Build();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    service_ = std::make_unique<Service>(*engine);

    auto planner = dsm::RoutePlanner::Build(dsm_.get());
    ASSERT_TRUE(planner.ok());
    planner_ = std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
    generator_ = std::make_unique<mobility::MobilityGenerator>(dsm_.get(),
                                                               planner_.get());
  }

  // Noise-free ground truth: no dropout gaps, so only the test decides when
  // the device goes idle.
  positioning::PositioningSequence GenerateTruth(const std::string& id,
                                                 uint64_t seed) {
    Rng rng(seed);
    auto dev = generator_->GenerateDevice(id, 0, &rng);
    EXPECT_TRUE(dev.ok());
    return std::move(dev).ValueOrDie().truth;
  }

  std::unique_ptr<dsm::Dsm> dsm_;
  std::unique_ptr<Service> service_;
  std::unique_ptr<dsm::RoutePlanner> planner_;
  std::unique_ptr<mobility::MobilityGenerator> generator_;
};

TEST_F(OnlineFixture, BuffersUntilIdle) {
  auto online = service_->NewStreamSession();
  positioning::PositioningSequence seq = GenerateTruth("s1", 1);

  TimestampMs last = 0;
  for (const positioning::RawRecord& r : seq.records) {
    auto flushed = online->Ingest("s1", r);
    ASSERT_TRUE(flushed.ok());
    EXPECT_TRUE(flushed->empty());  // cap not reached
    last = r.timestamp;
    // Mid-stream polls never flush an active device.
    auto polled = online->Poll(r.timestamp);
    ASSERT_TRUE(polled.ok());
    EXPECT_TRUE(polled->empty());
  }
  EXPECT_EQ(online->PendingDevices(), 1u);
  EXPECT_EQ(online->PendingRecords(), seq.records.size());

  // Once the device has been quiet past the flush window, Poll emits it.
  auto results = online->Poll(last + 11 * kMillisPerMinute);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].semantics.device_id, "s1");
  EXPECT_FALSE((*results)[0].semantics.Empty());
  EXPECT_EQ(online->PendingDevices(), 0u);
  EXPECT_EQ(online->EmittedCount(), 1u);
}

TEST_F(OnlineFixture, InterleavedDevicesFlushIndependently) {
  auto online = service_->NewStreamSession();
  positioning::PositioningSequence a = GenerateTruth("a", 2);
  positioning::PositioningSequence b = GenerateTruth("b", 3);
  // Shift b to start two hours later so a goes idle while b streams.
  for (positioning::RawRecord& r : b.records) r.timestamp += kMillisPerHour * 2;

  for (const auto& r : a.records) {
    ASSERT_TRUE(online->Ingest("a", r).ok());
  }
  EXPECT_EQ(online->PendingDevices(), 1u);
  std::vector<TranslationResult> emitted;
  for (const auto& r : b.records) {
    ASSERT_TRUE(online->Ingest("b", r).ok());
    auto polled = online->Poll(r.timestamp);
    ASSERT_TRUE(polled.ok());
    for (auto& res : *polled) emitted.push_back(std::move(res));
  }
  // a must have been emitted while b streamed.
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].semantics.device_id, "a");
  EXPECT_EQ(online->PendingDevices(), 1u);

  auto rest = online->FlushAll();
  ASSERT_TRUE(rest.ok());
  ASSERT_EQ(rest->size(), 1u);
  EXPECT_EQ((*rest)[0].semantics.device_id, "b");
  EXPECT_EQ(online->PendingRecords(), 0u);
}

TEST_F(OnlineFixture, BufferCapForcesFlush) {
  StreamOptions opt;
  opt.max_buffer_records = 50;
  auto online = service_->NewStreamSession(opt);
  positioning::PositioningSequence seq = GenerateTruth("cap", 4);
  ASSERT_GT(seq.records.size(), 60u);

  bool force_flushed = false;
  for (size_t i = 0; i < 60; ++i) {
    auto flushed = online->Ingest("cap", seq.records[i]);
    ASSERT_TRUE(flushed.ok());
    if (!flushed->empty()) {
      force_flushed = true;
      EXPECT_EQ((*flushed)[0].raw.records.size(), 50u);
    }
  }
  EXPECT_TRUE(force_flushed);
}

TEST_F(OnlineFixture, TinyBuffersTranslatedAtFinalFlush) {
  auto online = service_->NewStreamSession();
  // Two stray fixes only — below min_flush_records, but FlushAll is the end
  // of the stream, so the remainder is translated rather than lost.
  ASSERT_TRUE(online->Ingest("stray", {50, 30, 0, 1000}).ok());
  ASSERT_TRUE(online->Ingest("stray", {50, 31, 0, 4000}).ok());
  auto results = online->FlushAll();
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].raw.records.size(), 2u);
  EXPECT_EQ(online->EmittedCount(), 1u);
  EXPECT_EQ(online->PendingDevices(), 0u);
}

TEST_F(OnlineFixture, OnlineMatchesBatchTranslation) {
  positioning::PositioningSequence seq = GenerateTruth("same", 5);
  // Batch, with the engine's baseline knowledge (what stream sessions use).
  auto batch = service_->NewBatchSession()->Submit(
      {.sequences = {seq}, .learn_knowledge = false});
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->results.size(), 1u);
  // Online, fed record by record.
  auto online = service_->NewStreamSession();
  for (const auto& r : seq.records) {
    ASSERT_TRUE(online->Ingest("same", r).ok());
  }
  auto streamed = online->FlushAll();
  ASSERT_TRUE(streamed.ok());
  ASSERT_EQ(streamed->size(), 1u);
  // Identical input, identical engine => identical semantics bytes.
  EXPECT_EQ(SemanticsToJson((*streamed)[0].semantics).Dump(),
            SemanticsToJson(batch->results[0].semantics).Dump());
}

}  // namespace
}  // namespace trips::core
