#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/result_io.h"
#include "dsm/dsm_json.h"
#include "dsm/sample_spaces.h"
#include "mobility/generator.h"
#include "positioning/error_model.h"
#include "testing/reference_translate.h"

namespace trips::core {
namespace {

class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto mall = dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2});
    ASSERT_TRUE(mall.ok());
    mall_ = std::make_unique<dsm::Dsm>(std::move(mall).ValueOrDie());
    auto planner = dsm::RoutePlanner::Build(mall_.get());
    ASSERT_TRUE(planner.ok());
    planner_ = std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
    generator_ = std::make_unique<mobility::MobilityGenerator>(mall_.get(),
                                                               planner_.get());
  }

  positioning::PositioningSequence MakeNoisy(const std::string& id, uint64_t seed) {
    Rng rng(seed);
    auto dev = generator_->GenerateDevice(id, 0, &rng);
    EXPECT_TRUE(dev.ok());
    positioning::ErrorModelOptions noise;
    noise.floor_count = 2;
    return positioning::ApplyErrorModel(dev->truth, noise, &rng);
  }

  std::vector<config::LabeledSegment> MakeTraining(int devices, uint64_t seed) {
    Rng rng(seed);
    std::vector<config::LabeledSegment> training;
    for (int d = 0; d < devices; ++d) {
      auto dev = generator_->GenerateDevice("train" + std::to_string(d), 0, &rng);
      EXPECT_TRUE(dev.ok());
      for (const MobilitySemantic& s : dev->semantics.semantics) {
        config::LabeledSegment seg;
        seg.event = s.event;
        seg.segment.records = dev->truth.RecordsIn(s.range);
        if (seg.segment.records.size() >= 2) training.push_back(std::move(seg));
      }
    }
    return training;
  }

  std::unique_ptr<dsm::Dsm> mall_;
  std::unique_ptr<dsm::RoutePlanner> planner_;
  std::unique_ptr<mobility::MobilityGenerator> generator_;
};

TEST_F(EngineFixture, BuilderRequiresDsm) {
  auto engine = Engine::Builder().Build();
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineFixture, BorrowedDsmMustHaveTopology) {
  dsm::Dsm raw;  // topology not computed
  auto engine = Engine::Builder().BorrowDsm(&raw).Build();
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
  auto shared = Engine::Builder().ShareDsm(std::make_shared<const dsm::Dsm>()).Build();
  EXPECT_EQ(shared.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineFixture, OwnedDsmGetsTopologyComputed) {
  auto mall = dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2});
  ASSERT_TRUE(mall.ok());
  auto engine = Engine::Builder().SetDsm(std::move(mall).ValueOrDie()).Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->dsm().topology_computed());
  EXPECT_TRUE((*engine)->training_status().ok());
  EXPECT_FALSE((*engine)->classifier().trained());
}

TEST_F(EngineFixture, LoadDsmFileBuildsEngine) {
  std::string path = testing::TempDir() + "/trips_engine_dsm.json";
  ASSERT_TRUE(dsm::SaveToFile(*mall_, path).ok());
  auto engine = Engine::Builder().LoadDsmFile(path).Build();
  std::remove(path.c_str());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->dsm().entities().size(), mall_->entities().size());
  EXPECT_TRUE((*engine)->dsm().topology_computed());
}

TEST_F(EngineFixture, LoadDsmFileFailsOnMissingFile) {
  auto engine = Engine::Builder().LoadDsmFile("/nonexistent/dsm.json").Build();
  EXPECT_FALSE(engine.ok());
}

TEST_F(EngineFixture, TrainingIsBestEffort) {
  // Segments for a single pattern cannot train a classifier; the engine still
  // builds, reports the outcome, and keeps the rule-based identifier.
  std::vector<config::LabeledSegment> training = MakeTraining(4, 7);
  std::vector<config::LabeledSegment> one_pattern;
  for (const config::LabeledSegment& seg : training) {
    if (seg.event == kEventStay) one_pattern.push_back(seg);
  }
  ASSERT_FALSE(one_pattern.empty());
  auto engine = Engine::Builder()
                    .BorrowDsm(mall_.get())
                    .SetTrainingData(one_pattern)
                    .Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->training_status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE((*engine)->classifier().trained());
}

TEST_F(EngineFixture, TrainsEventModelAtBuild) {
  auto engine = Engine::Builder()
                    .BorrowDsm(mall_.get())
                    .SetTrainingData(MakeTraining(6, 9))
                    .Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->training_status().ok());
  EXPECT_TRUE((*engine)->classifier().trained());
}

// Engine::Translate equals the sequential layer-by-layer oracle with the
// engine's baseline (uniform) knowledge and its trained classifier.
TEST_F(EngineFixture, TranslateMatchesTranslator) {
  auto engine = Engine::Builder()
                    .BorrowDsm(mall_.get())
                    .SetTrainingData(MakeTraining(4, 23))
                    .Build();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->classifier().trained());

  positioning::PositioningSequence seq = MakeNoisy("m1", 21);
  TranslationResult via_engine = (*engine)->Translate(seq);
  auto expected = reference::TranslateAll(*mall_, {seq}, (*engine)->options(),
                                          &(*engine)->classifier(),
                                          /*learn_knowledge=*/false);
  ASSERT_TRUE(expected.ok());
  const TranslationResult& via_reference = (*expected)[0];
  EXPECT_EQ(via_engine.cleaned.records, via_reference.cleaned.records);
  EXPECT_EQ(SemanticsToJson(via_engine.original_semantics).Dump(),
            SemanticsToJson(via_reference.original_semantics).Dump());
  EXPECT_EQ(SemanticsToJson(via_engine.semantics).Dump(),
            SemanticsToJson(via_reference.semantics).Dump());
}

TEST_F(EngineFixture, SharedEngineTranslatesConcurrently) {
  auto built = Engine::Builder()
                   .BorrowDsm(mall_.get())
                   .SetTrainingData(MakeTraining(4, 31))
                   .Build();
  ASSERT_TRUE(built.ok());
  std::shared_ptr<const Engine> engine = *built;

  std::vector<positioning::PositioningSequence> inputs;
  for (int i = 0; i < 4; ++i) {
    // Named first: GCC 12 in Release builds flags `"c" + std::to_string(i)`
    // with a false -Wrestrict.
    const std::string n = std::to_string(i);
    inputs.push_back(MakeNoisy("c" + n, 40 + i));
  }
  // Serial reference.
  std::vector<std::string> expected;
  for (const auto& seq : inputs) {
    expected.push_back(SemanticsToJson(engine->Translate(seq).semantics).Dump());
  }

  // Each thread translates every input through the shared engine.
  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const auto& seq : inputs) {
        got[t].push_back(SemanticsToJson(engine->Translate(seq).semantics).Dump());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], expected) << "thread " << t;
  }
}

}  // namespace
}  // namespace trips::core
