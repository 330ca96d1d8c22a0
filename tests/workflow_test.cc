#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "config/data_selector.h"
#include "config/event_editor.h"
#include "core/engine.h"
#include "core/result_io.h"
#include "core/service.h"
#include "dsm/sample_spaces.h"
#include "mobility/generator.h"

namespace trips::core {
namespace {

// End-to-end workflow tests mirroring the paper's five steps (§4), driven
// through the components a front end wires together: DataSelector,
// EventEditor, Engine::Builder, Service and ExportResultFiles.
class PipelineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto mall = dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2});
    ASSERT_TRUE(mall.ok());
    mall_ = std::make_unique<dsm::Dsm>(std::move(mall).ValueOrDie());
    auto planner = dsm::RoutePlanner::Build(mall_.get());
    ASSERT_TRUE(planner.ok());
    planner_ = std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
  }

  std::vector<positioning::PositioningSequence> GenerateFleet(int n, uint64_t seed) {
    mobility::MobilityGenerator gen(mall_.get(), planner_.get());
    Rng rng(seed);
    auto fleet = gen.GenerateFleet(n, {0, kMillisPerHour}, &rng);
    EXPECT_TRUE(fleet.ok());
    std::vector<positioning::PositioningSequence> out;
    for (auto& dev : fleet.ValueOrDie()) out.push_back(std::move(dev.truth));
    return out;
  }

  std::unique_ptr<dsm::Dsm> mall_;
  std::unique_ptr<dsm::RoutePlanner> planner_;
};

TEST_F(PipelineFixture, RunRequiresDsm) {
  // Selected data and event patterns are not enough: without step (2) no
  // engine is built, so there is nothing to translate with.
  config::EventEditor editor;
  ASSERT_TRUE(editor.DefinePattern(kEventStay).ok());
  auto engine = Engine::Builder().SetTrainingData(editor.training_data()).Build();
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(Engine::Builder().LoadDsmFile("/nonexistent/dsm.json").Build().ok());
}

TEST_F(PipelineFixture, FiveStepWorkflow) {
  // Step (1): positioning data + selection rule (operating hours etc.).
  config::DataSelector selector;
  selector.AddSequences(GenerateFleet(4, 7));
  selector.SetRule(config::MinRecords(10));
  auto selected = selector.Select();
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  ASSERT_EQ(selected->size(), 4u);

  // Step (3): define event patterns (training left to the rule-based model).
  config::EventEditor editor;
  ASSERT_TRUE(editor.DefinePattern("stay").ok());
  ASSERT_TRUE(editor.DefinePattern("pass-by").ok());

  // Step (2): install the DSM.
  auto engine = Engine::Builder()
                    .SetDsm(*mall_)
                    .SetTrainingData(editor.training_data())
                    .Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->dsm().entities().size(), mall_->entities().size());

  // Step (4): translate.
  Service service(*engine);
  auto response = service.Translate({.sequences = *selected});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->results.size(), 4u);
  for (const TranslationResult& r : response->results) {
    EXPECT_FALSE(r.semantics.Empty());
  }

  // Step (5): export result files.
  std::string dir = testing::TempDir() + "/trips_pipeline_out";
  std::filesystem::create_directories(dir);
  auto written = ExportResultFiles(response->results, dir);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written.ValueOrDie(), 4u);
  // Files parse back.
  const MobilitySemanticsSequence& first = response->results[0].semantics;
  auto back = ReadResultFile(dir + "/" + first.device_id + ".result.json");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(SemanticsToJson(*back).Dump(), SemanticsToJson(first).Dump());
  std::filesystem::remove_all(dir);
}

TEST_F(PipelineFixture, TrainingDataFlowsIntoTranslator) {
  config::DataSelector selector;
  selector.AddSequences(GenerateFleet(2, 9));
  auto selected = selector.Select();
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();

  // Designate labeled segments from generated ground truth.
  mobility::MobilityGenerator gen(mall_.get(), planner_.get());
  Rng rng(10);
  config::EventEditor editor;
  ASSERT_TRUE(editor.DefinePattern(kEventStay).ok());
  ASSERT_TRUE(editor.DefinePattern(kEventPassBy).ok());
  ASSERT_TRUE(editor.DefinePattern(kEventWander).ok());
  for (int d = 0; d < 6; ++d) {
    // Named first: GCC 12 in Release builds flags `"t" + std::to_string(d)`
    // with a false -Wrestrict.
    const std::string n = std::to_string(d);
    auto dev = gen.GenerateDevice("t" + n, 0, &rng);
    ASSERT_TRUE(dev.ok());
    for (const MobilitySemantic& s : dev->semantics.semantics) {
      if (!editor.HasPattern(s.event)) continue;
      // Ignore failures from too-short segments.
      (void)editor.DesignateRange(s.event, dev->truth, s.range);
    }
  }
  ASSERT_GT(editor.training_data().size(), 10u);

  auto engine = Engine::Builder()
                    .SetDsm(*mall_)
                    .SetTrainingData(editor.training_data())
                    .Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->training_status().ok());
  EXPECT_TRUE((*engine)->classifier().trained());

  Service service(*engine);
  auto response = service.Translate({.sequences = *selected});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->results.size(), selected->size());
}

}  // namespace
}  // namespace trips::core
