#include <gtest/gtest.h>

#include "cleaning/cleaner.h"
#include "dsm/sample_spaces.h"
#include "positioning/error_model.h"
#include "positioning/record_block.h"

namespace trips::cleaning {
namespace {

using positioning::PositioningSequence;
using positioning::RawRecord;
using positioning::RecordBlock;

class CleanerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto mall = dsm::BuildMallDsm({.floors = 3, .shops_per_arm = 2});
    ASSERT_TRUE(mall.ok());
    dsm_ = std::make_unique<dsm::Dsm>(std::move(mall).ValueOrDie());
    auto planner = dsm::RoutePlanner::Build(dsm_.get());
    ASSERT_TRUE(planner.ok());
    planner_ = std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
  }

  // A walk along the horizontal corridor at ~1 m/s, 3 s sampling, bouncing
  // between the corridor ends so arbitrarily long walks stay in the mall.
  PositioningSequence CorridorWalk(int n) const {
    PositioningSequence seq;
    seq.device_id = "walker";
    double x = 5.0;
    double dir = 3.0;
    for (int i = 0; i < n; ++i) {
      seq.records.emplace_back(x, 30.0, 0, static_cast<TimestampMs>(i) * 3000);
      if (x + dir > 95.0 || x + dir < 5.0) dir = -dir;
      x += dir;
    }
    return seq;
  }

  // Cleans `raw` through its block form and reads the records back.
  static PositioningSequence Clean(const RawDataCleaner& cleaner,
                                   const PositioningSequence& raw,
                                   CleaningReport* report) {
    RecordBlock block = RecordBlock::FromSequence(raw);
    cleaner.CleanBlock(&block, nullptr, report);
    return block.ToSequence();
  }

  std::unique_ptr<dsm::Dsm> dsm_;
  std::unique_ptr<dsm::RoutePlanner> planner_;
};

TEST_F(CleanerFixture, CleanSequencePassesThrough) {
  RawDataCleaner cleaner(dsm_.get(), planner_.get());
  CleaningReport report;
  PositioningSequence walk = CorridorWalk(20);
  PositioningSequence cleaned = Clean(cleaner, walk, &report);
  EXPECT_EQ(report.total_records, 20u);
  EXPECT_EQ(report.speed_violations, 0u);
  EXPECT_EQ(report.interpolated, 0u);
  ASSERT_EQ(cleaned.records.size(), walk.records.size());
  for (size_t i = 0; i < walk.records.size(); ++i) {
    EXPECT_EQ(cleaned.records[i], walk.records[i]);
  }
}

TEST_F(CleanerFixture, DetectsAndRepairsOutlier) {
  PositioningSequence walk = CorridorWalk(20);
  // Inject a 40 m jump at record 10.
  walk.records[10].location.xy.y = 70.0;
  RawDataCleaner cleaner(dsm_.get(), planner_.get());
  CleaningReport report;
  PositioningSequence cleaned = Clean(cleaner, walk, &report);
  EXPECT_GE(report.speed_violations, 1u);
  EXPECT_GE(report.interpolated, 1u);
  // The repaired record is near the corridor path (y = 30), not at y = 70.
  EXPECT_LT(cleaned.records[10].location.xy.y, 40.0);
  // Timestamps untouched.
  EXPECT_EQ(cleaned.records[10].timestamp, walk.records[10].timestamp);
}

TEST_F(CleanerFixture, FloorValueCorrection) {
  PositioningSequence walk = CorridorWalk(20);
  walk.records[7].location.floor = 2;  // wrong floor, planar position fine
  RawDataCleaner cleaner(dsm_.get(), planner_.get());
  CleaningReport report;
  PositioningSequence cleaned = Clean(cleaner, walk, &report);
  EXPECT_EQ(report.floor_corrected, 1u);
  EXPECT_EQ(cleaned.records[7].location.floor, 0);
  // Floor correction should not touch the planar location.
  EXPECT_EQ(cleaned.records[7].location.xy, walk.records[7].location.xy);
}

TEST_F(CleanerFixture, ConsecutiveOutlierRun) {
  PositioningSequence walk = CorridorWalk(30);
  for (int i = 12; i <= 15; ++i) {
    walk.records[i].location.xy = {5.0, 55.0};  // off-path cluster
  }
  RawDataCleaner cleaner(dsm_.get(), planner_.get());
  CleaningReport report;
  PositioningSequence cleaned = Clean(cleaner, walk, &report);
  EXPECT_GE(report.interpolated, 4u);
  for (int i = 12; i <= 15; ++i) {
    // Interpolated positions lie between the anchors along the corridor.
    EXPECT_NEAR(cleaned.records[i].location.xy.y, 30.0, 6.0);
    EXPECT_GT(cleaned.records[i].location.xy.x, walk.records[11].location.xy.x - 1);
    EXPECT_LT(cleaned.records[i].location.xy.x, walk.records[16].location.xy.x + 1);
  }
}

TEST_F(CleanerFixture, LeadingOutlierClampedToAnchor) {
  PositioningSequence walk = CorridorWalk(10);
  walk.records[0].location.xy = {90.0, 55.0};  // bad first fix
  RawDataCleaner cleaner(dsm_.get(), planner_.get());
  CleaningReport report;
  PositioningSequence cleaned = Clean(cleaner, walk, &report);
  // First record repaired to match an early anchor.
  EXPECT_LT(cleaned.records[0].location.PlanarDistanceTo(walk.records[1].location),
            10.0);
}

TEST_F(CleanerFixture, SmoothingReducesJitter) {
  PositioningSequence still;
  still.device_id = "s";
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    still.records.emplace_back(50 + rng.Gaussian(0, 1.0), 30 + rng.Gaussian(0, 1.0),
                               0, static_cast<TimestampMs>(i) * 3000);
  }
  CleanerOptions opt;
  opt.smoothing_window = 5;
  RawDataCleaner cleaner(dsm_.get(), planner_.get(), opt);
  CleaningReport report;
  PositioningSequence cleaned = Clean(cleaner, still, &report);
  EXPECT_GT(report.smoothed, 0u);
  auto spread = [](const PositioningSequence& s) {
    double var = 0;
    for (const RawRecord& r : s.records) {
      var += (r.location.xy - geo::Point2{50, 30}).NormSq();
    }
    return var / static_cast<double>(s.records.size());
  };
  EXPECT_LT(spread(cleaned), spread(still));
}

TEST_F(CleanerFixture, SnapToWalkablePullsRecordsInside) {
  PositioningSequence seq;
  seq.device_id = "x";
  // A point in the wall gap between shops (x=13, y=30 is corridor; x=13,y=50
  // is inside shop area? shops at x 2..12 and 16..26 on top: 13..16 is wall).
  seq.records.emplace_back(13.0, 50.0, 0, 0);
  seq.records.emplace_back(13.5, 50.0, 0, 3000);
  RawDataCleaner cleaner(dsm_.get(), planner_.get());
  CleaningReport report;
  PositioningSequence cleaned = Clean(cleaner, seq, &report);
  EXPECT_GT(report.snapped, 0u);
  for (const RawRecord& r : cleaned.records) {
    EXPECT_TRUE(dsm_->IsWalkable(r.location)) << r.location.ToString();
  }
}

TEST_F(CleanerFixture, MinIndoorDistanceChargesFloorPenalty) {
  RawDataCleaner cleaner(dsm_.get(), planner_.get());
  geo::IndoorPoint a{10, 30, 0}, b{13, 34, 2};
  EXPECT_DOUBLE_EQ(cleaner.MinIndoorDistance(a, b), 5.0 + 2 * 15.0);
}

TEST_F(CleanerFixture, ShortSequencesReturnedAsIs) {
  RawDataCleaner cleaner(dsm_.get(), planner_.get());
  PositioningSequence one;
  one.records.emplace_back(5, 30, 0, 0);
  CleaningReport report;
  PositioningSequence cleaned = Clean(cleaner, one, &report);
  EXPECT_EQ(cleaned.records.size(), 1u);
  EXPECT_EQ(report.total_records, 1u);
  PositioningSequence empty;
  EXPECT_TRUE(Clean(cleaner, empty, &report).records.empty());
}

TEST_F(CleanerFixture, UnsortedInputIsSortedFirst) {
  PositioningSequence walk = CorridorWalk(10);
  std::swap(walk.records[2], walk.records[7]);
  RawDataCleaner cleaner(dsm_.get(), planner_.get());
  PositioningSequence cleaned = Clean(cleaner, walk, nullptr);
  for (size_t i = 1; i < cleaned.records.size(); ++i) {
    EXPECT_LE(cleaned.records[i - 1].timestamp, cleaned.records[i].timestamp);
  }
}

TEST_F(CleanerFixture, CleaningReducesErrorVsTruth) {
  // End-to-end: degrade a corridor walk with floor errors + outliers, clean,
  // and verify both error classes shrink. This is the Fig. 3 cleaning-layer
  // claim in miniature.
  PositioningSequence truth = CorridorWalk(200);
  positioning::ErrorModelOptions noise;
  noise.xy_noise_sigma = 1.0;
  noise.floor_error_rate = 0.10;
  noise.outlier_rate = 0.05;
  noise.outlier_range = 35;
  noise.dropout_rate = 0;
  noise.gaps_per_hour = 0;
  noise.floor_count = 3;
  Rng rng(17);
  PositioningSequence raw = positioning::ApplyErrorModel(truth, noise, &rng);

  CleanerOptions opt;
  opt.smoothing_window = 3;
  RawDataCleaner cleaner(dsm_.get(), planner_.get(), opt);
  CleaningReport report;
  PositioningSequence cleaned = Clean(cleaner, raw, &report);

  positioning::ErrorStats raw_stats = positioning::CompareToTruth(truth, raw);
  positioning::ErrorStats clean_stats = positioning::CompareToTruth(truth, cleaned);
  EXPECT_LT(clean_stats.planar_rmse, raw_stats.planar_rmse);
  EXPECT_LT(clean_stats.floor_errors, raw_stats.floor_errors);
  EXPECT_GT(report.speed_violations, 0u);
}

}  // namespace
}  // namespace trips::cleaning
