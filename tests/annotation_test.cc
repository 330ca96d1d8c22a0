#include <gtest/gtest.h>

#include "annotation/annotator.h"
#include "annotation/event_classifier.h"
#include "annotation/spatial_matcher.h"
#include "dsm/sample_spaces.h"
#include "mobility/generator.h"
#include "positioning/record_block.h"

namespace trips::annotation {
namespace {

using positioning::PositioningSequence;
using positioning::RecordBlock;

// Features of a whole labeled segment, extracted from its block form.
FeatureVector Features(const config::LabeledSegment& seg) {
  RecordBlock block = RecordBlock::FromSequence(seg.segment);
  return ExtractFeatures(block, 0, block.Size());
}

class AnnotationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto mall = dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2});
    ASSERT_TRUE(mall.ok());
    dsm_ = std::make_unique<dsm::Dsm>(std::move(mall).ValueOrDie());
    auto planner = dsm::RoutePlanner::Build(dsm_.get());
    ASSERT_TRUE(planner.ok());
    planner_ = std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
  }

  // Collects training segments from generator ground truth (the Event
  // Editor's programmatic equivalent).
  std::vector<config::LabeledSegment> CollectTraining(int devices, uint64_t seed) {
    mobility::MobilityGenerator gen(dsm_.get(), planner_.get());
    Rng rng(seed);
    std::vector<config::LabeledSegment> segments;
    for (int d = 0; d < devices; ++d) {
      auto dev = gen.GenerateDevice("train-" + std::to_string(d), 0, &rng);
      EXPECT_TRUE(dev.ok());
      for (const core::MobilitySemantic& s : dev->semantics.semantics) {
        config::LabeledSegment seg;
        seg.event = s.event;
        seg.segment.device_id = dev->truth.device_id;
        seg.segment.records = dev->truth.RecordsIn(s.range);
        if (seg.segment.records.size() >= 2) segments.push_back(std::move(seg));
      }
    }
    return segments;
  }

  std::unique_ptr<dsm::Dsm> dsm_;
  std::unique_ptr<dsm::RoutePlanner> planner_;
};

TEST_F(AnnotationFixture, SpatialMatcherFindsTheRegion) {
  const dsm::SemanticRegion* adidas = dsm_->FindRegionByName("Adidas");
  ASSERT_NE(adidas, nullptr);
  PositioningSequence seq;
  geo::Point2 c = adidas->Center();
  for (int i = 0; i < 20; ++i) {
    seq.records.emplace_back(c.x + 0.1 * i, c.y, adidas->floor,
                             static_cast<TimestampMs>(i) * 3000);
  }
  RecordBlock block = RecordBlock::FromSequence(seq);
  SpatialMatcher matcher(dsm_.get());
  SpatialMatch match = matcher.Match(block, 0, block.Size());
  EXPECT_EQ(match.region, adidas->id);
  EXPECT_EQ(match.region_name, "Adidas");
  EXPECT_GT(match.coverage, 0.95);
}

TEST_F(AnnotationFixture, SpatialMatcherMajorityWins) {
  // 1/4 of the time in the corridor, 3/4 in a shop.
  const dsm::SemanticRegion* shop = dsm_->FindRegionByName("Nike");
  ASSERT_NE(shop, nullptr);
  PositioningSequence seq;
  geo::Point2 c = shop->Center();
  for (int i = 0; i < 5; ++i) {
    seq.records.emplace_back(50, 30, shop->floor, static_cast<TimestampMs>(i) * 3000);
  }
  for (int i = 5; i < 20; ++i) {
    seq.records.emplace_back(c.x, c.y, shop->floor, static_cast<TimestampMs>(i) * 3000);
  }
  RecordBlock block = RecordBlock::FromSequence(seq);
  SpatialMatcher matcher(dsm_.get());
  SpatialMatch match = matcher.Match(block, 0, block.Size());
  EXPECT_EQ(match.region, shop->id);
  EXPECT_NEAR(match.coverage, 0.75, 0.1);
}

TEST_F(AnnotationFixture, SpatialMatcherRejectsLowCoverage) {
  PositioningSequence seq;
  // Records outside every region (wall gap).
  for (int i = 0; i < 10; ++i) {
    seq.records.emplace_back(13, 58.5, 0, static_cast<TimestampMs>(i) * 3000);
  }
  RecordBlock block = RecordBlock::FromSequence(seq);
  SpatialMatcher matcher(dsm_.get(), {.min_coverage = 0.5});
  SpatialMatch match = matcher.Match(block, 0, block.Size());
  EXPECT_EQ(match.region, dsm::kInvalidRegion);
  // Empty slice.
  EXPECT_EQ(matcher.Match(block, 5, 5).region, dsm::kInvalidRegion);
}

TEST_F(AnnotationFixture, RuleBasedIdentifierSeparatesObviousCases) {
  // Long, compact, slow -> stay.
  FeatureVector stay{};
  stay[kDurationS] = 300;
  stay[kMeanSpeed] = 0.1;
  stay[kCoveringRange] = 3;
  EXPECT_EQ(EventClassifier::RuleBasedIdentify(stay), core::kEventStay);
  // Fast and straight -> pass-by.
  FeatureVector pass{};
  pass[kDurationS] = 40;
  pass[kMeanSpeed] = 1.3;
  pass[kStraightness] = 0.9;
  EXPECT_EQ(EventClassifier::RuleBasedIdentify(pass), core::kEventPassBy);
  // Slow but sprawling -> wander.
  FeatureVector wander{};
  wander[kDurationS] = 120;
  wander[kMeanSpeed] = 0.55;
  wander[kCoveringRange] = 20;
  wander[kStraightness] = 0.2;
  EXPECT_EQ(EventClassifier::RuleBasedIdentify(wander), core::kEventWander);
}

TEST_F(AnnotationFixture, ClassifierTrainsAndBeatsChance) {
  std::vector<config::LabeledSegment> train = CollectTraining(8, 21);
  ASSERT_GT(train.size(), 20u);
  EventClassifier classifier;
  ASSERT_TRUE(classifier.Train(train).ok());
  EXPECT_TRUE(classifier.trained());
  EXPECT_GE(classifier.event_names().size(), 2u);

  // Held-out segments.
  std::vector<config::LabeledSegment> test = CollectTraining(4, 99);
  size_t hits = 0;
  for (const config::LabeledSegment& seg : test) {
    FeatureVector f = Features(seg);
    if (classifier.Identify(f) == seg.event) ++hits;
  }
  double acc = static_cast<double>(hits) / static_cast<double>(test.size());
  EXPECT_GT(acc, 0.7) << "held-out event accuracy " << acc;
}

TEST_F(AnnotationFixture, ClassifierNeedsTwoPatterns) {
  std::vector<config::LabeledSegment> train = CollectTraining(2, 5);
  // Strip to a single event type.
  std::vector<config::LabeledSegment> single;
  for (auto& seg : train) {
    if (seg.event == core::kEventStay) single.push_back(seg);
  }
  EventClassifier classifier;
  EXPECT_EQ(classifier.Train(single).code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(classifier.trained());
}

TEST_F(AnnotationFixture, ConfidenceThresholdYieldsUnknown) {
  std::vector<config::LabeledSegment> train = CollectTraining(6, 31);
  EventClassifier classifier({.model = ModelKind::kRandomForest,
                              .min_confidence = 1.01});  // unreachable bar
  ASSERT_TRUE(classifier.Train(train).ok());
  FeatureVector f = Features(train[0]);
  EXPECT_EQ(classifier.Identify(f), core::kEventUnknown);
}

TEST_F(AnnotationFixture, AnnotatorProducesOrderedTriplets) {
  mobility::MobilityGenerator gen(dsm_.get(), planner_.get());
  Rng rng(77);
  auto dev = gen.GenerateDevice("shopper", 0, &rng);
  ASSERT_TRUE(dev.ok());

  EventClassifier classifier;  // untrained -> rule-based
  Annotator annotator(dsm_.get(), &classifier);
  RecordBlock truth = RecordBlock::FromSequence(dev->truth);
  core::MobilitySemanticsSequence result = annotator.Annotate(truth);
  ASSERT_FALSE(result.Empty());
  EXPECT_EQ(result.device_id, "shopper");
  for (size_t i = 0; i < result.semantics.size(); ++i) {
    const core::MobilitySemantic& s = result.semantics[i];
    EXPECT_TRUE(s.range.Valid());
    EXPECT_NE(s.region, dsm::kInvalidRegion);  // drop_unmatched default
    EXPECT_FALSE(s.event.empty());
    if (i > 0) {
      EXPECT_GE(s.range.begin, result.semantics[i - 1].range.begin);
    }
  }
}

TEST_F(AnnotationFixture, AnnotatorMergesAdjacentEqualTriplets) {
  mobility::MobilityGenerator gen(dsm_.get(), planner_.get());
  Rng rng(78);
  auto dev = gen.GenerateDevice("m", 0, &rng);
  ASSERT_TRUE(dev.ok());
  EventClassifier classifier;
  AnnotatorOptions opt;
  opt.merge_adjacent = true;
  Annotator annotator(dsm_.get(), &classifier, opt);
  RecordBlock truth = RecordBlock::FromSequence(dev->truth);
  core::MobilitySemanticsSequence merged = annotator.Annotate(truth);
  for (size_t i = 1; i < merged.semantics.size(); ++i) {
    EXPECT_FALSE(merged.semantics[i].event == merged.semantics[i - 1].event &&
                 merged.semantics[i].region == merged.semantics[i - 1].region)
        << "unmerged adjacent duplicate at " << i;
  }
}

TEST_F(AnnotationFixture, TrainedAnnotatorRecoversGroundTruthRegions) {
  std::vector<config::LabeledSegment> train = CollectTraining(8, 41);
  EventClassifier classifier;
  ASSERT_TRUE(classifier.Train(train).ok());

  mobility::MobilityGenerator gen(dsm_.get(), planner_.get());
  Rng rng(142);
  auto dev = gen.GenerateDevice("eval", 0, &rng);
  ASSERT_TRUE(dev.ok());

  Annotator annotator(dsm_.get(), &classifier);
  RecordBlock truth = RecordBlock::FromSequence(dev->truth);
  core::MobilitySemanticsSequence predicted = annotator.Annotate(truth);
  core::SemanticsAgreement agreement =
      core::CompareSemantics(dev->semantics, predicted);
  // On noiseless data the regions should be recovered almost perfectly and
  // events well above chance.
  EXPECT_GT(agreement.region_match, 0.8) << "region match " << agreement.region_match;
  EXPECT_GT(agreement.event_match, 0.6) << "event match " << agreement.event_match;
}

TEST_F(AnnotationFixture, StopMoveBaselineProducesOnlyTwoEvents) {
  mobility::MobilityGenerator gen(dsm_.get(), planner_.get());
  Rng rng(55);
  auto dev = gen.GenerateDevice("b", 0, &rng);
  ASSERT_TRUE(dev.ok());
  StopMoveBaseline baseline(dsm_.get());
  RecordBlock truth = RecordBlock::FromSequence(dev->truth);
  core::MobilitySemanticsSequence result = baseline.Annotate(truth);
  ASSERT_FALSE(result.Empty());
  for (const core::MobilitySemantic& s : result.semantics) {
    EXPECT_TRUE(s.event == core::kEventStay || s.event == core::kEventPassBy);
  }
}

TEST(ModelKindTest, Names) {
  EXPECT_STREQ(ModelKindName(ModelKind::kDecisionTree), "decision_tree");
  EXPECT_STREQ(ModelKindName(ModelKind::kRandomForest), "random_forest");
  EXPECT_STREQ(ModelKindName(ModelKind::kLogisticRegression), "logistic_regression");
}

}  // namespace
}  // namespace trips::annotation
