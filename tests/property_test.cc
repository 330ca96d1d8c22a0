// Property-style parameterized sweeps over the pipeline's core invariants.
#include <gtest/gtest.h>

#include "cleaning/cleaner.h"
#include "core/service.h"
#include "dsm/sample_spaces.h"
#include "json/json.h"
#include "mobility/generator.h"
#include "positioning/error_model.h"
#include "positioning/record_block.h"
#include "util/string_util.h"

namespace trips {
namespace {

// ---------- cleaning improves data quality across noise levels ----------

struct NoiseCase {
  double sigma;
  double floor_rate;
  double outlier_rate;
};

class CleaningSweep : public ::testing::TestWithParam<NoiseCase> {
 protected:
  static void SetUpTestSuite() {
    auto mall = dsm::BuildMallDsm({.floors = 3, .shops_per_arm = 2});
    ASSERT_TRUE(mall.ok());
    dsm_ = new dsm::Dsm(std::move(mall).ValueOrDie());
    auto planner = dsm::RoutePlanner::Build(dsm_);
    ASSERT_TRUE(planner.ok());
    planner_ = new dsm::RoutePlanner(std::move(planner).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete planner_;
    delete dsm_;
    planner_ = nullptr;
    dsm_ = nullptr;
  }

  static dsm::Dsm* dsm_;
  static dsm::RoutePlanner* planner_;
};

dsm::Dsm* CleaningSweep::dsm_ = nullptr;
dsm::RoutePlanner* CleaningSweep::planner_ = nullptr;

TEST_P(CleaningSweep, CleaningNeverHurtsRmseOrFloors) {
  const NoiseCase& nc = GetParam();
  mobility::MobilityGenerator gen(dsm_, planner_);
  Rng rng(static_cast<uint64_t>(nc.sigma * 100 + nc.floor_rate * 1000 + 7));
  auto dev = gen.GenerateDevice("sweep", 0, &rng);
  ASSERT_TRUE(dev.ok());

  positioning::ErrorModelOptions noise;
  noise.xy_noise_sigma = nc.sigma;
  noise.floor_error_rate = nc.floor_rate;
  noise.outlier_rate = nc.outlier_rate;
  noise.dropout_rate = 0;
  noise.gaps_per_hour = 0;
  noise.floor_count = 3;
  positioning::PositioningSequence raw =
      positioning::ApplyErrorModel(dev->truth, noise, &rng);

  cleaning::CleanerOptions copt;
  // Smoothing trades dwell-cluster sharpness for noise suppression; only
  // worth it when there is noise to suppress.
  copt.smoothing_window = nc.sigma >= 1.0 ? 3 : 0;
  cleaning::RawDataCleaner cleaner(dsm_, planner_, copt);
  cleaning::CleaningReport report;
  positioning::RecordBlock block = positioning::RecordBlock::FromSequence(raw);
  cleaner.CleanBlock(&block, nullptr, &report);
  positioning::PositioningSequence cleaned = block.ToSequence();

  positioning::ErrorStats before = positioning::CompareToTruth(dev->truth, raw);
  positioning::ErrorStats after = positioning::CompareToTruth(dev->truth, cleaned);

  // Same records, same timestamps.
  ASSERT_EQ(cleaned.records.size(), raw.records.size());
  // Error must not grow; with any injected error it should shrink.
  EXPECT_LE(after.planar_rmse, before.planar_rmse * 1.05 + 0.05);
  EXPECT_LE(after.floor_errors, before.floor_errors);
  if (nc.outlier_rate > 0 || nc.floor_rate > 0) {
    EXPECT_GT(report.speed_violations, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    NoiseGrid, CleaningSweep,
    ::testing::Values(NoiseCase{0.0, 0.0, 0.0}, NoiseCase{0.5, 0.0, 0.0},
                      NoiseCase{1.0, 0.05, 0.0}, NoiseCase{1.0, 0.0, 0.05},
                      NoiseCase{1.5, 0.05, 0.02}, NoiseCase{2.0, 0.10, 0.05},
                      NoiseCase{3.0, 0.20, 0.10}));

// ---------- translation output invariants across seeds ----------

class TranslationInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TranslationInvariants, SemanticsWellFormed) {
  auto mall = dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2});
  ASSERT_TRUE(mall.ok());
  auto planner = dsm::RoutePlanner::Build(&mall.ValueOrDie());
  ASSERT_TRUE(planner.ok());
  mobility::MobilityGenerator gen(&mall.ValueOrDie(), &planner.ValueOrDie());
  Rng rng(GetParam());
  auto dev = gen.GenerateDevice("inv", 0, &rng);
  ASSERT_TRUE(dev.ok());
  positioning::ErrorModelOptions noise;
  noise.floor_count = 2;
  positioning::PositioningSequence raw =
      positioning::ApplyErrorModel(dev->truth, noise, &rng);

  auto engine = core::Engine::Builder().BorrowDsm(&mall.ValueOrDie()).Build();
  ASSERT_TRUE(engine.ok());
  core::ServiceOptions serial;
  serial.worker_threads = 0;
  core::Service service(*engine, serial);
  auto response = service.Translate({.sequences = {raw}});
  ASSERT_TRUE(response.ok());
  const core::TranslationResult& r = response->results[0];

  // Invariant 1: cleaned preserves record count and timestamps.
  ASSERT_EQ(r.cleaned.records.size(), r.raw.records.size());
  for (size_t i = 0; i < r.raw.records.size(); ++i) {
    EXPECT_EQ(r.cleaned.records[i].timestamp, r.raw.records[i].timestamp);
  }
  // Invariant 2: semantics are ordered, valid, and within the data span.
  TimeRange span = r.raw.Span();
  for (size_t i = 0; i < r.semantics.Size(); ++i) {
    const core::MobilitySemantic& s = r.semantics.semantics[i];
    EXPECT_TRUE(s.range.Valid());
    EXPECT_GE(s.range.begin, span.begin);
    EXPECT_LE(s.range.end, span.end);
    if (i > 0) {
      EXPECT_GE(s.range.begin, r.semantics.semantics[i - 1].range.begin);
    }
    if (!s.inferred) {
      EXPECT_NE(s.region, dsm::kInvalidRegion);
    }
  }
  // Invariant 3: every non-inferred triplet also exists in the original
  // annotation output.
  size_t observed = 0;
  for (const core::MobilitySemantic& s : r.semantics.semantics) {
    if (!s.inferred) ++observed;
  }
  EXPECT_EQ(observed, r.original_semantics.Size());
  // Invariant 4: conciseness — triplets are far fewer than raw records.
  if (r.raw.records.size() > 100) {
    EXPECT_LT(r.semantics.Size() * 5, r.raw.records.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TranslationInvariants,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ---------- glob matcher properties ----------

class GlobProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(GlobProperty, StarMatchesEverythingAndSelfMatches) {
  const std::string& text = GetParam();
  EXPECT_TRUE(GlobMatch("*", text));
  EXPECT_TRUE(GlobMatch(text, text));  // literal self-match (no meta chars)
  EXPECT_TRUE(GlobMatch(text + "*", text));
  EXPECT_TRUE(GlobMatch("*" + text, text));
  if (!text.empty()) {
    std::string q(text.size(), '?');
    EXPECT_TRUE(GlobMatch(q, text));
    EXPECT_FALSE(GlobMatch(q + "?", text));
  }
}

INSTANTIATE_TEST_SUITE_P(Texts, GlobProperty,
                         ::testing::Values("", "a", "device-42", "3a.6f.14",
                                           "shopper/7", "x y z"));

// ---------- JSON round-trip property over generated documents ----------

json::Value RandomJson(Rng* rng, int depth) {
  double pick = rng->Uniform(0, 1);
  if (depth <= 0 || pick < 0.35) {
    switch (rng->UniformInt(0, 3)) {
      case 0:
        return json::Value(rng->Uniform(-1e6, 1e6));
      case 1:
        return json::Value(rng->Chance(0.5));
      case 2:
        return json::Value("s" + std::to_string(rng->UniformInt(0, 999)));
      default:
        return json::Value();
    }
  }
  if (pick < 0.7) {
    json::Array arr;
    int n = static_cast<int>(rng->UniformInt(0, 4));
    for (int i = 0; i < n; ++i) arr.push_back(RandomJson(rng, depth - 1));
    return json::Value(std::move(arr));
  }
  json::Object obj;
  int n = static_cast<int>(rng->UniformInt(0, 4));
  for (int i = 0; i < n; ++i) {
    obj["k" + std::to_string(i)] = RandomJson(rng, depth - 1);
  }
  return json::Value(std::move(obj));
}

class JsonRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonRoundTripProperty, DumpParseIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    json::Value doc = RandomJson(&rng, 4);
    auto compact = json::Parse(doc.Dump());
    ASSERT_TRUE(compact.ok()) << doc.Dump();
    EXPECT_EQ(compact.ValueOrDie(), doc);
    auto pretty = json::Parse(doc.Pretty());
    ASSERT_TRUE(pretty.ok());
    EXPECT_EQ(pretty.ValueOrDie(), doc);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace trips
