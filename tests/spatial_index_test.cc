// Parity suite for the DSM spatial acceleration layer: the grid index and the
// memoized route planner must be invisible — every query returns exactly what
// the brute-force scan / uncached Dijkstra returns, and end-to-end Service
// translation output is byte-identical with the fast path on or off.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "core/result_io.h"
#include "core/service.h"
#include "dsm/routing.h"
#include "dsm/sample_spaces.h"
#include "mobility/generator.h"
#include "positioning/error_model.h"
#include "testing/random_dsm.h"
#include "util/rng.h"

namespace trips::dsm {
namespace {

using testing::BoundaryPoints;
using testing::MakeMall;
using testing::RandomPoints;

constexpr double kInf = std::numeric_limits<double>::infinity();

void ExpectPointQueryParity(const Dsm& dsm,
                            const std::vector<geo::IndoorPoint>& points) {
  ASSERT_TRUE(dsm.spatial_index().built());
  for (const geo::IndoorPoint& p : points) {
    EXPECT_EQ(dsm.PartitionAt(p), dsm.PartitionAtBruteForce(p))
        << "PartitionAt @ " << p.ToString();
    EXPECT_EQ(dsm.RegionAt(p), dsm.RegionAtBruteForce(p))
        << "RegionAt @ " << p.ToString();
    geo::IndoorPoint fast = dsm.SnapToWalkable(p);
    geo::IndoorPoint slow = dsm.SnapToWalkableBruteForce(p);
    EXPECT_EQ(fast, slow) << "SnapToWalkable @ " << p.ToString() << " grid="
                          << fast.ToString() << " brute=" << slow.ToString();
  }
}

TEST(SpatialIndexParityTest, RandomPointsMatchBruteForceOnMall) {
  Dsm mall = MakeMall(3, 3);
  ExpectPointQueryParity(mall, RandomPoints(mall, 4000, 0xA11CE));
}

TEST(SpatialIndexParityTest, RandomPointsMatchBruteForceOnLargerVenue) {
  Dsm mall = MakeMall(5, 6);
  ExpectPointQueryParity(mall, RandomPoints(mall, 2000, 0xB0B));
}

TEST(SpatialIndexParityTest, RandomPointsMatchBruteForceOnOffice) {
  Dsm office = testing::MakeOffice();
  ExpectPointQueryParity(office, RandomPoints(office, 2000, 0xC0FFEE));
}

// Randomized venues, including every degenerate decoration the shared
// fixture can produce (lone floors, doorless islands, zero-area hallways).
TEST(SpatialIndexParityTest, RandomVenuesMatchBruteForce) {
  for (const testing::RandomVenueOptions& options :
       testing::DegenerateVenueSweep(0x5EED0)) {
    auto venue = testing::BuildRandomVenue(options);
    ASSERT_TRUE(venue.ok()) << venue.status().ToString();
    ExpectPointQueryParity(*venue, RandomPoints(*venue, 800, options.seed ^ 0xF00));
    ExpectPointQueryParity(*venue, BoundaryPoints(*venue));
  }
}

TEST(SpatialIndexParityTest, EdgeOfPolygonPointsMatchBruteForce) {
  Dsm mall = MakeMall(2, 3);
  ExpectPointQueryParity(mall, BoundaryPoints(mall));
}

TEST(SpatialIndexParityTest, SnappedPointsAreWalkable) {
  Dsm mall = MakeMall(2, 2);
  for (const geo::IndoorPoint& p : RandomPoints(mall, 500, 77)) {
    if (p.floor < 0 || p.floor >= static_cast<geo::FloorId>(mall.FloorCount())) {
      continue;  // nothing to snap to on out-of-model floors
    }
    EXPECT_TRUE(mall.IsWalkable(mall.SnapToWalkable(p))) << p.ToString();
  }
}

TEST(SpatialIndexTest, BuiltByComputeTopologyAndInvalidatedByMutation) {
  Dsm mall = MakeMall(2, 2);
  EXPECT_TRUE(mall.spatial_index().built());
  EXPECT_GT(mall.spatial_index().CellCount(), 0u);
  EXPECT_GT(mall.spatial_index().CellSize(0), 0.0);

  Entity extra;
  extra.kind = EntityKind::kRoom;
  extra.name = "annex";
  extra.floor = 0;
  extra.shape = geo::Polygon::Rectangle(200, 200, 210, 210);
  ASSERT_TRUE(mall.AddEntity(extra).ok());
  EXPECT_FALSE(mall.spatial_index().built());
  // Queries still answer (brute-force fallback) while the index is stale.
  EXPECT_EQ(mall.PartitionAt({205, 205, 0}), mall.PartitionAtBruteForce({205, 205, 0}));
  ASSERT_TRUE(mall.ComputeTopology().ok());
  EXPECT_TRUE(mall.spatial_index().built());
  EXPECT_NE(mall.PartitionAt({205, 205, 0}), kInvalidEntity);
}

TEST(SpatialIndexTest, RuntimeDisableFallsBackToBruteForce) {
  Dsm mall = MakeMall(2, 2);
  ASSERT_TRUE(mall.spatial_index_enabled());
  std::vector<geo::IndoorPoint> points = RandomPoints(mall, 300, 99);
  std::vector<EntityId> with_index;
  for (const geo::IndoorPoint& p : points) with_index.push_back(mall.PartitionAt(p));
  mall.set_spatial_index_enabled(false);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(mall.PartitionAt(points[i]), with_index[i]);
  }
}

TEST(SpatialIndexTest, RegionCandidatesCoverEveryContainingRegion) {
  Dsm mall = MakeMall(3, 3);
  for (const geo::IndoorPoint& p : RandomPoints(mall, 1500, 0xFACADE)) {
    EntityId pid = mall.PartitionAt(p);
    RegionId rid = mall.RegionAt(p);
    if (pid == kInvalidEntity || rid == kInvalidRegion) continue;
    const std::vector<RegionId>& candidates = mall.RegionCandidatesOfPartition(pid);
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), rid),
              candidates.end())
        << "region " << rid << " missing from candidates of partition " << pid;
  }
}

// ---- routing cache parity ---------------------------------------------------

class RoutingCacheParityFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dsm_ = std::make_unique<Dsm>(MakeMall(3, 3));
    auto cached = RoutePlanner::Build(dsm_.get());
    ASSERT_TRUE(cached.ok());
    cached_ = std::make_unique<RoutePlanner>(std::move(cached).ValueOrDie());
    RoutePlannerOptions uncached_options;
    uncached_options.route_cache_capacity = 0;  // every query re-runs Dijkstra
    auto uncached = RoutePlanner::Build(dsm_.get(), uncached_options);
    ASSERT_TRUE(uncached.ok());
    uncached_ = std::make_unique<RoutePlanner>(std::move(uncached).ValueOrDie());
  }

  std::vector<geo::IndoorPoint> QueryPoints(size_t count, uint64_t seed) const {
    std::vector<geo::IndoorPoint> points = RandomPoints(*dsm_, count, seed);
    // Bias most points walkable — shops (few local nodes: memoized trees) and
    // corridors (many local nodes: hub Dijkstra) — so both planner modes and
    // the unroutable-endpoint path are exercised.
    Rng rng(seed ^ 0x5a5a);
    for (size_t i = 0; i + 1 < points.size(); i += 3) {
      points[i] = {rng.Uniform(2, 98), rng.Uniform(26, 34),
                   static_cast<geo::FloorId>(rng.UniformInt(0, 2))};  // corridor
      points[i + 1] = {rng.Uniform(3, 11), rng.Uniform(38, 54),
                       static_cast<geo::FloorId>(rng.UniformInt(0, 2))};  // shop
    }
    return points;
  }

  std::unique_ptr<Dsm> dsm_;
  std::unique_ptr<RoutePlanner> cached_;
  std::unique_ptr<RoutePlanner> uncached_;
};

TEST_F(RoutingCacheParityFixture, CachedDistancesEqualUncachedDijkstra) {
  std::vector<geo::IndoorPoint> points = QueryPoints(60, 0xD1CE);
  for (size_t i = 0; i + 1 < points.size(); i += 2) {
    const geo::IndoorPoint& a = points[i];
    const geo::IndoorPoint& b = points[i + 1];
    double fast = cached_->IndoorDistance(a, b);
    double slow = uncached_->IndoorDistance(a, b);
    if (std::isinf(slow)) {
      EXPECT_TRUE(std::isinf(fast)) << a.ToString() << " -> " << b.ToString();
    } else {
      EXPECT_EQ(fast, slow) << a.ToString() << " -> " << b.ToString();
    }
    EXPECT_EQ(cached_->Reachable(a, b), uncached_->Reachable(a, b));
  }
  EXPECT_GT(cached_->cache_stats().hits + cached_->cache_stats().misses, 0u);
  EXPECT_EQ(uncached_->cache_stats().hits, 0u);
  EXPECT_EQ(uncached_->cache_stats().size, 0u);
}

TEST_F(RoutingCacheParityFixture, CachedRoutesAreByteIdenticalToUncached) {
  std::vector<geo::IndoorPoint> points = QueryPoints(60, 0xF00D);
  for (size_t i = 0; i + 1 < points.size(); i += 2) {
    Result<Route> fast = cached_->FindRoute(points[i], points[i + 1]);
    Result<Route> slow = uncached_->FindRoute(points[i], points[i + 1]);
    ASSERT_EQ(fast.ok(), slow.ok());
    if (!fast.ok()) continue;
    EXPECT_EQ(fast->distance, slow->distance);
    ASSERT_EQ(fast->waypoints.size(), slow->waypoints.size());
    for (size_t w = 0; w < fast->waypoints.size(); ++w) {
      EXPECT_EQ(fast->waypoints[w], slow->waypoints[w]);
    }
  }
}

TEST_F(RoutingCacheParityFixture, TinyCacheEvictsButStaysCorrect) {
  RoutePlannerOptions tiny_options;
  tiny_options.route_cache_capacity = 2;
  auto tiny = RoutePlanner::Build(dsm_.get(), tiny_options);
  ASSERT_TRUE(tiny.ok());
  std::vector<geo::IndoorPoint> points = QueryPoints(40, 0xBEEF);
  for (size_t i = 0; i + 1 < points.size(); i += 2) {
    double a = tiny->IndoorDistance(points[i], points[i + 1]);
    double b = uncached_->IndoorDistance(points[i], points[i + 1]);
    if (std::isinf(b)) {
      EXPECT_TRUE(std::isinf(a));
    } else {
      EXPECT_EQ(a, b);
    }
  }
  EXPECT_LE(tiny->cache_stats().size, 2u);
}

TEST_F(RoutingCacheParityFixture, CacheHitsAccumulateOnRepeatQueries) {
  geo::IndoorPoint a{5, 45, 0}, b{65, 10, 2};
  for (int i = 0; i < 8; ++i) cached_->IndoorDistance(a, b);
  EXPECT_GT(cached_->cache_stats().hits, 0u);
  EXPECT_GT(cached_->cache_stats().size, 0u);
}

TEST_F(RoutingCacheParityFixture, BatchDistancesMatchSingleQueries) {
  std::vector<geo::IndoorPoint> points = QueryPoints(80, 0xCAFE);
  geo::IndoorPoint from = points[0];
  std::span<const geo::IndoorPoint> targets(points.data() + 1, points.size() - 1);
  std::vector<double> batch = cached_->IndoorDistances(from, targets);
  ASSERT_EQ(batch.size(), targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    double single = uncached_->IndoorDistance(from, targets[i]);
    if (std::isinf(single)) {
      EXPECT_TRUE(std::isinf(batch[i])) << i;
    } else {
      EXPECT_EQ(batch[i], single) << i;
    }
  }
  // An unroutable source yields all-infinite distances.
  std::vector<double> nowhere =
      cached_->IndoorDistances({-500, -500, 0}, targets);
  for (double d : nowhere) EXPECT_EQ(d, kInf);
}

// ---- end-to-end byte identity ----------------------------------------------

TEST(SpatialIndexServiceTest, TranslationByteIdenticalWithIndexOnAndOff) {
  Dsm mall = MakeMall(2, 2);

  // One shared fleet, generated before the engines exist.
  auto planner = RoutePlanner::Build(&mall);
  ASSERT_TRUE(planner.ok());
  mobility::MobilityGenerator generator(&mall, &*planner);
  Rng rng(2024);
  std::vector<positioning::PositioningSequence> fleet;
  for (int i = 0; i < 6; ++i) {
    auto dev = generator.GenerateDevice("dev-" + std::to_string(i), 0, &rng);
    ASSERT_TRUE(dev.ok());
    positioning::ErrorModelOptions noise;
    noise.floor_count = 2;
    fleet.push_back(positioning::ApplyErrorModel(dev->truth, noise, &rng));
  }

  Dsm brute = mall;  // copy keeps computed topology; flip it to linear scans
  brute.set_spatial_index_enabled(false);

  auto translate = [&fleet](const Dsm* dsm) {
    auto engine = core::Engine::Builder().BorrowDsm(dsm).Build();
    EXPECT_TRUE(engine.ok());
    core::Service service(*engine);
    auto session = service.NewBatchSession();
    auto response = session->Submit({.sequences = fleet});
    EXPECT_TRUE(response.ok());
    return std::move(response).ValueOrDie();
  };
  core::TranslationResponse fast = translate(&mall);
  core::TranslationResponse slow = translate(&brute);

  ASSERT_EQ(fast.results.size(), slow.results.size());
  for (size_t i = 0; i < fast.results.size(); ++i) {
    const core::TranslationResult& f = fast.results[i];
    const core::TranslationResult& s = slow.results[i];
    // Cleaned records: exact (bitwise double) location equality.
    ASSERT_EQ(f.cleaned.records.size(), s.cleaned.records.size());
    for (size_t r = 0; r < f.cleaned.records.size(); ++r) {
      EXPECT_EQ(f.cleaned.records[r].location, s.cleaned.records[r].location);
      EXPECT_EQ(f.cleaned.records[r].timestamp, s.cleaned.records[r].timestamp);
    }
    // Semantics: byte-identical serialized result files.
    EXPECT_EQ(core::SemanticsToJson(f.original_semantics).Dump(),
              core::SemanticsToJson(s.original_semantics).Dump());
    EXPECT_EQ(core::SemanticsToJson(f.semantics).Dump(),
              core::SemanticsToJson(s.semantics).Dump());
  }
}

}  // namespace
}  // namespace trips::dsm
