#include <gtest/gtest.h>

#include "dsm/routing.h"
#include "dsm/sample_spaces.h"
#include "testing/random_dsm.h"

namespace trips::dsm {
namespace {

class RoutingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dsm_ = std::make_unique<Dsm>(testing::MakeMall(3, 2));
    auto planner = RoutePlanner::Build(dsm_.get());
    ASSERT_TRUE(planner.ok()) << planner.status().ToString();
    planner_ = std::make_unique<RoutePlanner>(std::move(planner).ValueOrDie());
  }

  std::unique_ptr<Dsm> dsm_;
  std::unique_ptr<RoutePlanner> planner_;
};

TEST(RoutePlannerBuildTest, RequiresTopology) {
  Dsm empty;
  EXPECT_EQ(RoutePlanner::Build(&empty).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(RoutePlanner::Build(nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RoutingFixture, GraphHasNodes) { EXPECT_GT(planner_->NodeCount(), 0u); }

TEST_F(RoutingFixture, SamePartitionIsStraightLine) {
  geo::IndoorPoint a{46, 10, 0}, b{50, 18, 0};  // both in corridor-v only
  auto route = planner_->FindRoute(a, b);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->waypoints.size(), 2u);
  EXPECT_NEAR(route->distance, a.PlanarDistanceTo(b), 1e-9);
}

TEST_F(RoutingFixture, ShopToShopGoesThroughDoors) {
  // Shop at x in [2,12] top (y 36..56) to shop x in [60,70] bottom (y 4..24).
  geo::IndoorPoint a{5, 45, 0}, b{65, 10, 0};
  auto route = planner_->FindRoute(a, b);
  ASSERT_TRUE(route.ok()) << route.status().ToString();
  EXPECT_GE(route->waypoints.size(), 4u);  // start, >=2 doors, end
  // Route must be at least the straight-line distance.
  EXPECT_GE(route->distance, a.PlanarDistanceTo(b) - 1e-9);
  // All waypoints on the same floor here.
  for (const geo::IndoorPoint& w : route->waypoints) EXPECT_EQ(w.floor, 0);
}

TEST_F(RoutingFixture, CrossFloorUsesVerticalConnector) {
  geo::IndoorPoint a{5, 45, 0}, b{5, 45, 2};
  auto route = planner_->FindRoute(a, b);
  ASSERT_TRUE(route.ok()) << route.status().ToString();
  // Some waypoint must be on floor 1 (passing through).
  bool via_mid_floor = false;
  for (const geo::IndoorPoint& w : route->waypoints) {
    if (w.floor == 1) via_mid_floor = true;
  }
  EXPECT_TRUE(via_mid_floor);
  // Vertical cost charged: 2 floors at 15 m each at minimum.
  EXPECT_GE(route->distance, 30.0);
}

TEST_F(RoutingFixture, OutsidePointsFail) {
  geo::IndoorPoint outside{-10, -10, 0}, inside{50, 30, 0};
  EXPECT_FALSE(planner_->FindRoute(outside, inside).ok());
  EXPECT_FALSE(planner_->FindRoute(inside, outside).ok());
  EXPECT_FALSE(planner_->Reachable(outside, inside));
  EXPECT_TRUE(std::isinf(planner_->IndoorDistance(outside, inside)));
}

TEST_F(RoutingFixture, ReachableWithinMall) {
  geo::IndoorPoint a{5, 45, 0}, b{65, 10, 2};
  EXPECT_TRUE(planner_->Reachable(a, b));
  double d = planner_->IndoorDistance(a, b);
  EXPECT_GT(d, 0);
  EXPECT_TRUE(std::isfinite(d));
}

TEST_F(RoutingFixture, RouteDistanceSymmetry) {
  geo::IndoorPoint a{5, 45, 0}, b{65, 10, 0};
  double ab = planner_->IndoorDistance(a, b);
  double ba = planner_->IndoorDistance(b, a);
  EXPECT_NEAR(ab, ba, 1e-6);
}

TEST_F(RoutingFixture, PointAtDistanceWalksTheRoute) {
  geo::IndoorPoint a{5, 45, 0}, b{65, 10, 0};
  auto route = planner_->FindRoute(a, b);
  ASSERT_TRUE(route.ok());
  geo::IndoorPoint start = route->PointAtDistance(0);
  EXPECT_EQ(start.xy, a.xy);
  geo::IndoorPoint end = route->PointAtDistance(route->distance + 100);
  EXPECT_EQ(end.xy, b.xy);
  // Midpoint lies inside the mall bounds.
  geo::IndoorPoint mid = route->PointAtDistance(route->distance / 2);
  EXPECT_GE(mid.xy.x, 0);
  EXPECT_LE(mid.xy.x, 100);
  EXPECT_GE(mid.xy.y, 0);
  EXPECT_LE(mid.xy.y, 60);
  // Monotone progress: consecutive sample points are close to each other.
  geo::IndoorPoint prev = start;
  for (double d = 0; d <= route->distance; d += 2.0) {
    geo::IndoorPoint p = route->PointAtDistance(d);
    if (p.floor == prev.floor) {
      EXPECT_LE(prev.PlanarDistanceTo(p), 2.0 + 1e-6);
    }
    prev = p;
  }
}

TEST(RouteTest, EmptyRoute) {
  Route route;
  EXPECT_TRUE(route.Empty());
  EXPECT_EQ(route.PointAtDistance(5).xy, (geo::Point2{0, 0}));
}

// Regression: PointAtDistance used to hardcode 15 m/floor while the planner
// charged RoutePlannerOptions::vertical_cost_per_floor into the distance, so
// walking a route built with a different vertical cost drifted past (or short
// of) every vertical transition.
TEST(RouteTest, PointAtDistanceHonorsVerticalCost) {
  Dsm office = testing::MakeOffice();
  RoutePlannerOptions options;
  options.vertical_cost_per_floor = 40.0;
  auto planner = RoutePlanner::Build(&office, options);
  ASSERT_TRUE(planner.ok());

  geo::IndoorPoint a{10, 6, 0}, b{10, 6, 1};
  auto route = planner->FindRoute(a, b);
  ASSERT_TRUE(route.ok()) << route.status().ToString();
  EXPECT_EQ(route->vertical_cost_per_floor, 40.0);
  EXPECT_GE(route->distance, 40.0);

  // Walk up to the vertical transition, then 20 m "into" it: still less than
  // half the 40 m transition, so the sample must stay on the origin floor.
  double planar_prefix = 0;
  size_t lift = 0;
  for (size_t i = 1; i < route->waypoints.size(); ++i) {
    if (route->waypoints[i].floor != route->waypoints[i - 1].floor) {
      lift = i;
      break;
    }
    planar_prefix +=
        route->waypoints[i - 1].PlanarDistanceTo(route->waypoints[i]);
  }
  ASSERT_GT(lift, 0u) << "route should cross floors";
  EXPECT_EQ(route->PointAtDistance(planar_prefix + 19.0).floor, 0);
  EXPECT_EQ(route->PointAtDistance(planar_prefix + 21.0).floor, 1);
  // The full charged distance lands exactly on the destination.
  EXPECT_EQ(route->PointAtDistance(route->distance).xy, b.xy);
}

// Regression: ClearCache must drop the memoized trees AND reset the hit/miss
// counters, so observability starts from a clean slate between bench phases.
TEST_F(RoutingFixture, ClearCacheResetsStatsAndEntries) {
  geo::IndoorPoint a{5, 45, 0}, b{65, 10, 2};
  double before = planner_->IndoorDistance(a, b);
  for (int i = 0; i < 4; ++i) planner_->IndoorDistance(a, b);
  EXPECT_GT(planner_->cache_stats().size, 0u);
  EXPECT_GT(planner_->cache_stats().hits + planner_->cache_stats().misses, 0u);

  planner_->ClearCache();
  EXPECT_EQ(planner_->cache_stats().size, 0u);
  EXPECT_EQ(planner_->cache_stats().hits, 0u);
  EXPECT_EQ(planner_->cache_stats().misses, 0u);

  // Queries after the reset recompute and return identical results.
  EXPECT_EQ(planner_->IndoorDistance(a, b), before);
  EXPECT_GT(planner_->cache_stats().misses, 0u);
}

// The shared random venues stay routable: every pair of walkable points on
// connected floors has a finite, symmetric distance.
TEST(RoutingRandomVenueTest, RandomVenuesRouteSymmetrically) {
  for (uint64_t seed : {7u, 8u, 9u}) {
    testing::RandomVenueOptions options;
    options.seed = seed;
    auto venue = testing::BuildRandomVenue(options);
    ASSERT_TRUE(venue.ok()) << venue.status().ToString();
    auto planner = RoutePlanner::Build(&*venue);
    ASSERT_TRUE(planner.ok());
    std::vector<geo::IndoorPoint> points =
        testing::RoutingQueryPoints(*venue, 40, seed ^ 0xABC);
    for (size_t i = 0; i + 1 < points.size(); i += 2) {
      if (!venue->IsWalkable(points[i]) || !venue->IsWalkable(points[i + 1])) {
        continue;
      }
      double ab = planner->IndoorDistance(points[i], points[i + 1]);
      double ba = planner->IndoorDistance(points[i + 1], points[i]);
      if (std::isinf(ab)) {
        EXPECT_TRUE(std::isinf(ba));
      } else {
        EXPECT_NEAR(ab, ba, 1e-6);
      }
    }
  }
}

}  // namespace
}  // namespace trips::dsm
