// Parity and determinism suite for the contracted (CH-lite) routing graph.
// The contracted portal graph must be invisible: every distance, batch
// distance and unpacked route equals the flat clique-graph reference exactly
// — on the paper's venues, at 1x/4x/16x venue scale, and on randomized
// venues including degenerate ones — and end-to-end Service translation
// output is byte-identical with contraction on or off, at any worker count.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "core/result_io.h"
#include "core/service.h"
#include "dsm/routing.h"
#include "mobility/generator.h"
#include "positioning/error_model.h"
#include "testing/random_dsm.h"
#include "util/rng.h"

namespace trips::dsm {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Pairs consecutive points, appending exact same-partition pairs (tiny
// offsets stay inside one room or corridor) so that branch is always hit.
std::vector<std::pair<geo::IndoorPoint, geo::IndoorPoint>> QueryPairs(
    const Dsm& dsm, size_t count, uint64_t seed) {
  std::vector<geo::IndoorPoint> points =
      testing::RoutingQueryPoints(dsm, 2 * count, seed);
  std::vector<std::pair<geo::IndoorPoint, geo::IndoorPoint>> pairs;
  pairs.reserve(count + count / 8);
  for (size_t i = 0; i + 1 < points.size(); i += 2) {
    pairs.emplace_back(points[i], points[i + 1]);
  }
  for (size_t i = 0; i < points.size(); i += 16) {
    geo::IndoorPoint near = points[i];
    near.xy.x += 0.25;
    pairs.emplace_back(points[i], near);
  }
  return pairs;
}

void ExpectDistanceParity(const RoutePlanner& planner,
                          const std::pair<geo::IndoorPoint, geo::IndoorPoint>& q) {
  double contracted = planner.IndoorDistance(q.first, q.second);
  double flat = planner.IndoorDistanceFlat(q.first, q.second);
  if (std::isinf(flat)) {
    EXPECT_TRUE(std::isinf(contracted))
        << q.first.ToString() << " -> " << q.second.ToString();
  } else {
    EXPECT_EQ(contracted, flat)
        << q.first.ToString() << " -> " << q.second.ToString();
  }
  EXPECT_EQ(planner.Reachable(q.first, q.second),
            planner.ReachableFlat(q.first, q.second));
}

// Refolds the unpacked route's waypoint legs (planar + charged vertical
// cost): proves the waypoints form a real path whose cost is the distance.
double WalkCost(const Route& route) {
  double cost = 0;
  for (size_t i = 1; i < route.waypoints.size(); ++i) {
    const geo::IndoorPoint& a = route.waypoints[i - 1];
    const geo::IndoorPoint& b = route.waypoints[i];
    cost += a.floor == b.floor
                ? a.PlanarDistanceTo(b)
                : route.vertical_cost_per_floor * std::abs(a.floor - b.floor);
  }
  return cost;
}

void ExpectRouteParity(const RoutePlanner& planner,
                       const std::pair<geo::IndoorPoint, geo::IndoorPoint>& q,
                       bool exact_waypoints) {
  Result<Route> contracted = planner.FindRoute(q.first, q.second);
  Result<Route> flat = planner.FindRouteFlat(q.first, q.second);
  ASSERT_EQ(contracted.ok(), flat.ok())
      << q.first.ToString() << " -> " << q.second.ToString();
  if (!contracted.ok()) return;
  EXPECT_EQ(contracted->distance, flat->distance)
      << q.first.ToString() << " -> " << q.second.ToString();
  EXPECT_NEAR(WalkCost(*contracted), contracted->distance, 1e-6);
  EXPECT_NEAR(WalkCost(*flat), flat->distance, 1e-6);
  if (!exact_waypoints) return;
  ASSERT_EQ(contracted->waypoints.size(), flat->waypoints.size())
      << q.first.ToString() << " -> " << q.second.ToString();
  for (size_t w = 0; w < contracted->waypoints.size(); ++w) {
    EXPECT_EQ(contracted->waypoints[w], flat->waypoints[w]) << "waypoint " << w;
  }
}

TEST(RoutingContractionTest, ContractionShrinksTheGraph) {
  Dsm mall = testing::MakeMall(3, 48);  // 16x venue scale
  auto planner = RoutePlanner::Build(&mall);
  ASSERT_TRUE(planner.ok());
  EXPECT_GT(planner->PortalCount(), 0u);
  // Shop doors dominate the node count and contract away entirely.
  EXPECT_LT(planner->PortalCount() * 4, planner->NodeCount());
  // The hub-corridor cliques collapse: ~10x fewer edges at 16x scale.
  EXPECT_LT(planner->ContractedEdgeCount() * 10, planner->FlatEdgeCount());
}

// >= 1000 randomized query pairs per venue scale (1x/4x/16x), including
// unreachable, outside and same-partition endpoints.
TEST(RoutingContractionTest, RandomizedDistanceParityAtVenueScales) {
  const struct {
    int shops_per_arm;
    uint64_t seed;
  } kScales[] = {{3, 0xA1}, {12, 0xA2}, {48, 0xA3}};
  for (const auto& scale : kScales) {
    Dsm mall = testing::MakeMall(2, scale.shops_per_arm);
    auto planner = RoutePlanner::Build(&mall);
    ASSERT_TRUE(planner.ok());
    auto pairs = QueryPairs(mall, 1000, scale.seed);
    ASSERT_GE(pairs.size(), 1000u);
    for (const auto& q : pairs) ExpectDistanceParity(*planner, q);
  }
}

TEST(RoutingContractionTest, UnpackedRoutesMatchFlatOnPaperVenues) {
  for (int venue = 0; venue < 2; ++venue) {
    Dsm dsm = venue == 0 ? testing::MakeMall(3, 3) : testing::MakeOffice();
    auto planner = RoutePlanner::Build(&dsm);
    ASSERT_TRUE(planner.ok());
    for (const auto& q : QueryPairs(dsm, 250, 0xB0 + venue)) {
      ExpectRouteParity(*planner, q, /*exact_waypoints=*/true);
    }
  }
}

// The shared randomized venues, including every degenerate decoration:
// single-partition floors, portal-less islands, zero-width corridors.
TEST(RoutingContractionTest, RandomVenueSweepParity) {
  for (const testing::RandomVenueOptions& options :
       testing::DegenerateVenueSweep(0xC0DE)) {
    auto venue = testing::BuildRandomVenue(options);
    ASSERT_TRUE(venue.ok()) << venue.status().ToString();
    auto planner = RoutePlanner::Build(&*venue);
    ASSERT_TRUE(planner.ok());
    for (const auto& q : QueryPairs(*venue, 300, options.seed ^ 0xD1)) {
      ExpectDistanceParity(*planner, q);
      ExpectRouteParity(*planner, q, /*exact_waypoints=*/true);
    }
  }
}

TEST(RoutingContractionTest, BatchDistancesMatchFlatAndSingleQueries) {
  Dsm mall = testing::MakeMall(3, 6);
  auto planner = RoutePlanner::Build(&mall);
  ASSERT_TRUE(planner.ok());
  std::vector<geo::IndoorPoint> targets =
      testing::RoutingQueryPoints(mall, 200, 0xBA7C4);
  // One shop source (memoized mode), one corridor source (hub mode), one
  // unroutable source.
  const geo::IndoorPoint sources[] = {{5, 45, 0}, {60, 30, 1}, {-500, -500, 0}};
  for (const geo::IndoorPoint& from : sources) {
    std::vector<double> contracted = planner->IndoorDistances(from, targets);
    std::vector<double> flat = planner->IndoorDistancesFlat(from, targets);
    ASSERT_EQ(contracted.size(), targets.size());
    for (size_t i = 0; i < targets.size(); ++i) {
      if (std::isinf(flat[i])) {
        EXPECT_TRUE(std::isinf(contracted[i])) << i;
      } else {
        EXPECT_EQ(contracted[i], flat[i]) << i;
      }
      double single = planner->IndoorDistance(from, targets[i]);
      if (std::isinf(single)) {
        EXPECT_TRUE(std::isinf(contracted[i])) << i;
      } else {
        EXPECT_EQ(contracted[i], single) << i;
      }
    }
  }
}

// cached == uncached == flat, and the memoized/hub mode split point does not
// change results (each mode is bit-exact against its flat counterpart).
TEST(RoutingContractionTest, CachedUncachedAndModeSplitsAllAgree) {
  Dsm mall = testing::MakeMall(3, 3);
  auto cached = RoutePlanner::Build(&mall);
  ASSERT_TRUE(cached.ok());
  RoutePlannerOptions uncached_options;
  uncached_options.route_cache_capacity = 0;
  auto uncached = RoutePlanner::Build(&mall, uncached_options);
  ASSERT_TRUE(uncached.ok());
  RoutePlannerOptions always_hub;
  always_hub.max_memoized_sources = 0;
  auto hub = RoutePlanner::Build(&mall, always_hub);
  ASSERT_TRUE(hub.ok());
  RoutePlannerOptions never_hub;
  never_hub.max_memoized_sources = 100000;
  auto memo = RoutePlanner::Build(&mall, never_hub);
  ASSERT_TRUE(memo.ok());

  for (const auto& q : QueryPairs(mall, 150, 0xCAC4E)) {
    double a = cached->IndoorDistance(q.first, q.second);
    double b = uncached->IndoorDistance(q.first, q.second);
    if (std::isinf(b)) {
      EXPECT_TRUE(std::isinf(a));
    } else {
      EXPECT_EQ(a, b);
    }
    // Forced modes agree with their own flat reference exactly; across modes
    // the fold order differs, so compare within tolerance only.
    ExpectDistanceParity(*hub, q);
    ExpectDistanceParity(*memo, q);
    double h = hub->IndoorDistance(q.first, q.second);
    double m = memo->IndoorDistance(q.first, q.second);
    if (!std::isinf(h) || !std::isinf(m)) {
      EXPECT_NEAR(h, m, 1e-9 * (1 + std::abs(h)));
    }
  }
  EXPECT_GT(cached->cache_stats().hits + cached->cache_stats().misses, 0u);
  EXPECT_EQ(uncached->cache_stats().size, 0u);
}

TEST(RoutingContractionTest, RuntimeToggleMatchesFlatAndRestores) {
  Dsm mall = testing::MakeMall(2, 3);
  auto built = RoutePlanner::Build(&mall);
  ASSERT_TRUE(built.ok());
  RoutePlanner planner_obj = std::move(built).ValueOrDie();
  RoutePlanner* planner = &planner_obj;
  ASSERT_TRUE(planner->contraction_enabled());
  auto pairs = QueryPairs(mall, 60, 0x70661E);

  std::vector<double> contracted;
  for (const auto& q : pairs) {
    contracted.push_back(planner->IndoorDistance(q.first, q.second));
  }
  planner->set_contraction_enabled(false);
  EXPECT_FALSE(planner->contraction_enabled());
  EXPECT_EQ(planner->cache_stats().size, 0u);  // toggle drops memoized trees
  for (size_t i = 0; i < pairs.size(); ++i) {
    double flat = planner->IndoorDistance(pairs[i].first, pairs[i].second);
    double reference = planner->IndoorDistanceFlat(pairs[i].first, pairs[i].second);
    if (std::isinf(reference)) {
      EXPECT_TRUE(std::isinf(flat));
    } else {
      EXPECT_EQ(flat, reference);
    }
  }
  planner->set_contraction_enabled(true);
  for (size_t i = 0; i < pairs.size(); ++i) {
    double again = planner->IndoorDistance(pairs[i].first, pairs[i].second);
    if (std::isinf(contracted[i])) {
      EXPECT_TRUE(std::isinf(again));
    } else {
      EXPECT_EQ(again, contracted[i]);
    }
  }
}

// Determinism is the parallelism check (single-core CI): full Service
// translation output must be byte-identical with contraction on vs off and
// across 0/1/7 worker threads.
TEST(RoutingContractionTest, ServiceOutputByteIdenticalOnOffAcrossWorkers) {
  Dsm mall = testing::MakeMall(2, 2);

  // One shared fleet, generated before the engines exist.
  auto planner = RoutePlanner::Build(&mall);
  ASSERT_TRUE(planner.ok());
  mobility::MobilityGenerator generator(&mall, &*planner);
  Rng rng(4242);
  std::vector<positioning::PositioningSequence> fleet;
  for (int i = 0; i < 6; ++i) {
    auto dev = generator.GenerateDevice("dev-" + std::to_string(i), 0, &rng);
    ASSERT_TRUE(dev.ok());
    positioning::ErrorModelOptions noise;
    noise.floor_count = 2;
    fleet.push_back(positioning::ApplyErrorModel(dev->truth, noise, &rng));
  }

  std::vector<core::TranslationResult> baseline;
  for (bool contraction : {true, false}) {
    for (size_t workers : {0u, 1u, 7u}) {
      core::TranslatorOptions options;
      options.routing.use_contraction = contraction;
      options.cleaner.parallel_min_records = 64;  // intra-sequence fan-out
      auto engine = core::Engine::Builder()
                        .BorrowDsm(&mall)
                        .SetOptions(options)
                        .Build();
      ASSERT_TRUE(engine.ok());
      core::Service service(*engine, {.worker_threads = workers});
      auto session = service.NewBatchSession();
      auto response = session->Submit({.sequences = fleet});
      ASSERT_TRUE(response.ok());
      std::vector<core::TranslationResult> results =
          std::move(response).ValueOrDie().results;
      if (baseline.empty()) {
        baseline = std::move(results);
        continue;
      }
      ASSERT_EQ(results.size(), baseline.size());
      for (size_t i = 0; i < results.size(); ++i) {
        const core::TranslationResult& r = results[i];
        const core::TranslationResult& base = baseline[i];
        // Cleaned records: exact (bitwise double) location equality.
        ASSERT_EQ(r.cleaned.records.size(), base.cleaned.records.size())
            << "contraction=" << contraction << " workers=" << workers;
        for (size_t k = 0; k < r.cleaned.records.size(); ++k) {
          EXPECT_EQ(r.cleaned.records[k].location, base.cleaned.records[k].location);
          EXPECT_EQ(r.cleaned.records[k].timestamp, base.cleaned.records[k].timestamp);
        }
        // Semantics: byte-identical serialized result files.
        EXPECT_EQ(core::SemanticsToJson(r.original_semantics).Dump(),
                  core::SemanticsToJson(base.original_semantics).Dump());
        EXPECT_EQ(core::SemanticsToJson(r.semantics).Dump(),
                  core::SemanticsToJson(base.semantics).Dump());
      }
    }
  }
}

}  // namespace
}  // namespace trips::dsm
