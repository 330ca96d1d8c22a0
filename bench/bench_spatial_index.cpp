// Spatial-index fast-path benchmarks: grid point-location vs the brute-force
// scans it replaced, memoized routing vs uncached Dijkstra, and the batch
// distance API — each at 1x / 4x / 16x venue scale (shops_per_arm 3 / 12 / 48
// over the 7-floor mall), the scaling axis where the old linear scans fall
// over — plus the point-in-polygon test under all of them. Run through
// bench/run_benches.sh to capture BENCH_spatial.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bench_common.h"

using namespace trips;

namespace {

// state.range(0) is the venue scale factor (1, 4, 16): shops_per_arm = 3x.
constexpr int kFloors = 7;

int ShopsPerArm(int scale) { return 3 * scale; }

bench::MallContext& ContextFor(int scale) {
  // One lazily built context per scale, shared across benchmarks (the 16x
  // venue takes a moment to build; rebuilding it per benchmark would dominate
  // the run).
  static std::map<int, bench::MallContext> contexts;
  auto it = contexts.find(scale);
  if (it == contexts.end()) {
    it = contexts.emplace(scale, bench::MallContext::Make(kFloors, ShopsPerArm(scale)))
             .first;
  }
  return it->second;
}

std::vector<geo::IndoorPoint> QueryPoints(const dsm::Dsm& dsm, size_t count,
                                          uint64_t seed) {
  geo::BoundingBox bounds;
  for (const dsm::Entity& e : dsm.entities()) bounds.Extend(e.shape.Bounds());
  Rng rng(seed);
  std::vector<geo::IndoorPoint> points;
  points.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    points.push_back({rng.Uniform(bounds.min.x, bounds.max.x),
                      rng.Uniform(bounds.min.y, bounds.max.y),
                      static_cast<geo::FloorId>(rng.UniformInt(0, kFloors - 1))});
  }
  return points;
}

void SetEntityCounter(benchmark::State& state, const dsm::Dsm& dsm) {
  state.counters["entities"] = static_cast<double>(dsm.entities().size());
  state.counters["regions"] = static_cast<double>(dsm.regions().size());
}

// ---- point location ---------------------------------------------------------

void BM_PartitionAt_Grid(benchmark::State& state) {
  bench::MallContext& ctx = ContextFor(static_cast<int>(state.range(0)));
  std::vector<geo::IndoorPoint> points = QueryPoints(*ctx.dsm, 1024, 11);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.dsm->PartitionAt(points[i++ % points.size()]));
  }
  state.SetItemsProcessed(state.iterations());
  SetEntityCounter(state, *ctx.dsm);
}
BENCHMARK(BM_PartitionAt_Grid)->Arg(1)->Arg(4)->Arg(16);

void BM_PartitionAt_BruteForce(benchmark::State& state) {
  bench::MallContext& ctx = ContextFor(static_cast<int>(state.range(0)));
  std::vector<geo::IndoorPoint> points = QueryPoints(*ctx.dsm, 1024, 11);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx.dsm->PartitionAtBruteForce(points[i++ % points.size()]));
  }
  state.SetItemsProcessed(state.iterations());
  SetEntityCounter(state, *ctx.dsm);
}
BENCHMARK(BM_PartitionAt_BruteForce)->Arg(1)->Arg(4)->Arg(16);

void BM_RegionAt_Grid(benchmark::State& state) {
  bench::MallContext& ctx = ContextFor(static_cast<int>(state.range(0)));
  std::vector<geo::IndoorPoint> points = QueryPoints(*ctx.dsm, 1024, 12);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.dsm->RegionAt(points[i++ % points.size()]));
  }
  state.SetItemsProcessed(state.iterations());
  SetEntityCounter(state, *ctx.dsm);
}
BENCHMARK(BM_RegionAt_Grid)->Arg(1)->Arg(4)->Arg(16);

void BM_RegionAt_BruteForce(benchmark::State& state) {
  bench::MallContext& ctx = ContextFor(static_cast<int>(state.range(0)));
  std::vector<geo::IndoorPoint> points = QueryPoints(*ctx.dsm, 1024, 12);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx.dsm->RegionAtBruteForce(points[i++ % points.size()]));
  }
  state.SetItemsProcessed(state.iterations());
  SetEntityCounter(state, *ctx.dsm);
}
BENCHMARK(BM_RegionAt_BruteForce)->Arg(1)->Arg(4)->Arg(16);

// Snapping exercises the edge buckets; points are biased slightly outside the
// venue so most queries actually snap.
std::vector<geo::IndoorPoint> SnapPoints(const dsm::Dsm& dsm, size_t count) {
  geo::BoundingBox bounds;
  for (const dsm::Entity& e : dsm.entities()) bounds.Extend(e.shape.Bounds());
  Rng rng(13);
  std::vector<geo::IndoorPoint> points;
  points.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    points.push_back({rng.Uniform(bounds.min.x - 8, bounds.max.x + 8),
                      rng.Uniform(bounds.min.y - 8, bounds.max.y + 8),
                      static_cast<geo::FloorId>(rng.UniformInt(0, kFloors - 1))});
  }
  return points;
}

void BM_SnapToWalkable_Grid(benchmark::State& state) {
  bench::MallContext& ctx = ContextFor(static_cast<int>(state.range(0)));
  std::vector<geo::IndoorPoint> points = SnapPoints(*ctx.dsm, 1024);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.dsm->SnapToWalkable(points[i++ % points.size()]));
  }
  state.SetItemsProcessed(state.iterations());
  SetEntityCounter(state, *ctx.dsm);
}
BENCHMARK(BM_SnapToWalkable_Grid)->Arg(1)->Arg(4)->Arg(16);

void BM_SnapToWalkable_BruteForce(benchmark::State& state) {
  bench::MallContext& ctx = ContextFor(static_cast<int>(state.range(0)));
  std::vector<geo::IndoorPoint> points = SnapPoints(*ctx.dsm, 1024);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx.dsm->SnapToWalkableBruteForce(points[i++ % points.size()]));
  }
  state.SetItemsProcessed(state.iterations());
  SetEntityCounter(state, *ctx.dsm);
}
BENCHMARK(BM_SnapToWalkable_BruteForce)->Arg(1)->Arg(4)->Arg(16);

// ---- polygon containment ----------------------------------------------------

// Polygon::Contains on the 1x mall's semantic regions, one probe mix per
// argument: 0 = inside (interior points), 1 = outside (in the region's
// bounding box grown by 2 m, not in the polygon), 2 = near the boundary (on
// an edge, jittered by up to 3e-7 m, so about half are inside only through
// the 1e-7 boundary tolerance).
void BM_PolygonContains(benchmark::State& state) {
  const int mix = static_cast<int>(state.range(0));
  const std::vector<dsm::SemanticRegion>& regions = ContextFor(1).dsm->regions();
  Rng rng(15);
  std::vector<std::pair<const geo::Polygon*, geo::Point2>> probes;
  size_t vertices = 0;
  while (probes.size() < 1024) {
    const geo::Polygon& poly =
        regions[static_cast<size_t>(rng.UniformInt(0, regions.size() - 1))].shape;
    const size_t n = poly.vertices.size();
    if (n < 3) continue;
    geo::Point2 p;
    if (mix == 2) {
      const size_t e = static_cast<size_t>(rng.UniformInt(0, n - 1));
      const geo::Point2 a = poly.vertices[e];
      const geo::Point2 b = poly.vertices[(e + 1) % n];
      p = a + (b - a) * rng.Uniform(0, 1);
      p = {p.x + rng.Uniform(-3e-7, 3e-7), p.y + rng.Uniform(-3e-7, 3e-7)};
    } else {
      const geo::BoundingBox box = poly.Bounds();
      p = {rng.Uniform(box.min.x - 2, box.max.x + 2),
           rng.Uniform(box.min.y - 2, box.max.y + 2)};
      if (poly.Contains(p) != (mix == 0)) continue;
    }
    probes.emplace_back(&poly, p);
    vertices += n;
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [poly, p] = probes[i++ % probes.size()];
    benchmark::DoNotOptimize(poly->Contains(p));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["vertices"] =
      static_cast<double>(vertices) / static_cast<double>(probes.size());
}
BENCHMARK(BM_PolygonContains)->ArgName("mix")->Arg(0)->Arg(1)->Arg(2);

// ---- routing ----------------------------------------------------------------

std::vector<std::pair<geo::IndoorPoint, geo::IndoorPoint>> RoutePairs(
    const dsm::Dsm& dsm, size_t count) {
  geo::BoundingBox bounds;
  for (const dsm::Entity& e : dsm.entities()) bounds.Extend(e.shape.Bounds());
  Rng rng(14);
  // Uniform walkable endpoints (mostly shops, some corridors) — the endpoint
  // mix the cleaning layer's gap queries see.
  auto walkable_point = [&]() {
    for (;;) {
      geo::IndoorPoint p{rng.Uniform(bounds.min.x, bounds.max.x),
                         rng.Uniform(bounds.min.y, bounds.max.y),
                         static_cast<geo::FloorId>(rng.UniformInt(0, kFloors - 1))};
      if (dsm.IsWalkable(p)) return p;
    }
  };
  std::vector<std::pair<geo::IndoorPoint, geo::IndoorPoint>> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pairs.emplace_back(walkable_point(), walkable_point());
  }
  return pairs;
}

void BM_FindRoute_Memoized(benchmark::State& state) {
  bench::MallContext& ctx = ContextFor(static_cast<int>(state.range(0)));
  auto pairs = RoutePairs(*ctx.dsm, 256);
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(ctx.planner->FindRoute(a, b));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["graph_nodes"] = static_cast<double>(ctx.planner->NodeCount());
}
BENCHMARK(BM_FindRoute_Memoized)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMicrosecond);

void BM_FindRoute_UncachedDijkstra(benchmark::State& state) {
  bench::MallContext& ctx = ContextFor(static_cast<int>(state.range(0)));
  dsm::RoutePlannerOptions options;
  options.route_cache_capacity = 0;
  auto planner = dsm::RoutePlanner::Build(ctx.dsm.get(), options);
  if (!planner.ok()) std::abort();
  auto pairs = RoutePairs(*ctx.dsm, 256);
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(planner->FindRoute(a, b));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["graph_nodes"] = static_cast<double>(planner->NodeCount());
}
BENCHMARK(BM_FindRoute_UncachedDijkstra)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_IndoorDistances_Batch(benchmark::State& state) {
  bench::MallContext& ctx = ContextFor(static_cast<int>(state.range(0)));
  auto pairs = RoutePairs(*ctx.dsm, 257);
  geo::IndoorPoint from = pairs[0].first;
  std::vector<geo::IndoorPoint> targets;
  for (size_t i = 1; i < pairs.size(); ++i) targets.push_back(pairs[i].second);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.planner->IndoorDistances(from, targets));
  }
  state.SetItemsProcessed(state.iterations() * targets.size());
}
BENCHMARK(BM_IndoorDistances_Batch)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMicrosecond);

void BM_IndoorDistances_OnePerQuery(benchmark::State& state) {
  bench::MallContext& ctx = ContextFor(static_cast<int>(state.range(0)));
  dsm::RoutePlannerOptions options;
  options.route_cache_capacity = 0;  // what N independent Dijkstra runs cost
  auto planner = dsm::RoutePlanner::Build(ctx.dsm.get(), options);
  if (!planner.ok()) std::abort();
  auto pairs = RoutePairs(*ctx.dsm, 257);
  geo::IndoorPoint from = pairs[0].first;
  std::vector<geo::IndoorPoint> targets;
  for (size_t i = 1; i < pairs.size(); ++i) targets.push_back(pairs[i].second);
  for (auto _ : state) {
    for (const geo::IndoorPoint& to : targets) {
      benchmark::DoNotOptimize(planner->IndoorDistance(from, to));
    }
  }
  state.SetItemsProcessed(state.iterations() * targets.size());
}
BENCHMARK(BM_IndoorDistances_OnePerQuery)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

// ---- end-to-end translation sensitivity -------------------------------------

// Full Service translation of a small fleet at each venue scale: the
// composite effect of grid point-location + memoized routing + the de-churned
// inner loops on records/sec.
void BM_ServiceTranslate_VenueScale(benchmark::State& state) {
  int scale = static_cast<int>(state.range(0));
  bench::MallContext& ctx = ContextFor(scale);
  auto fleet = bench::MakeFleet(ctx, 16, bench::DefaultNoise(kFloors), 99);
  std::vector<positioning::PositioningSequence> sequences;
  for (auto& device : fleet) sequences.push_back(device.raw);
  auto engine = core::Engine::Builder().BorrowDsm(ctx.dsm.get()).Build();
  if (!engine.ok()) std::abort();
  core::Service service(*engine);
  size_t records = 0;
  for (const auto& seq : sequences) records += seq.records.size();
  for (auto _ : state) {
    auto session = service.NewBatchSession();
    auto response = session->Submit({.sequences = sequences});
    if (!response.ok()) std::abort();
    benchmark::DoNotOptimize(response->results.size());
  }
  state.SetItemsProcessed(state.iterations() * records);
  state.counters["records"] = static_cast<double>(records);
}
BENCHMARK(BM_ServiceTranslate_VenueScale)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
