#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "geometry/point.h"
#include "geometry/shapes.h"
#include "testing/random_dsm.h"
#include "util/rng.h"

namespace trips::geo {
namespace {

TEST(Point2Test, Arithmetic) {
  Point2 a{1, 2}, b{3, -1};
  EXPECT_EQ(a + b, (Point2{4, 1}));
  EXPECT_EQ(a - b, (Point2{-2, 3}));
  EXPECT_EQ(a * 2, (Point2{2, 4}));
  EXPECT_EQ(b / 2, (Point2{1.5, -0.5}));
  EXPECT_DOUBLE_EQ(a.Dot(b), 1);
  EXPECT_DOUBLE_EQ(a.Cross(b), -7);
}

TEST(Point2Test, NormAndDistance) {
  Point2 p{3, 4};
  EXPECT_DOUBLE_EQ(p.Norm(), 5);
  EXPECT_DOUBLE_EQ(p.NormSq(), 25);
  EXPECT_DOUBLE_EQ(p.DistanceTo({0, 0}), 5);
  Point2 unit = p.Normalized();
  EXPECT_NEAR(unit.Norm(), 1.0, 1e-12);
  EXPECT_EQ((Point2{0, 0}).Normalized(), (Point2{0, 0}));
}

TEST(IndoorPointTest, PlanarDistanceIgnoresFloor) {
  IndoorPoint a{0, 0, 0}, b{3, 4, 5};
  EXPECT_DOUBLE_EQ(a.PlanarDistanceTo(b), 5);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, (IndoorPoint{0, 0, 0}));
}

TEST(BoundingBoxTest, ExtendAndQueries) {
  BoundingBox box;
  EXPECT_TRUE(box.Empty());
  box.Extend({1, 2});
  box.Extend({-1, 5});
  EXPECT_FALSE(box.Empty());
  EXPECT_DOUBLE_EQ(box.Width(), 2);
  EXPECT_DOUBLE_EQ(box.Height(), 3);
  EXPECT_TRUE(box.Contains({0, 3}));
  EXPECT_FALSE(box.Contains({2, 3}));
  EXPECT_EQ(box.Center(), (Point2{0, 3.5}));

  BoundingBox other;
  other.Extend({0.5, 0});
  other.Extend({3, 3});
  EXPECT_TRUE(box.Intersects(other));
  BoundingBox far_box;
  far_box.Extend({10, 10});
  EXPECT_FALSE(box.Intersects(far_box));
}

TEST(SegmentTest, LengthAtMidpoint) {
  Segment s({0, 0}, {10, 0});
  EXPECT_DOUBLE_EQ(s.Length(), 10);
  EXPECT_EQ(s.At(0.25), (Point2{2.5, 0}));
  EXPECT_EQ(s.Midpoint(), (Point2{5, 0}));
}

TEST(SegmentTest, DistanceAndClosestPoint) {
  Segment s({0, 0}, {10, 0});
  EXPECT_DOUBLE_EQ(s.DistanceTo({5, 3}), 3);
  EXPECT_DOUBLE_EQ(s.DistanceTo({-4, 3}), 5);  // clamps to endpoint a
  EXPECT_DOUBLE_EQ(s.DistanceTo({13, 4}), 5);  // clamps to endpoint b
  EXPECT_EQ(s.ClosestPoint({5, 3}), (Point2{5, 0}));
  // Degenerate segment.
  Segment pt({2, 2}, {2, 2});
  EXPECT_DOUBLE_EQ(pt.DistanceTo({5, 6}), 5);
}

TEST(SegmentTest, Intersections) {
  EXPECT_TRUE(Segment({0, 0}, {10, 10}).Intersects(Segment({0, 10}, {10, 0})));
  EXPECT_FALSE(Segment({0, 0}, {1, 1}).Intersects(Segment({2, 2}, {3, 3})));
  // Collinear overlap.
  EXPECT_TRUE(Segment({0, 0}, {5, 0}).Intersects(Segment({3, 0}, {8, 0})));
  // Touching at an endpoint counts.
  EXPECT_TRUE(Segment({0, 0}, {5, 0}).Intersects(Segment({5, 0}, {5, 5})));
  // Parallel, offset.
  EXPECT_FALSE(Segment({0, 0}, {5, 0}).Intersects(Segment({0, 1}, {5, 1})));
}

TEST(OrientationTest, Signs) {
  EXPECT_EQ(Orientation({0, 0}, {1, 0}, {1, 1}), 1);   // ccw
  EXPECT_EQ(Orientation({0, 0}, {1, 0}, {1, -1}), -1); // cw
  EXPECT_EQ(Orientation({0, 0}, {1, 0}, {2, 0}), 0);   // collinear
}

TEST(PolylineTest, LengthDistanceAt) {
  Polyline pl{{{0, 0}, {10, 0}, {10, 10}}};
  EXPECT_DOUBLE_EQ(pl.Length(), 20);
  EXPECT_DOUBLE_EQ(pl.DistanceTo({5, 2}), 2);
  EXPECT_EQ(pl.At(0.0), (Point2{0, 0}));
  EXPECT_EQ(pl.At(0.5), (Point2{10, 0}));
  EXPECT_EQ(pl.At(1.0), (Point2{10, 10}));
  EXPECT_EQ(pl.At(0.75), (Point2{10, 5}));

  Polyline empty;
  EXPECT_DOUBLE_EQ(empty.Length(), 0);
  Polyline single{{{3, 3}}};
  EXPECT_DOUBLE_EQ(single.DistanceTo({0, 3}), 3);
}

TEST(PolygonTest, RectangleBasics) {
  Polygon r = Polygon::Rectangle(0, 0, 10, 5);
  EXPECT_DOUBLE_EQ(r.AbsArea(), 50);
  EXPECT_DOUBLE_EQ(r.Perimeter(), 30);
  EXPECT_EQ(r.Centroid(), (Point2{5, 2.5}));
  EXPECT_EQ(r.Edges().size(), 4u);
  // Swapped corners normalize.
  Polygon r2 = Polygon::Rectangle(10, 5, 0, 0);
  EXPECT_DOUBLE_EQ(r2.AbsArea(), 50);
}

TEST(PolygonTest, SignedAreaWinding) {
  Polygon ccw({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  Polygon cw({{0, 0}, {0, 4}, {4, 4}, {4, 0}});
  EXPECT_DOUBLE_EQ(ccw.Area(), 16);
  EXPECT_DOUBLE_EQ(cw.Area(), -16);
  EXPECT_DOUBLE_EQ(cw.AbsArea(), 16);
}

TEST(PolygonTest, ContainsInteriorBoundaryExterior) {
  Polygon r = Polygon::Rectangle(0, 0, 10, 10);
  EXPECT_TRUE(r.Contains({5, 5}));
  EXPECT_TRUE(r.Contains({0, 5}));    // boundary
  EXPECT_TRUE(r.Contains({10, 10}));  // corner
  EXPECT_FALSE(r.Contains({10.01, 5}));
  EXPECT_FALSE(r.Contains({-0.01, 5}));
}

TEST(PolygonTest, ContainsNonConvex) {
  // L-shape.
  Polygon l({{0, 0}, {10, 0}, {10, 4}, {4, 4}, {4, 10}, {0, 10}});
  EXPECT_TRUE(l.Contains({2, 8}));
  EXPECT_TRUE(l.Contains({8, 2}));
  EXPECT_FALSE(l.Contains({8, 8}));
  EXPECT_DOUBLE_EQ(l.AbsArea(), 10 * 4 + 4 * 6);
}

TEST(PolygonTest, BoundaryDistance) {
  Polygon r = Polygon::Rectangle(0, 0, 10, 10);
  EXPECT_DOUBLE_EQ(r.BoundaryDistanceTo({5, 5}), 5);
  EXPECT_DOUBLE_EQ(r.BoundaryDistanceTo({5, 12}), 2);
  EXPECT_DOUBLE_EQ(r.BoundaryDistanceTo({0, 0}), 0);
}

TEST(PolygonTest, BoundaryIntersects) {
  Polygon r = Polygon::Rectangle(0, 0, 10, 10);
  EXPECT_TRUE(r.BoundaryIntersects(Segment({5, 5}, {15, 5})));   // exits
  EXPECT_FALSE(r.BoundaryIntersects(Segment({2, 2}, {8, 8})));   // interior
  EXPECT_FALSE(r.BoundaryIntersects(Segment({20, 20}, {30, 30})));
}

TEST(PolygonTest, DegenerateCentroid) {
  Polygon line({{0, 0}, {2, 0}, {4, 0}});  // zero area
  Point2 c = line.Centroid();
  EXPECT_DOUBLE_EQ(c.x, 2);
  EXPECT_DOUBLE_EQ(c.y, 0);
  EXPECT_DOUBLE_EQ(Polygon().Area(), 0);
  EXPECT_FALSE(Polygon().Contains({0, 0}));
}

TEST(CircleTest, ContainsAndPolygonization) {
  Circle c({5, 5}, 2);
  EXPECT_TRUE(c.Contains({6, 5}));
  EXPECT_TRUE(c.Contains({7, 5}));   // on boundary
  EXPECT_FALSE(c.Contains({7.1, 5}));
  EXPECT_NEAR(c.Area(), 12.566, 1e-3);

  Polygon poly = c.ToPolygon(64);
  EXPECT_EQ(poly.vertices.size(), 64u);
  EXPECT_NEAR(poly.AbsArea(), c.Area(), 0.1);
  EXPECT_NEAR(poly.Centroid().x, 5, 1e-9);
  // Minimum tessellation clamps to a triangle.
  EXPECT_EQ(c.ToPolygon(1).vertices.size(), 3u);
}

TEST(PolygonTest, BoundsCoverAllVertices) {
  Polygon p({{1, 1}, {5, -2}, {3, 7}});
  BoundingBox b = p.Bounds();
  EXPECT_DOUBLE_EQ(b.min.x, 1);
  EXPECT_DOUBLE_EQ(b.min.y, -2);
  EXPECT_DOUBLE_EQ(b.max.x, 5);
  EXPECT_DOUBLE_EQ(b.max.y, 7);
}

// ---- containment parity ------------------------------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Test-only oracles. The boundary distance is the minimum over the edges
// (v[i], v[i+1 mod n]) in index order; Polygon::BoundaryDistanceTo walks the
// same edges from (v[n-1], v[0]) and must return the same value.
double ReferenceBoundaryDistance(const Polygon& poly, const Point2& p) {
  const std::vector<Point2>& v = poly.vertices;
  double best = 1e300;
  for (size_t i = 0; v.size() >= 2 && i < v.size(); ++i) {
    best = std::min(best, Segment(v[i], v[(i + 1) % v.size()]).DistanceTo(p));
  }
  return best;
}

// Containment with the two tests in boundary-first order: within 1e-7 of the
// boundary is inside, else the even-odd ray cast to +x decides.
// Polygon::Contains runs the ray cast first and must agree on every point.
bool BoundaryFirstContains(const Polygon& poly, const Point2& p) {
  const std::vector<Point2>& v = poly.vertices;
  if (v.size() < 3) return false;
  if (ReferenceBoundaryDistance(poly, p) < 1e-7) return true;
  bool inside = false;
  for (size_t i = 0, j = v.size() - 1; i < v.size(); j = i++) {
    if ((v[i].y > p.y) != (v[j].y > p.y)) {
      double x_at = v[j].x + (p.y - v[j].y) / (v[i].y - v[j].y) * (v[i].x - v[j].x);
      if (p.x < x_at) inside = !inside;
    }
  }
  return inside;
}

// Probes that sit on the predicates' edges: every vertex, points along every
// edge, and points off each edge's midpoint along its normal at offsets
// swept ulp by ulp across the 1e-7 boundary tolerance (both sides of the
// edge), plus non-finite coordinates.
std::vector<Point2> EdgeProbes(const Polygon& poly) {
  std::vector<Point2> probes = poly.vertices;
  const size_t n = poly.vertices.size();
  for (size_t i = 0; i < n; ++i) {
    const Point2 a = poly.vertices[i];
    const Point2 b = poly.vertices[(i + 1) % n];
    for (double t : {0.25, 1.0 / 3.0, 0.5, 0.9}) probes.push_back(a + (b - a) * t);
    const double len = a.DistanceTo(b);
    if (!(len > 0)) continue;
    const Point2 mid = a + (b - a) * 0.5;
    const Point2 normal{-(b.y - a.y) / len, (b.x - a.x) / len};
    for (double side : {1.0, -1.0}) {
      for (double base : {1e-7, 2e-7, 5e-8}) {
        double d = base;
        for (int k = 0; k < 3; ++k) d = std::nextafter(d, 0.0);
        for (int k = 0; k < 7; ++k, d = std::nextafter(d, kInf)) {
          probes.push_back(mid + normal * (side * d));
        }
      }
    }
    // Axis-aligned offsets, one ulp of the coordinate at a time.
    double x = mid.x + 1e-7;
    for (int k = 0; k < 3; ++k) x = std::nextafter(x, -kInf);
    for (int k = 0; k < 7; ++k, x = std::nextafter(x, kInf)) probes.push_back({x, mid.y});
    double y = mid.y - 1e-7;
    for (int k = 0; k < 3; ++k) y = std::nextafter(y, -kInf);
    for (int k = 0; k < 7; ++k, y = std::nextafter(y, kInf)) probes.push_back({mid.x, y});
  }
  for (double c : {kNaN, kInf, -kInf}) {
    probes.push_back({c, 5});
    probes.push_back({5, c});
    probes.push_back({c, c});
    probes.push_back({c, kNaN});
  }
  return probes;
}

void ExpectContainsParity(const Polygon& poly, const std::vector<Point2>& probes) {
  for (const Point2& p : probes) {
    ASSERT_EQ(poly.Contains(p), BoundaryFirstContains(poly, p))
        << "probe (" << p.x << ", " << p.y << ") on a " << poly.vertices.size()
        << "-vertex polygon";
    ASSERT_EQ(poly.BoundaryDistanceTo(p), ReferenceBoundaryDistance(poly, p))
        << "probe (" << p.x << ", " << p.y << ")";
  }
}

TEST(PolygonContainsParity, EdgesVerticesAndToleranceBoundary) {
  const std::vector<Polygon> polygons = {
      Polygon::Rectangle(0, 0, 10, 10),
      Polygon::Rectangle(123.4, -56.7, 131.9, -50.05),
      Polygon({{0, 0}, {7, 1}, {2, 9}}),                            // slanted triangle
      Polygon({{0, 0}, {10, 0}, {10, 4}, {4, 4}, {4, 10}, {0, 10}}),  // L (concave)
      Polygon({{0, 0}, {9, 0}, {9, 9}, {6, 9}, {6, 3}, {3, 3}, {3, 9}, {0, 9}}),  // U
      Polygon({{0, 0}, {5, 2}, {10, 0}, {8, 5}, {10, 10}, {5, 8}, {0, 10}, {2, 5}}),
      Polygon({{0, 0}, {0, 0}, {10, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 10}}),  // repeats
      Polygon({{0, 0}, {2, 0}, {4, 0}}),                            // zero area
      Polygon({{2, 2}, {2, 2}, {2, 2}}),                            // one point thrice
  };
  for (const Polygon& poly : polygons) ExpectContainsParity(poly, EdgeProbes(poly));
  // Sanity on the oracle itself: edges and vertices count as inside.
  const Polygon square = Polygon::Rectangle(0, 0, 10, 10);
  EXPECT_TRUE(square.Contains({10, 5}));
  EXPECT_TRUE(square.Contains({10, 10}));
  EXPECT_TRUE(square.Contains({std::nextafter(10.0 + 1e-7, 0.0), 5}));
  EXPECT_FALSE(square.Contains({10.0 + 2e-7, 5}));
}

TEST(PolygonContainsParity, FewerThanThreeVertices) {
  for (const Polygon& poly :
       {Polygon(), Polygon({{1, 1}}), Polygon({{0, 0}, {10, 0}})}) {
    ExpectContainsParity(poly, EdgeProbes(poly));
    ExpectContainsParity(poly, {{0, 0}, {1, 1}, {5, 0}});
    EXPECT_FALSE(poly.Contains({1, 1}));
  }
}

TEST(PolygonContainsParity, NonFiniteVerticesAndProbes) {
  const std::vector<Polygon> polygons = {
      Polygon({{0, 0}, {10, 0}, {kNaN, 10}, {0, 10}}),
      Polygon({{0, 0}, {kInf, 0}, {10, 10}, {0, 10}}),
      Polygon({{0, 0}, {10, 0}, {10, -kInf}, {0, 10}}),
      Polygon({{kNaN, kNaN}, {kNaN, kNaN}, {kNaN, kNaN}}),
  };
  const std::vector<Point2> probes = {
      {5, 5},  {0, 0},    {10, 5},    {-1, 5},  {5, 0},    {kNaN, 5},
      {5, kNaN}, {kInf, 5}, {-kInf, 5}, {5, kInf}, {5, -kInf}, {kInf, -kInf}};
  for (const Polygon& poly : polygons) ExpectContainsParity(poly, probes);
}

TEST(PolygonContainsParity, RandomPointsAroundMallRegions) {
  // 10k seeded probes around the mall DSM's semantic regions: a third land
  // on or within a few tolerances of a random edge, the rest anywhere in the
  // region's bounding box grown by a metre.
  const dsm::Dsm mall = dsm::testing::MakeMall(3, 3);
  const auto& regions = mall.regions();
  ASSERT_FALSE(regions.empty());
  Rng rng(4242);
  size_t inside = 0, outside = 0, near_boundary = 0;
  for (int k = 0; k < 10000; ++k) {
    const Polygon& poly =
        regions[static_cast<size_t>(rng.UniformInt(0, regions.size() - 1))].shape;
    Point2 p;
    if (k % 3 == 0 && poly.vertices.size() >= 2) {
      const size_t n = poly.vertices.size();
      const size_t e = static_cast<size_t>(rng.UniformInt(0, n - 1));
      const Point2 a = poly.vertices[e];
      const Point2 b = poly.vertices[(e + 1) % n];
      p = a + (b - a) * rng.Uniform(0, 1);
      p = {p.x + rng.Uniform(-3e-7, 3e-7), p.y + rng.Uniform(-3e-7, 3e-7)};
    } else {
      const BoundingBox box = poly.Bounds();
      p = {rng.Uniform(box.min.x - 1, box.max.x + 1),
           rng.Uniform(box.min.y - 1, box.max.y + 1)};
    }
    const bool want = BoundaryFirstContains(poly, p);
    ASSERT_EQ(poly.Contains(p), want) << "probe " << k;
    const double boundary = poly.BoundaryDistanceTo(p);
    ASSERT_EQ(boundary, ReferenceBoundaryDistance(poly, p)) << "probe " << k;
    want ? ++inside : ++outside;
    near_boundary += boundary < 1e-7;
  }
  EXPECT_GT(inside, 2000u);
  EXPECT_GT(outside, 2000u);
  EXPECT_GT(near_boundary, 100u);  // the tolerance band is exercised
}

}  // namespace
}  // namespace trips::geo
