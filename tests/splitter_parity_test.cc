// Parity of the columnar ST-DBSCAN splitter against the test-only reference
// (tests/testing/reference_split.h) on seeded random blocks built to sit on
// the predicate's edges: distances exactly at eps_space and one ulp either
// side, repeated timestamps, gaps exactly at eps_time, floor switches and NaN
// coordinates, for min_pts 1..6; and on the time windows' extremes (eps_time
// zero, negative or past the block's span, one shared timestamp).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "annotation/splitter.h"
#include "positioning/record_block.h"
#include "testing/reference_split.h"
#include "util/rng.h"

namespace trips::annotation {
namespace {

using positioning::PositioningSequence;
using positioning::RecordBlock;
using testing::ReferenceSplit;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool SameSnippets(const std::vector<Snippet>& a, const std::vector<Snippet>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].begin != b[i].begin || a[i].end != b[i].end || a[i].dense != b[i].dense) {
      return false;
    }
  }
  return true;
}

// A time-sorted random walk that keeps landing on the predicate's edges.
RecordBlock RandomEdgeBlock(Rng* rng, const SplitterOptions& opt, size_t n) {
  RecordBlock block;
  block.device_id = "d";
  TimestampMs t = 0;
  double x = rng->Uniform(-5, 5);
  double y = rng->Uniform(-5, 5);
  geo::FloorId floor = 0;
  for (size_t i = 0; i < n; ++i) {
    switch (rng->UniformInt(0, 9)) {
      case 0: t += 0; break;                              // repeated timestamp
      case 1: t += opt.eps_time; break;                   // gap exactly eps_time
      case 2: t += opt.eps_time + 1; break;               // just past it
      default: t += rng->UniformInt(1, 20) * 1000; break;
    }
    const double eps = opt.eps_space;
    switch (rng->UniformInt(0, 11)) {
      case 0: x += eps; break;                            // exactly eps away
      case 1: x = std::nextafter(x + eps, kInf); break;   // one ulp beyond
      case 2: x = std::nextafter(x + eps, -kInf); break;  // one ulp within
      case 3: y -= eps; break;
      case 4: break;                                      // coincident
      case 5: floor = floor == 0 ? 1 : 0; break;          // floor switch
      case 6: x += rng->Uniform(-20, 20); break;          // jump away
      default:
        x += rng->Gaussian(0, eps / 3);
        y += rng->Gaussian(0, eps / 3);
        break;
    }
    double px = x, py = y;
    if (rng->Chance(0.03)) px = kNaN;
    if (rng->Chance(0.03)) py = kNaN;
    block.Append(px, py, floor, t);
  }
  return block;
}

TEST(SplitterParity, RandomEdgeBlocksMatchReference) {
  Rng rng(1017);
  size_t dense_snippets = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SplitterOptions opt;
    opt.eps_space = trial % 3 == 0 ? 3.0 : rng.Uniform(0.1, 6.0);
    opt.eps_time = trial % 4 == 0 ? 90 * kMillisPerSecond : rng.UniformInt(0, 60) * 1000;
    opt.min_pts = static_cast<size_t>(1 + trial % 6);
    opt.min_snippet = trial % 2 == 0 ? 0 : rng.UniformInt(1, 30) * 1000;
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 250));
    RecordBlock block = RandomEdgeBlock(&rng, opt, n);
    std::vector<Snippet> want = ReferenceSplit(block, opt);
    std::vector<Snippet> got = SplitSequence(block, opt);
    ASSERT_TRUE(SameSnippets(got, want))
        << "trial " << trial << " n " << n << " eps " << opt.eps_space
        << " min_pts " << opt.min_pts;
    // The AoS wrapper runs the same implementation.
    PositioningSequence seq = block.ToSequence();
    ASSERT_TRUE(SameSnippets(SplitSequence(seq, opt), want)) << "trial " << trial;
    for (const Snippet& s : got) dense_snippets += s.dense;
  }
  EXPECT_GT(dense_snippets, 100u);  // real clusters, not only noise runs
}

TEST(SplitterParity, DistanceExactlyAtRadiusAndOneUlpEitherSide) {
  // Two-point blocks straddling eps_space: the neighbour predicate must agree
  // with sqrt(dx^2 + dy^2) <= eps_space to the last bit.
  // 1e-300 squares to zero and 1e200 to infinity: the bound search must
  // still land on the exact threshold (and stop).
  for (double eps : {3.0, 0.1, 1.0 / 3.0, 7.25, 1e-3, 12345.678, 1e-300, 1e200}) {
    SplitterOptions opt;
    opt.eps_space = eps;
    opt.min_pts = 2;
    opt.min_snippet = 0;
    const double xs[] = {eps, std::nextafter(eps, kInf), std::nextafter(eps, 0.0),
                         std::nextafter(std::nextafter(eps, kInf), kInf)};
    for (double dx : xs) {
      for (double base : {0.0, 1.0, -17.5, 1e4}) {
        RecordBlock block;
        block.Append(base, 0.0, 0, 0);
        block.Append(base + dx, 0.0, 0, 1000);
        block.Append(base, 0.0, 0, 2000);  // keeps the first point's partner honest
        ASSERT_TRUE(SameSnippets(SplitSequence(block, opt), ReferenceSplit(block, opt)))
            << "eps " << eps << " dx " << dx << " base " << base;
      }
    }
  }
}

TEST(SplitterParity, RepeatedTimestampsAndFloorSwitches) {
  SplitterOptions opt;
  opt.min_snippet = 0;
  RecordBlock block;
  for (int i = 0; i < 40; ++i) {
    block.Append(0.5 * (i % 3), 0.0, static_cast<geo::FloorId>((i / 7) % 2),
                 (i / 5) * 1000);
  }
  for (size_t min_pts = 1; min_pts <= 6; ++min_pts) {
    opt.min_pts = min_pts;
    ASSERT_TRUE(SameSnippets(SplitSequence(block, opt), ReferenceSplit(block, opt)))
        << "min_pts " << min_pts;
  }
}

TEST(SplitterParity, InfiniteRadiusMatchesReference) {
  Rng rng(3);
  SplitterOptions opt;
  opt.eps_space = kInf;
  opt.min_snippet = 0;
  RecordBlock block = RandomEdgeBlock(&rng, SplitterOptions{}, 120);
  for (size_t min_pts = 1; min_pts <= 6; ++min_pts) {
    opt.min_pts = min_pts;
    ASSERT_TRUE(SameSnippets(SplitSequence(block, opt), ReferenceSplit(block, opt)));
  }
}

TEST(SplitterParity, NonPositiveOrNanRadiusHasNoSpatialNeighbours) {
  // Coincident records, all within eps_time: with any usable radius they form
  // one cluster; with eps_space <= 0 or NaN nobody has a neighbour, so every
  // record is noise (min_pts 2) — and the call returns rather than hunting
  // for a squared-radius bound that does not exist.
  RecordBlock block;
  for (int i = 0; i < 10; ++i) block.Append(1.0, 2.0, 0, i * 1000);
  SplitterOptions opt;
  opt.min_pts = 2;
  opt.min_snippet = 0;
  for (double eps : {0.0, -0.0, -3.0, kNaN, -kInf}) {
    opt.eps_space = eps;
    std::vector<Snippet> snippets = SplitSequence(block, opt);
    ASSERT_EQ(snippets.size(), 1u) << eps;
    EXPECT_FALSE(snippets[0].dense) << eps;
    EXPECT_EQ(snippets[0].Size(), 10u);
  }
  // min_pts 1: every record is a core point of its own singleton cluster.
  opt.eps_space = 0.0;
  opt.min_pts = 1;
  std::vector<Snippet> singletons = SplitSequence(block, opt);
  ASSERT_EQ(singletons.size(), 10u);
  for (const Snippet& s : singletons) EXPECT_TRUE(s.dense);
  // A usable radius clusters them.
  opt.eps_space = 1e-9;
  opt.min_pts = 2;
  std::vector<Snippet> clustered = SplitSequence(block, opt);
  ASSERT_EQ(clustered.size(), 1u);
  EXPECT_TRUE(clustered[0].dense);
}

// Block and AoS forms against the reference, for every min_pts 1..6.
void ExpectParity(const RecordBlock& block, SplitterOptions opt) {
  const PositioningSequence seq = block.ToSequence();
  for (size_t min_pts = 1; min_pts <= 6; ++min_pts) {
    opt.min_pts = min_pts;
    const std::vector<Snippet> want = ReferenceSplit(block, opt);
    ASSERT_TRUE(SameSnippets(SplitSequence(block, opt), want))
        << "n " << block.Size() << " eps_time " << opt.eps_time << " min_pts " << min_pts;
    ASSERT_TRUE(SameSnippets(SplitSequence(seq, opt), want))
        << "AoS n " << block.Size() << " eps_time " << opt.eps_time << " min_pts "
        << min_pts;
  }
}

TEST(SplitterParity, TimeWindowExtremesMatchReference) {
  // eps_time 0 admits only equal timestamps, a negative one no other record
  // at all, and one at least the block's span every record; blocks whose
  // records all share one timestamp put everything in every window.
  Rng rng(2718);
  for (int trial = 0; trial < 60; ++trial) {
    RecordBlock block =
        RandomEdgeBlock(&rng, SplitterOptions{}, static_cast<size_t>(rng.UniformInt(0, 200)));
    if (trial % 3 == 2) {
      for (TimestampMs& t : block.timestamps) t = 5000;
    }
    const DurationMs span =
        block.Size() == 0 ? 0 : block.timestamps.back() - block.timestamps.front();
    SplitterOptions opt;
    opt.min_snippet = trial % 2 == 0 ? 0 : 10 * kMillisPerSecond;
    for (DurationMs eps_time : {DurationMs{0}, DurationMs{-1}, DurationMs{-90000}, span,
                                span + 1, std::numeric_limits<DurationMs>::max()}) {
      opt.eps_time = eps_time;
      ExpectParity(block, opt);
    }
  }
}

}  // namespace
}  // namespace trips::annotation
