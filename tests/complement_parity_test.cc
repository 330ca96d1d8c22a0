// Parity of the compiled Complementor against the test-only layered-map
// oracle (tests/testing/reference_complement.h) on seeded random knowledge,
// plus the input-validity rules the compile step enforces.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "complement/complementor.h"
#include "complement/knowledge.h"
#include "testing/random_dsm.h"
#include "testing/reference_complement.h"
#include "util/rng.h"

namespace trips::complement {
namespace {

using testing::ReferenceComplement;
using testing::ReferenceInferPath;

// Probabilities drawn from a small palette so equal-cost ties (and exact
// zero-cost p == 1 edges) are common rather than measure-zero.
constexpr double kPalette[] = {1.0, 0.5, 0.25, 0.125, 0.2, 0.1, 0.3, 0.75};

struct RandomKnowledge {
  MobilityKnowledge knowledge;
  std::vector<dsm::RegionId> ids;  // every region the knowledge mentions
};

// Random valid knowledge (every p in (0, 1]) over `ids`. Some regions get no
// row (they can only be endpoints), some receive no edge at all (unreachable
// targets), rows are sometimes uniform (equal-probability ties), and a chain
// of exactly `chain_edges` edges links the first two ids.
RandomKnowledge MakeKnowledge(Rng* rng, std::vector<dsm::RegionId> ids,
                              int chain_edges) {
  RandomKnowledge out;
  out.ids = ids;
  MobilityKnowledge& k = out.knowledge;
  const size_t n = ids.size();
  for (size_t a = 0; a < n; ++a) {
    if (rng->Chance(0.15)) continue;  // no outgoing row
    const int degree = static_cast<int>(rng->UniformInt(0, 5));
    const bool uniform = rng->Chance(0.3);
    for (int e = 0; e < degree; ++e) {
      size_t b = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
      if (b == n - 1 && rng->Chance(0.8)) continue;  // the last id stays mostly unreachable
      double p = uniform ? 1.0 / degree
                         : kPalette[rng->UniformInt(0, std::size(kPalette) - 1)];
      k.transition_prob[ids[a]][ids[b]] = p;
    }
    if (rng->Chance(0.1)) k.transition_prob[ids[a]];  // empty row
  }
  // A chain ids[0] -> c1 -> ... -> ids[1] of exactly chain_edges edges through
  // fresh regions, so the hop bound is hit exactly.
  dsm::RegionId prev = ids[0];
  for (int e = 0; e + 1 < chain_edges; ++e) {
    dsm::RegionId mid = 100'000 + static_cast<dsm::RegionId>(out.ids.size()) * 7;
    out.ids.push_back(mid);
    k.transition_prob[prev][mid] = 1.0;
    prev = mid;
  }
  k.transition_prob[prev][ids[1]] = 1.0;
  for (dsm::RegionId id : out.ids) {
    if (rng->Chance(0.2)) continue;  // missing dwell: the one-minute default
    k.mean_dwell[id] = rng->Chance(0.1) ? 0 : rng->UniformInt(1, 600) * 1000;
  }
  k.observed_transitions = 1;
  return out;
}

// Sparse, non-dense region ids (the compiled form must not assume dense DSM
// ids), mixing real DSM regions (named) with ids the DSM does not know.
std::vector<dsm::RegionId> RandomIds(Rng* rng, const dsm::Dsm& dsm, size_t n) {
  std::vector<dsm::RegionId> ids;
  for (const dsm::SemanticRegion& r : dsm.regions()) {
    if (ids.size() < n / 2 && rng->Chance(0.5)) ids.push_back(r.id);
  }
  while (ids.size() < n) {
    ids.push_back(static_cast<dsm::RegionId>(1000 + rng->UniformInt(0, 50) * 13 +
                                             static_cast<int64_t>(ids.size()) * 997));
  }
  rng->Shuffle(&ids);
  return ids;
}

class ComplementParity : public ::testing::Test {
 protected:
  void SetUp() override { dsm_ = dsm::testing::MakeMall(1, 2); }
  dsm::Dsm dsm_;
};

TEST_F(ComplementParity, InferPathMatchesReferenceOnRandomKnowledge) {
  Rng rng(20261017);
  size_t compared = 0, nonempty = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(2, 14));
    ComplementorOptions options;
    options.max_inferred_steps = static_cast<int>(rng.UniformInt(0, 6));
    if (trial % 10 == 9) options.max_inferred_steps = 40;  // beyond n - 1
    const int bound = options.max_inferred_steps + 1;
    // Alternate a chain exactly at the bound with one a single edge past it.
    RandomKnowledge rk =
        MakeKnowledge(&rng, RandomIds(&rng, dsm_, n), bound + (trial % 2));
    Complementor complementor(&dsm_, &rk.knowledge, options);

    std::vector<dsm::RegionId> queries = rk.ids;
    queries.push_back(dsm::kInvalidRegion);
    queries.push_back(424242);  // in no row and no successor
    for (dsm::RegionId from : queries) {
      for (dsm::RegionId to : queries) {
        std::vector<dsm::RegionId> want =
            ReferenceInferPath(rk.knowledge, options, from, to);
        ASSERT_EQ(complementor.InferPath(from, to), want)
            << "trial " << trial << " from " << from << " to " << to;
        ++compared;
        nonempty += !want.empty();
      }
    }
  }
  EXPECT_GT(compared, 5000u);
  EXPECT_GT(nonempty, 300u);  // the suite exercises real paths, not just misses
}

TEST_F(ComplementParity, ComplementMatchesReferenceOnRandomSequences) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    ComplementorOptions options;
    options.max_inferred_steps = static_cast<int>(rng.UniformInt(1, 5));
    options.min_gap = rng.UniformInt(0, 60) * 1000;
    RandomKnowledge rk = MakeKnowledge(&rng, RandomIds(&rng, dsm_, 10),
                                       options.max_inferred_steps + 1);
    Complementor complementor(&dsm_, &rk.knowledge, options);

    core::MobilitySemanticsSequence seq;
    seq.device_id = "dev-" + std::to_string(trial);
    TimestampMs t = 0;
    const int len = static_cast<int>(rng.UniformInt(0, 25));
    for (int i = 0; i < len; ++i) {
      core::MobilitySemantic s;
      s.region = rng.Chance(0.05)
                     ? dsm::kInvalidRegion
                     : rk.ids[static_cast<size_t>(
                           rng.UniformInt(0, static_cast<int64_t>(rk.ids.size()) - 1))];
      s.region_name = "observed";
      s.event = rng.Chance(0.5) ? core::kEventStay : core::kEventPassBy;
      s.range.begin = t;
      s.range.end = t + rng.UniformInt(1, 300) * 1000;
      t = s.range.end + rng.UniformInt(0, 900) * 1000;
      seq.semantics.push_back(std::move(s));
    }
    ComplementReport got_report, want_report;
    core::MobilitySemanticsSequence got = complementor.Complement(seq, &got_report);
    core::MobilitySemanticsSequence want =
        ReferenceComplement(dsm_, rk.knowledge, options, seq, &want_report);
    ASSERT_EQ(got.device_id, want.device_id);
    ASSERT_EQ(got.semantics, want.semantics) << "trial " << trial;
    EXPECT_EQ(got_report.gaps_found, want_report.gaps_found);
    EXPECT_EQ(got_report.gaps_filled, want_report.gaps_filled);
    EXPECT_EQ(got_report.triplets_inferred, want_report.triplets_inferred);
  }
}

TEST_F(ComplementParity, ChainAtTheHopBound) {
  // 10 -> 11 -> ... -> 10 + edges, every step certain.
  for (int edges = 1; edges <= 6; ++edges) {
    MobilityKnowledge k;
    for (int e = 0; e < edges; ++e) k.transition_prob[10 + e][11 + e] = 1.0;
    for (int steps = 0; steps <= 6; ++steps) {
      ComplementorOptions options;
      options.max_inferred_steps = steps;
      Complementor complementor(&dsm_, &k, options);
      std::vector<dsm::RegionId> path = complementor.InferPath(10, 10 + edges);
      ASSERT_EQ(path, ReferenceInferPath(k, options, 10, 10 + edges));
      // Found (with edges - 1 intermediates) exactly when it fits the bound.
      EXPECT_EQ(path.size(), edges <= steps + 1 ? static_cast<size_t>(edges - 1) : 0u)
          << edges << " edges, " << steps << " steps";
    }
  }
}

TEST_F(ComplementParity, LearnedAndUniformKnowledgeMatchReference) {
  MobilityKnowledge uniform = MobilityKnowledge::Uniform(dsm_);
  ComplementorOptions options;
  Complementor complementor(&dsm_, &uniform, options);
  EXPECT_EQ(complementor.RegionCount(), dsm_.regions().size());
  for (const dsm::SemanticRegion& a : dsm_.regions()) {
    for (const dsm::SemanticRegion& b : dsm_.regions()) {
      ASSERT_EQ(complementor.InferPath(a.id, b.id),
                ReferenceInferPath(uniform, options, a.id, b.id));
    }
  }
}

TEST_F(ComplementParity, ReportCountsSearchesAndPops) {
  MobilityKnowledge k;
  k.transition_prob[1][2] = 0.5;
  k.transition_prob[2][3] = 1.0;
  Complementor complementor(&dsm_, &k);
  core::MobilitySemanticsSequence seq;
  seq.semantics.push_back({core::kEventStay, 1, "a", {0, 1000}, false});
  seq.semantics.push_back({core::kEventStay, 3, "c", {400'000, 500'000}, false});
  seq.semantics.push_back({core::kEventStay, 3, "c", {900'000, 950'000}, false});
  ComplementReport report;
  complementor.Complement(seq, &report);
  EXPECT_EQ(report.gaps_found, 2u);
  EXPECT_EQ(report.infer_calls, 1u);  // the same-region gap needs no search
  // Pops: (1,0), (2,1), (3,2) = goal.
  EXPECT_EQ(report.infer_states_popped, 3u);
  EXPECT_EQ(report.gaps_filled, 2u);
}

// ---- input validity ---------------------------------------------------------

TEST_F(ComplementParity, NegativeStepBoundBehavesAsZero) {
  MobilityKnowledge k;
  k.transition_prob[1][2] = 1.0;
  k.transition_prob[2][3] = 1.0;
  k.transition_prob[1][3] = 0.5;
  for (int steps : {-1, -7, std::numeric_limits<int>::min()}) {
    ComplementorOptions negative;
    negative.max_inferred_steps = steps;
    ComplementorOptions zero;
    zero.max_inferred_steps = 0;
    Complementor a(&dsm_, &k, negative);
    Complementor b(&dsm_, &k, zero);
    EXPECT_TRUE(a.InferPath(1, 3).empty());
    EXPECT_EQ(a.InferPath(1, 3), b.InferPath(1, 3));
    core::MobilitySemanticsSequence seq;
    seq.semantics.push_back({core::kEventStay, 1, "a", {0, 1000}, false});
    seq.semantics.push_back({core::kEventStay, 3, "c", {400'000, 500'000}, false});
    EXPECT_EQ(a.Complement(seq).semantics, b.Complement(seq).semantics);
  }
}

TEST_F(ComplementParity, HugeStepBoundIsCappedWithoutChangingPaths) {
  Rng rng(5);
  RandomKnowledge rk = MakeKnowledge(&rng, RandomIds(&rng, dsm_, 8), 6);
  ComplementorOptions huge;
  huge.max_inferred_steps = std::numeric_limits<int>::max();
  ComplementorOptions wide;
  wide.max_inferred_steps = 64;
  Complementor complementor(&dsm_, &rk.knowledge, huge);
  for (dsm::RegionId from : rk.ids) {
    for (dsm::RegionId to : rk.ids) {
      ASSERT_EQ(complementor.InferPath(from, to),
                ReferenceInferPath(rk.knowledge, wide, from, to));
    }
  }
}

TEST_F(ComplementParity, ProbabilityAboveOneIsClampedToCertain) {
  // p = 3 would give the edge 1 -> 2 the negative weight -log(3). Clamped,
  // it is a certain transition: 1 -> 2 -> 4 and 1 -> 3 -> 4 both cost 0 and
  // the tie breaks on the lower region id, exactly as with p = 1.
  MobilityKnowledge hostile;
  hostile.transition_prob[1][3] = 1.0;
  hostile.transition_prob[3][4] = 1.0;
  hostile.transition_prob[1][2] = 3.0;
  hostile.transition_prob[2][4] = 1.0;
  MobilityKnowledge clamped = hostile;
  clamped.transition_prob[1][2] = 1.0;
  Complementor complementor(&dsm_, &hostile);
  ComplementorOptions options;
  EXPECT_EQ(complementor.InferPath(1, 4), ReferenceInferPath(clamped, options, 1, 4));
  EXPECT_EQ(complementor.InferPath(1, 4), std::vector<dsm::RegionId>{2});
  EXPECT_EQ(complementor.EdgeCount(), 4u);
}

TEST_F(ComplementParity, NanAndNonPositiveProbabilitiesAreSkipped) {
  MobilityKnowledge hostile;
  hostile.transition_prob[1][2] = std::numeric_limits<double>::quiet_NaN();
  hostile.transition_prob[2][5] = 1.0;
  hostile.transition_prob[1][3] = 0.0;
  hostile.transition_prob[3][5] = 1.0;
  hostile.transition_prob[1][4] = -0.5;
  hostile.transition_prob[4][5] = 1.0;
  hostile.transition_prob[1][6] = 0.25;
  hostile.transition_prob[6][5] = 0.5;
  MobilityKnowledge clean;
  clean.transition_prob[2][5] = 1.0;
  clean.transition_prob[3][5] = 1.0;
  clean.transition_prob[4][5] = 1.0;
  clean.transition_prob[1][6] = 0.25;
  clean.transition_prob[6][5] = 0.5;
  Complementor complementor(&dsm_, &hostile);
  EXPECT_EQ(complementor.EdgeCount(), 5u);
  ComplementorOptions options;
  for (dsm::RegionId from = 1; from <= 6; ++from) {
    for (dsm::RegionId to = 1; to <= 6; ++to) {
      ASSERT_EQ(complementor.InferPath(from, to),
                ReferenceInferPath(clean, options, from, to));
    }
  }
  EXPECT_EQ(complementor.InferPath(1, 5), std::vector<dsm::RegionId>{6});
}

}  // namespace
}  // namespace trips::complement
