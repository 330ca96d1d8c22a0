// Mobility Semantics Complementor — second half of the Complementing layer
// (§2, §3): "recovers the missing mobility semantics between two consecutive
// yet temporally far apart mobility semantics ... by a maximum a posteriori
// estimation, a mobility semantics inference utilizes the mobility knowledge
// to infer the most-likely mobility semantics between two semantic regions
// involved in the intermediate result."
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "complement/knowledge.h"
#include "core/semantics.h"
#include "dsm/dsm.h"

namespace trips::complement {

/// Options of the complementor.
struct ComplementorOptions {
  /// Gaps shorter than this are boundary slack, not missing semantics.
  DurationMs min_gap = 45 * kMillisPerSecond;
  /// Upper bound on the number of inferred intermediate regions per gap.
  /// Negative values behave as 0.
  int max_inferred_steps = 4;
  /// Inferred triplets allocated at least this long are labeled "stay";
  /// shorter ones "pass-by".
  DurationMs stay_threshold = 90 * kMillisPerSecond;
};

/// What the complementor did to one sequence.
struct ComplementReport {
  size_t gaps_found = 0;
  size_t gaps_filled = 0;
  size_t triplets_inferred = 0;
  /// MAP searches run: gaps whose two sides are different regions.
  size_t infer_calls = 0;
  /// Priority-queue pops across those searches — a deterministic work
  /// counter, the same on every machine and worker count.
  size_t infer_states_popped = 0;
};

/// Fills semantic gaps using MAP inference over the mobility knowledge.
///
/// The constructor compiles the knowledge once: regions get dense ids in
/// ascending region-id order, the transitions become a CSR with precomputed
/// -log(p) weights (plus the reverse adjacency), and mean dwell and region
/// names become dense arrays. Nothing reads the knowledge maps afterwards, so
/// one Complementor can be shared by any number of threads (all methods are
/// const and use thread-local scratch).
class Complementor {
 public:
  /// Compiles `knowledge`, which is only read during construction. `dsm`
  /// (may be null: no names) supplies the inferred triplets' region names
  /// and must outlive the complementor.
  /// Transition probabilities above 1 are clamped to 1; NaN and
  /// non-positive ones are skipped.
  Complementor(const dsm::Dsm* dsm, const MobilityKnowledge* knowledge,
               ComplementorOptions options = {});

  /// Returns `original` with inferred triplets (marked `inferred = true`)
  /// inserted into qualifying gaps. `report` may be null.
  core::MobilitySemanticsSequence Complement(
      const core::MobilitySemanticsSequence& original,
      ComplementReport* report = nullptr) const;

  /// MAP-most-likely region path from `from` to `to` (exclusive of both
  /// endpoints), at most max_inferred_steps long; empty when no path exists
  /// within the limit or the endpoints coincide.
  std::vector<dsm::RegionId> InferPath(dsm::RegionId from, dsm::RegionId to) const;

  /// Regions and usable transitions of the compiled knowledge.
  size_t RegionCount() const { return ids_.size(); }
  size_t EdgeCount() const { return next_.size(); }

 private:
  // Dense id of `region`, or -1 when the knowledge does not mention it.
  int32_t DenseId(dsm::RegionId region) const;
  // Runs the MAP search between two region ids and leaves the dense ids of
  // the intermediate regions in *path (empty: no path). Returns the number
  // of priority-queue pops.
  size_t Search(dsm::RegionId from, dsm::RegionId to,
                std::vector<int32_t>* path) const;

  ComplementorOptions options_;
  int max_hops_ = 1;                  // edges allowed per path
  std::vector<dsm::RegionId> ids_;    // dense id -> region id, ascending
  std::vector<uint32_t> row_begin_;   // CSR offsets into next_/weight_
  std::vector<int32_t> next_;         // successor dense ids
  std::vector<double> weight_;        // -log(p) per edge
  std::vector<uint32_t> pred_begin_;  // reverse CSR offsets into pred_
  std::vector<int32_t> pred_;         // predecessor dense ids
  std::vector<double> dwell_;         // window-sharing weight per region
  std::vector<const std::string*> names_;  // DSM region name, null if none
};

}  // namespace trips::complement
