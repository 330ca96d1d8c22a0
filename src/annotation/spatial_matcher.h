// Spatial matching — the spatial-annotation half of the Annotation layer
// (§3): "The spatial annotation is made by matching the semantic regions in
// the DSM created by the Space Modeler."
#pragma once

#include <string>

#include "dsm/dsm.h"
#include "positioning/record_block.h"

namespace trips::annotation {

/// Result of matching a snippet against the DSM's semantic regions.
struct SpatialMatch {
  dsm::RegionId region = dsm::kInvalidRegion;
  std::string region_name;
  /// Time-weighted fraction of the snippet spent inside the matched region.
  double coverage = 0;
};

/// Options of the matcher.
struct SpatialMatcherOptions {
  /// Matches below this coverage are rejected (no region annotation).
  double min_coverage = 0.3;
};

/// Matches snippets to semantic regions by time-weighted majority of the
/// per-record RegionAt lookups.
class SpatialMatcher {
 public:
  explicit SpatialMatcher(const dsm::Dsm* dsm, SpatialMatcherOptions options = {});

  /// Matches records [begin, end) of a time-sorted record block; an `end`
  /// past the block is clamped to its size.
  SpatialMatch Match(const positioning::RecordBlock& block, size_t begin,
                     size_t end) const;

 private:
  const dsm::Dsm* dsm_;
  SpatialMatcherOptions options_;
};

}  // namespace trips::annotation
