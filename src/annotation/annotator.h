// Mobility Semantics Annotator — the Annotation layer of the framework (§2,
// §3): "reads the cleaned sequence from the Raw Data Cleaner, and extracts a
// sequence of mobility semantics by matching proper annotations according to
// the relevant contexts (i.e., semantic regions and mobility events)."
#pragma once

#include <cstdint>
#include <vector>

#include "annotation/event_classifier.h"
#include "annotation/spatial_matcher.h"
#include "annotation/splitter.h"
#include "core/semantics.h"
#include "positioning/record_block.h"

namespace trips::annotation {

/// Options of the annotator.
struct AnnotatorOptions {
  SplitterOptions splitter;
  SpatialMatcherOptions matcher;
  /// Drop snippets that match no semantic region at all.
  bool drop_unmatched = true;
  /// Merge consecutive triplets with equal (event, region)...
  bool merge_adjacent = true;
  /// ...but only when separated by at most this much time; merging across a
  /// longer hole would hide a data gap the Complementing layer should fill.
  DurationMs merge_max_gap = 30 * kMillisPerSecond;
  /// Minimum triplet duration; shorter ones are dropped.
  DurationMs min_duration = 5 * kMillisPerSecond;
};

/// Optional timing breakdown of one Annotate call, filled by the annotator so
/// callers (core::Engine) can attribute the split stage separately from
/// the rest of annotation without this layer depending on trips::obs.
struct AnnotateTimings {
  uint64_t split_ns = 0;  ///< wall time of SplitSequence
};

/// Produces mobility semantics from cleaned record blocks.
class Annotator {
 public:
  /// `dsm` (held by the spatial matcher) and `classifier` must outlive the
  /// annotator. The classifier may be untrained (rule-based identification
  /// is used then).
  Annotator(const dsm::Dsm* dsm, const EventClassifier* classifier,
            AnnotatorOptions options = {});

  /// Annotates one cleaned, time-sorted record block into its mobility
  /// semantics sequence. When `timings` is non-null the per-stage breakdown
  /// is written to it.
  core::MobilitySemanticsSequence Annotate(
      const positioning::RecordBlock& cleaned,
      AnnotateTimings* timings = nullptr) const;

 private:
  const EventClassifier* classifier_;
  AnnotatorOptions options_;
  SpatialMatcher matcher_;
};

/// Baseline annotator implementing the stop/move scheme of the prior GPS
/// systems TRIPS compares against ([10, 12] in the paper): snippets whose
/// mean speed is below `stop_speed` become "stay", everything else "pass-by".
/// Spatial matching is shared with the TRIPS annotator.
class StopMoveBaseline {
 public:
  StopMoveBaseline(const dsm::Dsm* dsm, AnnotatorOptions options = {},
                   double stop_speed = 0.5);

  /// Annotates one cleaned, time-sorted record block.
  core::MobilitySemanticsSequence Annotate(
      const positioning::RecordBlock& cleaned) const;

 private:
  AnnotatorOptions options_;
  double stop_speed_;
  SpatialMatcher matcher_;
};

}  // namespace trips::annotation
