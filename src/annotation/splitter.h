// Density-based splitting — first step of the Annotation layer (§3): "a
// density-based splitting obtains a number of data snippets by clustering
// positioning records with respect to their spatio-temporal attributes."
//
// We run a sequential ST-DBSCAN over the cleaned records: two records are
// neighbours when they are within eps_space metres on the same floor AND
// within eps_time of each other; records with at least min_pts neighbours are
// core points and clusters grow over density-connected cores. Because the
// time axis bounds the neighbourhood, clusters come out temporally coherent;
// the final snippets are the maximal time-contiguous runs of equal cluster
// label (dense snippets = dwell-like, noise runs = transition-like).
#pragma once

#include <cstddef>
#include <vector>

#include "positioning/record.h"
#include "positioning/record_block.h"

namespace trips::annotation {

/// Parameters of the spatio-temporal density clustering.
struct SplitterOptions {
  /// Spatial neighbourhood radius, metres.
  double eps_space = 3.0;
  /// Temporal neighbourhood radius, milliseconds.
  DurationMs eps_time = 90 * kMillisPerSecond;
  /// Minimum neighbours (incl. self) for a core point.
  size_t min_pts = 4;
  /// Runs shorter than this are merged into the preceding snippet rather
  /// than emitted on their own (anti-fragmentation).
  DurationMs min_snippet = 10 * kMillisPerSecond;
};

/// A snippet: the record index range [begin, end) of one split segment.
struct Snippet {
  size_t begin = 0;
  size_t end = 0;  ///< exclusive
  /// True when the snippet is a density cluster (dwell-like); false for a
  /// between-cluster transition run.
  bool dense = false;

  size_t Size() const { return end - begin; }
};

/// Splits a time-sorted record block into snippets. Returns an empty vector
/// for blocks with fewer than 2 records. An eps_space that is NaN or not
/// positive gives no spatial neighbours (every record is its own
/// neighbourhood). Works on reused per-thread scratch: after warm-up the
/// only allocation is the returned vector.
std::vector<Snippet> SplitSequence(const positioning::RecordBlock& block,
                                   const SplitterOptions& options = {});

/// AoS form: copies the sequence into a per-thread RecordBlock and runs the
/// columnar splitter, so both forms return identical snippets.
std::vector<Snippet> SplitSequence(const positioning::PositioningSequence& seq,
                                   const SplitterOptions& options = {});

}  // namespace trips::annotation
