// Feature extraction for event identification (§3): "The feature extraction
// considers the information of positioning location variance, traveling
// distance and speed, covering range, number of turns, etc."
#pragma once

#include <array>
#include <string>
#include <vector>

#include "positioning/record_block.h"

namespace trips::annotation {

/// Indices of the extracted features (keep FeatureNames() in sync).
enum FeatureIndex : size_t {
  kDurationS = 0,       ///< snippet duration, seconds
  kRecordCount,         ///< number of records
  kLocationVariance,    ///< mean squared planar distance from the centroid
  kTravelDistance,      ///< summed step lengths, metres
  kNetDisplacement,     ///< straight-line start->end distance, metres
  kMeanSpeed,           ///< travel distance / duration, m/s
  kMaxStepSpeed,        ///< max per-step speed, m/s
  kCoveringRange,       ///< bounding-box diagonal, metres
  kStraightness,        ///< net displacement / travel distance in [0,1]
  kTurnCount,           ///< heading changes > 45 degrees
  kTurnRate,            ///< turns per minute
  kStopFraction,        ///< fraction of steps slower than 0.2 m/s
  kFloorChanges,        ///< number of floor transitions
  kFeatureCount,
};

/// One extracted feature vector.
using FeatureVector = std::array<double, kFeatureCount>;

/// Human-readable names of the features, index-aligned with FeatureIndex.
const std::vector<std::string>& FeatureNames();

/// Extracts features from the records [begin, end) of a time-sorted record
/// block; an `end` past the block is clamped to its size. Slices with fewer
/// than 2 records yield a zero vector with the available counts filled in.
FeatureVector ExtractFeatures(const positioning::RecordBlock& block, size_t begin,
                              size_t end);

}  // namespace trips::annotation
