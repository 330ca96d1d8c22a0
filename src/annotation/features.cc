#include "annotation/features.h"

#include <cmath>

namespace trips::annotation {

const std::vector<std::string>& FeatureNames() {
  static const std::vector<std::string> kNames = {
      "duration_s",      "record_count",   "location_variance", "travel_distance",
      "net_displacement", "mean_speed",    "max_step_speed",    "covering_range",
      "straightness",    "turn_count",     "turn_rate",         "stop_fraction",
      "floor_changes",
  };
  return kNames;
}

FeatureVector ExtractFeatures(const positioning::RecordBlock& block, size_t begin,
                              size_t end) {
  FeatureVector f{};
  if (end > block.Size()) end = block.Size();
  if (begin >= end) return f;
  const size_t n = end - begin;
  f[kRecordCount] = static_cast<double>(n);
  if (n < 2) return f;

  DurationMs duration = block.timestamps[end - 1] - block.timestamps[begin];
  f[kDurationS] = static_cast<double>(duration) / 1000.0;

  // Centroid & variance.
  geo::Point2 centroid;
  for (size_t i = begin; i < end; ++i) centroid = centroid + block.XY(i);
  centroid = centroid / static_cast<double>(n);
  double var = 0;
  geo::BoundingBox box;
  for (size_t i = begin; i < end; ++i) {
    double d = block.XY(i).DistanceTo(centroid);
    var += d * d;
    box.Extend(block.XY(i));
  }
  f[kLocationVariance] = var / static_cast<double>(n);
  f[kCoveringRange] =
      std::sqrt(box.Width() * box.Width() + box.Height() * box.Height());

  // Steps: distance, speed, turns, stops, floor changes.
  double travel = 0;
  double max_speed = 0;
  int turns = 0;
  int slow_steps = 0;
  int steps = 0;
  int floor_changes = 0;
  bool have_heading = false;
  double prev_heading = 0;
  for (size_t i = begin + 1; i < end; ++i) {
    geo::Point2 step = block.XY(i) - block.XY(i - 1);
    double len = step.Norm();
    travel += len;
    DurationMs dt = block.timestamps[i] - block.timestamps[i - 1];
    double speed = dt > 0 ? len / (static_cast<double>(dt) / 1000.0) : 0;
    if (speed > max_speed) max_speed = speed;
    ++steps;
    if (speed < 0.2) ++slow_steps;
    if (block.floors[i] != block.floors[i - 1]) ++floor_changes;
    if (len > 0.05) {  // ignore jitter when computing headings
      double heading = std::atan2(step.y, step.x);
      if (have_heading) {
        double diff = std::fabs(heading - prev_heading);
        if (diff > 3.14159265358979323846) diff = 2 * 3.14159265358979323846 - diff;
        if (diff > 3.14159265358979323846 / 4) ++turns;  // > 45 degrees
      }
      prev_heading = heading;
      have_heading = true;
    }
  }
  f[kTravelDistance] = travel;
  f[kNetDisplacement] = block.XY(begin).DistanceTo(block.XY(end - 1));
  f[kMeanSpeed] = f[kDurationS] > 0 ? travel / f[kDurationS] : 0;
  f[kMaxStepSpeed] = max_speed;
  f[kStraightness] = travel > 1e-9 ? f[kNetDisplacement] / travel : 0;
  f[kTurnCount] = turns;
  f[kTurnRate] = f[kDurationS] > 0 ? turns / (f[kDurationS] / 60.0) : 0;
  f[kStopFraction] =
      steps > 0 ? static_cast<double>(slow_steps) / static_cast<double>(steps) : 0;
  f[kFloorChanges] = floor_changes;
  return f;
}

}  // namespace trips::annotation
