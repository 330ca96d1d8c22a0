// Raw Data Cleaner — the Cleaning layer of the three-layer translation
// framework (§3): "the invalid positioning records are identified by checking
// the speeds between consecutive positioning records based on the minimum
// indoor walking distance [13]. An invalid positioning record is repaired in
// two steps. A floor value correction fixes an error in that record's floor
// value. If the speed constraint violation still occurs after the correction,
// a location interpolation is performed by deriving the possible locations at
// the time of that record based on the indoor geometrical and topological
// information captured by the DSM."
//
// The cleaner accepts one record layout: CleanBlock repairs a
// positioning::RecordBlock in place with four passes over its columns — (1)
// sequential speed-constraint anchor scan, (2) DSM-guided interpolation of
// the invalid runs, (3) optional planar smoothing, (4) snap-back into
// walkable space. Passes 2 and 4 operate on disjoint records, so for long
// sequences they fan out over an optional util::ThreadPool with
// bit-identical, worker-count-independent results. Passes 1, 3 and 4 run
// through SIMD-friendly kernels — branch-free mask columns, per-run window
// sweeps and the cell-sorted batched snap — that evaluate the same arithmetic
// in the same per-element order as the per-record CleanReference, so their
// output is byte-identical to it (tests/cleaning_vector_test.cc enforces
// this; tools/check_vectorization.sh checks the tagged kernel loops are
// SIMD-compiled). CleanReference, the original implementation over an AoS
// sequence, is kept only as the oracle of the parity tests and the baseline
// of the cleaning benchmarks; callers holding AoS records convert with
// RecordBlock::FromSequence and read the cleaned records back with
// ToSequence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsm/dsm.h"
#include "dsm/routing.h"
#include "obs/metrics.h"
#include "positioning/record.h"
#include "positioning/record_block.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace trips::cleaning {

/// Tuning knobs of the cleaner.
struct CleanerOptions {
  /// Maximum plausible indoor walking speed (m/s). Consecutive records whose
  /// implied speed exceeds this violate the speed constraint.
  double max_walking_speed = 3.0;
  /// Metres charged per floor difference when computing the minimum indoor
  /// walking distance between records on different floors.
  double floor_change_penalty = 15.0;
  /// Floor changes within this distance of a staircase/elevator footprint are
  /// legitimate transitions: the floor penalty is waived there. Changes away
  /// from every vertical connector are physically impossible and flag the
  /// record as invalid (the DSM-captured indoor mobility constraint).
  double vertical_connector_slack = 4.0;
  /// Use the DSM route distance between repair anchors so interpolated
  /// locations follow walkable paths; falls back to straight lines when no
  /// route exists.
  bool interpolate_along_routes = true;
  /// Snap repaired/cleaned locations that fall outside every walkable
  /// partition back onto the nearest walkable boundary.
  bool snap_to_walkable = true;
  /// Optional planar smoothing: centred moving average over this many
  /// records (0 or 1 disables). Reduces isotropic positioning noise without
  /// displacing dwell clusters.
  size_t smoothing_window = 0;
  /// Sequences with at least this many records run cleaning passes 2
  /// (interpolation) and 4 (snapping) in parallel when a thread pool is
  /// passed to CleanBlock; shorter sequences always clean serially.
  size_t parallel_min_records = 4096;
};

/// Per-pass observability of CleanBlock (clean.scan_ns / clean.interpolate_ns
/// / clean.smooth_ns / clean.snap_ns in the /statsz export). Every pointer may
/// be null — that pass is simply not recorded — mirroring
/// core::TranslationStageMetrics, which embeds one of these resolved from the
/// service registry. Recording never changes cleaning output.
struct CleaningStageMetrics {
  obs::Histogram* scan_ns = nullptr;
  obs::Histogram* interpolate_ns = nullptr;
  obs::Histogram* smooth_ns = nullptr;
  obs::Histogram* snap_ns = nullptr;
};

/// Counters describing what the cleaner did to one sequence.
struct CleaningReport {
  size_t total_records = 0;
  size_t speed_violations = 0;   ///< records that violated the speed constraint
  size_t floor_corrected = 0;    ///< repaired by floor value correction alone
  size_t interpolated = 0;       ///< repaired by DSM-guided location interpolation
  size_t snapped = 0;            ///< nudged back into walkable space
  size_t smoothed = 0;           ///< records touched by the smoothing filter
};

/// Reusable per-worker scratch arena of the cleaning passes. All buffers are
/// reserve-once: a worker that keeps one scratch across sequences reaches a
/// steady state where CleanBlock allocates nothing. Pass nullptr to
/// CleanBlock to use an internal per-thread arena (the common case).
struct CleanerScratch {
  /// Invalid runs found by pass 1, inclusive [begin, end] index pairs.
  std::vector<std::pair<uint32_t, uint32_t>> runs;
  /// Anchor record indices pass 2 snaps before routing, ascending unique.
  std::vector<uint32_t> anchors;
  /// Snapped anchor locations, parallel to `anchors`.
  std::vector<geo::IndoorPoint> anchor_snaps;
  /// Pass-4 per-record snapped flags (reduced into the report serially).
  std::vector<uint8_t> snap_flags;
  /// Pass-3 smoothing output columns.
  std::vector<double> smooth_x;
  std::vector<double> smooth_y;
  // ---- pass-1 mask columns (one slot per adjacent record pair unless
  // noted) ----
  /// Pair timestamp deltas, milliseconds as doubles.
  std::vector<double> adj_dt_ms;
  /// 1.0 where pair (i, i+1) satisfies the planar speed constraint, else 0.0
  /// (a double column because double-compare -> double-select is what
  /// baseline x86-64 auto-vectorization handles; byte masks stay scalar).
  std::vector<double> adj_speed_ok;
  /// 1 where the pair changes floor — pass 1's connector pre-pass candidates.
  std::vector<uint8_t> adj_floor_diff;
  /// Per-record memoized connector probes: 0 unknown, 1 clear, 2 near.
  std::vector<uint8_t> connector_near;
  /// Pass-4 batched snap staging (per record).
  std::vector<geo::IndoorPoint> snap_points;
  std::vector<geo::IndoorPoint> snap_results;
};

/// Cleans raw positioning sequences against a DSM.
class RawDataCleaner {
 public:
  /// `dsm` must have topology computed; `planner` may be null when
  /// interpolate_along_routes is false. Both must outlive the cleaner.
  RawDataCleaner(const dsm::Dsm* dsm, const dsm::RoutePlanner* planner,
                 CleanerOptions options = {});

  /// Cleans `block` in place (records sorted by time, locations repaired,
  /// validity bits of speed-constraint violators cleared by pass 1). `scratch`
  /// may be null (per-thread arena used); `report` may be null. `pool` (may be
  /// null) parallelizes passes 2 and 4 for sequences of at least
  /// options().parallel_min_records records; the cleaned columns are
  /// bit-identical for every worker count. `stages` (may be null) receives
  /// per-pass wall times.
  void CleanBlock(positioning::RecordBlock* block, CleanerScratch* scratch,
                  CleaningReport* report = nullptr,
                  util::ThreadPool* pool = nullptr,
                  const CleaningStageMetrics* stages = nullptr) const;

  /// Returns the cleaned copy of `raw` (same record count and timestamps;
  /// locations repaired) through the original per-record code path: the
  /// oracle CleanBlock must match byte for byte, and the before/after
  /// baseline of the cleaning benchmarks. Always serial.
  positioning::PositioningSequence CleanReference(
      const positioning::PositioningSequence& raw,
      CleaningReport* report = nullptr) const;

  /// The minimum indoor walking distance between two located records,
  /// including the floor-change penalty — the quantity the speed constraint
  /// checks.
  double MinIndoorDistance(const geo::IndoorPoint& a, const geo::IndoorPoint& b) const;

  const CleanerOptions& options() const { return options_; }

 private:
  // One vertical-connector footprint, snapshotted at construction (polygon
  // copied — like RoutePlanner, the cleaner holds a build-time snapshot, so
  // later Dsm edits require a new cleaner) plus its bounds padded by the
  // connector slack: a query point outside the padded box skips the polygon
  // tests entirely.
  struct ConnectorShape {
    geo::Polygon shape;
    geo::BoundingBox padded;
  };

  // True iff moving a->b within `dt_ms` violates the speed constraint.
  bool ViolatesSpeed(const geo::IndoorPoint& a, const geo::IndoorPoint& b,
                     DurationMs dt_ms) const;
  // True iff the planar point sits on/near a vertical connector footprint.
  // Checks the hoisted connector list (bbox prefilter + the original polygon
  // tests) — identical answers to the full entity scan it replaces.
  bool NearVerticalConnector(const geo::Point2& p) const;
  // Frozen legacy helpers for CleanReference: the original per-query scan
  // over every DSM entity, kept as the before/after benchmark baseline.
  bool NearVerticalConnectorReference(const geo::Point2& p) const;
  bool ViolatesSpeedReference(const geo::IndoorPoint& a, const geo::IndoorPoint& b,
                              DurationMs dt_ms) const;

  // Pass 1: sequential speed-constraint anchor scan with floor correction
  // over precomputed pair masks and hoisted connector probes; clears validity
  // bits of the violators left for interpolation.
  void ScanPass(positioning::RecordBlock* block, CleanerScratch* scratch,
                CleaningReport* report) const;
  // Pass 2: DSM-guided interpolation of the invalid runs (parallel over runs).
  void InterpolatePass(positioning::RecordBlock* block, CleanerScratch* scratch,
                       CleaningReport* report, util::ThreadPool* pool) const;
  // Pass 3: centred per-floor moving average (columnar, serial): shifted-
  // column sweeps over each floor run's interior (same adds in the same
  // per-element order as a per-record window loop).
  void SmoothPass(positioning::RecordBlock* block, CleanerScratch* scratch,
                  CleaningReport* report) const;
  // Pass 4: snap records outside walkable space (parallel over chunks, each
  // fed through Dsm::SnapIfOutsideBatch).
  void SnapPass(positioning::RecordBlock* block, CleanerScratch* scratch,
                CleaningReport* report, util::ThreadPool* pool) const;

  // Runs fn(0..items) on the pool when the sequence is long enough, else
  // serially; item work must write disjoint state so results are identical.
  void ForItems(util::ThreadPool* pool, size_t record_count, size_t items,
                const std::function<void(size_t)>& fn) const;

  const dsm::Dsm* dsm_;
  const dsm::RoutePlanner* planner_;
  CleanerOptions options_;
  // Vertical connector footprints (points into dsm_'s entities).
  std::vector<ConnectorShape> connectors_;
};

}  // namespace trips::cleaning
