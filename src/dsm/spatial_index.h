// Spatial acceleration index for the DSM's point queries. The brute-force
// implementations of PartitionAt/RegionAt/IsWalkable/SnapToWalkable scan every
// entity (or region) with a full point-in-polygon test, so per-record cost in
// the translation hot loops grows with venue size. This index buckets the
// walkable partitions, the semantic regions and the walkable boundary edges of
// each floor into a uniform grid built once (during Dsm::ComputeTopology), so
// each query touches only the handful of shapes whose bounding boxes cover the
// queried cell.
//
// The index is exact, not approximate: candidates are visited in id order with
// the same comparisons as the brute-force scans (smallest area wins, lowest id
// breaks ties; nearest edge wins, first-traced edge breaks ties), so every
// query returns bit-identical results to the linear scan it replaces. The
// parity suite in tests/spatial_index_test.cc enforces this.
//
// Each candidate's point-in-polygon test is geo::Polygon::Contains: an
// even-odd ray cast, then, only for an "outside" answer, the 1e-7
// boundary-epsilon test. Most probes are settled by the ray cast alone.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "dsm/entity.h"
#include "obs/metrics.h"

namespace trips::dsm {

/// Point-query counts of a SpatialIndex since Build (or ResetProbes) — the
/// raw denominator data behind the per-record spatial cost numbers the obs
/// registry exports ("how many grid probes did this workload issue").
struct SpatialProbeStats {
  uint64_t partition_probes = 0;  ///< PartitionAt / IsWalkable calls
  uint64_t region_probes = 0;     ///< RegionAt calls
  uint64_t snap_probes = 0;       ///< SnapToWalkable / SnapIfOutside calls
  uint64_t snapped_outside = 0;   ///< snap probes whose point was NOT walkable
};

/// Grid construction knobs. The defaults target roughly one shape per cell on
/// floorplan-shaped inputs; see the README "Performance" notes on tuning.
struct SpatialIndexOptions {
  /// Lower bound for the cell edge length, metres. Smaller cells sharpen the
  /// candidate filter but cost memory (cells scale with 1/cell^2).
  double min_cell_size = 1.0;
  /// Upper bound for the cell edge length, metres.
  double max_cell_size = 64.0;
  /// Hard cap on grid cells per axis per floor (memory guard for venues with
  /// pathological aspect ratios).
  int max_cells_per_axis = 512;
};

/// Per-floor uniform-grid index over walkable partitions, semantic regions and
/// walkable boundary edges. Build() snapshots the shapes it indexes (ids,
/// bounding boxes, areas and polygons), so the index stays valid while the
/// source Dsm's vectors reallocate, and a Dsm copy/move carries it along.
/// All query methods are const and thread-safe after Build().
class SpatialIndex {
 public:
  /// (Re)builds the index over the given entities and regions. Entities and
  /// regions must be stored in ascending id order (as Dsm keeps them).
  void Build(const std::vector<Entity>& entities,
             const std::vector<SemanticRegion>& regions,
             const SpatialIndexOptions& options = {});

  /// Drops all indexed data; built() becomes false.
  void Clear();

  bool built() const { return built_; }

  // ---- point queries (exact brute-force parity) ----

  /// The smallest-area walkable partition containing `p`, or kInvalidEntity.
  EntityId PartitionAt(const geo::IndoorPoint& p) const;

  /// True iff `p` lies in some walkable partition.
  bool IsWalkable(const geo::IndoorPoint& p) const {
    return PartitionAt(p) != kInvalidEntity;
  }

  /// The smallest-area semantic region containing `p`, or kInvalidRegion.
  RegionId RegionAt(const geo::IndoorPoint& p) const;

  /// Nearest walkable point to `p` on its floor (p itself when walkable),
  /// found by an expanding ring search over the edge buckets.
  geo::IndoorPoint SnapToWalkable(const geo::IndoorPoint& p) const;

  /// Combined walkability + snap: one cell lookup answers both halves of the
  /// IsWalkable/SnapToWalkable pair the cleaning hot loop used to issue. Sets
  /// `*snapped` to false and returns `p` when `p` is walkable (the
  /// walkability probe early-exits at the first containing partition instead
  /// of finishing the smallest-area scan); otherwise sets `*snapped` to true
  /// and returns the ring-search snap (identical to SnapToWalkable).
  geo::IndoorPoint SnapIfOutside(const geo::IndoorPoint& p, bool* snapped) const;

  /// Batched SnapIfOutside over a whole block of points: each (out[i],
  /// snapped[i], with snapped[i] in {0,1}) is exactly what the per-point call
  /// returns for points[i]. The batch first mask-tests walkability over all
  /// points (one first-hit cell probe each), then sorts the outside points by
  /// (floor, grid cell) so the expanding-ring edge searches run
  /// cache-coherently through the buckets, scattering results back in the
  /// original order. Each ring search starts at the cell's precomputed
  /// first-candidate ring (see FloorGrid::first_edge_ring) instead of ring 0,
  /// which is what makes far-outside batches cheap. All three spans must have
  /// equal length; `out` may alias `points`.
  void SnapIfOutsideBatch(std::span<const geo::IndoorPoint> points,
                          std::span<geo::IndoorPoint> out,
                          std::span<uint8_t> snapped) const;

  /// Semantic regions on `floor` that contain `p` or whose boundary is within
  /// `max_dist` of it, ascending region id — the index-backed equivalent of
  /// the linear region scan Dsm::ComputeTopology's adjacency steps used.
  std::vector<RegionId> RegionsNear(const geo::Point2& p, geo::FloorId floor,
                                    double max_dist) const;

  /// Invokes fn(a, b), a < b, for every same-floor region pair whose padded
  /// bounding boxes intersect — the candidate superset of the contact-based
  /// adjacency scan, enumerated through the region cell buckets instead of
  /// the O(regions²) cross product.
  void ForEachRegionBboxPair(
      const std::function<void(RegionId, RegionId)>& fn) const;

  // ---- precomputed maps ----

  /// Regions whose bounding box intersects walkable partition `pid`'s
  /// bounding box, ascending — a correct candidate superset for resolving the
  /// region membership of any point inside the partition without re-scanning
  /// all region polygons. Empty for unknown/non-walkable ids.
  const std::vector<RegionId>& RegionCandidatesOfPartition(EntityId pid) const;

  // ---- introspection (tests / benches / obs) ----

  /// Number of per-floor grids.
  size_t FloorGridCount() const { return grids_.size(); }
  /// Total grid cells across all floors.
  size_t CellCount() const;
  /// Cell edge length of `floor`'s grid, or 0 when the floor is not indexed.
  double CellSize(geo::FloorId floor) const;

  /// Point-query counts since Build/ResetProbes. Copies of an index share one
  /// counter block (the counters live behind a shared_ptr so the class stays
  /// copyable); Build allocates a fresh block. Zeroes before Build.
  SpatialProbeStats probes() const;
  /// Zeroes the probe counters (benchmark phases, tests). Not linearizable
  /// against concurrent queries; call at quiescent points.
  void ResetProbes() const;

 private:
  // One indexed shape: the id it answers with plus the cached geometry the
  // query comparisons need.
  struct Shape {
    int32_t id = -1;
    double area = 0;
    geo::BoundingBox bounds;  // padded by the polygon boundary epsilon
    geo::Polygon polygon;
  };

  // CSR cell buckets: items of cell c are items[offsets[c] .. offsets[c+1]).
  struct Buckets {
    std::vector<uint32_t> offsets;
    std::vector<int32_t> items;
  };

  struct FloorGrid {
    geo::FloorId floor = 0;
    geo::Point2 origin;
    double cell = 1;
    double inv_cell = 1;
    int nx = 0, ny = 0;

    std::vector<Shape> partitions;  // ascending entity id
    std::vector<Shape> regions;     // ascending region id
    // Walkable boundary edges in brute-force traversal order (entities
    // ascending, polygon edge order within each); the index doubles as the
    // tie-break rank.
    std::vector<geo::Segment> edges;

    Buckets partition_cells;
    Buckets region_cells;
    Buckets edge_cells;
    // Per cell: chessboard (Chebyshev) distance to the nearest cell with a
    // non-empty edge bucket — i.e. the first expanding-search ring that can
    // contain an edge candidate. Rings below it are provably empty, so a
    // search seeded here visits exactly the same candidates as one seeded at
    // ring 0. 0xFFFF when the floor has no edges at all.
    std::vector<uint16_t> first_edge_ring;

    int CellX(double x) const;
    int CellY(double y) const;
    int CellIndex(int ix, int iy) const { return iy * nx + ix; }
  };

  const FloorGrid* GridFor(geo::FloorId floor) const;

  // First-hit walkability probe: true iff some partition in p's cell bucket
  // contains p (existence only — never PartitionAt's full smallest-area scan).
  static bool WalkableFirstHit(const FloorGrid& grid, const geo::Point2& p);
  // The expanding-ring edge search SnapIfOutside falls back to for an
  // unwalkable point; shared verbatim by the batched form so both produce
  // identical snaps. `grid` must be p's floor grid.
  //
  // The two extra knobs are the batch path's structural optimisations; both
  // are pure search-space prunes, so results stay byte-identical. The
  // per-point query always passes the defaults and so doubles as the
  // reference the prunes are tested against.
  //  - `start_ring` skips the leading rings; the caller must guarantee they
  //    hold no edge-bucket cells (first_edge_ring[cell] does).
  //  - `batch_prune` enables two bound tightenings. The early-exit margin
  //    becomes the distance from p to the part of the grid's footprint
  //    outside the covered rectangle — the region every unvisited edge
  //    actually lies in; for points beyond the grid (clamped to a border
  //    cell) the plain rectangle margin stays negative until the rectangle
  //    has grown past the point, which forces O((d/cell)^2) populated border
  //    cells to be scanned, while the clipped bound exits after a couple of
  //    rings. And each visited cell is skipped outright when its rectangle is
  //    strictly farther than the current best — strictly, so an equal-
  //    distance cell that could hold a lower-rank tie-break winner is always
  //    still scanned.
  geo::IndoorPoint SnapViaRings(const FloorGrid& grid, const geo::IndoorPoint& p,
                                int start_ring = 0,
                                bool batch_prune = false) const;

  // Always-on (ungated) lock-free counters; recording cost is one relaxed
  // fetch_add per query, negligible next to the grid probe itself.
  struct ProbeCounters {
    obs::Counter partition_probes;
    obs::Counter region_probes;
    obs::Counter snap_probes;
    obs::Counter snapped_outside;
  };

  std::vector<FloorGrid> grids_;  // ascending floor id
  // Indexed by EntityId (dense); empty vectors for non-walkable entities.
  std::vector<std::vector<RegionId>> partition_region_candidates_;
  std::shared_ptr<ProbeCounters> probes_;  // null until first Build
  bool built_ = false;
};

}  // namespace trips::dsm
