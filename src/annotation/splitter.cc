#include "annotation/splitter.h"

#include <cmath>
#include <limits>

namespace trips::annotation {

using positioning::PositioningSequence;
using positioning::RecordBlock;

namespace {

constexpr int32_t kUnvisited = -2;
constexpr int32_t kNoise = -1;
constexpr int32_t kQueued = -3;  // on the current cluster's frontier

/// The largest squared distance whose sqrt is still within `eps`: because
/// sqrt is monotone and correctly rounded, `d2 <= lim` decides exactly what
/// `sqrt(d2) <= eps` does, without the sqrt. A radius that is NaN or not
/// positive admits no spatial neighbour at all (every d2 fails `d2 <= -1`).
double SquaredRadiusLimit(double eps) {
  if (!(eps > 0)) return -1;
  if (std::isinf(eps)) return eps;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // eps * eps lands within a few ulps of the boundary; walk onto it.
  double lim = eps * eps;
  while (lim > 0 && std::sqrt(lim) > eps) lim = std::nextafter(lim, 0.0);
  for (double up = std::nextafter(lim, kInf); std::sqrt(up) <= eps;
       up = std::nextafter(lim, kInf)) {
    lim = up;
  }
  return lim;
}

/// Reused per-thread working set: cluster labels, every record's eps_time
/// window [lo, hi), the neighbour list of the point being expanded, and the
/// cluster frontier. Capacity only grows, so a worker's steady state splits
/// without allocating.
struct SplitScratch {
  std::vector<int32_t> label;
  std::vector<uint32_t> lo;
  std::vector<uint32_t> hi;
  std::vector<uint32_t> neighbours;
  std::vector<uint32_t> frontier;
};

thread_local SplitScratch scratch;

/// ST-DBSCAN over the block's columns.
class DensitySplitter {
 public:
  DensitySplitter(const RecordBlock& block, const SplitterOptions& options)
      : x_(block.xs.data()),
        y_(block.ys.data()),
        floor_(block.floors.data()),
        n_(block.Size()),
        lim_(SquaredRadiusLimit(options.eps_space)),
        lo_(scratch.lo.data()),
        hi_(scratch.hi.data()),
        nb_(scratch.neighbours.data()) {
    TimeWindows(block.timestamps.data(), options.eps_time);
  }

  /// Spatio-temporal neighbours of record i (self excluded) into nb_,
  /// backward scan first, then forward — the order the frontier sees them.
  /// Returns their count.
  size_t Neighbours(size_t i) const {
    // A branchless compaction over the record's time window: every index is
    // written, and the cursor advances only past the ones that qualify.
    const size_t lo = lo_[i];
    const size_t hi = hi_[i];
    const double xi = x_[i];
    const double yi = y_[i];
    const geo::FloorId fi = floor_[i];
    size_t count = 0;
    for (size_t j = i; j-- > lo;) {
      const double dx = x_[j] - xi;
      const double dy = y_[j] - yi;
      nb_[count] = static_cast<uint32_t>(j);
      count += static_cast<size_t>((floor_[j] == fi) & (dx * dx + dy * dy <= lim_));
    }
    for (size_t j = i + 1; j < hi; ++j) {
      const double dx = x_[j] - xi;
      const double dy = y_[j] - yi;
      nb_[count] = static_cast<uint32_t>(j);
      count += static_cast<size_t>((floor_[j] == fi) & (dx * dx + dy * dy <= lim_));
    }
    return count;
  }

  /// Labels every record: a cluster id >= 0, or kNoise.
  void Cluster(size_t min_pts, int32_t* label) const {
    std::vector<uint32_t>& frontier = scratch.frontier;
    int32_t next_cluster = 0;
    for (size_t i = 0; i < n_; ++i) {
      if (label[i] != kUnvisited) continue;
      const size_t count = Neighbours(i);
      if (count + 1 < min_pts) {
        label[i] = kNoise;
        continue;
      }
      const int32_t cluster = next_cluster++;
      label[i] = cluster;
      // FIFO expansion, marking points as they are pushed: an unvisited
      // point is queued once and expanded when popped; a noise point becomes
      // a border point of this cluster on the spot. Labels within a cluster
      // do not depend on the visiting order, so the snippets are those of a
      // frontier that re-pushes points and sorts them out when popped.
      frontier.clear();
      Enqueue(count, cluster, label, &frontier);
      for (size_t head = 0; head < frontier.size(); ++head) {
        const uint32_t j = frontier[head];
        label[j] = cluster;
        const size_t c = Neighbours(j);
        if (c + 1 >= min_pts) Enqueue(c, cluster, label, &frontier);
      }
    }
  }

 private:
  const double* x_;
  const double* y_;
  const geo::FloorId* floor_;
  size_t n_;
  double lim_;
  uint32_t* lo_;
  uint32_t* hi_;
  uint32_t* nb_;

  // Every record's time window [lo, hi): the records around i within
  // eps_time of it, clamped to lo <= i < hi so an eps_time <= 0 still keeps
  // the record itself. On the time-sorted records SplitSequence takes, both
  // edges only move forward, so one sweep finds them all.
  void TimeWindows(const TimestampMs* t, DurationMs eps_time) {
    size_t lo = 0;
    size_t hi = 0;
    for (size_t i = 0; i < n_; ++i) {
      while (lo < i && t[i] - t[lo] > eps_time) ++lo;
      if (hi <= i) hi = i + 1;
      while (hi < n_ && t[hi] - t[i] <= eps_time) ++hi;
      lo_[i] = static_cast<uint32_t>(lo);
      hi_[i] = static_cast<uint32_t>(hi);
    }
  }

  // Pushes the first `count` entries of nb_ that are unvisited; claims the
  // noise ones as border points.
  void Enqueue(size_t count, int32_t cluster, int32_t* label,
               std::vector<uint32_t>* frontier) const {
    for (size_t k = 0; k < count; ++k) {
      const uint32_t j = nb_[k];
      if (label[j] == kUnvisited) {
        label[j] = kQueued;
        frontier->push_back(j);
      } else if (label[j] == kNoise) {
        label[j] = cluster;
      }
    }
  }
};

}  // namespace

std::vector<Snippet> SplitSequence(const RecordBlock& block,
                                   const SplitterOptions& options) {
  std::vector<Snippet> snippets;
  const size_t n = block.Size();
  if (n < 2) return snippets;

  std::vector<int32_t>& label = scratch.label;
  label.assign(n, kUnvisited);
  if (scratch.neighbours.size() < n) {
    scratch.neighbours.resize(n);
    scratch.lo.resize(n);
    scratch.hi.resize(n);
  }
  DensitySplitter(block, options).Cluster(options.min_pts, label.data());

  // Maximal time-contiguous runs of equal label become snippets.
  size_t runs = 1;
  for (size_t i = 1; i < n; ++i) runs += label[i] != label[i - 1];
  snippets.reserve(runs);
  size_t run_begin = 0;
  for (size_t i = 1; i <= n; ++i) {
    if (i == n || label[i] != label[run_begin]) {
      snippets.push_back({run_begin, i, label[run_begin] >= 0});
      run_begin = i;
    }
  }

  // Merge too-short runs into the preceding snippet, in place.
  if (options.min_snippet > 0 && snippets.size() > 1) {
    const TimestampMs* t = block.timestamps.data();
    size_t kept = 0;
    for (size_t k = 0; k < snippets.size(); ++k) {
      const Snippet s = snippets[k];
      const DurationMs dur = t[s.end - 1] - t[s.begin];
      if (kept > 0 && dur < options.min_snippet) {
        snippets[kept - 1].end = s.end;
      } else {
        snippets[kept++] = s;
      }
    }
    snippets.resize(kept);
  }
  return snippets;
}

std::vector<Snippet> SplitSequence(const PositioningSequence& seq,
                                   const SplitterOptions& options) {
  // Per-thread block, reused across calls: the AoS form converts into the
  // columns and runs the one implementation above.
  static thread_local RecordBlock block;
  block.AssignFrom(seq);
  return SplitSequence(block, options);
}

}  // namespace trips::annotation
