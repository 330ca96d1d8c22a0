#include "complement/complementor.h"

#include <algorithm>
#include <cmath>

namespace trips::complement {

namespace {

/// One priority-queue entry of the layered search over (region, hops).
struct HeapItem {
  double cost;
  int32_t region;  // dense id; dense order is region-id order
  int32_t hops;
};

/// Min-heap order on (cost, region, hops): settles states in exactly the
/// order a std::priority_queue over pair<double, pair<RegionId, int>> with
/// std::greater would.
struct Later {
  bool operator()(const HeapItem& a, const HeapItem& b) const {
    if (a.cost != b.cost) return a.cost > b.cost;
    if (a.region != b.region) return a.region > b.region;
    return a.hops > b.hops;
  }
};

/// Per-thread search arrays, grown to the largest knowledge seen and reused
/// across calls. An entry is live only when its epoch stamp equals the
/// current search's, so starting a search clears nothing.
struct SearchScratch {
  uint32_t epoch = 0;
  std::vector<uint32_t> dist_epoch;   // per region
  std::vector<int32_t> dist;          // edges to the goal (bounded BFS)
  std::vector<int32_t> bfs;           // BFS queue
  std::vector<uint32_t> state_epoch;  // per (region, hops) state
  std::vector<double> cost;
  std::vector<uint32_t> prev;         // predecessor state index
  std::vector<HeapItem> heap;

  void Begin(size_t regions, size_t states) {
    if (dist.size() < regions) {
      dist.resize(regions);
      dist_epoch.resize(regions, 0);
    }
    if (cost.size() < states) {
      cost.resize(states);
      prev.resize(states);
      state_epoch.resize(states, 0);
    }
    if (++epoch == 0) {  // wrapped: invalidate every stamp explicitly
      std::fill(dist_epoch.begin(), dist_epoch.end(), 0);
      std::fill(state_epoch.begin(), state_epoch.end(), 0);
      epoch = 1;
    }
    bfs.clear();
    heap.clear();
  }
};

thread_local SearchScratch scratch;

}  // namespace

Complementor::Complementor(const dsm::Dsm* dsm, const MobilityKnowledge* knowledge,
                           ComplementorOptions options)
    : options_(options) {
  const auto& rows = knowledge->transition_prob;
  // Dense ids in ascending region-id order, taken from the knowledge's own
  // keys (DSM ids need not be dense).
  size_t entries = 0;
  for (const auto& [from, row] : rows) entries += row.size();
  ids_.reserve(rows.size() + entries);
  for (const auto& [from, row] : rows) {
    ids_.push_back(from);
    for (const auto& [to, p] : row) ids_.push_back(to);
  }
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  const size_t n = ids_.size();

  // Forward CSR. The map yields rows in ascending region order, so edges
  // append row by row and a prefix sum over per-row counts gives the offsets.
  row_begin_.assign(n + 1, 0);
  pred_begin_.assign(n + 1, 0);
  std::vector<int32_t> edge_from;
  edge_from.reserve(entries);
  next_.reserve(entries);
  weight_.reserve(entries);
  for (const auto& [from, row] : rows) {
    const int32_t f = DenseId(from);
    for (const auto& [to, p] : row) {
      if (!(p > 0)) continue;  // NaN or impossible: no edge
      const int32_t t = DenseId(to);
      // -log(p) once here; c + w is bit-equal to c - log(p). p > 1 would
      // give a negative weight and break the search's settled-is-final
      // invariant, so it is clamped to a certain transition.
      weight_.push_back(-std::log(std::min(p, 1.0)));
      next_.push_back(t);
      edge_from.push_back(f);
      ++row_begin_[static_cast<size_t>(f) + 1];
      ++pred_begin_[static_cast<size_t>(t) + 1];
    }
  }
  for (size_t v = 0; v < n; ++v) {
    row_begin_[v + 1] += row_begin_[v];
    pred_begin_[v + 1] += pred_begin_[v];
  }
  // Reverse CSR for the goal-side reachability bound.
  pred_.resize(next_.size());
  std::vector<uint32_t> fill(pred_begin_.begin(), pred_begin_.end() - 1);
  for (size_t e = 0; e < next_.size(); ++e) {
    pred_[fill[static_cast<size_t>(next_[e])]++] = edge_from[e];
  }

  dwell_.resize(n);
  names_.assign(n, nullptr);
  for (size_t v = 0; v < n; ++v) {
    auto it = knowledge->mean_dwell.find(ids_[v]);
    dwell_[v] = it != knowledge->mean_dwell.end() && it->second > 0
                    ? static_cast<double>(it->second)
                    : static_cast<double>(kMillisPerMinute);
    if (dsm != nullptr) {
      if (const dsm::SemanticRegion* r = dsm->GetRegion(ids_[v])) names_[v] = &r->name;
    }
  }

  // Edges allowed per path. The path the search returns, the cheapest with
  // the fewest hops, never has more than n - 1 edges (cutting out a cycle
  // never raises its cost and shortens it), so the bound is capped there:
  // the answer is unchanged and the dense state space stays n x n at most
  // whatever the option says.
  const int64_t steps = std::max(options_.max_inferred_steps, 0);
  const int64_t cap = std::max<int64_t>(static_cast<int64_t>(n) - 1, 1);
  max_hops_ = static_cast<int>(std::min(steps + 1, cap));
}

int32_t Complementor::DenseId(dsm::RegionId region) const {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), region);
  if (it == ids_.end() || *it != region) return -1;
  return static_cast<int32_t>(it - ids_.begin());
}

size_t Complementor::Search(dsm::RegionId from_id, dsm::RegionId to_id,
                            std::vector<int32_t>* path) const {
  path->clear();
  if (from_id == to_id || from_id == dsm::kInvalidRegion ||
      to_id == dsm::kInvalidRegion) {
    return 0;
  }
  const int32_t from = DenseId(from_id);
  const int32_t to = DenseId(to_id);
  if (from < 0 || to < 0) return 0;

  // MAP path = min-cost path under -log transition probabilities, at most
  // max_hops_ edges: Dijkstra over (region, hops) states.
  const int32_t max_hops = max_hops_;
  const size_t stride = static_cast<size_t>(max_hops) + 1;
  SearchScratch& s = scratch;
  s.Begin(ids_.size(), ids_.size() * stride);
  const uint32_t epoch = s.epoch;

  // Reverse BFS from the goal, stopped as soon as it reaches `from` (or at
  // max_hops levels: then `from` cannot finish in time and there is no path).
  // Every region it labels has its exact edge distance to `to`; the rest are
  // at least as far as `from`. So lb[v] = labelled ? dist[v] : dist[from] is a
  // lower bound on v's distance, and a state (v, h) with h + lb[v] > max_hops
  // cannot finish in time and is never pushed. lb drops by at most one along
  // an edge, so every predecessor (u, h - 1) of a surviving state survives
  // too, and the surviving states settle with the same costs, predecessors
  // and relative order as in the unpruned search. Stopping at `from` keeps
  // the BFS as small as the search it guards: on a direct edge it only walks
  // the goal's predecessors.
  s.dist[static_cast<size_t>(to)] = 0;
  s.dist_epoch[static_cast<size_t>(to)] = epoch;
  s.bfs.push_back(to);
  for (size_t head = 0; head < s.bfs.size() &&
                        s.dist_epoch[static_cast<size_t>(from)] != epoch;
       ++head) {
    const int32_t v = s.bfs[head];
    const int32_t d = s.dist[static_cast<size_t>(v)];
    if (d == max_hops) break;  // BFS order: everything after is as far
    for (uint32_t e = pred_begin_[static_cast<size_t>(v)];
         e < pred_begin_[static_cast<size_t>(v) + 1]; ++e) {
      const size_t u = static_cast<size_t>(pred_[e]);
      if (s.dist_epoch[u] == epoch) continue;
      s.dist_epoch[u] = epoch;
      s.dist[u] = d + 1;
      s.bfs.push_back(static_cast<int32_t>(u));
    }
  }
  if (s.dist_epoch[static_cast<size_t>(from)] != epoch) return 0;
  const int32_t far = s.dist[static_cast<size_t>(from)];

  const size_t start = static_cast<size_t>(from) * stride;
  s.cost[start] = 0;
  s.state_epoch[start] = epoch;
  s.heap.push_back({0.0, from, 0});
  size_t pops = 0;
  size_t goal = 0;
  bool found = false;
  while (!s.heap.empty()) {
    std::pop_heap(s.heap.begin(), s.heap.end(), Later{});
    const HeapItem top = s.heap.back();
    s.heap.pop_back();
    ++pops;
    const size_t state = static_cast<size_t>(top.region) * stride +
                         static_cast<size_t>(top.hops);
    if (top.cost > s.cost[state]) continue;  // superseded entry
    if (top.region == to) {
      // Weights are non-negative, so later pops never cost less: the first
      // goal popped is the cheapest (fewest hops among equal costs).
      goal = state;
      found = true;
      break;
    }
    const int32_t hops = top.hops + 1;
    // lb never exceeds `far`, so nothing can be pruned below this layer.
    const bool prune = hops + far > max_hops;
    const size_t v = static_cast<size_t>(top.region);
    for (uint32_t e = row_begin_[v]; e < row_begin_[v + 1]; ++e) {
      const size_t w = static_cast<size_t>(next_[e]);
      if (prune && hops + (s.dist_epoch[w] == epoch ? s.dist[w] : far) > max_hops) {
        continue;
      }
      const double nc = top.cost + weight_[e];
      const size_t next = w * stride + static_cast<size_t>(hops);
      if (s.state_epoch[next] != epoch || nc < s.cost[next]) {
        s.state_epoch[next] = epoch;
        s.cost[next] = nc;
        s.prev[next] = static_cast<uint32_t>(state);
        s.heap.push_back({nc, next_[e], hops});
        std::push_heap(s.heap.begin(), s.heap.end(), Later{});
      }
    }
  }
  if (!found) return pops;

  // Intermediate regions: every state on the chain strictly between the
  // start and the goal.
  const size_t goal_hops = goal % stride;
  path->resize(goal_hops - 1);
  size_t cur = s.prev[goal];
  for (size_t k = goal_hops - 1; k-- > 0;) {
    (*path)[k] = static_cast<int32_t>(cur / stride);
    cur = s.prev[cur];
  }
  return pops;
}

std::vector<dsm::RegionId> Complementor::InferPath(dsm::RegionId from,
                                                   dsm::RegionId to) const {
  std::vector<int32_t> dense;
  Search(from, to, &dense);
  std::vector<dsm::RegionId> path;
  path.reserve(dense.size());
  for (int32_t v : dense) path.push_back(ids_[static_cast<size_t>(v)]);
  return path;
}

core::MobilitySemanticsSequence Complementor::Complement(
    const core::MobilitySemanticsSequence& original, ComplementReport* report) const {
  ComplementReport local;
  ComplementReport* rep = report != nullptr ? report : &local;
  *rep = ComplementReport{};
  thread_local std::vector<int32_t> path;

  core::MobilitySemanticsSequence out;
  out.device_id = original.device_id;
  const auto& in = original.semantics;
  for (size_t i = 0; i < in.size(); ++i) {
    out.semantics.push_back(in[i]);
    if (i + 1 >= in.size()) break;
    const core::MobilitySemantic& cur = in[i];
    const core::MobilitySemantic& next = in[i + 1];
    DurationMs gap = next.range.begin - cur.range.end;
    if (gap < options_.min_gap) continue;
    ++rep->gaps_found;

    TimeRange window{cur.range.end + 1, next.range.begin - 1};
    if (cur.region == next.region && cur.region != dsm::kInvalidRegion) {
      // The device likely never left the region: one inferred stay/pass-by.
      core::MobilitySemantic s;
      s.region = cur.region;
      s.region_name = cur.region_name;
      s.range = window;
      s.event = window.Duration() >= options_.stay_threshold ? core::kEventStay
                                                             : core::kEventPassBy;
      s.inferred = true;
      out.semantics.push_back(std::move(s));
      ++rep->gaps_filled;
      ++rep->triplets_inferred;
      continue;
    }

    ++rep->infer_calls;
    rep->infer_states_popped += Search(cur.region, next.region, &path);
    if (path.empty()) continue;
    // Allocate the window proportionally to each region's mean dwell.
    double total = 0;
    for (int32_t v : path) total += dwell_[static_cast<size_t>(v)];
    size_t inferred = 0;
    TimestampMs t = window.begin;
    for (size_t k = 0; k < path.size(); ++k) {
      const size_t v = static_cast<size_t>(path[k]);
      DurationMs slice =
          k + 1 == path.size()
              ? window.end - t
              : static_cast<DurationMs>(window.Duration() * dwell_[v] / total);
      if (slice <= 0) continue;
      core::MobilitySemantic s;
      s.region = ids_[v];
      if (names_[v] != nullptr) s.region_name = *names_[v];
      s.range = {t, std::min<TimestampMs>(t + slice, window.end)};
      s.event = s.range.Duration() >= options_.stay_threshold ? core::kEventStay
                                                              : core::kEventPassBy;
      s.inferred = true;
      out.semantics.push_back(std::move(s));
      ++inferred;
      t += slice;
    }
    if (inferred > 0) {
      ++rep->gaps_filled;
      rep->triplets_inferred += inferred;
    }
  }
  return out;
}

}  // namespace trips::complement
