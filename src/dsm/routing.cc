#include "dsm/routing.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <list>
#include <mutex>
#include <queue>
#include <unordered_map>

namespace trips::dsm {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Routing node anchors snap to a 1 um lattice. Raw polygon centroids carry
// ~1e-12 of arithmetic jitter, so geometrically-collinear node chains (shop
// doors lining a corridor wall) are not exact floating-point ties: a path
// threading an extra door can fold one ulp below the direct edge, and the
// shortest distance would then depend on which interior nodes the query
// graph kept. Snapping makes collinear chains tie exactly, so the contracted
// and flat query paths fold to bitwise-identical sums; the anchors move less
// than a micrometre.
geo::IndoorPoint SnapNodeAnchor(geo::IndoorPoint p) {
  p.xy.x = std::round(p.xy.x * 1e6) / 1e6;
  p.xy.y = std::round(p.xy.y * 1e6) / 1e6;
  return p;
}
}

geo::IndoorPoint Route::PointAtDistance(double d) const {
  if (waypoints.empty()) return {};
  if (d <= 0) return waypoints.front();
  double acc = 0;
  for (size_t i = 1; i < waypoints.size(); ++i) {
    const geo::IndoorPoint& a = waypoints[i - 1];
    const geo::IndoorPoint& b = waypoints[i];
    double leg;
    if (a.floor == b.floor) {
      leg = a.PlanarDistanceTo(b);
    } else {
      // Vertical transition: walk the same per-floor cost the planner charged
      // into `distance`. Position jumps at the midpoint.
      leg = vertical_cost_per_floor * std::abs(a.floor - b.floor);
      if (d <= acc + leg) {
        return (d - acc) < leg / 2 ? a : b;
      }
      acc += leg;
      continue;
    }
    if (d <= acc + leg && leg > 0) {
      double t = (d - acc) / leg;
      return {a.xy + (b.xy - a.xy) * t, a.floor};
    }
    acc += leg;
  }
  return waypoints.back();
}

// Bounded LRUs of per-source-node shortest-path trees — one shard for flat
// SourceTrees, one for contracted PortalTrees, sharing the hit/miss counters.
// Internally locked: the planner is shared by concurrent translation workers.
struct RoutePlanner::TreeCache {
  template <typename Tree>
  struct Shard {
    std::mutex mu;
    std::list<int> order;  // front = most recently used
    std::unordered_map<int, std::pair<std::list<int>::iterator,
                                      std::shared_ptr<const Tree>>>
        entries;

    void Clear() {
      std::lock_guard<std::mutex> lock(mu);
      order.clear();
      entries.clear();
    }
    size_t Size() {
      std::lock_guard<std::mutex> lock(mu);
      return entries.size();
    }
  };

  explicit TreeCache(size_t cap) : capacity(cap) {}

  template <typename Tree, typename Fn>
  std::shared_ptr<const Tree> GetOrCompute(Shard<Tree>& shard, int source,
                                           Fn&& compute) {
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.entries.find(source);
      if (it != shard.entries.end()) {
        shard.order.splice(shard.order.begin(), shard.order, it->second.first);
        hits.fetch_add(1, std::memory_order_relaxed);
        return it->second.second;
      }
    }
    misses.fetch_add(1, std::memory_order_relaxed);
    auto tree = std::make_shared<const Tree>(compute());
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(source);
    if (it != shard.entries.end()) {
      // Another worker computed the same tree while we did; keep theirs.
      shard.order.splice(shard.order.begin(), shard.order, it->second.first);
      return it->second.second;
    }
    shard.order.push_front(source);
    shard.entries.emplace(source, std::make_pair(shard.order.begin(), tree));
    while (shard.entries.size() > capacity) {
      shard.entries.erase(shard.order.back());
      shard.order.pop_back();
      evictions.fetch_add(1, std::memory_order_relaxed);
    }
    return tree;
  }

  const size_t capacity;
  Shard<SourceTree> flat;
  Shard<PortalTree> portal;
  std::atomic<size_t> hits{0};
  std::atomic<size_t> misses{0};
  std::atomic<size_t> evictions{0};
};

Result<RoutePlanner> RoutePlanner::Build(const Dsm* dsm, RoutePlannerOptions options) {
  if (dsm == nullptr) return Status::InvalidArgument("dsm is null");
  if (!dsm->topology_computed()) {
    return Status::FailedPrecondition("DSM topology not computed");
  }
  RoutePlanner planner;
  planner.dsm_ = dsm;
  planner.options_ = options;
  planner.use_contraction_ = options.use_contraction;
  planner.cache_ = std::make_shared<TreeCache>(options.route_cache_capacity);

  const Topology& topo = dsm->topology();

  // One node per door, belonging to all partitions the door connects.
  std::map<EntityId, int> door_node;
  for (const auto& [door_id, partitions] : topo.door_partitions) {
    const Entity* door = dsm->GetEntity(door_id);
    if (door == nullptr || partitions.empty()) continue;
    Node node;
    node.point = SnapNodeAnchor(door->IndoorCenter());
    node.partitions = partitions;
    door_node[door_id] = static_cast<int>(planner.nodes_.size());
    planner.nodes_.push_back(std::move(node));
  }
  // One node per partition-overlap portal (crossing corridors etc.),
  // belonging to both overlapping partitions.
  for (const Topology::Overlap& ov : topo.partition_overlaps) {
    const Entity* ea = dsm->GetEntity(ov.a);
    if (ea == nullptr) continue;
    Node node;
    node.point = SnapNodeAnchor({ov.portal, ea->floor});
    node.partitions = {ov.a, ov.b};
    planner.nodes_.push_back(std::move(node));
  }
  // One node per vertical connector endpoint (its own partition).
  std::map<EntityId, int> vertical_node;
  for (const auto& [a, b] : topo.vertical_links) {
    for (EntityId vid : {a, b}) {
      if (vertical_node.count(vid)) continue;
      const Entity* v = dsm->GetEntity(vid);
      if (v == nullptr) continue;
      Node node;
      node.point = SnapNodeAnchor(v->IndoorCenter());
      node.partitions = {vid};
      vertical_node[vid] = static_cast<int>(planner.nodes_.size());
      planner.nodes_.push_back(std::move(node));
    }
  }

  planner.adjacency_.resize(planner.nodes_.size());
  for (size_t i = 0; i < planner.nodes_.size(); ++i) {
    for (EntityId pid : planner.nodes_[i].partitions) {
      planner.partition_nodes_[pid].push_back(static_cast<int>(i));
    }
  }

  // Intra-partition edges: nodes sharing a partition connect with planar
  // distance (partitions are convex-ish rooms/hallways in floorplans).
  for (const auto& [pid, node_ids] : planner.partition_nodes_) {
    for (size_t i = 0; i < node_ids.size(); ++i) {
      for (size_t j = i + 1; j < node_ids.size(); ++j) {
        int a = node_ids[i];
        int b = node_ids[j];
        double w = planner.nodes_[a].point.PlanarDistanceTo(planner.nodes_[b].point);
        planner.AddEdge(a, b, w);
      }
    }
  }
  // Vertical edges between linked connector endpoints.
  std::vector<uint8_t> has_vertical(planner.nodes_.size(), 0);
  for (const auto& [a, b] : topo.vertical_links) {
    auto ia = vertical_node.find(a);
    auto ib = vertical_node.find(b);
    if (ia == vertical_node.end() || ib == vertical_node.end()) continue;
    const Entity* ea = dsm->GetEntity(a);
    const Entity* eb = dsm->GetEntity(b);
    double w = options.vertical_cost_per_floor * std::abs(ea->floor - eb->floor);
    planner.AddEdge(ia->second, ib->second, w);
    has_vertical[ia->second] = 1;
    has_vertical[ib->second] = 1;
  }
  // A vertical connector is itself a walkable partition that may carry doors;
  // nothing further needed: door nodes listing it as a partition already link.

  planner.BuildPortalGraph(has_vertical);

  return planner;
}

void RoutePlanner::AddEdge(int a, int b, double w) {
  adjacency_[a].push_back({b, w});
  adjacency_[b].push_back({a, w});
}

void RoutePlanner::BuildPortalGraph(const std::vector<uint8_t>& has_vertical) {
  const int n = static_cast<int>(nodes_.size());
  node_portal_.assign(n, -1);
  portal_nodes_.clear();

  // A node survives contraction only when a shortest path can usefully pass
  // *through* it: it ends a vertical edge, or it *bridges* — some neighbor u
  // in one of its partitions and some neighbor v in another share no
  // partition themselves, so u -> n -> v has no direct shortcut. Everything
  // else (a dead-end room's door, its coincident wall-touch overlap twin, a
  // portal into a node-less partition) can only start or end a journey — the
  // triangle inequality lets every through-path skip it — and the query-time
  // local search covers the endpoint role. Ascending node order keeps
  // portal-rank heap tie-breaks aligned with the flat Dijkstra's node-id
  // tie-breaks.
  for (int i = 0; i < n; ++i) {
    bool portal = has_vertical[i] != 0;
    const std::vector<EntityId>& parts = nodes_[i].partitions;
    for (size_t pi = 0; !portal && pi < parts.size(); ++pi) {
      auto pit = partition_nodes_.find(parts[pi]);
      if (pit == partition_nodes_.end()) continue;
      for (size_t qi = pi + 1; !portal && qi < parts.size(); ++qi) {
        auto qit = partition_nodes_.find(parts[qi]);
        if (qit == partition_nodes_.end()) continue;
        for (size_t ui = 0; !portal && ui < pit->second.size(); ++ui) {
          int u = pit->second[ui];
          if (u == i) continue;
          for (int v : qit->second) {
            if (v == i || v == u) continue;
            if (!NodesAdjacent(u, v)) {
              portal = true;
              break;
            }
          }
        }
      }
    }
    if (portal) {
      node_portal_[i] = static_cast<int32_t>(portal_nodes_.size());
      portal_nodes_.push_back(i);
    }
  }

  // Shortcut adjacency: the flat edges restricted to portal endpoints, CSR
  // over portal ranks. Weights are reused verbatim, so contracted path sums
  // fold the same doubles in the same order as flat path sums.
  const size_t m = portal_nodes_.size();
  portal_adj_offsets_.assign(m + 1, 0);
  for (size_t p = 0; p < m; ++p) {
    for (const Edge& e : adjacency_[portal_nodes_[p]]) {
      if (node_portal_[e.to] >= 0) ++portal_adj_offsets_[p + 1];
    }
  }
  for (size_t p = 0; p < m; ++p) portal_adj_offsets_[p + 1] += portal_adj_offsets_[p];
  portal_adjacency_.resize(portal_adj_offsets_[m]);
  std::vector<uint32_t> cursor(portal_adj_offsets_.begin(),
                               portal_adj_offsets_.end() - 1);
  for (size_t p = 0; p < m; ++p) {
    for (const Edge& e : adjacency_[portal_nodes_[p]]) {
      if (node_portal_[e.to] < 0) continue;
      portal_adjacency_[cursor[p]++] = {node_portal_[e.to], e.weight};
    }
  }

  // Node -> portal entry/exit hops: a portal reaches itself at cost 0; a
  // contracted node reaches the portals it shares a partition with through
  // its (unchanged) flat edge weight. Sorted by portal rank, duplicates from
  // doubly-shared partitions collapse (their weights are identical).
  link_offsets_.assign(n + 1, 0);
  node_portal_links_.clear();
  std::vector<PortalLink> scratch;
  for (int i = 0; i < n; ++i) {
    scratch.clear();
    if (node_portal_[i] >= 0) {
      scratch.push_back({node_portal_[i], 0.0});
    } else {
      for (const Edge& e : adjacency_[i]) {
        if (node_portal_[e.to] >= 0) {
          scratch.push_back({node_portal_[e.to], e.weight});
        }
      }
      std::sort(scratch.begin(), scratch.end(),
                [](const PortalLink& a, const PortalLink& b) {
                  return a.portal != b.portal ? a.portal < b.portal
                                              : a.weight < b.weight;
                });
      scratch.erase(std::unique(scratch.begin(), scratch.end(),
                                [](const PortalLink& a, const PortalLink& b) {
                                  return a.portal == b.portal;
                                }),
                    scratch.end());
    }
    node_portal_links_.insert(node_portal_links_.end(), scratch.begin(),
                              scratch.end());
    link_offsets_[i + 1] = static_cast<uint32_t>(node_portal_links_.size());
  }
}

std::span<const RoutePlanner::PortalLink> RoutePlanner::LinksOf(int node) const {
  return {node_portal_links_.data() + link_offsets_[node],
          link_offsets_[node + 1] - link_offsets_[node]};
}

bool RoutePlanner::NodesAdjacent(int a, int b) const {
  for (EntityId pa : nodes_[a].partitions) {
    for (EntityId pb : nodes_[b].partitions) {
      if (pa == pb) return true;
    }
  }
  return false;
}

size_t RoutePlanner::FlatEdgeCount() const {
  size_t count = 0;
  for (const auto& edges : adjacency_) count += edges.size();
  return count;
}

std::vector<std::pair<int, double>> RoutePlanner::LocalNodes(
    const geo::IndoorPoint& p) const {
  std::vector<std::pair<int, double>> out;
  EntityId pid = dsm_->PartitionAt(p);
  if (pid == kInvalidEntity) return out;
  auto it = partition_nodes_.find(pid);
  if (it == partition_nodes_.end()) return out;
  for (int node : it->second) {
    out.emplace_back(node, nodes_[node].point.PlanarDistanceTo(p));
  }
  return out;
}

RoutePlanner::SourceTree RoutePlanner::ComputeTree(int source) const {
  return ComputeMultiSeedTree({{source, 0.0}});
}

RoutePlanner::SourceTree RoutePlanner::ComputeMultiSeedTree(
    const std::vector<std::pair<int, double>>& seeds) const {
  SourceTree tree;
  tree.dist.assign(nodes_.size(), kInf);
  tree.prev.assign(nodes_.size(), -1);
  using QItem = std::pair<double, int>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> queue;
  for (const auto& [node, w] : seeds) {
    if (w < tree.dist[node]) {
      tree.dist[node] = w;
      queue.push({w, node});
    }
  }
  while (!queue.empty()) {
    auto [d, u] = queue.top();
    queue.pop();
    if (d > tree.dist[u]) continue;
    for (const Edge& e : adjacency_[u]) {
      double nd = d + e.weight;
      if (nd < tree.dist[e.to]) {
        tree.dist[e.to] = nd;
        tree.prev[e.to] = u;
        queue.push({nd, e.to});
      }
    }
  }
  return tree;
}

// Per-thread scratch arena for portal Dijkstras. The tree member backs hub
// queries (whose trees are query-local, never cached, and handed out
// non-owning); the seed/rank/heap buffers back every portal Dijkstra, cached
// or not, so their capacity is paid once per thread.
struct RoutePlanner::PortalScratch {
  PortalTree tree;
  std::vector<PortalSeed> seeds;
  std::vector<double> seed_rank_w;
  std::vector<int32_t> seed_rank_id;
  std::vector<std::pair<double, int32_t>> heap;
};

RoutePlanner::PortalScratch& RoutePlanner::LocalPortalScratch() {
  static thread_local PortalScratch scratch;
  return scratch;
}

void RoutePlanner::ComputePortalTreeInto(PortalScratch* scratch,
                                         PortalTree* out) const {
  const size_t m = portal_nodes_.size();
  PortalTree& tree = *out;
  tree.dist.assign(m, kInf);
  tree.prev.assign(m, -1);
  tree.seed_node.assign(m, -1);
  tree.settle.assign(m, std::numeric_limits<int32_t>::max());
  // Seed tie-breaking: equal-value seeds resolve by (entry offset, entry
  // node) — the order the flat multi-seed Dijkstra's heap pops their writers
  // in — so the recorded entry node matches the flat tree's predecessor.
  std::vector<double>& seed_rank_w = scratch->seed_rank_w;
  std::vector<int32_t>& seed_rank_id = scratch->seed_rank_id;
  seed_rank_w.assign(m, kInf);
  seed_rank_id.assign(m, std::numeric_limits<int32_t>::max());
  // Binary min-heap over (distance, portal) in the scratch vector — the same
  // pop order as a std::priority_queue (the comparator totally orders items),
  // without a fresh container per query.
  using QItem = std::pair<double, int32_t>;
  std::vector<QItem>& heap = scratch->heap;
  heap.clear();
  auto heap_push = [&heap](QItem item) {
    heap.push_back(item);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  };
  for (const PortalSeed& s : scratch->seeds) {
    double cur = tree.dist[s.portal];
    bool better = s.value < cur;
    bool tie_wins = s.value == cur &&
                    (s.rank_w < seed_rank_w[s.portal] ||
                     (s.rank_w == seed_rank_w[s.portal] &&
                      s.via < seed_rank_id[s.portal]));
    if (!better && !tie_wins) continue;
    tree.dist[s.portal] = s.value;
    tree.seed_node[s.portal] = s.via;
    seed_rank_w[s.portal] = s.rank_w;
    seed_rank_id[s.portal] = s.via;
    if (better) heap_push({s.value, s.portal});
  }
  int32_t settled = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    auto [d, u] = heap.back();
    heap.pop_back();
    if (d > tree.dist[u]) continue;
    if (tree.settle[u] != std::numeric_limits<int32_t>::max()) continue;
    tree.settle[u] = settled++;
    for (uint32_t k = portal_adj_offsets_[u]; k < portal_adj_offsets_[u + 1]; ++k) {
      const Edge& e = portal_adjacency_[k];
      double nd = d + e.weight;
      if (nd < tree.dist[e.to]) {
        tree.dist[e.to] = nd;
        tree.prev[e.to] = u;
        tree.seed_node[e.to] = -1;
        heap_push({nd, e.to});
      }
    }
  }
}

std::shared_ptr<const RoutePlanner::SourceTree> RoutePlanner::TreeFrom(
    int source) const {
  if (cache_ == nullptr || cache_->capacity == 0) {
    return std::make_shared<const SourceTree>(ComputeTree(source));
  }
  return cache_->GetOrCompute(cache_->flat, source,
                              [&] { return ComputeTree(source); });
}

std::shared_ptr<const RoutePlanner::PortalTree> RoutePlanner::PortalTreeFrom(
    int source) const {
  auto compute = [&] {
    // Memoized trees are owned (they outlive the query in the cache), but the
    // seed/rank/heap working set still comes from the thread's scratch.
    PortalScratch& scratch = LocalPortalScratch();
    std::span<const PortalLink> links = LinksOf(source);
    scratch.seeds.clear();
    scratch.seeds.reserve(links.size());
    for (const PortalLink& link : links) {
      scratch.seeds.push_back({link.portal, link.weight, link.weight, source});
    }
    PortalTree tree;
    ComputePortalTreeInto(&scratch, &tree);
    return tree;
  };
  if (cache_ == nullptr || cache_->capacity == 0) {
    return std::make_shared<const PortalTree>(compute());
  }
  return cache_->GetOrCompute(cache_->portal, source, compute);
}

bool RoutePlanner::BestCrossing(
    const std::vector<std::pair<int, double>>& from_nodes,
    const std::vector<std::pair<int, double>>& to_nodes, BestPair* out) const {
  bool found = false;
  if (from_nodes.size() > options_.max_memoized_sources) {
    // Hub-partition mode: one multi-seed Dijkstra for the whole query instead
    // of one tree per source node (a corridor can carry a node per shop).
    auto tree = std::make_shared<const SourceTree>(ComputeMultiSeedTree(from_nodes));
    for (const auto& [b, wb] : to_nodes) {
      double graph = tree->dist[b];
      if (graph == kInf) continue;
      double total = graph + wb;
      if (!found || total < out->total) {
        found = true;
        out->total = total;
        out->entry = -1;
        out->exit = b;
        out->tree = tree;
      }
    }
    return found;
  }
  // Memoized mode. Entry nodes ascending, exit nodes ascending, strict
  // improvement: the winning pair is the lexicographic minimum among equal
  // totals, independent of cache state.
  for (const auto& [a, wa] : from_nodes) {
    std::shared_ptr<const SourceTree> tree = TreeFrom(a);
    for (const auto& [b, wb] : to_nodes) {
      double graph = tree->dist[b];
      if (graph == kInf) continue;
      double total = wa + graph + wb;
      if (!found || total < out->total) {
        found = true;
        out->total = total;
        out->entry = a;
        out->exit = b;
        out->tree = tree;
      }
    }
  }
  return found;
}

// First-writer-in-pop-order selection among an exit node's predecessors,
// mirroring the flat Dijkstra: smaller value wins, ties go to the earlier
// writer. Pops order primarily by distance; equal-distance portal writers
// compare by their settle sequence (which encodes both the heap's id order
// and zero-weight causality), and a direct local-node writer against a
// portal compares by node id.
void RoutePlanner::ExitResolution::Offer(double new_value, double new_rank_w,
                                         int32_t new_rank_id, int32_t new_settle,
                                         bool new_direct, int new_direct_entry,
                                         int new_exit_portal) {
  bool wins;
  if (new_value != value) {
    wins = new_value < value;
  } else if (new_rank_w != rank_w) {
    wins = new_rank_w < rank_w;
  } else if (!new_direct && !direct) {
    wins = new_settle < settle;
  } else {
    wins = new_rank_id < rank_id;
  }
  if (!wins) return;
  value = new_value;
  rank_w = new_rank_w;
  rank_id = new_rank_id;
  settle = new_settle;
  direct = new_direct;
  direct_entry = new_direct_entry;
  exit_portal = new_exit_portal;
}

std::shared_ptr<const RoutePlanner::PortalTree> RoutePlanner::ComputeHubPortalTree(
    const std::vector<std::pair<int, double>>& from_nodes) const {
  PortalScratch& scratch = LocalPortalScratch();
  std::vector<PortalSeed>& seeds = scratch.seeds;
  seeds.clear();
  for (const auto& [a, wa] : from_nodes) {
    for (const PortalLink& link : LinksOf(a)) {
      // A portal local node seeds itself the way the flat Dijkstra assigns
      // its seeds: before the main loop, beating every equal-valued
      // relaxation (rank below any pop); hops from contracted local nodes
      // are relaxations written at the node's pop rank (wa, a).
      double rank_w = portal_nodes_[link.portal] == a ? -1.0 : wa;
      seeds.push_back({link.portal, wa + link.weight, rank_w, a});
    }
  }
  ComputePortalTreeInto(&scratch, &scratch.tree);
  // Non-owning handle to the scratch-resident tree (aliasing constructor with
  // an empty control block): hub trees are query-local and consumed before the
  // calling thread runs its next hub portal Dijkstra, so no copy is needed.
  return std::shared_ptr<const PortalTree>(std::shared_ptr<const PortalTree>(),
                                           &scratch.tree);
}

RoutePlanner::SourceByPartition RoutePlanner::GroupSourcesByPartition(
    const std::vector<std::pair<int, double>>& from_nodes) const {
  SourceByPartition sources;
  for (const auto& [a, wa] : from_nodes) {
    for (EntityId pid : nodes_[a].partitions) {
      sources[pid].emplace_back(a, wa);
    }
  }
  return sources;
}

RoutePlanner::ExitResolution RoutePlanner::ResolveExitHub(
    int b, const PortalTree& tree, const SourceByPartition& sources) const {
  ExitResolution exit;
  // Direct single-edge candidates only matter for contracted exit nodes: a
  // portal b already receives every local-node edge through the tree (as a
  // seed or a portal adjacency), with the correct write order.
  if (node_portal_[b] < 0) {
    for (EntityId pid : nodes_[b].partitions) {
      auto it = sources.find(pid);
      if (it == sources.end()) continue;
      for (const auto& [a, wa] : it->second) {
        // b's own seed (a == b) is assigned before the flat Dijkstra's main
        // loop ever runs, so it beats every equal-valued writer.
        double v = a == b ? wa
                          : wa + nodes_[a].point.PlanarDistanceTo(nodes_[b].point);
        exit.Offer(v, a == b ? -1.0 : wa, a, 0, /*direct=*/true, a, -1);
      }
    }
  }
  for (const PortalLink& link : LinksOf(b)) {
    double dt = tree.dist[link.portal];
    if (dt == kInf) continue;
    exit.Offer(dt + link.weight, dt, portal_nodes_[link.portal],
               tree.settle[link.portal], /*direct=*/false, -1, link.portal);
  }
  return exit;
}

RoutePlanner::ExitResolution RoutePlanner::ResolveExitMemoized(
    int a, int b, const PortalTree& tree) const {
  ExitResolution exit;
  if (NodesAdjacent(a, b)) {
    // The tree root pops first in the flat Dijkstra, so the direct edge wins
    // every tie: rank below any portal pop.
    double v = a == b ? 0.0 : nodes_[a].point.PlanarDistanceTo(nodes_[b].point);
    exit.Offer(v, -1.0, a, 0, /*direct=*/true, a, -1);
  }
  for (const PortalLink& link : LinksOf(b)) {
    double dt = tree.dist[link.portal];
    if (dt == kInf) continue;
    exit.Offer(dt + link.weight, dt, portal_nodes_[link.portal],
               tree.settle[link.portal], /*direct=*/false, -1, link.portal);
  }
  return exit;
}

bool RoutePlanner::BestCrossingContracted(
    const std::vector<std::pair<int, double>>& from_nodes,
    const std::vector<std::pair<int, double>>& to_nodes, BestPair* out) const {
  bool found = false;
  auto consider = [&](double total, int entry, int b, const ExitResolution& exit,
                      const std::shared_ptr<const PortalTree>& tree) {
    if (found && total >= out->total) return;
    found = true;
    out->total = total;
    out->entry = exit.direct ? exit.direct_entry : entry;
    out->exit = b;
    out->direct = exit.direct;
    out->exit_portal = exit.exit_portal;
    out->tree = nullptr;
    out->portal_tree = tree;
  };

  if (from_nodes.size() > options_.max_memoized_sources) {
    std::shared_ptr<const PortalTree> tree = ComputeHubPortalTree(from_nodes);
    SourceByPartition sources = GroupSourcesByPartition(from_nodes);
    for (const auto& [b, wb] : to_nodes) {
      ExitResolution exit = ResolveExitHub(b, *tree, sources);
      if (exit.value == kInf) continue;
      consider(exit.value + wb, -1, b, exit, tree);
    }
    return found;
  }

  // Memoized mode: one cached portal tree per source node, same loop order
  // and strict-improvement rule as the flat reference.
  for (const auto& [a, wa] : from_nodes) {
    std::shared_ptr<const PortalTree> tree = PortalTreeFrom(a);
    for (const auto& [b, wb] : to_nodes) {
      ExitResolution exit = ResolveExitMemoized(a, b, *tree);
      if (exit.value == kInf) continue;
      consider(wa + exit.value + wb, a, b, exit, tree);
    }
  }
  return found;
}

void RoutePlanner::UnpackChain(const BestPair& best, std::vector<int>* chain) const {
  const size_t start = chain->size();
  if (best.portal_tree == nullptr) {
    // Flat crossing: walk the tree back from the exit node to the root
    // (memoized mode) or the seeding local node (hub mode); both end at a -1
    // predecessor.
    for (int n = best.exit; n != -1; n = best.tree->prev[n]) chain->push_back(n);
    std::reverse(chain->begin() + static_cast<long>(start), chain->end());
    return;
  }
  if (best.direct) {
    chain->push_back(best.entry);
    if (best.exit != best.entry) chain->push_back(best.exit);
    return;
  }
  // Contracted crossing: walk the portal predecessors back to the seeded
  // root, then the root's entry node; every hop is a flat-graph edge, so the
  // unpacked chain is a full node path.
  for (int p = best.exit_portal; p != -1;) {
    chain->push_back(portal_nodes_[p]);
    int prev = best.portal_tree->prev[p];
    if (prev == -1) {
      int via = best.portal_tree->seed_node[p];
      if (via >= 0 && via != portal_nodes_[p]) chain->push_back(via);
      break;
    }
    p = prev;
  }
  std::reverse(chain->begin() + static_cast<long>(start), chain->end());
  if (chain->back() != best.exit) chain->push_back(best.exit);
}

Result<Route> RoutePlanner::FindRouteImpl(const geo::IndoorPoint& from,
                                          const geo::IndoorPoint& to,
                                          bool contracted) const {
  EntityId from_part = dsm_->PartitionAt(from);
  EntityId to_part = dsm_->PartitionAt(to);
  if (from_part == kInvalidEntity) {
    return Status::NotFound("route origin is outside every walkable partition");
  }
  if (to_part == kInvalidEntity) {
    return Status::NotFound("route target is outside every walkable partition");
  }

  // Same partition: straight line.
  if (from_part == to_part) {
    Route route;
    route.waypoints = {from, to};
    route.distance = from.PlanarDistanceTo(to);
    route.vertical_cost_per_floor = options_.vertical_cost_per_floor;
    return route;
  }

  BestPair best;
  bool found = contracted
                   ? BestCrossingContracted(LocalNodes(from), LocalNodes(to), &best)
                   : BestCrossing(LocalNodes(from), LocalNodes(to), &best);
  if (!found) {
    return Status::NotFound("no indoor path between the given points");
  }

  std::vector<int> chain;
  UnpackChain(best, &chain);

  Route route;
  route.waypoints.reserve(chain.size() + 2);
  route.waypoints.push_back(from);
  for (int n : chain) route.waypoints.push_back(nodes_[n].point);
  route.waypoints.push_back(to);
  route.distance = best.total;
  route.vertical_cost_per_floor = options_.vertical_cost_per_floor;
  return route;
}

double RoutePlanner::IndoorDistanceImpl(const geo::IndoorPoint& from,
                                        const geo::IndoorPoint& to,
                                        bool contracted) const {
  EntityId from_part = dsm_->PartitionAt(from);
  EntityId to_part = dsm_->PartitionAt(to);
  if (from_part == kInvalidEntity || to_part == kInvalidEntity) return kInf;
  if (from_part == to_part) return from.PlanarDistanceTo(to);
  BestPair best;
  bool found = contracted
                   ? BestCrossingContracted(LocalNodes(from), LocalNodes(to), &best)
                   : BestCrossing(LocalNodes(from), LocalNodes(to), &best);
  return found ? best.total : kInf;
}

std::vector<double> RoutePlanner::IndoorDistancesImpl(
    const geo::IndoorPoint& from, std::span<const geo::IndoorPoint> tos,
    bool contracted) const {
  std::vector<double> out(tos.size(), kInf);
  EntityId from_part = dsm_->PartitionAt(from);
  if (from_part == kInvalidEntity) return out;

  // Resolve the source side once: its local nodes and their shortest-path
  // trees (or, for a hub partition, one shared multi-seed tree — the same
  // mode BestCrossing would pick per query, so batch results equal the
  // single-query ones).
  std::vector<std::pair<int, double>> from_nodes = LocalNodes(from);
  bool hub = from_nodes.size() > options_.max_memoized_sources;

  // Flat reference resolution.
  std::shared_ptr<const SourceTree> flat_hub_tree;
  std::vector<std::shared_ptr<const SourceTree>> flat_trees;
  // Contracted resolution.
  std::shared_ptr<const PortalTree> portal_hub_tree;
  std::vector<std::shared_ptr<const PortalTree>> portal_trees;
  SourceByPartition src_by_partition;

  if (contracted) {
    if (hub) {
      portal_hub_tree = ComputeHubPortalTree(from_nodes);
      src_by_partition = GroupSourcesByPartition(from_nodes);
    } else {
      portal_trees.reserve(from_nodes.size());
      for (const auto& [a, wa] : from_nodes) portal_trees.push_back(PortalTreeFrom(a));
    }
  } else if (hub) {
    flat_hub_tree = std::make_shared<const SourceTree>(ComputeMultiSeedTree(from_nodes));
  } else {
    flat_trees.reserve(from_nodes.size());
    for (const auto& [a, wa] : from_nodes) flat_trees.push_back(TreeFrom(a));
  }

  // Targets cluster in few partitions, so the contracted exit resolution
  // (the same ResolveExit* the single-query crossing search runs) is
  // memoized per target partition for the duration of the batch: row-major
  // [ai][bj] graph distances, one row in hub mode. The cached values are
  // exactly the per-query ones, so batch results stay equal to single
  // queries by construction.
  std::map<EntityId, std::vector<double>> graph_cache;
  auto graph_row_for = [&](EntityId to_part,
                           const std::vector<int>& b_nodes) -> const std::vector<double>& {
    auto cached = graph_cache.find(to_part);
    if (cached != graph_cache.end()) return cached->second;
    std::vector<double>& row = graph_cache[to_part];
    if (hub) {
      row.reserve(b_nodes.size());
      for (int b : b_nodes) {
        row.push_back(ResolveExitHub(b, *portal_hub_tree, src_by_partition).value);
      }
    } else {
      row.reserve(from_nodes.size() * b_nodes.size());
      for (size_t ai = 0; ai < from_nodes.size(); ++ai) {
        for (int b : b_nodes) {
          row.push_back(
              ResolveExitMemoized(from_nodes[ai].first, b, *portal_trees[ai]).value);
        }
      }
    }
    return row;
  };

  for (size_t i = 0; i < tos.size(); ++i) {
    const geo::IndoorPoint& to = tos[i];
    EntityId to_part = dsm_->PartitionAt(to);
    if (to_part == kInvalidEntity) continue;
    if (to_part == from_part) {
      out[i] = from.PlanarDistanceTo(to);
      continue;
    }
    auto it = partition_nodes_.find(to_part);
    if (it == partition_nodes_.end()) continue;
    const std::vector<int>& b_nodes = it->second;
    const std::vector<double>* row = contracted ? &graph_row_for(to_part, b_nodes)
                                                : nullptr;
    double best = kInf;
    if (hub) {
      for (size_t bi = 0; bi < b_nodes.size(); ++bi) {
        int b = b_nodes[bi];
        double graph = contracted ? (*row)[bi] : flat_hub_tree->dist[b];
        if (graph == kInf) continue;
        double total = graph + nodes_[b].point.PlanarDistanceTo(to);
        if (total < best) best = total;
      }
    } else {
      for (size_t ai = 0; ai < from_nodes.size(); ++ai) {
        const auto& [a, wa] = from_nodes[ai];
        for (size_t bi = 0; bi < b_nodes.size(); ++bi) {
          int b = b_nodes[bi];
          double graph = contracted ? (*row)[ai * b_nodes.size() + bi]
                                    : flat_trees[ai]->dist[b];
          if (graph == kInf) continue;
          double wb = nodes_[b].point.PlanarDistanceTo(to);
          double total = wa + graph + wb;
          if (total < best) best = total;
        }
      }
    }
    out[i] = best;
  }
  return out;
}

Result<Route> RoutePlanner::FindRoute(const geo::IndoorPoint& from,
                                      const geo::IndoorPoint& to) const {
  return FindRouteImpl(from, to, use_contraction_);
}

Result<Route> RoutePlanner::FindRouteFlat(const geo::IndoorPoint& from,
                                          const geo::IndoorPoint& to) const {
  return FindRouteImpl(from, to, /*contracted=*/false);
}

double RoutePlanner::IndoorDistance(const geo::IndoorPoint& from,
                                    const geo::IndoorPoint& to) const {
  return IndoorDistanceImpl(from, to, use_contraction_);
}

double RoutePlanner::IndoorDistanceFlat(const geo::IndoorPoint& from,
                                        const geo::IndoorPoint& to) const {
  return IndoorDistanceImpl(from, to, /*contracted=*/false);
}

std::vector<double> RoutePlanner::IndoorDistances(
    const geo::IndoorPoint& from, std::span<const geo::IndoorPoint> tos) const {
  return IndoorDistancesImpl(from, tos, use_contraction_);
}

std::vector<double> RoutePlanner::IndoorDistancesFlat(
    const geo::IndoorPoint& from, std::span<const geo::IndoorPoint> tos) const {
  return IndoorDistancesImpl(from, tos, /*contracted=*/false);
}

bool RoutePlanner::Reachable(const geo::IndoorPoint& from,
                             const geo::IndoorPoint& to) const {
  return IndoorDistance(from, to) != kInf;
}

bool RoutePlanner::ReachableFlat(const geo::IndoorPoint& from,
                                 const geo::IndoorPoint& to) const {
  return IndoorDistanceFlat(from, to) != kInf;
}

void RoutePlanner::set_contraction_enabled(bool enabled) {
  if (use_contraction_ == enabled) return;
  use_contraction_ = enabled;
  ClearCache();
}

RoutingCacheStats RoutePlanner::cache_stats() const {
  RoutingCacheStats stats;
  stats.nodes = NodeCount();
  stats.portals = PortalCount();
  if (cache_ == nullptr) return stats;
  stats.hits = cache_->hits.load(std::memory_order_relaxed);
  stats.misses = cache_->misses.load(std::memory_order_relaxed);
  stats.evictions = cache_->evictions.load(std::memory_order_relaxed);
  stats.size = cache_->flat.Size() + cache_->portal.Size();
  return stats;
}

void RoutePlanner::ClearCache() const {
  if (cache_ == nullptr) return;
  cache_->flat.Clear();
  cache_->portal.Clear();
  cache_->hits.store(0, std::memory_order_relaxed);
  cache_->misses.store(0, std::memory_order_relaxed);
  cache_->evictions.store(0, std::memory_order_relaxed);
}

}  // namespace trips::dsm
