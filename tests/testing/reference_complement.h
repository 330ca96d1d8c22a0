// Test-only oracle for the Complementing layer's MAP inference: the layered
// Dijkstra over (region, hops) keyed by std::map that reads the nested-map
// MobilityKnowledge directly, recomputes -log(p) per edge, and searches every
// reachable state before answering. The production Complementor compiles the
// knowledge into dense arrays, stops at the first goal pop and prunes states
// that cannot reach the goal in time; on valid knowledge (every p in (0, 1])
// its paths and complemented sequences must equal these byte for byte.
// Header-only; nothing outside tests/ includes it.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "complement/complementor.h"
#include "complement/knowledge.h"
#include "core/semantics.h"
#include "dsm/dsm.h"

namespace trips::complement::testing {

/// MAP-most-likely intermediate regions from `from` to `to`, at most
/// options.max_inferred_steps of them.
inline std::vector<dsm::RegionId> ReferenceInferPath(
    const MobilityKnowledge& knowledge, const ComplementorOptions& options,
    dsm::RegionId from, dsm::RegionId to) {
  std::vector<dsm::RegionId> empty;
  if (from == to || from == dsm::kInvalidRegion || to == dsm::kInvalidRegion) {
    return empty;
  }
  const int max_hops = options.max_inferred_steps + 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::map<std::pair<dsm::RegionId, int>, double> cost;
  std::map<std::pair<dsm::RegionId, int>, std::pair<dsm::RegionId, int>> prev;
  using QItem = std::pair<double, std::pair<dsm::RegionId, int>>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> queue;
  cost[{from, 0}] = 0;
  queue.push({0, {from, 0}});

  std::pair<dsm::RegionId, int> goal{dsm::kInvalidRegion, -1};
  double goal_cost = kInf;

  while (!queue.empty()) {
    auto [c, state] = queue.top();
    queue.pop();
    auto it = cost.find(state);
    if (it == cost.end() || c > it->second) continue;
    auto [region, hops] = state;
    if (region == to) {
      if (c < goal_cost) {
        goal_cost = c;
        goal = state;
      }
      continue;
    }
    if (hops >= max_hops) continue;
    auto row = knowledge.transition_prob.find(region);
    if (row == knowledge.transition_prob.end()) continue;
    for (const auto& [next, p] : row->second) {
      if (p <= 0) continue;
      double nc = c - std::log(p);
      std::pair<dsm::RegionId, int> ns{next, hops + 1};
      auto found = cost.find(ns);
      if (found == cost.end() || nc < found->second) {
        cost[ns] = nc;
        prev[ns] = state;
        queue.push({nc, ns});
      }
    }
  }

  if (goal.second < 0) return empty;
  std::vector<dsm::RegionId> path;
  std::pair<dsm::RegionId, int> cur = goal;
  while (!(cur.first == from && cur.second == 0)) {
    path.push_back(cur.first);
    auto it = prev.find(cur);
    if (it == prev.end()) break;
    cur = it->second;
  }
  std::reverse(path.begin(), path.end());
  if (!path.empty() && path.back() == to) path.pop_back();
  return path;
}

/// The full Complement contract over the reference search: gaps of at least
/// min_gap are filled with one inferred same-region triplet, or with the MAP
/// path's regions sharing the window in proportion to their mean dwell.
inline core::MobilitySemanticsSequence ReferenceComplement(
    const dsm::Dsm& dsm, const MobilityKnowledge& knowledge,
    const ComplementorOptions& options,
    const core::MobilitySemanticsSequence& original, ComplementReport* report) {
  *report = ComplementReport{};
  core::MobilitySemanticsSequence out;
  out.device_id = original.device_id;
  const auto& in = original.semantics;
  for (size_t i = 0; i < in.size(); ++i) {
    out.semantics.push_back(in[i]);
    if (i + 1 >= in.size()) break;
    const core::MobilitySemantic& cur = in[i];
    const core::MobilitySemantic& next = in[i + 1];
    DurationMs gap = next.range.begin - cur.range.end;
    if (gap < options.min_gap) continue;
    ++report->gaps_found;

    TimeRange window{cur.range.end + 1, next.range.begin - 1};
    std::vector<core::MobilitySemantic> inferred;
    if (cur.region == next.region && cur.region != dsm::kInvalidRegion) {
      core::MobilitySemantic s;
      s.region = cur.region;
      s.region_name = cur.region_name;
      s.range = window;
      s.event = window.Duration() >= options.stay_threshold ? core::kEventStay
                                                            : core::kEventPassBy;
      s.inferred = true;
      inferred.push_back(std::move(s));
    } else {
      std::vector<dsm::RegionId> path =
          ReferenceInferPath(knowledge, options, cur.region, next.region);
      if (!path.empty()) {
        std::vector<double> weights;
        double total = 0;
        for (dsm::RegionId rid : path) {
          auto it = knowledge.mean_dwell.find(rid);
          double w = it != knowledge.mean_dwell.end() && it->second > 0
                         ? static_cast<double>(it->second)
                         : static_cast<double>(kMillisPerMinute);
          weights.push_back(w);
          total += w;
        }
        TimestampMs t = window.begin;
        for (size_t k = 0; k < path.size(); ++k) {
          DurationMs slice =
              k + 1 == path.size()
                  ? window.end - t
                  : static_cast<DurationMs>(window.Duration() * weights[k] / total);
          if (slice <= 0) continue;
          core::MobilitySemantic s;
          s.region = path[k];
          if (const dsm::SemanticRegion* r = dsm.GetRegion(path[k])) {
            s.region_name = r->name;
          }
          s.range = {t, std::min<TimestampMs>(t + slice, window.end)};
          s.event = s.range.Duration() >= options.stay_threshold
                        ? core::kEventStay
                        : core::kEventPassBy;
          s.inferred = true;
          inferred.push_back(std::move(s));
          t += slice;
        }
      }
    }
    if (!inferred.empty()) {
      ++report->gaps_filled;
      report->triplets_inferred += inferred.size();
      for (core::MobilitySemantic& s : inferred) out.semantics.push_back(std::move(s));
    }
  }
  return out;
}

}  // namespace trips::complement::testing
