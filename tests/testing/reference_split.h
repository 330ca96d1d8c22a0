// Test-only oracle for the Annotation layer's density-based splitting: the
// straightforward ST-DBSCAN the production splitter (annotation/splitter.cc)
// must reproduce snippet for snippet. It allocates a neighbour vector per
// query, re-pushes points onto its frontier and measures distances with
// sqrt, which is exactly what makes it a readable reference. Reads the
// record block's columns one record at a time. Header-only; nothing outside
// tests/ includes it.
#pragma once

#include <queue>
#include <vector>

#include "annotation/splitter.h"
#include "positioning/record_block.h"

namespace trips::annotation::testing {

/// Indices of the spatio-temporal neighbours of record i (backward scan,
/// then forward; self excluded). Records are time-sorted, so the temporal
/// window bounds the scan.
inline std::vector<size_t> ReferenceNeighbours(
    const positioning::RecordBlock& block, size_t i, const SplitterOptions& opt) {
  std::vector<size_t> out;
  const size_t n = block.Size();
  const TimestampMs ti = block.timestamps[i];
  const geo::Point2 pi = block.XY(i);
  const geo::FloorId fi = block.floors[i];
  for (size_t j = i; j-- > 0;) {
    if (ti - block.timestamps[j] > opt.eps_time) break;
    if (block.floors[j] == fi && block.XY(j).DistanceTo(pi) <= opt.eps_space) {
      out.push_back(j);
    }
  }
  for (size_t j = i + 1; j < n; ++j) {
    if (block.timestamps[j] - ti > opt.eps_time) break;
    if (block.floors[j] == fi && block.XY(j).DistanceTo(pi) <= opt.eps_space) {
      out.push_back(j);
    }
  }
  return out;
}

/// Sequential ST-DBSCAN, then maximal time-contiguous runs of equal label,
/// then the min_snippet merge — the splitter's full contract.
inline std::vector<Snippet> ReferenceSplit(const positioning::RecordBlock& block,
                                           const SplitterOptions& options) {
  std::vector<Snippet> snippets;
  const size_t n = block.Size();
  if (n < 2) return snippets;

  constexpr int kUnvisited = -2;
  constexpr int kNoise = -1;
  std::vector<int> label(n, kUnvisited);
  int next_cluster = 0;

  for (size_t i = 0; i < n; ++i) {
    if (label[i] != kUnvisited) continue;
    std::vector<size_t> nb = ReferenceNeighbours(block, i, options);
    if (nb.size() + 1 < options.min_pts) {
      label[i] = kNoise;
      continue;
    }
    int cluster = next_cluster++;
    label[i] = cluster;
    std::queue<size_t> frontier;
    for (size_t j : nb) frontier.push(j);
    while (!frontier.empty()) {
      size_t j = frontier.front();
      frontier.pop();
      if (label[j] == kNoise) label[j] = cluster;  // border point
      if (label[j] != kUnvisited) continue;
      label[j] = cluster;
      std::vector<size_t> nb2 = ReferenceNeighbours(block, j, options);
      if (nb2.size() + 1 >= options.min_pts) {
        for (size_t k : nb2) {
          if (label[k] == kUnvisited || label[k] == kNoise) frontier.push(k);
        }
      }
    }
  }

  size_t run_begin = 0;
  for (size_t i = 1; i <= n; ++i) {
    if (i == n || label[i] != label[run_begin]) {
      Snippet s;
      s.begin = run_begin;
      s.end = i;
      s.dense = label[run_begin] >= 0;
      snippets.push_back(s);
      run_begin = i;
    }
  }

  if (options.min_snippet > 0 && snippets.size() > 1) {
    std::vector<Snippet> merged;
    for (const Snippet& s : snippets) {
      DurationMs dur = block.timestamps[s.end - 1] - block.timestamps[s.begin];
      if (!merged.empty() && dur < options.min_snippet) {
        merged.back().end = s.end;
      } else {
        merged.push_back(s);
      }
    }
    snippets = std::move(merged);
  }
  return snippets;
}

}  // namespace trips::annotation::testing
