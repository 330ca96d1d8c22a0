// The benchmark's workloads. Each one pre-generates its inputs from the seed
// in Setup (timed separately as setup_s), drives the system's public front
// doors for the configured number of seconds in Run, then checks the outputs
// outside the timed phase.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace trips::perf {

class Workload {
 public:
  virtual ~Workload() = default;
  /// Input generation, engine build and training, store open.
  virtual Status Setup(const RunConfig& config) = 0;
  /// The timed phase plus the correctness checks; fills `report`.
  virtual Status Run(const RunConfig& config, Report* report) = 0;
};

/// Closed loop: one client, Service::Translate on 64-device mall fleets.
std::unique_ptr<Workload> MakeBatchMall();
/// Open loop: Poisson short sessions into one StreamSession, results appended
/// to an on-disk TripStore.
std::unique_ptr<Workload> MakeStreamMall();
/// Open loop: a 4-venue Cluster with a skewed feed, periodic persistence and
/// a concurrent query thread.
std::unique_ptr<Workload> MakeClusterCity();

/// The workload called `name`, or null.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// Every per-layer metric name with its unit, in report order. A workload
/// reports 0 for a layer it never exercises.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace trips::perf
