// Shared helpers for the TRIPS benchmark binaries: canned mall + generator
// setup and a noisy-fleet factory, so every bench exercises the same
// simulated venue (the paper's 7-floor mall).
#pragma once

#include <memory>
#include <vector>

#include "core/trips.h"

namespace trips::bench {

/// One self-contained simulation context.
struct MallContext {
  std::unique_ptr<dsm::Dsm> dsm;
  std::unique_ptr<dsm::RoutePlanner> planner;
  std::unique_ptr<mobility::MobilityGenerator> generator;

  static MallContext Make(int floors = 7, int shops_per_arm = 3) {
    MallContext ctx;
    auto mall = dsm::BuildMallDsm({.floors = floors, .shops_per_arm = shops_per_arm});
    if (!mall.ok()) std::abort();
    ctx.dsm = std::make_unique<dsm::Dsm>(std::move(mall).ValueOrDie());
    auto planner = dsm::RoutePlanner::Build(ctx.dsm.get());
    if (!planner.ok()) std::abort();
    ctx.planner = std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
    ctx.generator =
        std::make_unique<mobility::MobilityGenerator>(ctx.dsm.get(), ctx.planner.get());
    return ctx;
  }
};

/// A generated device plus its degraded observation.
struct NoisyDevice {
  mobility::GeneratedDevice truth;
  positioning::PositioningSequence raw;
};

/// Generates `count` devices and degrades them with `noise`.
inline std::vector<NoisyDevice> MakeFleet(const MallContext& ctx, int count,
                                          const positioning::ErrorModelOptions& noise,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<NoisyDevice> fleet;
  fleet.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto dev = ctx.generator->GenerateDevice("dev-" + std::to_string(i),
                                             i * kMillisPerMinute, &rng);
    if (!dev.ok()) std::abort();
    NoisyDevice nd;
    nd.truth = std::move(dev).ValueOrDie();
    nd.raw = positioning::ApplyErrorModel(nd.truth.truth, noise, &rng);
    fleet.push_back(std::move(nd));
  }
  return fleet;
}

/// The degraded observations of a fleet, in fleet order.
inline std::vector<positioning::PositioningSequence> Raws(
    const std::vector<NoisyDevice>& fleet) {
  std::vector<positioning::PositioningSequence> raws;
  raws.reserve(fleet.size());
  for (const NoisyDevice& nd : fleet) raws.push_back(nd.raw);
  return raws;
}

/// Builds an engine over the context's (borrowed) DSM, training its event
/// model on `training` when given.
inline std::shared_ptr<const core::Engine> MakeEngine(
    const MallContext& ctx, core::TranslatorOptions options = {},
    std::vector<config::LabeledSegment> training = {}) {
  const bool train = !training.empty();
  auto engine = core::Engine::Builder()
                    .BorrowDsm(ctx.dsm.get())
                    .SetOptions(options)
                    .SetTrainingData(std::move(training))
                    .Build();
  if (!engine.ok()) std::abort();
  if (train && !(*engine)->training_status().ok()) std::abort();
  return std::move(engine).ValueOrDie();
}

/// Translates `raws` as one batch request on the calling thread. Results come
/// back sorted by device id ("dev-10" < "dev-2"), not in input order.
inline std::vector<core::TranslationResult> TranslateBatch(
    std::shared_ptr<const core::Engine> engine,
    std::vector<positioning::PositioningSequence> raws, bool learn_knowledge = true) {
  core::ServiceOptions options;
  options.worker_threads = 0;
  core::Service service(std::move(engine), options);
  auto response = service.Translate(
      {.sequences = std::move(raws), .learn_knowledge = learn_knowledge});
  if (!response.ok()) std::abort();
  return std::move(response).ValueOrDie().results;
}

/// Default error model matched to the bench venue's floor count.
inline positioning::ErrorModelOptions DefaultNoise(int floors) {
  positioning::ErrorModelOptions noise;
  noise.floor_count = floors;
  return noise;
}

}  // namespace trips::bench
