// Ablation study over the design choices DESIGN.md calls out: which layers
// and which models actually buy the output quality. Grid: cleaning on/off x
// complementing on/off, the four event-model families, and the splitter's
// density radius. Run on the default-noise mall fleet with ground truth.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>

#include "bench_common.h"

using namespace trips;
using bench::MallContext;

namespace {

struct Scores {
  double region = 0;
  double event = 0;
};

/// Scores of one batch translation, with complementing (`complemented`) and
/// without it (the annotation-only original_semantics of the same results).
struct Evaluation {
  Scores complemented;
  Scores annotated;
};

Evaluation Evaluate(const MallContext& ctx, const std::vector<bench::NoisyDevice>& fleet,
                    core::TranslatorOptions opt,
                    const std::vector<config::LabeledSegment>& training) {
  std::vector<core::TranslationResult> results = bench::TranslateBatch(
      bench::MakeEngine(ctx, opt, training), bench::Raws(fleet));
  // Results are sorted by device id: match them to ground truth by id.
  std::map<std::string, const core::MobilitySemanticsSequence*> truth;
  for (const bench::NoisyDevice& nd : fleet) {
    truth[nd.raw.device_id] = &nd.truth.semantics;
  }
  auto score = [&](core::MobilitySemanticsSequence core::TranslationResult::*output) {
    Scores scores;
    for (const core::TranslationResult& r : results) {
      core::SemanticsAgreement a =
          core::CompareSemantics(*truth.at(r.semantics.device_id), r.*output);
      scores.region += a.region_match;
      scores.event += a.event_match;
    }
    scores.region /= static_cast<double>(fleet.size());
    scores.event /= static_cast<double>(fleet.size());
    return scores;
  };
  return {score(&core::TranslationResult::semantics),
          score(&core::TranslationResult::original_semantics)};
}

std::vector<config::LabeledSegment> Training(const MallContext& ctx, int devices,
                                             uint64_t seed) {
  Rng rng(seed);
  std::vector<config::LabeledSegment> out;
  for (int d = 0; d < devices; ++d) {
    auto dev = ctx.generator->GenerateDevice("t", 0, &rng);
    if (!dev.ok()) std::abort();
    for (const core::MobilitySemantic& s : dev->semantics.semantics) {
      config::LabeledSegment seg;
      seg.event = s.event;
      seg.segment.records = dev->truth.RecordsIn(s.range);
      if (seg.segment.records.size() >= 2) out.push_back(std::move(seg));
    }
  }
  return out;
}

void ReportAblation() {
  MallContext ctx = MallContext::Make(7, 3);
  positioning::ErrorModelOptions noise = bench::DefaultNoise(7);
  noise.gaps_per_hour = 4.0;
  auto fleet = bench::MakeFleet(ctx, 16, noise, 987);
  auto training = Training(ctx, 12, 654);

  std::printf("=== Ablation: layers ===\n\n");
  std::printf("%10s %14s | %8s %8s\n", "cleaning", "complementing", "region%",
              "event%");
  for (bool clean : {false, true}) {
    core::TranslatorOptions opt;
    opt.enable_cleaning = clean;
    Evaluation e = Evaluate(ctx, fleet, opt, training);
    for (bool complement : {false, true}) {
      const Scores& s = complement ? e.complemented : e.annotated;
      std::printf("%10s %14s | %7.1f%% %7.1f%%\n", clean ? "on" : "off",
                  complement ? "on" : "off", s.region * 100, s.event * 100);
    }
  }

  std::printf("\n=== Ablation: event model ===\n\n");
  std::printf("%-22s | %8s %8s\n", "model", "region%", "event%");
  {
    Scores s = Evaluate(ctx, fleet, {}, {}).complemented;
    std::printf("%-22s | %7.1f%% %7.1f%%\n", "rule_based(cold)", s.region * 100,
                s.event * 100);
  }
  for (annotation::ModelKind kind :
       {annotation::ModelKind::kDecisionTree, annotation::ModelKind::kRandomForest,
        annotation::ModelKind::kLogisticRegression, annotation::ModelKind::kKnn}) {
    core::TranslatorOptions opt;
    opt.classifier.model = kind;
    Scores s = Evaluate(ctx, fleet, opt, training).complemented;
    std::printf("%-22s | %7.1f%% %7.1f%%\n", annotation::ModelKindName(kind),
                s.region * 100, s.event * 100);
  }

  std::printf("\n=== Ablation: splitter density radius ===\n\n");
  std::printf("%12s | %8s %8s\n", "eps_space_m", "region%", "event%");
  for (double eps : {1.5, 3.0, 5.0, 8.0}) {
    core::TranslatorOptions opt;
    opt.annotator.splitter.eps_space = eps;
    Scores s = Evaluate(ctx, fleet, opt, training).complemented;
    std::printf("%12.1f | %7.1f%% %7.1f%%\n", eps, s.region * 100, s.event * 100);
  }

  std::printf("\n=== Ablation: cleaner smoothing window ===\n\n");
  std::printf("%12s | %8s %8s\n", "window", "region%", "event%");
  for (int window : {0, 3, 7, 15}) {
    core::TranslatorOptions opt;
    opt.cleaner.smoothing_window = static_cast<size_t>(window);
    Scores s = Evaluate(ctx, fleet, opt, training).complemented;
    std::printf("%12d | %7.1f%% %7.1f%%\n", window, s.region * 100, s.event * 100);
  }
  std::printf("\n");
}

// Timing counterpart: cost of each layer combination. Without complementing
// only the clean+annotate phase runs, sequence by sequence.
void BM_AblationLayers(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  static auto fleet = bench::MakeFleet(ctx, 8, bench::DefaultNoise(7), 321);
  core::TranslatorOptions opt;
  opt.enable_cleaning = state.range(0) != 0;
  const bool complement = state.range(1) != 0;
  std::shared_ptr<const core::Engine> engine = bench::MakeEngine(ctx, opt);
  std::vector<positioning::PositioningSequence> raws = bench::Raws(fleet);
  positioning::RecordBlock block;
  for (auto _ : state) {
    if (complement) {
      benchmark::DoNotOptimize(bench::TranslateBatch(engine, raws));
      continue;
    }
    for (const positioning::PositioningSequence& raw : raws) {
      block.AssignFrom(raw);
      benchmark::DoNotOptimize(engine->CleanAndAnnotate(&block));
    }
  }
  state.SetLabel(std::string(opt.enable_cleaning ? "clean" : "noclean") + "+" +
                 (complement ? "compl" : "nocompl"));
}
BENCHMARK(BM_AblationLayers)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  ReportAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
