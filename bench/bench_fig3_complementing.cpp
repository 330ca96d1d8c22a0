// Experiment F3c (paper Fig. 3, Complementing layer): gap-recovery quality of
// MAP inference with learned mobility knowledge vs. (i) a uniform prior and
// (ii) no complementing, as the dropout-gap rate grows; plus the effect of
// corpus size on the learned knowledge. Expected shape: complementing lifts
// the time-weighted region agreement, learned knowledge beats the uniform
// prior, and the margin grows with corpus size.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.h"

using namespace trips;
using bench::MallContext;

namespace {

/// Mean region agreement of `output` (the final semantics, or the
/// annotation-only original_semantics: complementing off) with ground truth,
/// matching results to devices by id.
double MeanRegionAgreement(const std::vector<bench::NoisyDevice>& fleet,
                           const std::vector<core::TranslationResult>& results,
                           core::MobilitySemanticsSequence core::TranslationResult::*output =
                               &core::TranslationResult::semantics) {
  double total = 0;
  int n = 0;
  for (const core::TranslationResult& r : results) {
    for (const bench::NoisyDevice& nd : fleet) {
      if (nd.truth.truth.device_id != r.semantics.device_id) continue;
      total += core::CompareSemantics(nd.truth.semantics, r.*output).region_match;
      ++n;
    }
  }
  return n > 0 ? total / n : 0;
}

/// The three arms of one fleet: no complementing (the annotation output),
/// complementing with the uniform prior, and with knowledge learned from the
/// fleet itself.
struct Arms {
  double off = 0;
  double uniform = 0;
  double learned = 0;
  size_t inferred = 0;  // triplets inferred with learned knowledge
};

Arms TranslateArms(const std::shared_ptr<const core::Engine>& engine,
                   const std::vector<bench::NoisyDevice>& fleet) {
  std::vector<core::TranslationResult> uniform =
      bench::TranslateBatch(engine, bench::Raws(fleet), /*learn_knowledge=*/false);
  std::vector<core::TranslationResult> learned =
      bench::TranslateBatch(engine, bench::Raws(fleet));
  Arms arms;
  arms.off = MeanRegionAgreement(fleet, uniform, &core::TranslationResult::original_semantics);
  arms.uniform = MeanRegionAgreement(fleet, uniform);
  arms.learned = MeanRegionAgreement(fleet, learned);
  for (const auto& r : learned) arms.inferred += r.complement_report.triplets_inferred;
  return arms;
}

void ReportGapRecovery() {
  MallContext ctx = MallContext::Make(7, 3);
  std::shared_ptr<const core::Engine> engine = bench::MakeEngine(ctx);
  std::printf("=== Fig. 3 / Complementing: gap recovery ===\n\n");
  std::printf("%10s | %12s %12s %12s | %10s\n", "gaps/hour", "no_compl",
              "uniform", "learned", "inferred");

  for (double gaps_per_hour : {2.0, 4.0, 8.0, 12.0}) {
    positioning::ErrorModelOptions noise = bench::DefaultNoise(7);
    noise.gaps_per_hour = gaps_per_hour;
    noise.gap_min = 2 * kMillisPerMinute;
    noise.gap_max = 8 * kMillisPerMinute;
    auto fleet = bench::MakeFleet(ctx, 16, noise,
                                  static_cast<uint64_t>(gaps_per_hour * 100));
    Arms arms = TranslateArms(engine, fleet);
    std::printf("%10.0f | %11.1f%% %11.1f%% %11.1f%% | %10zu\n", gaps_per_hour,
                arms.off * 100, arms.uniform * 100, arms.learned * 100,
                arms.inferred);
  }

  // Popularity-skew sweep: the more concentrated the traffic, the more the
  // learned transition knowledge should beat the uniform prior.
  std::printf("\nbiased traffic (Zipf skew over shop popularity), gaps/hour = 8:\n");
  std::printf("%10s | %12s %12s %12s\n", "zipf_skew", "no_compl", "uniform",
              "learned");
  for (double skew : {0.0, 1.0, 2.0}) {
    mobility::GeneratorOptions gopt;
    gopt.popularity_skew = skew;
    mobility::MobilityGenerator skewed(ctx.dsm.get(), ctx.planner.get(), gopt);
    positioning::ErrorModelOptions noise = bench::DefaultNoise(7);
    noise.gaps_per_hour = 8.0;
    noise.gap_min = 2 * kMillisPerMinute;
    noise.gap_max = 8 * kMillisPerMinute;
    Rng rng(static_cast<uint64_t>(skew * 1000) + 5);
    std::vector<bench::NoisyDevice> fleet;
    for (int i = 0; i < 24; ++i) {
      auto dev = skewed.GenerateDevice("dev-" + std::to_string(i), 0, &rng);
      if (!dev.ok()) std::abort();
      bench::NoisyDevice nd;
      nd.truth = std::move(dev).ValueOrDie();
      nd.raw = positioning::ApplyErrorModel(nd.truth.truth, noise, &rng);
      fleet.push_back(std::move(nd));
    }
    Arms arms = TranslateArms(engine, fleet);
    std::printf("%10.1f | %11.1f%% %11.1f%% %11.1f%%\n", skew, arms.off * 100,
                arms.uniform * 100, arms.learned * 100);
  }

  // Knowledge-corpus-size ablation.
  std::printf("\nknowledge corpus size vs. observed transitions:\n");
  std::printf("%10s %14s\n", "devices", "transitions");
  for (int devices : {2, 8, 32, 64}) {
    auto fleet = bench::MakeFleet(ctx, devices, bench::DefaultNoise(7),
                                  static_cast<uint64_t>(devices));
    complement::MobilityKnowledge learned =
        engine->BuildKnowledge(bench::TranslateBatch(engine, bench::Raws(fleet)));
    std::printf("%10d %14zu\n", devices, learned.observed_transitions);
  }
  std::printf("\n");
}

void BM_KnowledgeBuild(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  static auto fleet = bench::MakeFleet(ctx, 16, bench::DefaultNoise(7), 131);
  static std::vector<core::MobilitySemanticsSequence> annotated = [] {
    std::shared_ptr<const core::Engine> engine = bench::MakeEngine(ctx);
    std::vector<core::MobilitySemanticsSequence> out;
    for (const auto& nd : fleet) {
      out.push_back(engine->Translate(nd.raw).original_semantics);
    }
    return out;
  }();
  for (auto _ : state) {
    complement::KnowledgeBuilder builder(ctx.dsm.get());
    for (const auto& seq : annotated) builder.AddSequence(seq);
    auto k = builder.Build();
    benchmark::DoNotOptimize(k);
  }
}
BENCHMARK(BM_KnowledgeBuild)->Unit(benchmark::kMillisecond);

/// The (from, to) region pairs of every annotated gap the complementor
/// searches, with the knowledge learned from the same 64-device mall fleet:
/// the traffic InferPath actually serves (most such pairs are direct edges
/// of the learned knowledge, which uniform random pairs rarely are).
struct LearnedGaps {
  complement::MobilityKnowledge knowledge;
  std::vector<std::pair<dsm::RegionId, dsm::RegionId>> pairs;
};

const MallContext& InferContext() {
  static MallContext ctx = MallContext::Make(7, 3);
  return ctx;
}

const LearnedGaps& FleetGaps() {
  static LearnedGaps gaps = [] {
    const MallContext& ctx = InferContext();
    auto fleet = bench::MakeFleet(ctx, 64, bench::DefaultNoise(7), 64);
    std::shared_ptr<const core::Engine> engine = bench::MakeEngine(ctx);
    std::vector<core::TranslationResult> results =
        bench::TranslateBatch(engine, bench::Raws(fleet));
    LearnedGaps out;
    out.knowledge = engine->BuildKnowledge(results);
    const complement::ComplementorOptions opt = engine->options().complementor;
    for (const core::TranslationResult& r : results) {
      const auto& sem = r.original_semantics.semantics;
      for (size_t i = 0; i + 1 < sem.size(); ++i) {
        if (sem[i + 1].range.begin - sem[i].range.end < opt.min_gap) continue;
        if (sem[i].region == sem[i + 1].region) continue;  // no search needed
        out.pairs.emplace_back(sem[i].region, sem[i + 1].region);
      }
    }
    if (out.pairs.empty()) std::abort();
    return out;
  }();
  return gaps;
}

/// InferPath at max_inferred_steps = range(0), over uniform-prior knowledge
/// (range(1) = 0, what the stream and cluster paths search) or the fleet's
/// learned knowledge (1), between uniformly random regions (range(2) = 0) or
/// on the fleet's real gaps (1).
void BM_InferPath(benchmark::State& state) {
  const MallContext& ctx = InferContext();
  static complement::MobilityKnowledge uniform =
      complement::MobilityKnowledge::Uniform(*ctx.dsm);
  static std::vector<std::pair<dsm::RegionId, dsm::RegionId>> random_pairs = [&] {
    Rng rng(7);
    const auto& regions = ctx.dsm->regions();
    std::vector<std::pair<dsm::RegionId, dsm::RegionId>> pairs;
    for (int i = 0; i < 4096; ++i) {
      pairs.emplace_back(
          regions[static_cast<size_t>(rng.UniformInt(0, regions.size() - 1))].id,
          regions[static_cast<size_t>(rng.UniformInt(0, regions.size() - 1))].id);
    }
    return pairs;
  }();
  const auto& knowledge = state.range(1) != 0 ? FleetGaps().knowledge : uniform;
  const auto& pairs = state.range(2) != 0 ? FleetGaps().pairs : random_pairs;
  complement::ComplementorOptions opt;
  opt.max_inferred_steps = static_cast<int>(state.range(0));
  complement::Complementor complementor(ctx.dsm.get(), &knowledge, opt);
  size_t next = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[next];
    next = next + 1 == pairs.size() ? 0 : next + 1;
    benchmark::DoNotOptimize(complementor.InferPath(a, b));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["pairs"] = static_cast<double>(pairs.size());
  // Priority-queue pops per search, a deterministic work count: each pair
  // becomes one gap of a two-triplet sequence.
  size_t pops = 0;
  for (const auto& [a, b] : pairs) {
    core::MobilitySemanticsSequence seq;
    seq.semantics.resize(2);
    seq.semantics[0].region = a;
    seq.semantics[1].region = b;
    seq.semantics[1].range = {opt.min_gap, opt.min_gap};
    complement::ComplementReport report;
    complementor.Complement(seq, &report);
    pops += report.infer_states_popped;
  }
  state.counters["pops_per_call"] =
      static_cast<double>(pops) / static_cast<double>(pairs.size());
}
BENCHMARK(BM_InferPath)
    ->ArgsProduct({{2, 4, 8}, {0, 1}, {0, 1}})
    ->ArgNames({"steps", "learned", "gaps"})
    ->Unit(benchmark::kMicrosecond);

/// Compiling learned knowledge (what each learning batch request pays once).
void BM_CompileKnowledge(benchmark::State& state) {
  const MallContext& ctx = InferContext();
  const complement::MobilityKnowledge& knowledge = FleetGaps().knowledge;
  for (auto _ : state) {
    complement::Complementor complementor(ctx.dsm.get(), &knowledge);
    benchmark::DoNotOptimize(complementor);
  }
  state.counters["edges"] = static_cast<double>(
      complement::Complementor(ctx.dsm.get(), &knowledge).EdgeCount());
}
BENCHMARK(BM_CompileKnowledge)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  ReportGapRecovery();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
