// Experiment F3a (paper Fig. 3, Cleaning layer): repair quality and
// throughput as injected error rates grow. The no-cleaning pass-through is
// the baseline. Expected shape: cleaning reduces planar RMSE and floor
// errors at every noise level, with the margin growing with the error rate.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"

using namespace trips;
using bench::MallContext;

namespace {

void ReportCleaningSweep() {
  MallContext ctx = MallContext::Make(7, 3);
  cleaning::CleanerOptions copt;
  copt.smoothing_window = 3;
  cleaning::RawDataCleaner cleaner(ctx.dsm.get(), ctx.planner.get(), copt);

  std::printf("=== Fig. 3 / Cleaning: repair quality vs. injected error ===\n\n");
  std::printf("%8s %8s %8s | %9s %9s | %10s %10s | %9s %9s\n", "sigma_m",
              "floor%", "outlier%", "rmse_raw", "rmse_cln", "floor_raw",
              "floor_cln", "violations", "repaired");

  struct Level {
    double sigma, floor_rate, outlier_rate;
  };
  const Level levels[] = {
      {0.5, 0.00, 0.00}, {1.0, 0.02, 0.01}, {1.5, 0.05, 0.01},
      {2.0, 0.10, 0.03}, {3.0, 0.15, 0.05}, {4.0, 0.25, 0.10},
  };
  for (const Level& lvl : levels) {
    positioning::ErrorModelOptions noise;
    noise.xy_noise_sigma = lvl.sigma;
    noise.floor_error_rate = lvl.floor_rate;
    noise.outlier_rate = lvl.outlier_rate;
    noise.dropout_rate = 0;
    noise.gaps_per_hour = 0;
    noise.floor_count = 7;
    auto fleet = bench::MakeFleet(ctx, 8, noise, 404);

    double rmse_raw = 0, rmse_clean = 0;
    size_t floor_raw = 0, floor_clean = 0, violations = 0, repaired = 0, matched = 0;
    for (const bench::NoisyDevice& nd : fleet) {
      cleaning::CleaningReport report;
      positioning::RecordBlock block = positioning::RecordBlock::FromSequence(nd.raw);
      cleaner.CleanBlock(&block, nullptr, &report);
      positioning::PositioningSequence cleaned = block.ToSequence();
      positioning::ErrorStats before =
          positioning::CompareToTruth(nd.truth.truth, nd.raw);
      positioning::ErrorStats after =
          positioning::CompareToTruth(nd.truth.truth, cleaned);
      rmse_raw += before.planar_rmse * before.matched;
      rmse_clean += after.planar_rmse * after.matched;
      matched += before.matched;
      floor_raw += before.floor_errors;
      floor_clean += after.floor_errors;
      violations += report.speed_violations;
      repaired += report.floor_corrected + report.interpolated;
    }
    std::printf("%8.1f %8.0f %8.0f | %9.2f %9.2f | %10zu %10zu | %9zu %9zu\n",
                lvl.sigma, lvl.floor_rate * 100, lvl.outlier_rate * 100,
                rmse_raw / matched, rmse_clean / matched, floor_raw, floor_clean,
                violations, repaired);
  }
  std::printf("\n(baseline 'no cleaning' equals the rmse_raw / floor_raw"
              " columns by construction)\n\n");
}

void BM_CleanSequence(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  positioning::ErrorModelOptions noise = bench::DefaultNoise(7);
  noise.outlier_rate = 0.01 * state.range(0);
  noise.floor_error_rate = 0.02 * state.range(0);
  static auto fleet = bench::MakeFleet(ctx, 2, noise, 505);
  cleaning::RawDataCleaner cleaner(ctx.dsm.get(), ctx.planner.get());
  positioning::RecordBlock block;
  size_t records = 0;
  for (auto _ : state) {
    cleaning::CleaningReport report;
    block.AssignFrom(fleet[0].raw);
    cleaner.CleanBlock(&block, nullptr, &report);
    benchmark::DoNotOptimize(block.xs.data());
    records += fleet[0].raw.records.size();
  }
  state.counters["records/s"] =
      benchmark::Counter(static_cast<double>(records), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CleanSequence)->Arg(1)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_CleanSmoothing(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  static auto fleet = bench::MakeFleet(ctx, 1, bench::DefaultNoise(7), 606);
  cleaning::CleanerOptions copt;
  copt.smoothing_window = static_cast<size_t>(state.range(0));
  cleaning::RawDataCleaner cleaner(ctx.dsm.get(), ctx.planner.get(), copt);
  positioning::RecordBlock block;
  for (auto _ : state) {
    block.AssignFrom(fleet[0].raw);
    cleaner.CleanBlock(&block, nullptr);
    benchmark::DoNotOptimize(block.xs.data());
  }
}
BENCHMARK(BM_CleanSmoothing)->Arg(0)->Arg(3)->Arg(7)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  ReportCleaningSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
