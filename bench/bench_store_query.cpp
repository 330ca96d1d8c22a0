// TripStore numbers: ingest throughput, query latency percentiles, and the
// mmap/partitioning/compaction storage axes on a scaled corpus.
//
// The fleet is translated once through a core::Service (128 devices on the
// simulated 7-floor mall), then tiled TRIPS_BENCH_STORE_SCALE times (default
// 100) with each tile renamed and shifted onto its own day — ~100x the base
// corpus, spread over ~100 time partitions. The store is measured on its own,
// so the rows isolate the storage layer from translation cost:
//
//   - ingest: Append of every translated sequence, memory-only and persisted
//     (segment codec + one fsync-less write per sealed segment);
//   - cold open + first window: TripStore::Open on the scaled corpus followed
//     by one narrow SequencesInRange, eager decode vs mmap/lazy — the v2
//     format's reason to exist ("cold" means a cold store, not a cold page
//     cache: the axis isolates decode work, which dwarfs the read either way);
//   - windowed scans: one-hour SequencesInRange windows rotating across the
//     days, time-partitioned layout vs flat;
//   - queries: p50/p95/max wall latency of DeviceHistory (per-device merge)
//     and RegionVisitors (posting-fenced window scan) over a mixed workload;
//   - compaction: merging a flush-fragmented day back into full segments.
//
//   ./bench_store_query [--benchmark_filter=...]
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

using namespace trips;
using bench::MallContext;

namespace {

constexpr int kReportDevices = 128;

/// Tiles of the base fleet appended to the scaled corpus (~100x by default).
size_t StoreBenchScale() {
  const char* raw = std::getenv("TRIPS_BENCH_STORE_SCALE");
  if (raw != nullptr && *raw != '\0') {
    long parsed = std::strtol(raw, nullptr, 10);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 100;
}

/// Translates `count` noisy devices once and returns their final semantics.
std::vector<core::MobilitySemanticsSequence> TranslateFleet(const MallContext& ctx,
                                                            int count) {
  auto engine = core::Engine::Builder().BorrowDsm(ctx.dsm.get()).Build();
  if (!engine.ok()) std::abort();
  core::Service service(engine.ValueOrDie(), {.worker_threads = 4});

  auto fleet = bench::MakeFleet(ctx, count, bench::DefaultNoise(7), 977);
  core::TranslationRequest request;
  for (const auto& nd : fleet) request.sequences.push_back(nd.raw);
  auto response = service.Translate(request);
  if (!response.ok()) std::abort();

  std::vector<core::MobilitySemanticsSequence> sequences;
  sequences.reserve(response->results.size());
  for (auto& result : response->results) sequences.push_back(std::move(result.semantics));
  return sequences;
}

/// The base fleet copied `scale` times; tile t's devices are renamed and
/// shifted onto day t, so the corpus spans `scale` day partitions.
std::vector<core::MobilitySemanticsSequence> TiledCorpus(
    const std::vector<core::MobilitySemanticsSequence>& base, size_t scale) {
  std::vector<core::MobilitySemanticsSequence> out;
  out.reserve(base.size() * scale);
  for (size_t t = 0; t < scale; ++t) {
    TimestampMs shift = static_cast<TimestampMs>(t) * kMillisPerDay;
    // Named first: GCC 12 in Release builds flags `"t" + std::to_string(t)`
    // with a false -Wrestrict.
    const std::string tile = std::to_string(t);
    for (const core::MobilitySemanticsSequence& seq : base) {
      core::MobilitySemanticsSequence copy = seq;
      copy.device_id = "t" + tile + "." + seq.device_id;
      for (core::MobilitySemantic& s : copy.semantics) {
        s.range.begin += shift;
        s.range.end += shift;
      }
      out.push_back(std::move(copy));
    }
  }
  return out;
}

std::unique_ptr<store::TripStore> MemoryStore(
    const std::vector<core::MobilitySemanticsSequence>& sequences) {
  auto stored = store::TripStore::Open({});
  if (!stored.ok()) std::abort();
  for (const auto& seq : sequences) {
    if (!stored.ValueOrDie()->Append(seq).ok()) std::abort();
  }
  return std::move(stored).ValueOrDie();
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

/// The scaled on-disk corpus every storage-axis benchmark reads: one
/// partitioned directory and one flat one, both sealed and checkpointed.
struct ScaledCorpus {
  std::vector<core::MobilitySemanticsSequence> sequences;
  size_t triplets = 0;
  size_t scale = 0;
  std::string partitioned_dir;
  std::string flat_dir;
  TimeRange span;
  DurationMs base_duration = 0;  ///< wall span of one tile (one day's traffic)
  size_t segments = 0;
  size_t partitions = 0;

  static const ScaledCorpus& Get() {
    static ScaledCorpus corpus = Build();
    return corpus;
  }

  static ScaledCorpus Build() {
    MallContext ctx = MallContext::Make(7, 3);
    ScaledCorpus corpus;
    corpus.scale = StoreBenchScale();
    corpus.sequences = TiledCorpus(TranslateFleet(ctx, kReportDevices), corpus.scale);
    for (const auto& seq : corpus.sequences) corpus.triplets += seq.Size();

    auto tmp = std::filesystem::temp_directory_path();
    corpus.partitioned_dir = (tmp / "trips_bench_store_part").string();
    corpus.flat_dir = (tmp / "trips_bench_store_flat").string();
    const std::pair<std::string, DurationMs> layouts[] = {
        {corpus.partitioned_dir, kMillisPerDay},
        {corpus.flat_dir, 0},
    };
    for (const auto& [dir, partition_ms] : layouts) {
      std::filesystem::remove_all(dir);
      auto stored = store::TripStore::Open(
          {.directory = dir, .partition_ms = partition_ms, .compaction = false});
      if (!stored.ok()) std::abort();
      for (const auto& seq : corpus.sequences) {
        if (!stored.ValueOrDie()->Append(seq).ok()) std::abort();
      }
      if (!stored.ValueOrDie()->Flush().ok()) std::abort();
      store::StoreStats stats = stored.ValueOrDie()->Stats();
      corpus.span = stats.span;
      if (partition_ms > 0) {
        corpus.segments = stats.segments;
        corpus.partitions = stats.partitions;
      }
    }
    corpus.base_duration =
        corpus.span.end - corpus.span.begin -
        static_cast<DurationMs>(corpus.scale - 1) * kMillisPerDay;
    return corpus;
  }

  /// A narrow window inside day `day`'s traffic (an hour, or the middle half
  /// of the tile if its span is shorter than that).
  TimeRange DayWindow(size_t day) const {
    TimestampMs base = span.begin +
                       static_cast<TimestampMs>(day % scale) * kMillisPerDay +
                       base_duration / 4;
    return {base, base + std::min<DurationMs>(kMillisPerHour, base_duration / 2)};
  }
};

struct LatencyDist {
  double p50 = 0, p95 = 0, max = 0;
};

LatencyDist Percentiles(std::vector<double> micros) {
  std::sort(micros.begin(), micros.end());
  LatencyDist d;
  d.p50 = micros[micros.size() / 2];
  d.p95 = micros[micros.size() * 95 / 100];
  d.max = micros.back();
  return d;
}

/// The default payload: ingest + query + storage-axis tables.
void ReportStoreNumbers() {
  const ScaledCorpus& corpus = ScaledCorpus::Get();
  const auto& sequences = corpus.sequences;
  std::printf("=== TripStore, %zu sequences / %zu triplets (%zux tiling), "
              "%zu segments / %zu partitions ===\n\n",
              sequences.size(), corpus.triplets, corpus.scale, corpus.segments,
              corpus.partitions);

  // ---- ingest --------------------------------------------------------------
  auto measure_ingest = [&](const char* label, store::StoreOptions options) {
    auto start = std::chrono::steady_clock::now();
    auto stored = store::TripStore::Open(std::move(options));
    if (!stored.ok()) std::abort();
    for (const auto& seq : sequences) {
      if (!stored.ValueOrDie()->Append(seq).ok()) std::abort();
    }
    if (!stored.ValueOrDie()->Flush().ok()) std::abort();
    double ms = MillisSince(start);
    std::printf("ingest %-10s | %8.1f ms | %8.0f seq/s | %9.0f triplets/s\n", label,
                ms, sequences.size() / (ms / 1000.0), corpus.triplets / (ms / 1000.0));
  };
  measure_ingest("memory", {});
  std::string dir =
      (std::filesystem::temp_directory_path() / "trips_bench_store").string();
  std::filesystem::remove_all(dir);
  measure_ingest("persisted", {.directory = dir});
  std::filesystem::remove_all(dir);
  std::printf("\n");

  // ---- cold open + first window: eager vs mmap -----------------------------
  TimeRange window = corpus.DayWindow(corpus.scale / 2);
  auto measure_cold = [&](const char* label, bool mmap) {
    auto start = std::chrono::steady_clock::now();
    auto stored = store::TripStore::Open({.directory = corpus.partitioned_dir,
                                          .mmap = mmap,
                                          .compaction = false});
    if (!stored.ok()) std::abort();
    auto rows = stored.ValueOrDie()->SequencesInRange(window.begin, window.end);
    double ms = MillisSince(start);
    std::printf("cold open + 1h window %-7s | %8.1f ms | %4zu rows | "
                "%zu/%zu segments decoded\n",
                label, ms, rows.size(),
                stored.ValueOrDie()->Stats().materialized_segments,
                stored.ValueOrDie()->Stats().segments);
    return ms;
  };
  double eager_ms = measure_cold("eager", false);
  double mmap_ms = measure_cold("mmap", true);
  std::printf("cold-path speedup           | %7.1fx\n\n", eager_ms / mmap_ms);

  // ---- windowed scans: partitioned vs flat ---------------------------------
  auto measure_windows = [&](const char* label, const std::string& directory) {
    auto stored = store::TripStore::Open(
        {.directory = directory, .compaction = false});
    if (!stored.ok()) std::abort();
    // Warm every segment so the axis isolates pruning, not first-touch decode.
    stored.ValueOrDie()->ForEachSequence(
        [](store::TripStore::SequenceId, const core::MobilitySemanticsSequence&) {});
    constexpr int kWindowRounds = 512;
    size_t rows = 0;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kWindowRounds; ++i) {
      TimeRange w = corpus.DayWindow(static_cast<size_t>(i) * 7);
      rows += stored.ValueOrDie()->SequencesInRange(w.begin, w.end).size();
    }
    double ms = MillisSince(start);
    std::printf("1h windows %-12s | %8.1f us/query | %.0f rows avg\n", label,
                ms * 1000.0 / kWindowRounds,
                static_cast<double>(rows) / kWindowRounds);
  };
  measure_windows("partitioned", corpus.partitioned_dir);
  measure_windows("flat", corpus.flat_dir);
  std::printf("\n");

  // ---- compaction: a flush-fragmented day merged back to full segments -----
  {
    std::string frag_dir =
        (std::filesystem::temp_directory_path() / "trips_bench_store_frag").string();
    std::filesystem::remove_all(frag_dir);
    auto stored = store::TripStore::Open(
        {.directory = frag_dir, .compaction = false});
    if (!stored.ok()) std::abort();
    // One flush per 16 sequences: the pathology compaction exists to undo.
    size_t appended = 0;
    for (size_t i = 0; i < sequences.size() && appended < 256; ++i, ++appended) {
      if (!stored.ValueOrDie()->Append(sequences[i]).ok()) std::abort();
      if (appended % 16 == 15 && !stored.ValueOrDie()->Flush().ok()) std::abort();
    }
    if (!stored.ValueOrDie()->Flush().ok()) std::abort();
    size_t before = stored.ValueOrDie()->Stats().segments;
    auto start = std::chrono::steady_clock::now();
    if (!stored.ValueOrDie()->Compact().ok()) std::abort();
    std::printf("compaction                  | %8.1f ms | %zu -> %zu segments\n\n",
                MillisSince(start), before, stored.ValueOrDie()->Stats().segments);
    std::filesystem::remove_all(frag_dir);
  }

  // ---- queries -------------------------------------------------------------
  auto reopened = store::TripStore::Open(
      {.directory = corpus.partitioned_dir, .worker_threads = 4, .compaction = false});
  if (!reopened.ok()) std::abort();
  const store::TripStore& db = *reopened.ValueOrDie();
  std::vector<std::string> devices = db.Devices();
  core::MobilityAnalytics analytics = db.BuildAnalytics();
  std::vector<core::RegionStats> top = analytics.TopRegionsByVisits(16);
  store::StoreStats stats = db.Stats();

  constexpr int kRounds = 2000;
  std::vector<double> history_us, visitors_us;
  history_us.reserve(kRounds);
  visitors_us.reserve(kRounds);
  size_t history_triplets = 0, visitor_triplets = 0;
  for (int i = 0; i < kRounds; ++i) {
    const std::string& device = devices[static_cast<size_t>(i) % devices.size()];
    auto t0 = std::chrono::steady_clock::now();
    history_triplets += db.DeviceHistory(device).Size();
    history_us.push_back(MillisSince(t0) * 1000.0);

    const core::RegionStats& region = top[static_cast<size_t>(i) % top.size()];
    TimestampMs begin =
        stats.span.begin + (static_cast<size_t>(i) % 8) * kMillisPerHour / 2;
    t0 = std::chrono::steady_clock::now();
    visitor_triplets += db.RegionVisitors(region.region, begin, begin + kMillisPerHour)
                            .size();
    visitors_us.push_back(MillisSince(t0) * 1000.0);
  }
  LatencyDist history = Percentiles(std::move(history_us));
  LatencyDist visitors = Percentiles(std::move(visitors_us));
  std::printf("%-30s | %8s | %8s | %8s | %s\n", "query (x2000)", "p50_us", "p95_us",
              "max_us", "avg hits");
  std::printf("%-30s | %8.1f | %8.1f | %8.1f | %.1f\n", "DeviceHistory", history.p50,
              history.p95, history.max,
              static_cast<double>(history_triplets) / kRounds);
  std::printf("%-30s | %8.1f | %8.1f | %8.1f | %.1f\n", "RegionVisitors(1h window)",
              visitors.p50, visitors.p95, visitors.max,
              static_cast<double>(visitor_triplets) / kRounds);
  std::printf("\n");
}

// ---- google-benchmark registrations (CI smoke / filtered runs) -------------

const std::vector<core::MobilitySemanticsSequence>& SharedFleet() {
  static MallContext ctx = MallContext::Make(7, 3);
  static auto sequences = TranslateFleet(ctx, 64);
  return sequences;
}

void BM_StoreAppend(benchmark::State& state) {
  const auto& sequences = SharedFleet();
  size_t triplets = 0;
  for (auto _ : state) {
    auto stored = store::TripStore::Open({});
    if (!stored.ok()) std::abort();
    for (const auto& seq : sequences) {
      if (!stored.ValueOrDie()->Append(seq).ok()) std::abort();
      triplets += seq.Size();
    }
    benchmark::DoNotOptimize(stored);
  }
  state.counters["triplets/s"] =
      benchmark::Counter(static_cast<double>(triplets), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StoreAppend)->Unit(benchmark::kMillisecond);

void BM_DeviceHistory(benchmark::State& state) {
  static auto stored = MemoryStore(SharedFleet());
  static std::vector<std::string> devices = stored->Devices();
  size_t i = 0;
  for (auto _ : state) {
    auto history = stored->DeviceHistory(devices[i++ % devices.size()]);
    benchmark::DoNotOptimize(history);
  }
}
BENCHMARK(BM_DeviceHistory)->Unit(benchmark::kMicrosecond);

void BM_RegionVisitors(benchmark::State& state) {
  static auto stored = MemoryStore(SharedFleet());
  static store::StoreStats stats = stored->Stats();
  static std::vector<core::RegionStats> top =
      stored->BuildAnalytics().TopRegionsByVisits(8);
  size_t i = 0;
  for (auto _ : state) {
    const core::RegionStats& region = top[i % top.size()];
    TimestampMs begin = stats.span.begin + (i % 8) * kMillisPerHour / 2;
    auto visits = stored->RegionVisitors(region.region, begin, begin + kMillisPerHour);
    benchmark::DoNotOptimize(visits);
    ++i;
  }
}
BENCHMARK(BM_RegionVisitors)->Unit(benchmark::kMicrosecond);

/// Cold TripStore::Open of the scaled corpus + one narrow window, eager
/// decode — the parity reference path (every segment decoded up front).
void BM_ColdOpenFirstWindow_Eager(benchmark::State& state) {
  const ScaledCorpus& corpus = ScaledCorpus::Get();
  TimeRange window = corpus.DayWindow(corpus.scale / 2);
  for (auto _ : state) {
    auto stored = store::TripStore::Open({.directory = corpus.partitioned_dir,
                                          .mmap = false,
                                          .compaction = false});
    if (!stored.ok()) std::abort();
    auto rows = stored.ValueOrDie()->SequencesInRange(window.begin, window.end);
    benchmark::DoNotOptimize(rows);
  }
  state.counters["segments"] = static_cast<double>(corpus.segments);
}
BENCHMARK(BM_ColdOpenFirstWindow_Eager)->Unit(benchmark::kMillisecond);

/// Same cold open + first window through the mmap path: Open reads only
/// footers, the window materializes just the partitions it overlaps.
void BM_ColdOpenFirstWindow_Mmap(benchmark::State& state) {
  const ScaledCorpus& corpus = ScaledCorpus::Get();
  TimeRange window = corpus.DayWindow(corpus.scale / 2);
  for (auto _ : state) {
    auto stored = store::TripStore::Open({.directory = corpus.partitioned_dir,
                                          .mmap = true,
                                          .compaction = false});
    if (!stored.ok()) std::abort();
    auto rows = stored.ValueOrDie()->SequencesInRange(window.begin, window.end);
    benchmark::DoNotOptimize(rows);
  }
  // Counter capture outside the timed loop: Stats() hydrates the deferred
  // indexes, which the open + window path under measurement never touches.
  size_t materialized = 0;
  {
    auto stored = store::TripStore::Open({.directory = corpus.partitioned_dir,
                                          .mmap = true,
                                          .compaction = false});
    if (!stored.ok()) std::abort();
    auto rows = stored.ValueOrDie()->SequencesInRange(window.begin, window.end);
    benchmark::DoNotOptimize(rows);
    materialized = stored.ValueOrDie()->Stats().materialized_segments;
  }
  state.counters["segments"] = static_cast<double>(corpus.segments);
  state.counters["decoded"] = static_cast<double>(materialized);
}
BENCHMARK(BM_ColdOpenFirstWindow_Mmap)->Unit(benchmark::kMillisecond);

void RunWindowScan(benchmark::State& state, const std::string& directory,
                   const ScaledCorpus& corpus) {
  auto stored = store::TripStore::Open(
      {.directory = directory, .compaction = false});
  if (!stored.ok()) std::abort();
  // Warm every segment so the axis isolates pruning, not first-touch decode.
  stored.ValueOrDie()->ForEachSequence(
      [](store::TripStore::SequenceId, const core::MobilitySemanticsSequence&) {});
  size_t i = 0;
  for (auto _ : state) {
    TimeRange w = corpus.DayWindow(i * 7);
    auto rows = stored.ValueOrDie()->SequencesInRange(w.begin, w.end);
    benchmark::DoNotOptimize(rows);
    ++i;
  }
}

/// One-hour windows against the day-partitioned layout: whole partitions are
/// pruned by the two-level (partition span, segment span) check.
void BM_WindowScan_Partitioned(benchmark::State& state) {
  const ScaledCorpus& corpus = ScaledCorpus::Get();
  RunWindowScan(state, corpus.partitioned_dir, corpus);
}
BENCHMARK(BM_WindowScan_Partitioned)->Unit(benchmark::kMicrosecond);

/// The same windows against the flat layout: only per-segment spans prune.
void BM_WindowScan_Flat(benchmark::State& state) {
  const ScaledCorpus& corpus = ScaledCorpus::Get();
  RunWindowScan(state, corpus.flat_dir, corpus);
}
BENCHMARK(BM_WindowScan_Flat)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // The latency study is the default payload; a filtered invocation (CI
  // smoke) gets exactly the benchmarks it asked for and nothing else.
  bool filtered = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_filter", 0) == 0) filtered = true;
  }
  if (!filtered) ReportStoreNumbers();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
