// trips_bench — one benchmark command for TRIPS.
//
//   trips_bench --workload <batch_mall|stream_mall|cluster_city> --seed <n>
//               --seconds <s> --trace <0|1> [--work-dir <dir>]
//               [--trace-out <file>]
//
// Sets the workload up three times (setup_s is the median), runs it once for
// the given seconds, checks its outputs, and prints a human-readable report,
// a "counters" line with the deterministic work counters, and, as the last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// metrics are the end-to-end ones untraced and the per-layer ones traced.
// Exits 1 when a correctness check fails, 2 on a usage or set-up error.
//
// Every reported time (and a closed loop's throughput) is restated at a
// nominal host speed: a benchmark-owned reference kernel (HostSpeed) is timed
// beside the work — from a probe thread during the set-ups and an open loop's
// run, between the requests of a closed loop — and each time is multiplied by
// the nominal kernel time over the mean measured one (set-up and run each
// have their own). The human-readable report prints both factors, so raw times
// can be recovered.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "accounting.h"
#include "trace.h"
#include "workloads.h"

using namespace trips;
using namespace trips::perf;

namespace {

constexpr int kSetupReps = 3;
/// Host-speed sampling period during the set-ups (see HostProbe).
constexpr uint64_t kSetupProbePeriodNs = 25'000'000;


int Usage(const char* msg) {
  std::fprintf(stderr,
               "trips_bench: %s\nusage: trips_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] [--trace-out <file>]\n",
               msg);
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// One "name value unit (n=samples)" line per metric.
void PrintRows(const std::map<std::string, Metric>& metrics,
               const std::map<std::string, uint64_t>& samples) {
  for (const auto& [name, m] : metrics) {
    auto n = samples.find(name);
    if (n != samples.end()) {
      std::printf("  %-44s %16.6f %-6s (n=%" PRIu64 ")\n", name.c_str(), m.value,
                  m.unit.c_str(), n->second);
    } else {
      std::printf("  %-44s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
}

void PrintFinal(const Report& report, bool trace) {
  const auto& metrics = trace ? report.per_layer : report.end_to_end;
  std::string out = "{\"correct\": ";
  out += report.errors.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + JsonNumber(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  RunConfig config;
  std::string work_dir = ".bench_work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--work-dir") {
      work_dir = value;
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (MakeWorkload(workload_name) == nullptr) return Usage("unknown --workload");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");

  HostSpeed host;
  config.host = &host;
  auto probe = std::make_unique<HostProbe>(&host, kSetupProbePeriodNs);

  // ---- set-up, repeated; the median is setup_s -------------------------------
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    workload.reset();
    config.work_dir = work_dir + "/setup-" + std::to_string(rep);
    std::error_code ec;
    std::filesystem::remove_all(config.work_dir, ec);
    std::filesystem::create_directories(config.work_dir, ec);
    if (ec) return Usage(("cannot create " + config.work_dir).c_str());
    const uint64_t t0 = NowNs();
    workload = MakeWorkload(workload_name);
    Status status = workload->Setup(config);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!status.ok()) {
      std::fprintf(stderr, "trips_bench: setup failed: %s\n", status.ToString().c_str());
      return 2;
    }
    if (rep + 1 < kSetupReps) {
      workload.reset();
      std::filesystem::remove_all(config.work_dir, ec);
    }
  }
  std::sort(setup_s.begin(), setup_s.end());
  probe.reset();
  const size_t run_from = host.mark();
  const double setup_factor = host.Factor(0, run_from);

  // ---- run ---------------------------------------------------------------------
  Report report;
  Status status = workload->Run(config, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "trips_bench: run failed: %s\n", status.ToString().c_str());
    return 2;
  }
  workload.reset();
  const size_t run_to = host.mark();  // the samples taken during the run
  const double run_factor = host.Factor(run_from, run_to);
  ScaleToNominal(&report.end_to_end, report.host_rates, run_factor);
  ScaleToNominal(&report.per_layer, report.host_rates, run_factor);
  report.E2e("setup_s", NearestRank(setup_s, 0.5) * setup_factor, "s");
  if (config.trace) {
    report.Layer("harness.host_ref_ms", host.MeanMs(run_from, run_to), "ms");
  }
  report.E2e("peak_rss_mb", PeakRssMb(), "MiB");
  // Every per-layer metric is reported; layers a workload never exercises
  // read 0.
  if (config.trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      if (report.per_layer.count(name) == 0) report.Layer(name, 0, unit);
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);

  // ---- report ------------------------------------------------------------------
  std::printf("workload %s seed %" PRIu64 " seconds %g trace %d\n",
              workload_name.c_str(), config.seed, config.seconds, config.trace ? 1 : 0);
  std::printf("-- host: mean reference sample %.4f ms in set-up, %.4f ms in the run "
              "(%zu samples; nominal %.4f ms); times below are raw times x %.4f "
              "(set-up x %.4f)\n",
              host.MeanMs(0, run_from), host.MeanMs(run_from, run_to),
              run_to - run_from, HostSpeed::kNominalMs, run_factor, setup_factor);
  std::printf("-- end-to-end\n");
  PrintRows(report.end_to_end, report.samples);
  if (config.trace) {
    std::printf("-- per layer\n");
    PrintRows(report.per_layer, report.samples);
  }
  std::printf("-- calls attempted %" PRIu64 " failed %" PRIu64 "\n", report.attempted,
              report.failed);
  for (const std::string& e : report.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::string counters = "counters {";
  bool first = true;
  for (const auto& [name, v] : report.counters) {
    counters += (first ? "\"" : ", \"") + name + "\": " + std::to_string(v);
    first = false;
  }
  std::printf("%s}\n", counters.c_str());
  PrintFinal(report, config.trace);
  return report.errors.empty() ? 0 : 1;
}
