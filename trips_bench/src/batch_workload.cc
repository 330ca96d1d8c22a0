// batch_mall — the paper's offline workflow as a closed loop. One client
// submits Service::Translate requests (learn_knowledge = true) to a Service
// with 0 pool workers, each request a distinct pre-generated 64-device fleet
// on the 7-floor mall, cycling through the pool of fleets.
//
// The traced run alternates each fleet between Service::Translate and a
// layer-by-layer rebuild of the same translation from the layers' public
// entry points, with spans around each layer call; the rebuild must be
// byte-identical to the Service output.
#include <algorithm>
#include <cstdio>

#include "accounting.h"
#include "trace.h"
#include "workloads.h"

namespace trips::perf {

namespace {

constexpr int kFleets = 32;
constexpr int kDevicesPerFleet = 64;
constexpr int kTrainingDevices = 8;
// The closed loop runs for the configured seconds and at least this many
// requests, so request_p90_ms always has ten samples beyond it.
constexpr uint64_t kMinRequests = 100;
/// The client thread moves to the next CPU at most this often (between
/// requests); see CpuRotator.
constexpr uint64_t kRotateNs = 50'000'000;
constexpr uint64_t kVenueSeed = 0x6d616c6cull;  // "mall"

size_t KnowledgeEdges(const complement::MobilityKnowledge& k) {
  size_t edges = 0;
  for (const auto& [from, row] : k.transition_prob) edges += row.size();
  return edges;
}

struct Fleet {
  core::TranslationRequest request;  // learn_knowledge = true
  std::vector<core::MobilitySemanticsSequence> truth;  // by device id
  size_t records = 0;
};

/// Layer timings of the traced rebuild, accumulated over requests.
struct LayerTotals {
  uint64_t records = 0;
  uint64_t sequences = 0;
  uint64_t requests = 0;
  uint64_t split_ns = 0;
  uint64_t annotate_allocs = 0;
  uint64_t gaps_found = 0;
  uint64_t gaps_filled = 0;
  uint64_t snapped = 0;
  uint64_t knowledge_edges = 0;
  cleaning::CleaningStageMetrics passes;
  obs::Histogram scan, interpolate, smooth, snap;
  LayerTotals() {
    passes.scan_ns = &scan;
    passes.interpolate_ns = &interpolate;
    passes.smooth_ns = &smooth;
    passes.snap_ns = &snap;
  }
};

class BatchMall : public Workload {
 public:
  Status Setup(const RunConfig& config) override {
    TRIPS_ASSIGN_OR_RETURN(venue_, BuildVenue("mall", 3, kVenueSeed,
                                              kTrainingDevices));
    Rng rng(config.seed);
    schedule_hash_ = kFnvOffset;
    fleets_.clear();
    fleets_.resize(kFleets);
    for (int f = 0; f < kFleets; ++f) {
      Fleet& fleet = fleets_[static_cast<size_t>(f)];
      for (int i = 0; i < kDevicesPerFleet; ++i) {
        char id[32];
        std::snprintf(id, sizeof id, "f%02d-dev-%02d", f, i);
        TRIPS_ASSIGN_OR_RETURN(
            mobility::GeneratedDevice device,
            venue_.full_generator->GenerateDevice(id, i * kMillisPerMinute, &rng));
        positioning::PositioningSequence raw = positioning::ApplyErrorModel(
            device.truth, positioning::ErrorModelOptions{}, &rng);
        raw.device_id = id;
        for (const positioning::RawRecord& r : raw.records) {
          HashMix(&schedule_hash_, static_cast<uint64_t>(r.timestamp));
          HashMix(&schedule_hash_, static_cast<uint64_t>(r.location.floor));
          HashMix(&schedule_hash_,
                  static_cast<uint64_t>(static_cast<int64_t>(r.location.xy.x * 1000)));
        }
        fleet.records += raw.records.size();
        device.semantics.device_id = id;
        fleet.truth.push_back(std::move(device.semantics));
        fleet.request.sequences.push_back(std::move(raw));
      }
    }
    core::ServiceOptions options;
    options.worker_threads = 0;
    service_ = std::make_unique<core::Service>(venue_.engine, options);
    return Status::OK();
  }

  Status Run(const RunConfig& config, Report* report) override {
    const core::Engine& engine = *venue_.engine;
    SpanRecorder spans(config.trace);
    LayerTotals layers;
    cleaning::RawDataCleaner cleaner(&engine.dsm(), &engine.planner(),
                                     engine.options().cleaner);
    annotation::Annotator annotator(&engine.dsm(), &engine.classifier(),
                                    engine.options().annotator);

    // The layer-by-layer rebuild of BatchSession::Submit (0 workers).
    auto layered = [&](const Fleet& fleet, uint64_t request, SpanRecorder* rec,
                       LayerTotals* tot) {
      ScopedSpan req(rec, "request", request);
      std::vector<core::TranslationResult> results(fleet.request.sequences.size());
      positioning::RecordBlock block;
      for (size_t i = 0; i < fleet.request.sequences.size(); ++i) {
        core::TranslationResult& r = results[i];
        block.AssignFrom(fleet.request.sequences[i]);
        block.SortByTime();
        block.MaterializeTo(&r.raw);
        {
          ScopedSpan s(rec, "clean", request);
          cleaner.CleanBlock(&block, nullptr, &r.cleaning_report, nullptr,
                             &tot->passes);
        }
        block.MaterializeTo(&r.cleaned);
        annotation::AnnotateTimings timings;
        {
          ScopedSpan s(rec, "annotate", request);
          const uint64_t allocs = AllocationCount();
          r.original_semantics = annotator.Annotate(block, &timings);
          tot->annotate_allocs += AllocationCount() - allocs;
        }
        tot->split_ns += timings.split_ns;
        tot->records += r.raw.records.size();
        tot->snapped += r.cleaning_report.snapped;
      }
      complement::MobilityKnowledge learned;
      {
        ScopedSpan s(rec, "knowledge", request);
        learned = engine.BuildKnowledge(results);
      }
      const complement::MobilityKnowledge& knowledge =
          learned.observed_transitions > 0 ? learned : engine.knowledge();
      tot->knowledge_edges += KnowledgeEdges(knowledge);
      for (core::TranslationResult& r : results) {
        ScopedSpan s(rec, "complement", request);
        engine.Complement(&r, knowledge);
      }
      std::stable_sort(results.begin(), results.end(),
                       [](const core::TranslationResult& a,
                          const core::TranslationResult& b) {
                         return a.semantics.device_id < b.semantics.device_id;
                       });
      for (const core::TranslationResult& r : results) {
        tot->gaps_found += r.complement_report.gaps_found;
        tot->gaps_filled += r.complement_report.gaps_filled;
      }
      tot->sequences += results.size();
      ++tot->requests;
      return results;
    };
    auto bytes_equal = [](const std::vector<core::TranslationResult>& a,
                          const std::vector<core::TranslationResult>& b) {
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (ResultBytes(a[i]) != ResultBytes(b[i])) return false;
      }
      return true;
    };

    // ---- timed phase ----------------------------------------------------------
    const EngineCounters engine0 = EngineCounters::Of({&engine});
    std::vector<double> latency_ms;
    std::vector<double> traced_ms;
    Agreement agreement;
    uint64_t records = 0, sequences = 0, triplets = 0, gaps_found = 0,
             gaps_filled = 0, snapped = 0, first_cycle_records = 0;
    uint64_t routing_misses_first_cycle = 0;
    uint64_t traced_records = 0;
    if (config.trace) SetAllocationCounting(true);
    CpuRotator rotator(kRotateNs);
    const uint64_t t0 = NowNs();
    const uint64_t budget_ns = static_cast<uint64_t>(config.seconds * 1e9);
    uint64_t host_ns = 0;  // host-speed sampling, not part of the loop's wall time
    for (uint64_t i = 0;; ++i) {
      const uint64_t now = NowNs();
      if (i >= kMinRequests && now - t0 >= budget_ns) break;
      rotator.Tick(now);
      if (config.host != nullptr) {
        // The Service (0 workers) is idle between requests.
        config.host->Sample();
        host_ns += NowNs() - now;
      }
      const Fleet& fleet = fleets_[i % kFleets];
      // Traced run: the layer-by-layer rebuild of the same fleet, before the
      // Service request on odd requests and after it on even ones, so neither
      // side always runs on caches the other warmed.
      std::vector<core::TranslationResult> rebuilt;
      auto rebuild = [&] {
        const uint64_t ts = NowNs();
        rebuilt = layered(fleet, i, &spans, &layers);
        traced_ms.push_back(static_cast<double>(NowNs() - ts) / 1e6);
        traced_records += fleet.records;
      };
      if (config.trace && i % 2 == 1) rebuild();
      const uint64_t start = NowNs();
      Result<core::TranslationResponse> response = service_->Translate(fleet.request);
      const uint64_t end = NowNs();
      ++report->attempted;
      if (!response.ok()) {
        ++report->failed;
        report->Check(false, "Service::Translate: " + response.status().ToString());
        continue;
      }
      latency_ms.push_back(static_cast<double>(end - start) / 1e6);
      for (const core::TranslationResult& r : response->results) {
        records += r.raw.records.size();
      }
      if (i < static_cast<uint64_t>(kFleets)) {
        // First pass over the fleets: the deterministic counters and quality.
        first_cycle_records += fleet.records;
        for (size_t d = 0; d < response->results.size(); ++d) {
          const core::TranslationResult& r = response->results[d];
          ++sequences;
          triplets += r.semantics.semantics.size();
          gaps_found += r.complement_report.gaps_found;
          gaps_filled += r.complement_report.gaps_filled;
          snapped += r.cleaning_report.snapped;
          agreement.Add(fleet.truth[d], r.semantics);
        }
        if (i + 1 == static_cast<uint64_t>(kFleets)) {
          routing_misses_first_cycle = engine.routing_cache_stats().misses - engine0.misses;
        }
      }
      if (config.trace) {
        if (i % 2 == 0) rebuild();
        report->Check(bytes_equal(rebuilt, response->results),
                      "layered rebuild differs from Service::Translate");
      }
    }
    const double wall_s = static_cast<double>(NowNs() - t0 - host_ns) / 1e9;
    SetAllocationCounting(false);
    const EngineCounters engine1 = EngineCounters::Of({&engine});

    // ---- correctness, outside the timed phase -------------------------------
    // The layered rebuild of the first two fleets must match Service output
    // byte for byte (in the traced run every request was already compared).
    size_t snippets = 0, snippet_sequences = 0;
    uint64_t check_edges = 0;
    for (int f = 0; f < 2; ++f) {
      const Fleet& fleet = fleets_[static_cast<size_t>(f)];
      Result<core::TranslationResponse> response = service_->Translate(fleet.request);
      report->Check(response.ok(), "Service::Translate failed in the check");
      if (!response.ok()) continue;
      SpanRecorder off(false);
      LayerTotals unused;
      std::vector<core::TranslationResult> rebuilt = layered(fleet, 0, &off, &unused);
      report->Check(bytes_equal(rebuilt, response->results),
                    "layered rebuild differs from Service::Translate (fleet " +
                        std::to_string(f) + ")");
      if (f == 0) {
        for (const core::TranslationResult& r : rebuilt) {
          snippets +=
              annotation::SplitSequence(r.cleaned, engine.options().annotator.splitter)
                  .size();
          ++snippet_sequences;
        }
        check_edges = KnowledgeEdges(engine.BuildKnowledge(rebuilt));
      }
    }

    // ---- end-to-end metrics ---------------------------------------------------
    const LatencyStats lat = Summarize(&latency_ms);
    report->E2e("records_per_s", Ratio(static_cast<double>(records), wall_s), "1/s");
    report->host_rates.insert("records_per_s");  // a closed loop: the system's speed
    report->E2e("latency_p50_ms", lat.p50, "ms");
    report->Layer("batch.request_p90_ms", SupportedOrZero(lat.count, 0.90, lat.p90), "ms");
    report->samples["latency_p50_ms"] = lat.count;
    report->samples["batch.request_p90_ms"] = lat.count;
    report->E2e("region_match_pct", agreement.region_pct(), "%");
    report->E2e("event_match_pct", agreement.event_pct(), "%");
    report->E2e("delivered_record_ratio",
                Ratio(static_cast<double>(records),
                      static_cast<double>(RecordsOffered(report->attempted))),
                "ratio");

    // ---- deterministic counters (first pass over the fleets + the check) -----
    auto& c = report->counters;
    c["schedule_hash"] = schedule_hash_;
    c["records_offered"] = first_cycle_records;
    c["sequences_delivered"] = sequences;
    c["triplets_delivered"] = triplets;
    c["snippets_fleet0"] = snippets;
    c["gaps_found"] = gaps_found;
    c["gaps_filled"] = gaps_filled;
    c["knowledge_edges_fleet0"] = check_edges;
    c["snapped_records"] = snapped;
    c["routing_misses"] = routing_misses_first_cycle;
    c["dropped.unexplained"] = 0;
    c["store_sequences"] = 0;
    c["store_bytes"] = 0;

    // ---- per-layer metrics (traced run) ---------------------------------------
    report->Layer("harness.lost_record_ratio",
                  1.0 - report->end_to_end["delivered_record_ratio"].value, "ratio");
    report->Layer("harness.failed_call_ratio",
                  Ratio(static_cast<double>(report->failed),
                        static_cast<double>(report->attempted)),
                  "ratio");
    if (config.trace) {
      const auto self = spans.SelfTimeByName();
      const auto total = spans.TotalTimeByName();
      auto at = [](const std::map<std::string, uint64_t>& m, const char* k) {
        auto it = m.find(k);
        return it == m.end() ? 0.0 : static_cast<double>(it->second);
      };
      const double rec = static_cast<double>(layers.records);
      const double request_ns = at(total, "request");
      const double clean_ns = at(self, "clean");
      const double annotate_ns = at(self, "annotate");
      const double knowledge_ns = at(self, "knowledge");
      const double complement_ns = at(self, "complement");
      const double layer_ns = clean_ns + annotate_ns + knowledge_ns + complement_ns;
      report->Layer("cleaning.ns_per_record", Ratio(clean_ns, rec), "ns");
      report->Layer("cleaning.scan_ns_per_record",
                    Ratio(static_cast<double>(layers.scan.Summarize().sum), rec), "ns");
      report->Layer("cleaning.interpolate_ns_per_record",
                    Ratio(static_cast<double>(layers.interpolate.Summarize().sum), rec),
                    "ns");
      report->Layer("cleaning.smooth_ns_per_record",
                    Ratio(static_cast<double>(layers.smooth.Summarize().sum), rec), "ns");
      report->Layer("cleaning.snap_ns_per_record",
                    Ratio(static_cast<double>(layers.snap.Summarize().sum), rec), "ns");
      report->Layer("cleaning.share", Ratio(clean_ns, layer_ns), "ratio");
      report->Layer("cleaning.snapped_per_record",
                    Ratio(static_cast<double>(layers.snapped), rec), "ratio");
      report->Layer("annotation.split_ns_per_record",
                    Ratio(static_cast<double>(layers.split_ns), rec), "ns");
      report->Layer("annotation.split_share",
                    Ratio(static_cast<double>(layers.split_ns), layer_ns), "ratio");
      report->Layer("annotation.match_classify_ns_per_record",
                    Ratio(annotate_ns - static_cast<double>(layers.split_ns), rec), "ns");
      report->Layer("annotation.snippets_per_sequence",
                    Ratio(static_cast<double>(snippets),
                          static_cast<double>(snippet_sequences)),
                    "count");
      report->Layer("annotation.allocs_per_record",
                    Ratio(static_cast<double>(layers.annotate_allocs), rec), "count");
      report->Layer("complement.knowledge_build_ms_per_request",
                    Ratio(knowledge_ns / 1e6, static_cast<double>(layers.requests)),
                    "ms");
      report->Layer("complement.us_per_gap",
                    Ratio(complement_ns / 1e3, static_cast<double>(layers.gaps_found)),
                    "us");
      report->Layer("complement.share", Ratio(knowledge_ns + complement_ns, layer_ns),
                    "ratio");
      report->Layer("complement.gaps_per_sequence",
                    Ratio(static_cast<double>(layers.gaps_found),
                          static_cast<double>(layers.sequences)),
                    "count");
      report->Layer("complement.knowledge_edges",
                    Ratio(static_cast<double>(layers.knowledge_edges),
                          static_cast<double>(layers.requests)),
                    "count");
      report->Layer("complement.gap_fill_ratio",
                    Ratio(static_cast<double>(layers.gaps_filled),
                          static_cast<double>(layers.gaps_found)),
                    "ratio");
      report->Layer("batch.session_overhead_share",
                    Ratio(request_ns - layer_ns, request_ns), "ratio");
      ReportDsmLayer(engine0, engine1, static_cast<double>(records + traced_records), report);
      // Tracing overhead: the traced rebuild against Service::Translate on the
      // same fleets, request for request.
      double service_sum = 0, traced_sum = 0;
      for (double v : traced_ms) traced_sum += v;
      for (double v : latency_ms) service_sum += v;
      report->Layer("harness.trace_overhead_pct",
                    100.0 * (Ratio(traced_sum, service_sum) - 1.0), "%");
      if (!config.trace_out.empty() && !spans.WriteTsv(config.trace_out)) {
        report->Check(false, "cannot write spans to " + config.trace_out);
      }
    }
    return Status::OK();
  }

 private:
  // Records offered by `requests` requests cycling through the fleets.
  uint64_t RecordsOffered(uint64_t requests) const {
    uint64_t total = 0;
    for (uint64_t i = 0; i < requests; ++i) total += fleets_[i % kFleets].records;
    return total;
  }

  Venue venue_;
  std::vector<Fleet> fleets_;
  uint64_t schedule_hash_ = kFnvOffset;
  std::unique_ptr<core::Service> service_;
};

}  // namespace

std::unique_ptr<Workload> MakeBatchMall() { return std::make_unique<BatchMall>(); }

}  // namespace trips::perf
