// stream_mall — the live path as an open loop. One driver thread replays a
// pre-generated feed of short, overlapping device sessions (Poisson arrivals,
// loadgen short-session itineraries, default error model) into one
// StreamSession of a Service with 2 pool workers. Records go out in timestamp
// order at a fixed sim-to-wall compression, Poll runs on a fixed simulated
// interval, and a bench-side sink appends every result to an on-disk
// TripStore with default settings before stamping delivery. Complementing
// uses the engine's frozen baseline knowledge.
#include <algorithm>
#include <cstdio>

#include "accounting.h"
#include "trace.h"
#include "workloads.h"

namespace trips::perf {

namespace {

constexpr uint64_t kVenueSeed = 0x6d616c6cull;  // "mall"
constexpr int kItineraries = 1024;
/// Simulated milliseconds replayed per wall millisecond.
constexpr double kSimPerWall = 1000.0;
/// Offered load, records per wall second: about 12% of what the system
/// sustained on a 4-core x86-64 host (see spec.json for the calibration).
constexpr double kOfferedRecordsPerSec = 100000.0;
constexpr DurationMs kPollInterval = 15 * kMillisPerSecond;
/// The driver thread (the only busy thread: flushes translate inline) moves
/// to the next CPU at most this often, before a Poll; see CpuRotator.
constexpr uint64_t kRotateNs = 50'000'000;
constexpr TimestampMs kFeedBegin = 9 * kMillisPerHour;
/// Host-speed sampling period during the timed phase (see HostProbe).
constexpr uint64_t kProbePeriodNs = 25'000'000;

core::StreamOptions StreamPolicy() { return loadgen::ScenarioConfig::ShortSessionStream(); }

class StreamMall : public Workload {
 public:
  Status Setup(const RunConfig& config) override {
    TRIPS_ASSIGN_OR_RETURN(venue_, BuildVenue("mall", 3, kVenueSeed));
    Rng rng(config.seed);
    TRIPS_ASSIGN_OR_RETURN(std::vector<Itinerary> itineraries,
                           MakeItineraries(*venue_.short_generator, kItineraries, &rng));
    const double sessions_per_s =
        kOfferedRecordsPerSec / kSimPerWall / MeanRecords(itineraries);
    const DurationMs window =
        static_cast<DurationMs>(config.seconds * 1000.0 * kSimPerWall);
    feed_ = MakeSessionFeed({itineraries}, {1.0}, sessions_per_s, window, kFeedBegin,
                            "s-", &rng);
    core::ServiceOptions options;
    options.worker_threads = 2;
    service_ = std::make_unique<core::Service>(venue_.engine, options);
    store::StoreOptions store_options;
    store_options.directory = config.work_dir + "/store";
    store_options.metrics = service_->stats_registry();
    TRIPS_ASSIGN_OR_RETURN(store_, store::TripStore::Open(store_options));
    session_ = service_->NewStreamSession(StreamPolicy());
    return Status::OK();
  }

  Status Run(const RunConfig& config, Report* report) override {
    const core::Engine& engine = *venue_.engine;
    const core::StreamOptions policy = StreamPolicy();
    obs::MetricsRegistry& registry = *service_->stats_registry();
    obs::Gauge* buffered = registry.gauge("stream.buffered_records");
    SpanRecorder spans(config.trace);
    OpenLoopDriver driver(NowNs);

    // ---- delivery: store append, then the delivery stamp ----------------------
    constexpr uint64_t kNoDue = 0;
    uint64_t current_due = kNoDue;  // due time of the call releasing results
    std::vector<double> latency_ms;
    std::vector<Delivery> deliveries;
    std::vector<core::TranslationResult> full;  // parity-sampled sessions
    uint64_t sink_allocs = 0;
    session_->SetSink([&](core::TranslationResult result) {
      Status status;
      {
        ScopedSpan span(&spans, "append");
        const uint64_t allocs = AllocationCount();
        status = store_->Append(result.semantics).status();
        sink_allocs += AllocationCount() - allocs;
      }
      if (current_due != kNoDue) latency_ms.push_back(driver.LatencyMsSince(current_due));
      ++report->attempted;
      if (!status.ok()) {
        ++report->failed;
        report->Check(false, "TripStore::Append: " + status.ToString());
      }
      const uint32_t session = SessionOf(result.raw.device_id);
      Retain(session, std::move(result), &deliveries, &full);
    });
    auto call = [&](const Status& status, const char* what) {
      ++report->attempted;
      if (!status.ok()) {
        ++report->failed;
        report->Check(false, std::string(what) + ": " + status.ToString());
      }
    };

    // ---- timed phase -------------------------------------------------------------
    const EngineCounters engine0 = EngineCounters::Of({&engine});
    auto due_of = [this](TimestampMs t) {
      return static_cast<uint64_t>(static_cast<double>(t - feed_.begin) * 1e6 / kSimPerWall);
    };
    uint64_t polls = 0, ingest_ns = 0, ingest_calls = 0, poll_allocs = 0;
    int64_t buffered_max = 0;
    CpuRotator rotator(kRotateNs);
    auto poll = [&](TimestampMs now) {
      buffered_max = std::max(buffered_max, buffered->Value());
      rotator.Tick(driver.Now());  // moves while early, not on the result's clock
      current_due = driver.WaitUntilDue(due_of(now));
      ScopedSpan span(&spans, "poll");
      const uint64_t allocs = AllocationCount();
      call(session_->Poll(now).status(), "StreamSession::Poll");
      poll_allocs += AllocationCount() - allocs;
      ++polls;
    };
    if (config.trace) SetAllocationCounting(true);
    auto probe = std::make_unique<HostProbe>(config.host, kProbePeriodNs);
    driver.Start();
    TimestampMs next_poll = feed_.begin + kPollInterval;
    for (const IngestEvent& e : feed_.events) {
      while (next_poll < e.t) {
        poll(next_poll);
        next_poll += kPollInterval;
      }
      const PlannedSession& s = feed_.sessions[e.session];
      current_due = driver.WaitUntilDue(due_of(e.t));
      const uint64_t t0 = config.trace ? NowNs() : 0;
      call(session_->Ingest(s.device.id, s.device.raw.records[e.index]).status(),
           "StreamSession::Ingest");
      if (config.trace) {
        ingest_ns += NowNs() - t0;
        ++ingest_calls;
      }
    }
    // Keep polling on schedule until every session has gone quiet long enough
    // to be released by an age-based flush.
    const TimestampMs last = feed_.events.empty() ? feed_.begin : feed_.events.back().t;
    while (next_poll <= last + policy.flush_after + 2 * kPollInterval) {
      poll(next_poll);
      next_poll += kPollInterval;
    }
    current_due = kNoDue;
    const size_t released_by_schedule = deliveries.size();
    call(session_->FlushAll().status(), "StreamSession::FlushAll");
    const double wall_s = static_cast<double>(driver.Now() - driver.start_ns()) / 1e9;
    probe.reset();
    SetAllocationCounting(false);
    const EngineCounters engine1 = EngineCounters::Of({&engine});

    // Persist the store (outside the timed phase; the checkpoint a live
    // deployment takes periodically).
    const uint64_t persist0 = NowNs();
    call(store_->Flush(), "TripStore::Flush");
    store_->WaitForCompaction();
    const double persist_ms = static_cast<double>(NowNs() - persist0) / 1e6;

    // ---- accounting and correctness, outside the timed phase --------------------
    const obs::MetricsSnapshot snap = registry.Snap();
    const uint64_t dropped_buffers = snap.counter_or("stream.dropped_small_buffers");
    const FeedCheck check =
        CheckFeed(feed_, deliveries, full, {&engine}, policy, dropped_buffers);
    const auto loss = check.ledger.LossByReason();
    report->Check(loss.count("unexplained") == 0,
                  "records lost without a named reason: " +
                      std::to_string(loss.count("unexplained") ? loss.at("unexplained") : 0));
    report->Check(check.ledger.over_delivered() == 0,
                  "records delivered that were never offered");
    report->Check(check.parity_failures == 0,
                  std::to_string(check.parity_failures) + " of " +
                      std::to_string(check.whole_checked) +
                      " whole sessions differ from Engine::Translate");
    report->Check(store_->Stats().sequences == deliveries.size(),
                  "store sequences differ from delivered results");
    report->Check(session_->PendingRecords() == 0, "records left buffered after FlushAll");

    // ---- end-to-end metrics ---------------------------------------------------------
    std::vector<double> lat = latency_ms;
    const LatencyStats stats = Summarize(&lat);
    report->E2e("records_per_s", Ratio(static_cast<double>(check.records_delivered), wall_s), "1/s");
    report->E2e("latency_p50_ms", stats.p50, "ms");
    report->Layer("stream.result_p90_ms", SupportedOrZero(stats.count, 0.90, stats.p90), "ms");
    report->Layer("stream.result_p99_ms", SupportedOrZero(stats.count, 0.99, stats.p99), "ms");
    report->samples["latency_p50_ms"] = stats.count;
    report->samples["stream.result_p90_ms"] = stats.count;
    report->samples["stream.result_p99_ms"] = stats.count;
    report->E2e("region_match_pct", check.agreement.region_pct(), "%");
    report->E2e("event_match_pct", check.agreement.event_pct(), "%");
    report->E2e("delivered_record_ratio", check.ledger.delivered_ratio(), "ratio");

    // ---- deterministic counters ---------------------------------------------------
    auto& c = report->counters;
    c["schedule_hash"] = feed_.hash;
    c["sessions"] = feed_.sessions.size();
    c["records_offered"] = check.ledger.offered();
    c["records_delivered"] = check.records_delivered;
    c["sequences_delivered"] = deliveries.size();
    c["sequences_released_by_schedule"] = released_by_schedule;
    c["whole_sessions_checked"] = check.whole_checked;
    c["triplets_delivered"] = check.triplets;
    c["gaps_found"] = check.gaps_found;
    c["gaps_filled"] = check.gaps_filled;
    c["snapped_records"] = check.snapped;
    c["routing_misses"] = engine1.misses - engine0.misses;
    c["polls"] = polls;
    c["dropped_small_buffers"] = dropped_buffers;
    for (const auto& [reason, records] : loss) c["dropped." + reason] = records;
    c["store_sequences"] = store_->Stats().sequences;
    c["store_bytes"] = snap.counter_or("store.persisted_bytes");

    // ---- per-layer metrics (traced run) ---------------------------------------------
    report->Layer("harness.lost_record_ratio", check.ledger.lost_ratio(), "ratio");
    report->Layer("harness.failed_call_ratio",
                  Ratio(static_cast<double>(report->failed),
                        static_cast<double>(report->attempted)),
                  "ratio");
    if (config.trace) {
      const double rec = static_cast<double>(snap.counter_or("translate.records"));
      ReportRegistryLayers(snap, check, deliveries.size(), polls, buffered_max, wall_s,
                           service_->worker_count(), report);
      ReportDsmLayer(engine0, engine1, rec, report);
      size_t snippets = 0, sampled = 0;
      for (size_t i = 0; i < full.size() && sampled < 256; ++i, ++sampled) {
        snippets += annotation::SplitSequence(full[i].cleaned,
                                              engine.options().annotator.splitter)
                        .size();
      }
      report->Layer("annotation.snippets_per_sequence",
                    Ratio(static_cast<double>(snippets), static_cast<double>(sampled)),
                    "count");
      report->Layer("annotation.allocs_per_record",
                    Ratio(static_cast<double>(poll_allocs - sink_allocs), rec), "count");
      size_t edges = 0;
      for (const auto& [from, row] : engine.knowledge().transition_prob) edges += row.size();
      report->Layer("complement.knowledge_edges", static_cast<double>(edges), "count");
      report->Layer("stream.ingest_ns_per_record",
                    Ratio(static_cast<double>(ingest_ns), static_cast<double>(ingest_calls)),
                    "ns");
      std::vector<double> poll_ms = spans.DurationsMs("poll");
      const LatencyStats poll_stats = Summarize(&poll_ms);
      report->Layer("stream.poll_ms_p50", poll_stats.p50, "ms");
      report->Layer("stream.poll_ms_p99", poll_stats.p99, "ms");
      std::vector<double> append_ms = spans.DurationsMs("append");
      const LatencyStats append_stats = Summarize(&append_ms);
      report->Layer("store.append_us_p50", append_stats.p50 * 1e3, "us");
      report->Layer("store.append_us_p99", append_stats.p99 * 1e3, "us");
      report->Layer("store.persist_ms", persist_ms, "ms");
      std::vector<double> lag = driver.lag_ms();
      report->Layer("harness.generator_lag_p99_ms", Summarize(&lag).p99, "ms");
      // Tracing cost: spans recorded plus the two clock reads around each
      // Ingest, at the calibrated per-span cost, over the timed wall time.
      const double trace_ns =
          CalibrateSpanCostNs() *
          static_cast<double>(spans.spans().size() + ingest_calls);
      report->Layer("harness.trace_overhead_pct", 100.0 * trace_ns / (wall_s * 1e9), "%");
      if (!config.trace_out.empty() && !spans.WriteTsv(config.trace_out)) {
        report->Check(false, "cannot write spans to " + config.trace_out);
      }
    }
    session_->SetSink(nullptr);
    return Status::OK();
  }

 private:
  Venue venue_;
  SessionFeed feed_;
  std::unique_ptr<core::Service> service_;
  std::unique_ptr<store::TripStore> store_;
  std::unique_ptr<core::StreamSession> session_;
};

}  // namespace

std::unique_ptr<Workload> MakeStreamMall() { return std::make_unique<StreamMall>(); }

}  // namespace trips::perf
