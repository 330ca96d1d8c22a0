// cluster_city — a Cluster of four mall venues (1x, 1x, 4x and 16x scale,
// each with its own engine) under an open loop: one driver thread feeds a
// skewed session stream through IngestBatch in small batches, runs Poll on a
// simulated schedule and PersistAll periodically against on-disk stores
// (background compaction on the shared 2-worker pool), while one query thread
// issues a fixed mix of cross-venue queries at a fixed rate.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "accounting.h"
#include "trace.h"
#include "workloads.h"

namespace trips::perf {

namespace {

struct VenueSpec {
  const char* id;
  int shops_per_arm;
  double weight;  ///< share of session arrivals
};
// The hot venue takes most sessions; the 16x venue grows the routing and
// spatial-index working set.
constexpr VenueSpec kVenues[] = {
    {"mall-a", 3, 0.55}, {"mall-b", 3, 0.15}, {"mall-c", 12, 0.15}, {"mall-d", 48, 0.15}};
constexpr size_t kHotVenue = 0;
constexpr uint64_t kVenueSeed = 0x63697479ull;  // "city"
constexpr int kItinerariesPerVenue = 256;
constexpr double kSimPerWall = 1000.0;
/// Offered load, records per wall second: about 40% of where the cluster
/// saturated on a 4-core x86-64 host (see spec.json for the calibration).
constexpr double kOfferedRecordsPerSec = 150000.0;
constexpr size_t kBatchRecords = 64;
constexpr DurationMs kPollInterval = 60 * kMillisPerSecond;
constexpr DurationMs kPersistInterval = 1000 * kMillisPerSecond;
/// Query thread: fixed rate (wall) and mix.
constexpr double kQueriesPerSec = 100.0;
enum QueryKind : uint8_t { kHistory, kRegion, kRange, kAnalytics, kQueryKinds };
constexpr const char* kQueryNames[kQueryKinds] = {"device_history", "region_visitors",
                                                  "sequences_in_range", "analytics"};
constexpr double kQueryMix[kAnalytics] = {0.4, 0.3, 0.3};
/// Every this-many-th query is a city-wide BuildAnalytics (one every 4 s):
/// it scans every venue store on the shared pool for tens of ms, so it is
/// kept rare and evenly spaced rather than drawn at random.
constexpr size_t kAnalyticsEvery = 400;
constexpr DurationMs kRegionWindow = 10 * kMillisPerMinute;
constexpr DurationMs kRangeWindow = 2 * kMillisPerMinute;
constexpr TimestampMs kFeedBegin = 9 * kMillisPerHour;
// No CpuRotator here: with the pool workers and the query thread busy
// beside it, a pinned driver waits behind them instead of migrating (its
// run-to-run latency spread doubled in trials); the work already spreads
// over every core.
/// One pool worker: translation, persist and compaction still share it, and
/// the Poll's latency does not depend on how many vCPUs the shared host grants
/// at once (with two workers beside the driver and query threads the raw
/// result p50 spread 50% across ten runs).
constexpr size_t kWorkers = 1;
/// Host-speed sampling period during the timed phase (see HostProbe).
constexpr uint64_t kProbePeriodNs = 25'000'000;

struct Query {
  QueryKind kind = kHistory;
  uint64_t due_ns = 0;
  uint32_t venue = 0;
  dsm::RegionId region = 0;
  TimestampMs t0 = 0;
  TimestampMs t1 = 0;
  std::string device;
};

core::StreamOptions StreamPolicy() { return loadgen::ScenarioConfig::ShortSessionStream(); }

class ClusterCity : public Workload {
 public:
  Status Setup(const RunConfig& config) override {
    Rng rng(config.seed);
    std::vector<std::vector<Itinerary>> itineraries;
    std::vector<double> weights;
    double mean_records = 0;
    for (size_t v = 0; v < std::size(kVenues); ++v) {
      TRIPS_ASSIGN_OR_RETURN(Venue venue, BuildVenue(kVenues[v].id, kVenues[v].shops_per_arm,
                                                     kVenueSeed + v));
      TRIPS_ASSIGN_OR_RETURN(
          std::vector<Itinerary> its,
          MakeItineraries(*venue.short_generator, kItinerariesPerVenue, &rng));
      mean_records += kVenues[v].weight * MeanRecords(its);
      itineraries.push_back(std::move(its));
      weights.push_back(kVenues[v].weight);
      venues_.push_back(std::move(venue));
    }
    const double sessions_per_s = kOfferedRecordsPerSec / kSimPerWall / mean_records;
    const DurationMs window = static_cast<DurationMs>(config.seconds * 1000.0 * kSimPerWall);
    feed_ = MakeSessionFeed(itineraries, weights, sessions_per_s, window, kFeedBegin, "c-",
                            &rng);

    // The query schedule: fixed rate over the feed's wall span, parameters
    // drawn from the seed against what the feed has offered by then.
    queries_.clear();
    query_hash_ = kFnvOffset;
    const double span_s = config.seconds;
    const size_t count = static_cast<size_t>(span_s * kQueriesPerSec);
    size_t started = 0;  // sessions started by the query's simulated time
    for (size_t k = 0; k < count; ++k) {
      Query q;
      q.due_ns = static_cast<uint64_t>(static_cast<double>(k) * 1e9 / kQueriesPerSec);
      const TimestampMs now =
          kFeedBegin + static_cast<TimestampMs>(static_cast<double>(q.due_ns) / 1e6 *
                                                kSimPerWall);
      double pick = rng.Uniform(0, 1);
      int kind = 0;
      while (kind + 1 < kAnalytics && pick >= kQueryMix[kind]) pick -= kQueryMix[kind++];
      q.kind = (k + 1) % kAnalyticsEvery == 0 ? kAnalytics : static_cast<QueryKind>(kind);
      q.venue = static_cast<uint32_t>(rng.UniformInt(0, std::size(kVenues) - 1));
      const auto& regions = venues_[q.venue].dsm->regions();
      q.region = regions[static_cast<size_t>(
                             rng.UniformInt(0, static_cast<int64_t>(regions.size()) - 1))]
                     .id;
      const DurationMs window_ms = q.kind == kRegion ? kRegionWindow : kRangeWindow;
      q.t0 = now - window_ms;
      q.t1 = now;
      // A device whose session started before now.
      while (started < feed_.sessions.size() && feed_.sessions[started].start <= now) {
        ++started;
      }
      if (started > 0) {
        q.device = feed_.sessions[static_cast<size_t>(rng.UniformInt(
                                      0, static_cast<int64_t>(started) - 1))]
                       .device.id;
      }
      HashMix(&query_hash_, q.due_ns);
      HashMix(&query_hash_, static_cast<uint64_t>(q.kind) << 32 | q.venue);
      HashMix(&query_hash_, static_cast<uint64_t>(q.region));
      queries_.push_back(std::move(q));
    }

    cluster_ = std::make_unique<cluster::Cluster>(
        cluster::ClusterOptions{.worker_threads = kWorkers, .metrics = nullptr});
    for (size_t v = 0; v < venues_.size(); ++v) {
      cluster::VenueConfig venue;
      venue.venue_id = kVenues[v].id;
      venue.engine = venues_[v].engine;
      venue.stream = StreamPolicy();
      venue.store_directory = config.work_dir + "/" + kVenues[v].id;
      TRIPS_RETURN_NOT_OK(cluster_->AddVenue(std::move(venue)));
    }
    return Status::OK();
  }

  Status Run(const RunConfig& config, Report* report) override {
    const core::StreamOptions policy = StreamPolicy();
    obs::MetricsRegistry& registry = *cluster_->stats_registry();
    obs::Gauge* buffered = registry.gauge("stream.buffered_records");
    obs::Gauge* pool_depth = registry.gauge("pool.queue_depth");
    std::vector<const core::Engine*> engines;
    for (const Venue& v : venues_) engines.push_back(v.engine.get());

    SpanRecorder spans(config.trace);
    SpanRecorder query_spans(config.trace);
    OpenLoopDriver driver(NowNs);
    OpenLoopDriver query_driver(NowNs);

    // ---- delivery (pool workers or the driver thread) ---------------------------
    constexpr uint64_t kNoDue = 0;
    std::atomic<uint64_t> current_due{kNoDue};
    std::mutex delivery_mu;  // guards the three vectors below
    std::vector<double> latency_ms;
    std::vector<Delivery> deliveries;
    std::vector<core::TranslationResult> full;
    std::atomic<uint64_t> attempted{0}, failed{0};
    std::mutex errors_mu;
    std::vector<std::string> errors;
    auto call = [&](const Status& status, const char* what) {
      attempted.fetch_add(1, std::memory_order_relaxed);
      if (!status.ok()) {
        failed.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(errors_mu);
        errors.push_back(std::string(what) + ": " + status.ToString());
      }
    };
    cluster_->SetSink([&](const std::string&, core::TranslationResult result) {
      // The cluster appended the result to its venue store before calling.
      const uint64_t due = current_due.load(std::memory_order_acquire);
      const double latency = due == kNoDue ? -1 : driver.LatencyMsSince(due);
      const uint32_t session = SessionOf(result.raw.device_id);
      std::lock_guard<std::mutex> lock(delivery_mu);
      if (latency >= 0) latency_ms.push_back(latency);
      Retain(session, std::move(result), &deliveries, &full);
    });

    // ---- query thread -------------------------------------------------------------
    std::atomic<int64_t> depth_max{0};
    auto sample_depth = [&] {
      const int64_t d = pool_depth->Value();
      int64_t seen = depth_max.load(std::memory_order_relaxed);
      while (d > seen && !depth_max.compare_exchange_weak(seen, d)) {
      }
    };
    std::vector<double> query_latency_ms;
    std::atomic<bool> feed_done{false};
    auto run_queries = [&] {
      for (const Query& q : queries_) {
        if (feed_done.load(std::memory_order_acquire)) break;
        const uint64_t due = query_driver.WaitUntilDue(q.due_ns);
        {
          ScopedSpan span(&query_spans, kQueryNames[q.kind]);
          const store::TripStore* venue_store = cluster_->venue_store(kVenues[q.venue].id);
          switch (q.kind) {
            case kHistory:
              cluster_->DeviceHistoryAcrossVenues(q.device);
              break;
            case kRegion:
              venue_store->RegionVisitors(q.region, q.t0, q.t1);
              break;
            case kRange:
              venue_store->SequencesInRange(q.t0, q.t1);
              break;
            default:
              cluster_->BuildAnalytics();
              break;
          }
        }
        query_latency_ms.push_back(query_driver.LatencyMsSince(due));
        attempted.fetch_add(1, std::memory_order_relaxed);
        sample_depth();
      }
    };

    // ---- timed phase: the driver thread -------------------------------------------
    const EngineCounters engine0 = EngineCounters::Of(engines);
    auto due_of = [this](TimestampMs t) {
      return static_cast<uint64_t>(static_cast<double>(t - feed_.begin) * 1e6 / kSimPerWall);
    };
    uint64_t polls = 0, persists = 0, batches = 0, hot_records = 0;
    int64_t buffered_max = 0;
    std::vector<cluster::ClusterRecord> batch;
    batch.reserve(kBatchRecords);
    auto flush_batch = [&] {
      if (batch.empty()) return;
      ScopedSpan span(&spans, "ingest_batch");
      Result<size_t> accepted = cluster_->IngestBatch(batch);
      call(accepted.status(), "Cluster::IngestBatch");
      if (accepted.ok() && *accepted != batch.size()) {
        call(Status::FailedPrecondition("IngestBatch accepted " +
                                        std::to_string(*accepted) + " of " +
                                        std::to_string(batch.size())),
             "Cluster::IngestBatch");
      }
      batch.clear();
      ++batches;
    };
    auto timed_call = [&](TimestampMs t) {
      current_due.store(driver.WaitUntilDue(due_of(t)), std::memory_order_release);
    };
    auto probe = std::make_unique<HostProbe>(config.host, kProbePeriodNs);
    driver.Start();
    query_driver.StartAt(driver.start_ns());
    const uint64_t wall0 = driver.start_ns();
    std::jthread query_thread(run_queries);
    TimestampMs next_poll = feed_.begin + kPollInterval;
    TimestampMs next_persist = feed_.begin + kPersistInterval;
    auto scheduled = [&](TimestampMs until, bool inclusive) {
      // Polls and persists due before `until`, in time order. A partial batch
      // closes at each of them: it is sent when the Poll or PersistAll is due.
      while (inclusive ? std::min(next_poll, next_persist) <= until
                       : std::min(next_poll, next_persist) < until) {
        const bool is_poll = next_poll <= next_persist;
        timed_call(is_poll ? next_poll : next_persist);
        flush_batch();
        if (is_poll) {
          buffered_max = std::max(buffered_max, buffered->Value());
          ScopedSpan span(&spans, "poll");
          call(cluster_->Poll(next_poll), "Cluster::Poll");
          sample_depth();
          ++polls;
          next_poll += kPollInterval;
        } else {
          ScopedSpan span(&spans, "persist");
          call(cluster_->PersistAll(), "Cluster::PersistAll");
          ++persists;
          next_persist += kPersistInterval;
        }
      }
    };
    for (const IngestEvent& e : feed_.events) {
      scheduled(e.t, false);
      const PlannedSession& s = feed_.sessions[e.session];
      if (s.venue == kHotVenue) ++hot_records;
      batch.push_back({kVenues[s.venue].id, s.device.id, s.device.raw.records[e.index]});
      if (batch.size() == kBatchRecords) {
        timed_call(e.t);
        flush_batch();
      }
    }
    if (!batch.empty()) {
      timed_call(feed_.events.back().t);
      flush_batch();
    }
    const TimestampMs last = feed_.events.empty() ? feed_.begin : feed_.events.back().t;
    scheduled(last + policy.flush_after + 2 * kPollInterval, true);
    feed_done.store(true, std::memory_order_release);
    current_due.store(kNoDue, std::memory_order_release);
    call(cluster_->FlushAll(), "Cluster::FlushAll");
    const double wall_s = static_cast<double>(NowNs() - wall0) / 1e9;
    query_thread.join();
    probe.reset();
    call(cluster_->PersistAll(), "Cluster::PersistAll");
    for (const Venue& v : venues_) {
      cluster_->venue_store(v.id)->WaitForCompaction();
    }
    const EngineCounters engine1 = EngineCounters::Of(engines);
    cluster_->SetSink(nullptr);
    report->attempted = attempted.load();
    report->failed = failed.load();
    for (const std::string& e : errors) report->Check(false, e);

    // ---- accounting and correctness, outside the timed phase --------------------
    const obs::MetricsSnapshot snap = registry.Snap();
    const uint64_t dropped_buffers = snap.counter_or("stream.dropped_small_buffers");
    const FeedCheck check = CheckFeed(feed_, deliveries, full, engines, policy, dropped_buffers);
    const cluster::ClusterStats stats = cluster_->Stats();
    size_t venue_sequences = 0;
    for (const Venue& v : venues_) {
      venue_sequences += cluster_->venue_store(v.id)->Stats().sequences;
    }
    const auto loss = check.ledger.LossByReason();
    report->Check(deliveries.size() == stats.stored_sequences,
                  "results delivered (" + std::to_string(deliveries.size()) +
                      ") != Stats().stored_sequences (" +
                      std::to_string(stats.stored_sequences) + ")");
    report->Check(stats.stored_sequences == venue_sequences,
                  "Stats().stored_sequences != sum of venue store sequences");
    report->Check(stats.ingested == feed_.events.size(),
                  "records ingested (" + std::to_string(stats.ingested) +
                      ") != records offered (" + std::to_string(feed_.events.size()) + ")");
    report->Check(stats.dropped_unknown_venue == 0, "records dropped for an unknown venue");
    report->Check(loss.count("unexplained") == 0,
                  "records lost without a named reason: " +
                      std::to_string(loss.count("unexplained") ? loss.at("unexplained") : 0));
    report->Check(check.ledger.over_delivered() == 0,
                  "records delivered that were never offered");
    report->Check(check.parity_failures == 0,
                  std::to_string(check.parity_failures) + " of " +
                      std::to_string(check.whole_checked) +
                      " whole sessions differ from Engine::Translate");

    // ---- end-to-end metrics ---------------------------------------------------------
    const LatencyStats stats_lat = Summarize(&latency_ms);
    report->E2e("records_per_s", Ratio(static_cast<double>(check.records_delivered), wall_s),
                "1/s");
    report->E2e("latency_p50_ms", stats_lat.p50, "ms");
    report->Layer("cluster.result_p90_ms",
                  SupportedOrZero(stats_lat.count, 0.90, stats_lat.p90), "ms");
    report->Layer("cluster.result_p99_ms",
                  SupportedOrZero(stats_lat.count, 0.99, stats_lat.p99), "ms");
    report->samples["latency_p50_ms"] = stats_lat.count;
    report->samples["cluster.result_p90_ms"] = stats_lat.count;
    report->samples["cluster.result_p99_ms"] = stats_lat.count;
    report->E2e("region_match_pct", check.agreement.region_pct(), "%");
    report->E2e("event_match_pct", check.agreement.event_pct(), "%");
    report->E2e("delivered_record_ratio", check.ledger.delivered_ratio(), "ratio");

    // ---- deterministic counters ---------------------------------------------------
    auto& c = report->counters;
    c["schedule_hash"] = feed_.hash;
    c["query_schedule_hash"] = query_hash_;
    c["sessions"] = feed_.sessions.size();
    c["records_offered"] = check.ledger.offered();
    c["records_offered_hot_venue"] = hot_records;
    c["records_delivered"] = check.records_delivered;
    c["sequences_delivered"] = deliveries.size();
    c["whole_sessions_checked"] = check.whole_checked;
    c["triplets_delivered"] = check.triplets;
    c["gaps_found"] = check.gaps_found;
    c["gaps_filled"] = check.gaps_filled;
    c["snapped_records"] = check.snapped;
    c["routing_misses"] = engine1.misses - engine0.misses;
    c["polls"] = polls;
    c["persists"] = persists;
    c["ingest_batches"] = batches;
    c["dropped_small_buffers"] = dropped_buffers;
    for (const auto& [reason, records] : loss) c["dropped." + reason] = records;
    c["store_sequences"] = stats.stored_sequences;

    // ---- per-layer metrics (traced run) ---------------------------------------------
    report->Layer("harness.lost_record_ratio", check.ledger.lost_ratio(), "ratio");
    report->Layer("harness.failed_call_ratio",
                  Ratio(static_cast<double>(report->failed),
                        static_cast<double>(report->attempted)),
                  "ratio");
    if (config.trace) {
      const double rec = static_cast<double>(snap.counter_or("translate.records"));
      ReportRegistryLayers(snap, check, deliveries.size(), polls, buffered_max, wall_s,
                           kWorkers, report);
      ReportDsmLayer(engine0, engine1, rec, report);
      std::vector<double> poll_ms = spans.DurationsMs("poll");
      const LatencyStats poll_stats = Summarize(&poll_ms);
      report->Layer("cluster.poll_ms_p50", poll_stats.p50, "ms");
      report->Layer("cluster.poll_ms_p99", poll_stats.p99, "ms");
      const auto totals = spans.TotalTimeByName();
      auto total_of = [&totals](const char* name) {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0 : static_cast<double>(it->second);
      };
      report->Layer("cluster.ingest_batch_ns_per_record",
                    Ratio(total_of("ingest_batch"), static_cast<double>(feed_.events.size())),
                    "ns");
      report->Layer("cluster.hot_venue_share",
                    Ratio(static_cast<double>(hot_records),
                          static_cast<double>(feed_.events.size())),
                    "ratio");
      const LatencyStats query_stats = Summarize(&query_latency_ms);
      report->Layer("cluster.query_p50_ms", query_stats.p50, "ms");
      report->Layer("cluster.query_p99_ms", query_stats.p99, "ms");
      const obs::HistogramSummary append = HistogramOf(snap, "store.append_ns");
      report->Layer("store.append_us_p50", static_cast<double>(append.p50) / 1e3, "us");
      report->Layer("store.append_us_p99", static_cast<double>(append.p99) / 1e3, "us");
      std::vector<double> persist_ms = spans.DurationsMs("persist");
      report->Layer("store.persist_ms", Summarize(&persist_ms).p50, "ms");
      for (int k = 0; k < kQueryKinds; ++k) {
        std::vector<double> ms = query_spans.DurationsMs(kQueryNames[k]);
        const LatencyStats q = Summarize(&ms);
        report->Layer(std::string("store.query_us_p50.") + kQueryNames[k], q.p50 * 1e3, "us");
        report->Layer(std::string("store.query_us_p99.") + kQueryNames[k], q.p99 * 1e3, "us");
      }
      report->Layer("store.materializations_per_query",
                    Ratio(static_cast<double>(snap.counter_or("store.materializations")),
                          static_cast<double>(query_stats.count)),
                    "count");
      report->Layer("pool.queue_depth_max", static_cast<double>(depth_max.load()), "count");
      std::vector<double> lag = driver.lag_ms();
      lag.insert(lag.end(), query_driver.lag_ms().begin(), query_driver.lag_ms().end());
      report->Layer("harness.generator_lag_p99_ms", Summarize(&lag).p99, "ms");
      const double trace_ns =
          CalibrateSpanCostNs() *
          static_cast<double>(spans.spans().size() + query_spans.spans().size());
      report->Layer("harness.trace_overhead_pct", 100.0 * trace_ns / (wall_s * 1e9), "%");
      if (!config.trace_out.empty() && !spans.WriteTsv(config.trace_out)) {
        report->Check(false, "cannot write spans to " + config.trace_out);
      }
    }
    return Status::OK();
  }

 private:
  std::vector<Venue> venues_;
  SessionFeed feed_;
  std::vector<Query> queries_;
  uint64_t query_hash_ = kFnvOffset;
  std::unique_ptr<cluster::Cluster> cluster_;
};

}  // namespace

std::unique_ptr<Workload> MakeClusterCity() { return std::make_unique<ClusterCity>(); }

}  // namespace trips::perf
