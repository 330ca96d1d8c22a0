#include "loadgen/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "loadgen/event_list.h"
#include "positioning/error_model.h"
#include "util/rng.h"

namespace trips::loadgen {

namespace {

constexpr double kPi = 3.14159265358979323846;

// ---- schedule fingerprint ---------------------------------------------------

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// FNV-1a over the 8 bytes of `v`, little-endian.
void HashMix(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (i * 8)) & 0xffu;
    *h *= kFnvPrime;
  }
}

// ---- targets ----------------------------------------------------------------

// A single Service stream session behind the uniform ingest surface.
class ServiceTarget : public IngestTarget {
 public:
  ServiceTarget(std::shared_ptr<const core::Engine> engine,
                size_t worker_threads, const core::StreamOptions& stream)
      : service_(std::move(engine),
                 core::ServiceOptions{.worker_threads = worker_threads,
                                      .metrics = nullptr}),
        session_(service_.NewStreamSession(stream)) {}

  std::string Describe() const override { return "service"; }
  size_t venue_count() const override { return 1; }

  Status Ingest(size_t /*venue_index*/, const std::string& device,
                const positioning::RawRecord& record) override {
    return session_->Ingest(device, record).status();
  }
  Status Poll(TimestampMs now) override { return session_->Poll(now).status(); }
  Status FlushAll() override { return session_->FlushAll().status(); }
  size_t PendingRecords() const override { return session_->PendingRecords(); }
  obs::MetricsRegistry& registry() const override {
    return *service_.stats_registry();
  }
  void SetResultObserver(
      std::function<void(const core::TranslationResult&)> observer) override {
    session_->SetSink(
        [observer = std::move(observer)](core::TranslationResult result) {
          observer(result);
        });
  }

 private:
  core::Service service_;
  std::unique_ptr<core::StreamSession> session_;
};

// A multi-venue Cluster behind the uniform ingest surface. Venue ids are
// "venue-00".."venue-NN"; every venue runs the same engine with a memory-only
// store.
class ClusterTarget : public IngestTarget {
 public:
  ClusterTarget(std::shared_ptr<const core::Engine> engine, size_t venues,
                size_t worker_threads, const core::StreamOptions& stream)
      : cluster_(cluster::ClusterOptions{.worker_threads = worker_threads,
                                         .metrics = nullptr}) {
    for (size_t i = 0; i < venues; ++i) {
      char id[32];  // "venue-" + up to 20 digits
      std::snprintf(id, sizeof id, "venue-%02zu", i);
      cluster::VenueConfig venue;
      venue.venue_id = id;
      venue.engine = engine;
      venue.stream = stream;
      Status status = cluster_.AddVenue(std::move(venue));
      if (!status.ok() && init_.ok()) init_ = status;  // surfaced at Ingest
      venue_ids_.push_back(id);
    }
  }

  std::string Describe() const override {
    return "cluster[" + std::to_string(venue_ids_.size()) + "]";
  }
  size_t venue_count() const override {
    return venue_ids_.empty() ? 1 : venue_ids_.size();
  }

  Status Ingest(size_t venue_index, const std::string& device,
                const positioning::RawRecord& record) override {
    TRIPS_RETURN_NOT_OK(init_);
    return cluster_.Ingest(venue_ids_[venue_index % venue_ids_.size()], device,
                           record);
  }
  Status Poll(TimestampMs now) override { return cluster_.Poll(now); }
  Status FlushAll() override { return cluster_.FlushAll(); }
  size_t PendingRecords() const override { return cluster_.PendingRecords(); }
  obs::MetricsRegistry& registry() const override {
    return *cluster_.stats_registry();
  }
  void SetResultObserver(
      std::function<void(const core::TranslationResult&)> observer) override {
    cluster_.SetSink([observer = std::move(observer)](
                         const std::string& /*venue_id*/,
                         core::TranslationResult result) { observer(result); });
  }

 private:
  cluster::Cluster cluster_;
  std::vector<std::string> venue_ids_;
  Status init_;  // first AddVenue failure, if any
};

// ---- the replay state machine ----------------------------------------------

struct Replay;

// One simulated device session replaying a re-stamped template: each ingest is
// one event, scheduled at the record's template offset from the session start.
class SessionSource : public EventSource {
 public:
  Replay* replay = nullptr;
  const mobility::SessionTemplate* tpl = nullptr;
  std::string device;
  uint64_t serial = 0;
  size_t venue = 0;
  TimestampMs start = 0;
  size_t next_record = 0;

  void DoNextEvent(EventList* list, TimestampMs now) override;
};

// The arrival process: a non-homogeneous Poisson stream realized by thinning
// against the rate curve's ceiling, with heavy-tail bursts starting several
// sessions at one instant.
class ArrivalSource : public EventSource {
 public:
  Replay* replay = nullptr;
  void DoNextEvent(EventList* list, TimestampMs now) override;
};

// Everything one RunScenario invocation shares between its event sources.
// Mutated only from the single-threaded dispatch loop, so no locking — the
// delivery observer (which may run on pool workers) lives outside, with its
// own mutex.
struct Replay {
  const ScenarioConfig* config = nullptr;
  IngestTarget* target = nullptr;
  EventList events;
  Rng rng;
  std::vector<mobility::SessionTemplate> templates;

  ArrivalSource arrivals;

  bool arrivals_done = false;
  uint64_t sessions_started = 0;
  uint64_t sessions_completed = 0;
  size_t active_sessions = 0;
  // Session sources are pooled: a completed session's source is reused for a
  // later arrival, so heap and pool occupancy stay O(concurrent sessions).
  std::vector<std::unique_ptr<SessionSource>> session_pool;
  std::vector<SessionSource*> free_sessions;

  uint64_t records_offered = 0;
  uint64_t schedule_hash = kFnvOffset;
  bool any_ingest = false;
  TimestampMs first_ingest = 0;
  TimestampMs last_ingest = 0;

  Status failure;  // first ingest/poll failure; stops the replay

  // The run's two triggers, wired after construction so the poll callback can
  // stop them both.
  PeriodicTrigger* poll_trigger = nullptr;
  PeriodicTrigger* sampler_trigger = nullptr;

  // SLO-logger samples.
  uint64_t samples = 0;
  int64_t max_queue_depth = 0;
  double sum_queue_depth = 0;
  int64_t max_pool_queue_depth = 0;
  obs::Gauge* pool_queue_depth = nullptr;

  // Arrival rate at simulated time t, sessions per millisecond:
  // base * max(0, 1 + A sin(2 pi t / period + phase)).
  double RateAt(TimestampMs t) const {
    const double base = config->arrivals_per_min / kMillisPerMinute;
    if (config->diurnal_amplitude == 0 || config->diurnal_period <= 0) {
      return base;
    }
    const double angle =
        2 * kPi * static_cast<double>(t) / static_cast<double>(config->diurnal_period) +
        config->diurnal_phase;
    return base * std::max(0.0, 1 + config->diurnal_amplitude * std::sin(angle));
  }

  // Ceiling of the rate curve — the homogeneous rate the thinning sampler
  // draws candidate gaps at.
  double MaxRate() const {
    const double base = config->arrivals_per_min / kMillisPerMinute;
    return base * (1 + std::max(0.0, config->diurnal_amplitude));
  }

  void ScheduleNextArrival(TimestampMs from) {
    const double max_rate = MaxRate();
    if (max_rate <= 0 || sessions_started >= config->max_sessions) {
      arrivals_done = true;
      return;
    }
    // Thinning: candidates arrive at the ceiling rate; each is accepted with
    // probability rate(t)/ceiling. Rejected candidates advance time without
    // producing an event, so the accepted stream follows the curve exactly.
    double t = static_cast<double>(from);
    while (true) {
      t += rng.Exponential(max_rate);
      if (t > static_cast<double>(config->duration)) {
        arrivals_done = true;
        return;
      }
      const TimestampMs at = static_cast<TimestampMs>(std::llround(t));
      if (rng.Uniform(0, 1) * max_rate <= RateAt(at)) {
        events.Schedule(&arrivals, at);
        return;
      }
    }
  }

  void StartSession(TimestampMs now) {
    const mobility::SessionTemplate* tpl =
        &templates[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(templates.size()) - 1))];
    SessionSource* session;
    if (!free_sessions.empty()) {
      session = free_sessions.back();
      free_sessions.pop_back();
    } else {
      session_pool.push_back(std::make_unique<SessionSource>());
      session = session_pool.back().get();
      session->replay = this;
    }
    char name[24];
    std::snprintf(name, sizeof name, "ld-%06llu",
                  static_cast<unsigned long long>(sessions_started));
    session->tpl = tpl;
    session->device = name;
    session->serial = sessions_started;
    session->venue = static_cast<size_t>(sessions_started % target->venue_count());
    session->start = now;
    session->next_record = 0;
    ++sessions_started;
    if (tpl->records.empty()) {  // noise can empty a template
      ++sessions_completed;
      free_sessions.push_back(session);
      return;
    }
    ++active_sessions;
    events.Schedule(session, now + tpl->records.front().timestamp);
  }
};

void SessionSource::DoNextEvent(EventList* list, TimestampMs now) {
  Replay* r = replay;
  if (!r->failure.ok()) return;  // drain without side effects after a failure
  positioning::RawRecord record = tpl->records[next_record];
  record.timestamp += start;
  HashMix(&r->schedule_hash, static_cast<uint64_t>(now));
  HashMix(&r->schedule_hash, serial);
  HashMix(&r->schedule_hash, static_cast<uint64_t>(next_record));
  HashMix(&r->schedule_hash, static_cast<uint64_t>(venue));
  Status status = r->target->Ingest(venue, device, record);
  if (!status.ok()) {
    r->failure = status;
    return;
  }
  ++r->records_offered;
  if (!r->any_ingest) {
    r->any_ingest = true;
    r->first_ingest = now;
  }
  r->last_ingest = std::max(r->last_ingest, now);
  ++next_record;
  if (next_record < tpl->records.size()) {
    list->Schedule(this, start + tpl->records[next_record].timestamp);
  } else {
    --r->active_sessions;
    ++r->sessions_completed;
    r->free_sessions.push_back(this);
  }
}

void ArrivalSource::DoNextEvent(EventList* /*list*/, TimestampMs now) {
  Replay* r = replay;
  if (!r->failure.ok()) {
    r->arrivals_done = true;
    return;
  }
  size_t burst = 1;
  if (r->config->heavy_tail_prob > 0 && r->rng.Chance(r->config->heavy_tail_prob)) {
    burst = static_cast<size_t>(
        std::max<long long>(1, std::llround(r->config->heavy_tail_mult)));
  }
  for (size_t i = 0; i < burst && r->sessions_started < r->config->max_sessions;
       ++i) {
    r->StartSession(now);
  }
  if (r->sessions_started >= r->config->max_sessions) {
    r->arrivals_done = true;
    return;
  }
  r->ScheduleNextArrival(now);
}

}  // namespace

// ---- latency ----------------------------------------------------------------

LatencySummary SummarizeLatencyNs(std::vector<uint64_t> samples_ns) {
  LatencySummary summary;
  if (samples_ns.empty()) return summary;
  std::sort(samples_ns.begin(), samples_ns.end());
  summary.count = samples_ns.size();
  const double sum = std::accumulate(samples_ns.begin(), samples_ns.end(), 0.0);
  summary.mean_ms = sum / static_cast<double>(samples_ns.size()) / 1e6;
  auto quantile = [&samples_ns](double q) {
    // Nearest-rank: the smallest sample with at least q of the mass at or
    // below it.
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples_ns.size())));
    rank = std::clamp<size_t>(rank, 1, samples_ns.size());
    return static_cast<double>(samples_ns[rank - 1]) / 1e6;
  };
  summary.p50_ms = quantile(0.50);
  summary.p95_ms = quantile(0.95);
  summary.p99_ms = quantile(0.99);
  summary.max_ms = static_cast<double>(samples_ns.back()) / 1e6;
  return summary;
}

// ---- target factories -------------------------------------------------------

std::unique_ptr<IngestTarget> MakeServiceTarget(
    std::shared_ptr<const core::Engine> engine, size_t worker_threads,
    const core::StreamOptions& stream) {
  return std::make_unique<ServiceTarget>(std::move(engine), worker_threads,
                                         stream);
}

std::unique_ptr<IngestTarget> MakeClusterTarget(
    std::shared_ptr<const core::Engine> engine, size_t venues,
    size_t worker_threads, const core::StreamOptions& stream) {
  return std::make_unique<ClusterTarget>(std::move(engine),
                                         std::max<size_t>(1, venues),
                                         worker_threads, stream);
}

// ---- the run ----------------------------------------------------------------

Result<ScenarioResult> RunScenario(const ScenarioConfig& config,
                                   const mobility::MobilityGenerator& generator,
                                   const TargetFactory& make_target) {
  if (config.poll_interval <= 0) {
    return Status::InvalidArgument("loadgen: poll_interval must be positive");
  }
  if (config.sample_interval <= 0) {
    return Status::InvalidArgument("loadgen: sample_interval must be positive");
  }
  if (config.duration < 0) {
    return Status::InvalidArgument("loadgen: duration must be non-negative");
  }
  if (config.max_sessions > 0 && config.session_templates == 0) {
    return Status::InvalidArgument(
        "loadgen: session_templates must be positive when max_sessions > 0");
  }

  Replay replay;
  replay.config = &config;
  replay.rng = Rng(config.seed);
  replay.arrivals.replay = &replay;

  if (config.max_sessions > 0) {
    TRIPS_ASSIGN_OR_RETURN(
        replay.templates,
        generator.GenerateSessionTemplates(
            static_cast<int>(config.session_templates), &replay.rng));
    if (config.apply_noise) {
      for (mobility::SessionTemplate& tpl : replay.templates) {
        positioning::PositioningSequence truth;
        truth.device_id = "tpl";
        truth.records = tpl.records;
        positioning::PositioningSequence noisy =
            positioning::ApplyErrorModel(truth, config.noise, &replay.rng);
        if (noisy.records.empty()) continue;  // keep the clean itinerary
        const TimestampMs base = noisy.records.front().timestamp;
        for (positioning::RawRecord& record : noisy.records) {
          record.timestamp -= base;
        }
        tpl.records = std::move(noisy.records);
        tpl.duration = tpl.records.back().timestamp;
      }
    }
  }

  const bool paced = config.target_records_per_sec > 0;
  core::StreamOptions stream = config.stream;
  if (!paced) {
    // Unpaced: latency is measured on the simulated timeline, so inject the
    // event clock as the sessions' trace clock. (Paced runs keep the default
    // steady clock — there the wall is the timeline of interest.)
    Replay* r = &replay;
    stream.trace_clock = [r] { return r->events.now_nanos(); };
  }

  std::unique_ptr<IngestTarget> target = make_target(stream);
  if (target == nullptr) {
    return Status::InvalidArgument("loadgen: target factory returned null");
  }
  replay.target = target.get();
  replay.pool_queue_depth = target->registry().gauge("pool.queue_depth");

  // Exact delivery samples. The observer runs on whichever thread flushed
  // (pool workers during cluster polls), hence the mutex; the clock read
  // matches the trace-stamp clock, so stamp and reading share one time base.
  std::mutex delivery_mu;
  std::vector<uint64_t> latencies_ns;
  uint64_t results_delivered = 0;
  std::function<uint64_t()> delivery_clock;
  if (paced) {
    delivery_clock = [] { return obs::NowNanos(); };
  } else {
    Replay* r = &replay;
    delivery_clock = [r] { return r->events.now_nanos(); };
  }
  target->SetResultObserver([&](const core::TranslationResult& result) {
    const uint64_t now_ns = delivery_clock();
    std::lock_guard<std::mutex> lock(delivery_mu);
    ++results_delivered;
    if (result.trace.active()) {
      latencies_ns.push_back(now_ns >= result.trace.ingest_steady_ns
                                 ? now_ns - result.trace.ingest_steady_ns
                                 : 0);
    }
  });

  PeriodicTrigger sampler(
      [&replay](TimestampMs) {
        ++replay.samples;
        const int64_t depth =
            static_cast<int64_t>(replay.target->PendingRecords());
        replay.max_queue_depth = std::max(replay.max_queue_depth, depth);
        replay.sum_queue_depth += static_cast<double>(depth);
        if (replay.pool_queue_depth != nullptr) {
          replay.max_pool_queue_depth = std::max(
              replay.max_pool_queue_depth, replay.pool_queue_depth->Value());
        }
      },
      config.sample_interval);
  PeriodicTrigger poll(
      [&replay](TimestampMs now) {
        Status status = replay.target->Poll(now);
        if (!status.ok() && replay.failure.ok()) replay.failure = status;
        // The run is over once arrivals ended, every session replayed out and
        // every buffer drained (or a failure aborted the replay): stop both
        // triggers so the heap drains and the dispatch loop exits.
        if (!replay.failure.ok() ||
            (replay.arrivals_done && replay.active_sessions == 0 &&
             replay.target->PendingRecords() == 0)) {
          replay.poll_trigger->Stop();
          replay.sampler_trigger->Stop();
        }
      },
      config.poll_interval);
  replay.poll_trigger = &poll;
  replay.sampler_trigger = &sampler;

  if (config.max_sessions > 0 && !replay.templates.empty()) {
    replay.ScheduleNextArrival(0);
  } else {
    replay.arrivals_done = true;
  }
  poll.Start(&replay.events, config.poll_interval);
  sampler.Start(&replay.events, config.sample_interval);

  const auto wall_start = std::chrono::steady_clock::now();
  while (replay.events.DoNextEvent()) {
    if (paced) {
      // Open loop: the next event may not fire before the wall-clock deadline
      // of the records offered so far. Arrivals never wait for the target —
      // if it falls behind, latency grows; the schedule does not stretch.
      const auto deadline =
          wall_start + std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(
                               static_cast<double>(replay.records_offered) /
                               config.target_records_per_sec));
      std::this_thread::sleep_until(deadline);
    }
  }
  TRIPS_RETURN_NOT_OK(replay.failure);
  TRIPS_RETURN_NOT_OK(target->FlushAll());
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  ScenarioResult out;
  out.scenario = config.name;
  out.target = target->Describe();
  out.sessions_started = replay.sessions_started;
  out.sessions_completed = replay.sessions_completed;
  out.records_offered = replay.records_offered;
  out.events_dispatched = replay.events.dispatched();
  out.schedule_hash = replay.schedule_hash;
  out.sim_seconds = static_cast<double>(replay.events.now()) / 1e3;
  out.wall_seconds = wall_seconds;
  if (replay.any_ingest && replay.last_ingest > replay.first_ingest) {
    out.offered_records_per_sec =
        static_cast<double>(replay.records_offered) /
        (static_cast<double>(replay.last_ingest - replay.first_ingest) / 1e3);
  }
  if (wall_seconds > 0) {
    out.achieved_records_per_sec =
        static_cast<double>(replay.records_offered) / wall_seconds;
  }

  const obs::MetricsSnapshot snap = target->registry().Snap();
  out.records_ingested = snap.counter_or("stream.records_ingested");
  out.flushes = snap.counter_or("stream.flushes");
  out.dropped_small_buffers = snap.counter_or("stream.dropped_small_buffers");
  out.pending_after_flush = target->PendingRecords();
  {
    std::lock_guard<std::mutex> lock(delivery_mu);
    out.results_delivered = results_delivered;
    out.latency = SummarizeLatencyNs(std::move(latencies_ns));
  }
  out.samples = replay.samples;
  out.max_queue_depth = replay.max_queue_depth;
  out.mean_queue_depth =
      replay.samples > 0
          ? replay.sum_queue_depth / static_cast<double>(replay.samples)
          : 0;
  out.max_pool_queue_depth = replay.max_pool_queue_depth;

  ApplySlo(&out, config.slo);
  // The target (and with it the trace_clock closures pointing into `replay`)
  // dies here, before `replay` does.
  target.reset();
  return out;
}

// ---- SLO gating -------------------------------------------------------------

std::vector<SloViolation> CheckSlo(const ScenarioResult& result,
                                   const SloThresholds& slo) {
  std::vector<SloViolation> violations;
  auto check_latency = [&violations](const char* what, double limit,
                                     double actual) {
    if (limit > 0 && actual > limit) violations.push_back({what, limit, actual});
  };
  check_latency("p50_ms", slo.p50_ms, result.latency.p50_ms);
  check_latency("p95_ms", slo.p95_ms, result.latency.p95_ms);
  check_latency("p99_ms", slo.p99_ms, result.latency.p99_ms);
  if (slo.max_dropped_buffers >= 0 &&
      static_cast<int64_t>(result.dropped_small_buffers) >
          slo.max_dropped_buffers) {
    violations.push_back({"dropped_small_buffers",
                          static_cast<double>(slo.max_dropped_buffers),
                          static_cast<double>(result.dropped_small_buffers)});
  }
  if (slo.max_pending_after_flush >= 0 &&
      static_cast<int64_t>(result.pending_after_flush) >
          slo.max_pending_after_flush) {
    violations.push_back({"pending_after_flush",
                          static_cast<double>(slo.max_pending_after_flush),
                          static_cast<double>(result.pending_after_flush)});
  }
  return violations;
}

void ApplySlo(ScenarioResult* result, const SloThresholds& slo) {
  result->violations = CheckSlo(*result, slo);
  result->slo_pass = result->violations.empty();
}

// ---- reports ----------------------------------------------------------------

json::Value ScenarioResultJson(const ScenarioResult& result) {
  json::Object o;
  o["scenario"] = result.scenario;
  o["target"] = result.target;
  o["sessions_started"] = static_cast<int64_t>(result.sessions_started);
  o["sessions_completed"] = static_cast<int64_t>(result.sessions_completed);
  o["records_offered"] = static_cast<int64_t>(result.records_offered);
  o["events_dispatched"] = static_cast<int64_t>(result.events_dispatched);
  char hash[24];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(result.schedule_hash));
  o["schedule_hash"] = hash;
  o["sim_seconds"] = result.sim_seconds;
  o["wall_seconds"] = result.wall_seconds;
  o["offered_records_per_sec"] = result.offered_records_per_sec;
  o["achieved_records_per_sec"] = result.achieved_records_per_sec;
  o["records_ingested"] = static_cast<int64_t>(result.records_ingested);
  o["results_delivered"] = static_cast<int64_t>(result.results_delivered);
  o["flushes"] = static_cast<int64_t>(result.flushes);
  o["dropped_small_buffers"] = static_cast<int64_t>(result.dropped_small_buffers);
  o["pending_after_flush"] = static_cast<int64_t>(result.pending_after_flush);
  json::Object latency;
  latency["count"] = static_cast<int64_t>(result.latency.count);
  latency["mean_ms"] = result.latency.mean_ms;
  latency["p50_ms"] = result.latency.p50_ms;
  latency["p95_ms"] = result.latency.p95_ms;
  latency["p99_ms"] = result.latency.p99_ms;
  latency["max_ms"] = result.latency.max_ms;
  o["latency"] = std::move(latency);
  o["queue_depth_samples"] = static_cast<int64_t>(result.samples);
  o["max_queue_depth"] = result.max_queue_depth;
  o["mean_queue_depth"] = result.mean_queue_depth;
  o["max_pool_queue_depth"] = result.max_pool_queue_depth;
  json::Array violations;
  for (const SloViolation& v : result.violations) {
    json::Object violation;
    violation["what"] = v.what;
    violation["limit"] = v.limit;
    violation["actual"] = v.actual;
    violations.push_back(json::Value(std::move(violation)));
  }
  o["violations"] = std::move(violations);
  o["slo_pass"] = result.slo_pass;
  return json::Value(std::move(o));
}

json::Value SloReportJson(const std::vector<ScenarioResult>& results) {
  json::Object o;
  o["report"] = "loadgen_slo";
  bool all_pass = true;
  json::Array rows;
  for (const ScenarioResult& result : results) {
    all_pass = all_pass && result.slo_pass;
    rows.push_back(ScenarioResultJson(result));
  }
  o["runs"] = static_cast<int64_t>(results.size());
  o["slo_pass"] = all_pass;
  o["results"] = std::move(rows);
  return json::Value(std::move(o));
}

}  // namespace trips::loadgen
