#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace trips::perf {

mobility::GeneratorOptions ShortSessionMobility() {
  return loadgen::ScenarioConfig::ShortSessionMobility();
}

namespace {

void TrainingSegments(const mobility::GeneratedDevice& device,
                      std::vector<config::LabeledSegment>* out) {
  for (const core::MobilitySemantic& s : device.semantics.semantics) {
    config::LabeledSegment seg;
    seg.event = s.event;
    seg.segment.records = device.truth.RecordsIn(s.range);
    if (seg.segment.records.size() >= 2) out->push_back(std::move(seg));
  }
}

}  // namespace

Result<Venue> BuildVenue(const std::string& id, int shops_per_arm, uint64_t seed,
                         int training_devices) {
  Venue venue;
  venue.id = id;
  TRIPS_ASSIGN_OR_RETURN(dsm::Dsm mall,
                         dsm::BuildMallDsm({.floors = 7, .shops_per_arm = shops_per_arm}));
  venue.dsm = std::make_shared<const dsm::Dsm>(std::move(mall));
  // The generator routes over its own planner so that the engine's routing
  // cache counters reflect translation alone.
  TRIPS_ASSIGN_OR_RETURN(dsm::RoutePlanner planner,
                         dsm::RoutePlanner::Build(venue.dsm.get()));
  venue.planner = std::make_unique<dsm::RoutePlanner>(std::move(planner));
  venue.full_generator = std::make_unique<mobility::MobilityGenerator>(
      venue.dsm.get(), venue.planner.get());
  venue.short_generator = std::make_unique<mobility::MobilityGenerator>(
      venue.dsm.get(), venue.planner.get(), ShortSessionMobility());

  // Event Editor step: label the ground-truth segments of held-out devices.
  Rng rng(seed);
  std::vector<config::LabeledSegment> training;
  for (int i = 0; i < training_devices; ++i) {
    TRIPS_ASSIGN_OR_RETURN(
        mobility::GeneratedDevice device,
        venue.full_generator->GenerateDevice("train-" + std::to_string(i),
                                             i * kMillisPerMinute, &rng));
    TrainingSegments(device, &training);
  }
  TRIPS_ASSIGN_OR_RETURN(venue.engine, core::Engine::Builder()
                                           .ShareDsm(venue.dsm)
                                           .SetTrainingData(std::move(training))
                                           .Build());
  TRIPS_RETURN_NOT_OK(venue.engine->training_status());
  return venue;
}

Result<std::vector<Itinerary>> MakeItineraries(
    const mobility::MobilityGenerator& generator, int count, Rng* rng) {
  std::vector<Itinerary> out;
  out.reserve(static_cast<size_t>(count));
  while (static_cast<int>(out.size()) < count) {
    TRIPS_ASSIGN_OR_RETURN(mobility::GeneratedDevice device,
                           generator.GenerateDevice("tpl", 0, rng));
    if (device.truth.records.empty()) continue;
    Itinerary it;
    const TimestampMs base = device.truth.records.front().timestamp;
    it.records = std::move(device.truth.records);
    for (positioning::RawRecord& r : it.records) r.timestamp -= base;
    it.semantics = std::move(device.semantics);
    for (core::MobilitySemantic& s : it.semantics.semantics) {
      s.range.begin -= base;
      s.range.end -= base;
    }
    it.duration = it.records.back().timestamp;
    out.push_back(std::move(it));
  }
  return out;
}

Device StampDevice(const Itinerary& itinerary, const std::string& id,
                   TimestampMs start, Rng* rng) {
  positioning::PositioningSequence truth;
  truth.device_id = id;
  truth.records = itinerary.records;
  for (positioning::RawRecord& r : truth.records) r.timestamp += start;
  Device device;
  device.id = id;
  device.raw = positioning::ApplyErrorModel(truth, positioning::ErrorModelOptions{}, rng);
  device.raw.device_id = id;
  device.truth = itinerary.semantics;
  device.truth.device_id = id;
  for (core::MobilitySemantic& s : device.truth.semantics) {
    s.range.begin += start;
    s.range.end += start;
  }
  return device;
}

SessionFeed MakeSessionFeed(const std::vector<std::vector<Itinerary>>& itineraries,
                            const std::vector<double>& venue_weights,
                            double sessions_per_s, DurationMs window,
                            TimestampMs begin, const std::string& prefix, Rng* rng) {
  SessionFeed feed;
  feed.begin = begin;
  double total_weight = 0;
  for (double w : venue_weights) total_weight += w;
  double t = 0;
  while (true) {
    t += rng->Exponential(sessions_per_s) * 1000.0;
    if (t >= static_cast<double>(window)) break;
    double pick = rng->Uniform(0, total_weight);
    uint32_t venue = 0;
    while (venue + 1 < venue_weights.size() && pick >= venue_weights[venue]) {
      pick -= venue_weights[venue];
      ++venue;
    }
    const std::vector<Itinerary>& pool = itineraries[venue];
    const Itinerary& it = pool[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    // Every session ends inside the window, so the feed drains on schedule
    // whatever the itinerary lengths.
    if (t + static_cast<double>(it.duration) >= static_cast<double>(window)) continue;
    char id[32];
    std::snprintf(id, sizeof id, "%s%06zu", prefix.c_str(), feed.sessions.size());
    PlannedSession session;
    session.venue = venue;
    session.start = begin + static_cast<TimestampMs>(t);
    session.device = StampDevice(it, id, session.start, rng);
    feed.sessions.push_back(std::move(session));
  }
  size_t total = 0;
  for (const PlannedSession& s : feed.sessions) total += s.device.raw.records.size();
  feed.events.reserve(total);
  for (uint32_t s = 0; s < feed.sessions.size(); ++s) {
    const auto& records = feed.sessions[s].device.raw.records;
    for (uint32_t i = 0; i < records.size(); ++i) {
      feed.events.push_back({records[i].timestamp, s, i});
    }
  }
  std::sort(feed.events.begin(), feed.events.end(),
            [](const IngestEvent& a, const IngestEvent& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.session != b.session) return a.session < b.session;
              return a.index < b.index;
            });
  feed.hash = kFnvOffset;
  auto mix = [&feed](uint64_t v) { HashMix(&feed.hash, v); };
  for (const IngestEvent& e : feed.events) {
    const positioning::RawRecord& r = feed.sessions[e.session].device.raw.records[e.index];
    mix(static_cast<uint64_t>(e.t));
    mix(e.session);
    mix(feed.sessions[e.session].venue);
    mix(static_cast<uint64_t>(r.location.floor));
    mix(static_cast<uint64_t>(static_cast<int64_t>(r.location.xy.x * 1000)));
    mix(static_cast<uint64_t>(static_cast<int64_t>(r.location.xy.y * 1000)));
  }
  return feed;
}

double MeanRecords(const std::vector<Itinerary>& itineraries) {
  double total = 0;
  for (const Itinerary& it : itineraries) total += static_cast<double>(it.records.size());
  return itineraries.empty() ? 0 : total / static_cast<double>(itineraries.size());
}

void Retain(uint32_t session, core::TranslationResult result,
            std::vector<Delivery>* deliveries,
            std::vector<core::TranslationResult>* full) {
  Delivery d;
  d.session = session;
  d.records = static_cast<uint32_t>(result.raw.records.size());
  if (!result.raw.records.empty()) {
    d.first = result.raw.records.front().timestamp;
    d.last = result.raw.records.back().timestamp;
  }
  d.gaps_found = static_cast<uint32_t>(result.complement_report.gaps_found);
  d.gaps_filled = static_cast<uint32_t>(result.complement_report.gaps_filled);
  d.snapped = static_cast<uint32_t>(result.cleaning_report.snapped);
  if (session % kParityStride == 0) {
    d.semantics = result.semantics;
    full->push_back(std::move(result));
  } else {
    d.semantics = std::move(result.semantics);
  }
  deliveries->push_back(std::move(d));
}

uint32_t SessionOf(const std::string& device_id) {
  size_t i = device_id.size();
  while (i > 0 && device_id[i - 1] >= '0' && device_id[i - 1] <= '9') --i;
  return static_cast<uint32_t>(std::strtoul(device_id.c_str() + i, nullptr, 10));
}

FeedCheck CheckFeed(const SessionFeed& feed, const std::vector<Delivery>& deliveries,
                    const std::vector<core::TranslationResult>& full,
                    const std::vector<const core::Engine*>& engines,
                    const core::StreamOptions& policy, uint64_t dropped_small_buffers) {
  FeedCheck check;
  std::vector<std::vector<const Delivery*>> by_session(feed.sessions.size());
  for (const Delivery& d : deliveries) {
    if (d.session < by_session.size()) by_session[d.session].push_back(&d);
    check.ledger.Deliver(d.session < feed.sessions.size()
                             ? feed.sessions[d.session].device.id
                             : "unknown-" + std::to_string(d.session),
                         d.records);
    check.records_delivered += d.records;
    check.triplets += d.semantics.semantics.size();
    check.gaps_found += d.gaps_found;
    check.gaps_filled += d.gaps_filled;
    check.snapped += d.snapped;
  }
  std::map<std::string, const core::TranslationResult*> full_by_device;
  for (const core::TranslationResult& r : full) full_by_device[r.raw.device_id] = &r;

  for (size_t s = 0; s < feed.sessions.size(); ++s) {
    const PlannedSession& session = feed.sessions[s];
    const std::vector<positioning::RawRecord>& offered = session.device.raw.records;
    check.ledger.Offer(session.device.id, offered.size());
    core::MobilitySemanticsSequence predicted;
    predicted.device_id = session.device.id;
    uint64_t delivered = 0;
    for (const Delivery* d : by_session[s]) {
      predicted.semantics.insert(predicted.semantics.end(), d->semantics.semantics.begin(),
                                 d->semantics.semantics.end());
      delivered += d->records;
    }
    predicted.SortByTime();
    check.agreement.Add(session.device.truth, predicted);

    // Stream/batch parity for sampled sessions released whole.
    if (by_session[s].size() == 1 && delivered == offered.size()) {
      auto it = full_by_device.find(session.device.id);
      if (it != full_by_device.end()) {
        ++check.whole_checked;
        if (ResultBytes(engines[session.venue]->Translate(session.device.raw)) !=
            ResultBytes(*it->second)) {
          ++check.parity_failures;
        }
      }
    }
    if (delivered < offered.size()) {
      // A buffer holds consecutive records of its device in offer order, so
      // a delivered result covers `records` offered records starting at the
      // first one stamped `first`.
      std::vector<const Delivery*> ds = by_session[s];
      std::sort(ds.begin(), ds.end(), [](const Delivery* a, const Delivery* b) {
        return a->first < b->first;
      });
      std::vector<int64_t> offered_ts;
      for (const positioning::RawRecord& r : offered) offered_ts.push_back(r.timestamp);
      std::vector<bool> mask(offered.size(), false);
      size_t pos = 0;
      for (const Delivery* d : ds) {
        while (pos < offered.size() && offered_ts[pos] < d->first) ++pos;
        for (size_t k = 0; k < d->records && pos < offered.size(); ++k) mask[pos++] = true;
      }
      const FragmentLoss loss = ShortFragmentLoss(offered_ts, mask, policy.min_flush_records,
                                                  policy.flush_after);
      check.short_fragments.records += loss.records;
      check.short_fragments.fragments += loss.fragments;
    }
  }
  if (check.short_fragments.fragments == dropped_small_buffers) {
    check.ledger.Explain("small_buffer_dropped", check.short_fragments.records);
  }
  return check;
}

namespace {

template <typename T>
void Put(std::string* out, const T& v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

void PutString(std::string* out, const std::string& s) {
  Put(out, static_cast<uint64_t>(s.size()));
  out->append(s);
}

void PutRecords(std::string* out, const positioning::PositioningSequence& seq) {
  PutString(out, seq.device_id);
  Put(out, static_cast<uint64_t>(seq.records.size()));
  for (const positioning::RawRecord& r : seq.records) {
    Put(out, r.location.xy.x);
    Put(out, r.location.xy.y);
    Put(out, r.location.floor);
    Put(out, r.timestamp);
  }
}

void PutSemantics(std::string* out, const core::MobilitySemanticsSequence& seq) {
  PutString(out, seq.device_id);
  Put(out, static_cast<uint64_t>(seq.semantics.size()));
  for (const core::MobilitySemantic& s : seq.semantics) {
    PutString(out, s.event);
    Put(out, s.region);
    PutString(out, s.region_name);
    Put(out, s.range.begin);
    Put(out, s.range.end);
    Put(out, static_cast<uint8_t>(s.inferred));
  }
}

}  // namespace

std::string ResultBytes(const core::TranslationResult& result) {
  std::string out;
  PutRecords(&out, result.raw);
  PutRecords(&out, result.cleaned);
  PutSemantics(&out, result.original_semantics);
  PutSemantics(&out, result.semantics);
  const cleaning::CleaningReport& c = result.cleaning_report;
  for (size_t v : {c.total_records, c.speed_violations, c.floor_corrected,
                   c.interpolated, c.snapped, c.smoothed}) {
    Put(&out, static_cast<uint64_t>(v));
  }
  const complement::ComplementReport& k = result.complement_report;
  for (size_t v : {k.gaps_found, k.gaps_filled, k.triplets_inferred}) {
    Put(&out, static_cast<uint64_t>(v));
  }
  return out;
}

void Agreement::Add(const core::MobilitySemanticsSequence& truth,
                    const core::MobilitySemanticsSequence& predicted) {
  const core::SemanticsAgreement a = core::CompareSemantics(truth, predicted);
  region += a.region_match;
  event += a.event_match;
  ++devices;
}

void ScaleToNominal(std::map<std::string, Metric>* metrics,
                    const std::set<std::string>& host_rates, double factor) {
  for (auto& [name, m] : *metrics) {
    if (m.unit == "ns" || m.unit == "us" || m.unit == "ms" || m.unit == "s") {
      m.value *= factor;
    } else if (host_rates.count(name) != 0) {
      m.value /= factor;
    }
  }
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

obs::HistogramSummary HistogramOf(const obs::MetricsSnapshot& snap,
                                  const std::string& name) {
  const obs::HistogramSummary* h = snap.histogram(name);
  return h == nullptr ? obs::HistogramSummary{} : *h;
}

EngineCounters EngineCounters::Of(const std::vector<const core::Engine*>& engines) {
  EngineCounters c;
  for (const core::Engine* e : engines) {
    const core::RoutingCacheStats r = e->routing_cache_stats();
    const dsm::SpatialProbeStats p = e->spatial_probe_stats();
    c.hits += r.hits;
    c.misses += r.misses;
    c.probes += p.partition_probes + p.region_probes + p.snap_probes;
  }
  return c;
}

void ReportDsmLayer(const EngineCounters& before, const EngineCounters& after,
                    double records, Report* report) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  report->Layer("routing.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  report->Layer("spatial.probes_per_record",
                Ratio(static_cast<double>(after.probes - before.probes), records), "count");
}

void ReportRegistryLayers(const obs::MetricsSnapshot& snap, const FeedCheck& check,
                          size_t results, uint64_t polls, int64_t buffered_max,
                          double wall_s, size_t workers, Report* report) {
  auto sum = [&snap](const char* name) {
    return static_cast<double>(HistogramOf(snap, name).sum);
  };
  auto count = [&snap](const char* name) {
    return static_cast<double>(snap.counter_or(name));
  };
  const double rec = count("translate.records");
  const double clean = sum("translate.clean_ns");
  const double split = sum("translate.split_ns");
  const double annotate = sum("translate.annotate_ns");
  const double complement = sum("translate.complement_ns");
  const double layers = clean + annotate + complement;
  report->Layer("cleaning.ns_per_record", Ratio(clean, rec), "ns");
  report->Layer("cleaning.scan_ns_per_record", Ratio(sum("clean.scan_ns"), rec), "ns");
  report->Layer("cleaning.interpolate_ns_per_record", Ratio(sum("clean.interpolate_ns"), rec),
                "ns");
  report->Layer("cleaning.smooth_ns_per_record", Ratio(sum("clean.smooth_ns"), rec), "ns");
  report->Layer("cleaning.snap_ns_per_record", Ratio(sum("clean.snap_ns"), rec), "ns");
  report->Layer("cleaning.share", Ratio(clean, layers), "ratio");
  report->Layer("cleaning.snapped_per_record", Ratio(static_cast<double>(check.snapped), rec),
                "ratio");
  report->Layer("annotation.split_ns_per_record", Ratio(split, rec), "ns");
  report->Layer("annotation.split_share", Ratio(split, layers), "ratio");
  report->Layer("annotation.match_classify_ns_per_record", Ratio(annotate - split, rec), "ns");
  const double gaps = static_cast<double>(check.gaps_found);
  report->Layer("complement.us_per_gap", Ratio(complement / 1e3, gaps), "us");
  report->Layer("complement.share", Ratio(complement, layers), "ratio");
  report->Layer("complement.gaps_per_sequence", Ratio(gaps, static_cast<double>(results)),
                "count");
  report->Layer("complement.gap_fill_ratio",
                Ratio(static_cast<double>(check.gaps_filled), gaps), "ratio");

  const double flushes = count("stream.flushes");
  report->Layer("stream.buffers_per_poll", Ratio(flushes, static_cast<double>(polls)),
                "count");
  report->Layer("stream.records_per_flush", Ratio(count("stream.flush_records"), flushes),
                "count");
  report->Layer("stream.buffered_records_max", static_cast<double>(buffered_max), "count");
  report->Layer("stream.dropped_small_buffers", count("stream.dropped_small_buffers"),
                "count");

  report->Layer("store.persisted_bytes_per_sequence",
                Ratio(count("store.persisted_bytes"), static_cast<double>(results)), "bytes");
  report->Layer("store.compactions", count("store.compactions"), "count");
  report->Layer("store.manifest_writes", count("store.manifest_writes"), "count");

  const obs::HistogramSummary wait = HistogramOf(snap, "pool.task_wait_ns");
  report->Layer("pool.task_wait_us_p50", static_cast<double>(wait.p50) / 1e3, "us");
  report->Layer("pool.task_wait_us_p99", static_cast<double>(wait.p99) / 1e3, "us");
  report->Layer("pool.busy_share",
                Ratio(sum("pool.task_run_ns"), wall_s * 1e9 * static_cast<double>(workers)),
                "ratio");
}

}  // namespace trips::perf
