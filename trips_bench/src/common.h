// Inputs and report plumbing shared by the workloads: the mall venue and its
// trained engine, ground-truth device generation, byte serialization of
// translation results, and the report every workload fills.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "accounting.h"
#include "core/trips.h"

namespace trips::perf {

// ---- allocation counting (defined next to the counting operator new) --------

/// Allocations made since the process started, while counting was on.
uint64_t AllocationCount();
/// Turns the counting operator new on or off (off by default; only the traced
/// run turns it on).
void SetAllocationCounting(bool on);

// ---- venue ------------------------------------------------------------------

/// One venue: the paper's mall at a scale, its trained engine, and a
/// ground-truth generator over the same DSM.
struct Venue {
  std::string id;
  std::shared_ptr<const dsm::Dsm> dsm;
  std::unique_ptr<dsm::RoutePlanner> planner;  // for the generator only
  std::unique_ptr<mobility::MobilityGenerator> full_generator;
  std::unique_ptr<mobility::MobilityGenerator> short_generator;
  std::shared_ptr<const core::Engine> engine;
};

/// The loadgen short-session itinerary knobs (a few episodes, sub-minute to
/// two-minute stays).
mobility::GeneratorOptions ShortSessionMobility();

/// Builds the 7-floor mall at `shops_per_arm` and its engine. The event model
/// is trained from Event Editor segments of `training_devices` held-out
/// full-itinerary devices drawn with `seed`. Workloads pass a fixed seed: the
/// engine is the system under test, the run's --seed draws its traffic.
Result<Venue> BuildVenue(const std::string& id, int shops_per_arm, uint64_t seed,
                         int training_devices = 8);

/// A device with ground truth and its degraded observation.
struct Device {
  std::string id;
  core::MobilitySemanticsSequence truth;
  positioning::PositioningSequence raw;
};

/// Ground truth of a generated itinerary, re-based so it starts at t = 0.
struct Itinerary {
  std::vector<positioning::RawRecord> records;
  core::MobilitySemanticsSequence semantics;
  DurationMs duration = 0;
};

/// `count` distinct itineraries from `generator`, re-based to t = 0.
Result<std::vector<Itinerary>> MakeItineraries(
    const mobility::MobilityGenerator& generator, int count, Rng* rng);

/// Stamps `itinerary` as device `id` starting at `start` and degrades it with
/// the default error model.
Device StampDevice(const Itinerary& itinerary, const std::string& id,
                   TimestampMs start, Rng* rng);

// ---- results ------------------------------------------------------------------

/// Serializes everything a translation produced (raw and cleaned records,
/// annotation output, final semantics, layer reports) to bytes: two results
/// are byte-identical iff these strings are equal.
std::string ResultBytes(const core::TranslationResult& result);

/// Region and event agreement with ground truth, summed over devices.
struct Agreement {
  double region = 0;
  double event = 0;
  size_t devices = 0;
  void Add(const core::MobilitySemanticsSequence& truth,
           const core::MobilitySemanticsSequence& predicted);
  double region_pct() const { return devices == 0 ? 0 : 100.0 * region / devices; }
  double event_pct() const { return devices == 0 ? 0 : 100.0 * event / devices; }
};

// ---- open-loop session feeds --------------------------------------------------

/// One simulated device session of an open-loop feed.
struct PlannedSession {
  uint32_t venue = 0;
  TimestampMs start = 0;
  Device device;
};

/// One record due on the feed: record `index` of session `session`.
struct IngestEvent {
  TimestampMs t = 0;
  uint32_t session = 0;
  uint32_t index = 0;
};

/// A pre-generated feed: Poisson session arrivals over [begin, begin +
/// window), each session a stamped itinerary of its venue, and every record
/// as an event in timestamp order.
struct SessionFeed {
  std::vector<PlannedSession> sessions;
  std::vector<IngestEvent> events;  ///< by (t, session, index)
  TimestampMs begin = 0;
  uint64_t hash = 0;  ///< fingerprint of every event and record
};

/// Builds a feed. `itineraries[v]` are venue v's itineraries and
/// `venue_weights[v]` its share of arrivals; `sessions_per_s` is the Poisson
/// arrival rate in simulated time. Arrivals whose itinerary would run past
/// the window are skipped. Device ids are `prefix` + serial.
SessionFeed MakeSessionFeed(const std::vector<std::vector<Itinerary>>& itineraries,
                            const std::vector<double>& venue_weights,
                            double sessions_per_s, DurationMs window,
                            TimestampMs begin, const std::string& prefix, Rng* rng);

/// Mean record count of a set of itineraries.
double MeanRecords(const std::vector<Itinerary>& itineraries);

/// Every `kParityStride`-th session of a feed keeps its full delivered results
/// for the stream/batch parity check; the rest keep the compact Delivery only.
inline constexpr uint32_t kParityStride = 4;

/// What the bench keeps of one delivered result of a feed.
struct Delivery {
  uint32_t session = 0;  ///< index into SessionFeed::sessions
  uint32_t records = 0;  ///< raw records the result carried
  TimestampMs first = 0;  ///< first and last raw record timestamps
  TimestampMs last = 0;
  uint32_t gaps_found = 0;
  uint32_t gaps_filled = 0;
  uint32_t snapped = 0;
  core::MobilitySemanticsSequence semantics;
};

/// Keeps what the checks need of a delivered result: a compact Delivery for
/// every result and the full result for parity-sampled sessions. `session` is
/// the result's session index.
void Retain(uint32_t session, core::TranslationResult result,
            std::vector<Delivery>* deliveries,
            std::vector<core::TranslationResult>* full);

/// The session index encoded in a feed device id (the digits after the
/// prefix).
uint32_t SessionOf(const std::string& device_id);

/// The outcome of a feed run, checked against what was offered.
struct FeedCheck {
  RecordLedger ledger;
  Agreement agreement;
  FragmentLoss short_fragments;  ///< loss the flush policy explains
  uint64_t records_delivered = 0;
  uint64_t triplets = 0;
  uint64_t gaps_found = 0;
  uint64_t gaps_filled = 0;
  uint64_t snapped = 0;
  uint64_t whole_checked = 0;    ///< parity-sampled sessions released whole
  uint64_t parity_failures = 0;
};

/// Accounts every offered record of `feed` against `deliveries`, scores the
/// delivered semantics against ground truth, and checks each parity-sampled
/// session released whole (one result with all its records) byte for byte
/// against Engine::Translate of its raw sequence (`engines[venue]`). Missing
/// short fragments are attributed to "small_buffer_dropped" when their number
/// equals `dropped_small_buffers`, the count the sessions reported.
FeedCheck CheckFeed(const SessionFeed& feed, const std::vector<Delivery>& deliveries,
                    const std::vector<core::TranslationResult>& full,
                    const std::vector<const core::Engine*>& engines,
                    const core::StreamOptions& policy, uint64_t dropped_small_buffers);

// ---- report -------------------------------------------------------------------

/// A metric value with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run produced.
struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Deterministic work counters: identical across runs with one seed.
  std::map<std::string, uint64_t> counters;
  /// Sample counts behind reported percentiles, by metric name.
  std::map<std::string, uint64_t> samples;
  /// End-to-end rates (per second) set by the system's own speed, such as a
  /// closed loop's throughput; the command restates them at the nominal host
  /// speed like every duration. An open loop's delivery rate is set by its
  /// wall-clock schedule and stays as measured.
  std::set<std::string> host_rates;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< correctness failures

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Restates metrics at the nominal host speed (HostSpeed::Factor): every
/// metric with a time unit (ns, us, ms, s) is multiplied by `factor`, every
/// metric named in `host_rates` divided by it; the rest stay as measured.
void ScaleToNominal(std::map<std::string, Metric>* metrics,
                    const std::set<std::string>& host_rates, double factor);

/// Command-line settings every workload receives.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   ///< scratch directory for on-disk stores
  std::string trace_out;  ///< where the traced run writes its spans (may be empty)
  /// Host-speed reference the workload samples during its run: between a
  /// closed loop's calls, or from a HostProbe thread. May be null.
  HostSpeed* host = nullptr;
};

/// Peak resident set size of the process so far, MiB.
double PeakRssMb();

/// Share helper: a / b, 0 when b is 0.
inline double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

/// Reads one histogram summary out of a registry snapshot (empty when absent).
obs::HistogramSummary HistogramOf(const obs::MetricsSnapshot& snap,
                                  const std::string& name);

/// Routing-cache and spatial-index counters summed over engines.
struct EngineCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t probes = 0;  ///< partition + region + snap probes
  static EngineCounters Of(const std::vector<const core::Engine*>& engines);
};

/// routing.cache_hit_ratio and spatial.probes_per_record between two
/// readings, per translated record.
void ReportDsmLayer(const EngineCounters& before, const EngineCounters& after,
                    double records, Report* report);

/// The per-layer metrics the open-loop workloads read from the program's own
/// registry (translate.*, clean.*, stream.*, pool.* and store.* names) plus
/// the result-derived counts in `check`.
void ReportRegistryLayers(const obs::MetricsSnapshot& snap, const FeedCheck& check,
                          size_t results, uint64_t polls, int64_t buffered_max,
                          double wall_s, size_t workers, Report* report);

}  // namespace trips::perf
