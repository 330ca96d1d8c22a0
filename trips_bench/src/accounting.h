// Measurement accounting shared by every workload: exact nearest-rank
// quantiles with the "ten samples beyond" rule, the open-loop driver that
// charges a stalled call to every call scheduled behind it, and the record
// ledger that explains each offered record as delivered or dropped under a
// named reason.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace trips::perf {

// ---- quantiles --------------------------------------------------------------

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample with at
/// least q of the samples at or below it. 0 for an empty input.
double NearestRank(const std::vector<double>& sorted, double q);

/// True when `count` samples leave at least `min_beyond` samples strictly
/// above the nearest-rank position of q — the rule a reported percentile must
/// meet (a p99 needs 1000 samples, a p90 needs 100).
bool PercentileSupported(size_t count, double q, size_t min_beyond = 10);

/// `value` when the percentile q of `count` samples is supported, else 0 (a
/// report's marker for "not measured").
inline double SupportedOrZero(size_t count, double q, double value) {
  return PercentileSupported(count, q) ? value : 0;
}

/// A latency sample set summarized at the percentiles the report uses.
struct LatencyStats {
  size_t count = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double max = 0;
  double mean = 0;
};

/// Sorts `samples` in place and summarizes them.
LatencyStats Summarize(std::vector<double>* samples);

// ---- open-loop driving --------------------------------------------------------

/// Runs calls on a fixed schedule whatever the system does: a call is issued
/// at its due time or, when the driver fell behind, immediately after the
/// previous call returns. Lateness (start minus due) is the generator lag.
/// Latency of anything a call releases is measured from the call's due time,
/// so a stalled call is charged to every call scheduled behind it.
class OpenLoopDriver {
 public:
  using Clock = std::function<uint64_t()>;  ///< monotonic ns

  /// `sleep_ns` sleeps for about the given time; the default is real
  /// sleeping, tests pass a fake.
  explicit OpenLoopDriver(Clock clock, std::function<void(uint64_t)> sleep_ns = nullptr);

  /// Starts the schedule's time base at the clock's current reading.
  void Start() { start_ns_ = clock_(); }
  /// Starts the schedule's time base at `start_ns` (drivers sharing one
  /// schedule start together).
  void StartAt(uint64_t start_ns) { start_ns_ = start_ns; }
  uint64_t start_ns() const { return start_ns_; }

  /// Waits until `due_ns` (relative to Start) and returns the absolute due
  /// time. Records the lag of the call about to be issued. Long waits sleep
  /// (leaving the core to the system under test) and spin only for the last
  /// stretch.
  uint64_t WaitUntilDue(uint64_t due_ns);

  /// Latency of a result released by a call due at `due_abs_ns` and
  /// delivered now, in milliseconds.
  double LatencyMsSince(uint64_t due_abs_ns) const {
    return static_cast<double>(clock_() - due_abs_ns) / 1e6;
  }

  /// Lag samples (ms) of every call waited for so far.
  std::vector<double>& lag_ms() { return lag_ms_; }

  uint64_t Now() const { return clock_(); }

 private:
  Clock clock_;
  std::function<void(uint64_t)> sleep_ns_;
  uint64_t start_ns_ = 0;
  std::vector<double> lag_ms_;
};

/// Moves the calling thread to the next CPU of its allowed set every period,
/// so a single-threaded driver spreads its time evenly over the cores. On a
/// shared host each core's speed drifts on its own (neighbours on the same
/// physical core); without rotation a run inherits the speed of whichever
/// core the scheduler left it on. Restores the original affinity when
/// destroyed. Each rotating thread needs its own rotator, made while the
/// thread still has its full allowed set (a thread started by a pinned thread
/// inherits the pin).
class CpuRotator {
 public:
  explicit CpuRotator(uint64_t period_ns);
  ~CpuRotator();
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;

  /// Rotates when a period has passed since the last move.
  void Tick(uint64_t now_ns);

 private:
  uint64_t period_ns_;
  uint64_t last_ns_ = 0;
  std::vector<int> cpus_;  ///< the allowed set at construction
  size_t next_ = 0;
};

// ---- host speed ---------------------------------------------------------------

/// Tracks the speed of a shared host with a fixed reference kernel owned by the
/// benchmark: small sorts, open-addressing hash fills and square-root sums over
/// preallocated arrays (no allocation, no program code). On a shared host the
/// same code runs up to ~1.5x slower from one minute to the next as the
/// neighbours' load changes; the kernel slows with it, so a time measured next
/// to it can be restated at a nominal host speed: multiplied by Factor(), the
/// nominal kernel time over the measured one.
///
/// A closed loop samples between its requests, when the system under test is
/// idle; an open loop, never idle while timed, samples from a HostProbe thread.
/// Not thread-safe: one thread samples at a time.
class HostSpeed {
 public:
  /// Sample time that defines the nominal host (a 4-core x86-64 cloud VM
  /// with quiet neighbours).
  static constexpr double kNominalMs = 1.5;

  HostSpeed();

  /// Runs the kernel once on the calling thread and records its time.
  void Sample();

  /// Samples so far; a window of samples is [mark, later mark).
  size_t mark() const { return samples_.size(); }
  /// Mean sample time (ms) over the samples in [from, to). The mean, not the
  /// median: time the host takes from a vCPU (steal, preemption) lands in
  /// few samples but slows the system under test throughout.
  double MeanMs(size_t from, size_t to) const;
  /// kNominalMs / MeanMs(from, to): below 1 when the host ran slow.
  double Factor(size_t from, size_t to) const;

 private:
  std::vector<double> pristine_;  ///< the kernel's fixed input
  std::vector<double> work_;
  std::vector<uint64_t> table_;
  std::vector<double> samples_;
  double sink_ = 0;  ///< keeps the kernel's result alive
};

/// Samples a HostSpeed from its own thread every `period_ns` (moving to the
/// next CPU before each sample) until destroyed. For workloads whose system
/// under test is never idle while timed; at a period of tens of milliseconds it
/// takes a few percent of one core. A null `host` starts nothing.
class HostProbe {
 public:
  HostProbe(HostSpeed* host, uint64_t period_ns);
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;
};

// ---- record ledger ------------------------------------------------------------

/// Accounts for every offered record of one workload. Records are offered per
/// device key; delivered results report how many records of a device they
/// carried. Whatever was offered but not delivered is attributed to a named
/// reason when the system counted a drop that explains it, and to
/// "unexplained" otherwise.
class RecordLedger {
 public:
  void Offer(const std::string& device, uint64_t records = 1);
  void Deliver(const std::string& device, uint64_t records);

  /// Attributes up to `records` of the shortfall to `reason`, in order of
  /// calls (reasons named earlier are charged first).
  void Explain(const std::string& reason, uint64_t records);

  uint64_t offered() const { return offered_; }
  uint64_t delivered() const { return delivered_; }
  /// Offered records not delivered (never negative; over-delivery is counted
  /// separately as a correctness failure).
  uint64_t lost() const { return offered_ > delivered_ ? offered_ - delivered_ : 0; }
  /// Records delivered for a device beyond what was offered for it.
  uint64_t over_delivered() const;
  /// Shortfall per reason, including "unexplained" for the remainder.
  std::map<std::string, uint64_t> LossByReason() const;

  double lost_ratio() const {
    return offered_ == 0 ? 0 : static_cast<double>(lost()) / static_cast<double>(offered_);
  }
  double delivered_ratio() const {
    return offered_ == 0 ? 0
                         : static_cast<double>(delivered_) / static_cast<double>(offered_);
  }

 private:
  struct Device {
    uint64_t offered = 0;
    uint64_t delivered = 0;
  };
  std::map<std::string, Device> devices_;
  std::vector<std::pair<std::string, uint64_t>> explained_;
  uint64_t offered_ = 0;
  uint64_t delivered_ = 0;
};

/// Loss explained by the stream flush policy for one device. `offered` holds
/// the timestamps of the device's offered records in offer order and
/// `delivered[i]` whether record i reached a delivered result. Missing records
/// form runs; a run is cut wherever consecutive records are at least
/// `split_gap_ms` apart (where an age-based flush can end a buffer). Runs
/// shorter than `min_flush_records` are fragments an age-based flush drops.
struct FragmentLoss {
  uint64_t records = 0;
  uint64_t fragments = 0;
};
FragmentLoss ShortFragmentLoss(const std::vector<int64_t>& offered,
                               const std::vector<bool>& delivered,
                               size_t min_flush_records, int64_t split_gap_ms);

// ---- deterministic counters ---------------------------------------------------

/// FNV-1a accumulation, the fingerprint of a schedule.
inline void HashMix(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (i * 8)) & 0xffu;
    *h *= 1099511628211ull;
  }
}
inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;

}  // namespace trips::perf
