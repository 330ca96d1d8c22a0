#include "accounting.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <numeric>
#include <thread>

namespace trips::perf {

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

bool PercentileSupported(size_t count, double q, size_t min_beyond) {
  if (count == 0) return false;
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(q * static_cast<double>(count))));
  return count - std::min(rank, count) >= min_beyond;
}

LatencyStats Summarize(std::vector<double>* samples) {
  LatencyStats stats;
  if (samples->empty()) return stats;
  std::sort(samples->begin(), samples->end());
  stats.count = samples->size();
  stats.p50 = NearestRank(*samples, 0.50);
  stats.p90 = NearestRank(*samples, 0.90);
  stats.p99 = NearestRank(*samples, 0.99);
  stats.max = samples->back();
  stats.mean = std::accumulate(samples->begin(), samples->end(), 0.0) /
               static_cast<double>(samples->size());
  return stats;
}

OpenLoopDriver::OpenLoopDriver(Clock clock, std::function<void(uint64_t)> sleep_ns)
    : clock_(std::move(clock)), sleep_ns_(std::move(sleep_ns)) {
  if (!sleep_ns_) {
    sleep_ns_ = [](uint64_t ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    };
  }
}

uint64_t OpenLoopDriver::WaitUntilDue(uint64_t due_ns) {
  // Sleep until close to the due time (sleeps overshoot by tens of
  // microseconds), then spin.
  constexpr uint64_t kSpinNs = 200'000;
  const uint64_t due_abs = start_ns_ + due_ns;
  uint64_t now = clock_();
  if (now + kSpinNs < due_abs) {
    sleep_ns_(due_abs - now - kSpinNs);
    now = clock_();
  }
  while (now < due_abs) now = clock_();
  lag_ms_.push_back(static_cast<double>(now - due_abs) / 1e6);
  return due_abs;
}

CpuRotator::CpuRotator(uint64_t period_ns) : period_ns_(period_ns) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

CpuRotator::~CpuRotator() {
  if (cpus_.size() < 2) return;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (int cpu : cpus_) CPU_SET(cpu, &allowed);
  sched_setaffinity(0, sizeof allowed, &allowed);
}

void CpuRotator::Tick(uint64_t now_ns) {
  if (cpus_.size() < 2 || now_ns - last_ns_ < period_ns_) return;
  last_ns_ = now_ns;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof one, &one);
}

namespace {
constexpr size_t kKernelValues = 1 << 15;
constexpr size_t kKernelSlots = 1 << 16;
constexpr size_t kStepValues = 64;
constexpr size_t kStepSlots = 128;  // a power of two
}  // namespace

HostSpeed::HostSpeed()
    : pristine_(kKernelValues), work_(kStepValues), table_(kKernelSlots) {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (double& v : pristine_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<double>(x >> 11) * 0x1.0p-53;
  }
  samples_.reserve(1 << 16);
}

void HostSpeed::Sample() {
  const auto t0 = std::chrono::steady_clock::now();
  double sum = 0;
  for (size_t step = 0; step < kKernelValues / kStepValues; ++step) {
    // A small sort, then an open-addressing fill of the sorted keys.
    const auto values = pristine_.begin() + static_cast<std::ptrdiff_t>(step * kStepValues);
    std::copy(values, values + kStepValues, work_.begin());
    std::sort(work_.begin(), work_.end());
    uint64_t* slots = table_.data() + step * kStepSlots;
    std::fill(slots, slots + kStepSlots, 0);
    for (double v : work_) {
      const uint64_t key = static_cast<uint64_t>(v * 0x1.0p62) | 1u;
      size_t slot = (key * 0x9e3779b97f4a7c15ull) >> 57 & (kStepSlots - 1);
      while (slots[slot] != 0 && slots[slot] != key) slot = (slot + 1) & (kStepSlots - 1);
      slots[slot] = key;
      sum += std::sqrt(v);
    }
  }
  sink_ += sum;
  samples_.push_back(
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count());
}

HostProbe::HostProbe(HostSpeed* host, uint64_t period_ns) {
  if (host == nullptr) return;
  thread_ = std::thread([this, host, period_ns] {
    CpuRotator rotator(0);
    uint64_t tick = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      rotator.Tick(++tick);
      host->Sample();
      lock.lock();
      wake_.wait_for(lock, std::chrono::nanoseconds(period_ns), [this] { return stop_; });
    }
  });
}

HostProbe::~HostProbe() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

double HostSpeed::MeanMs(size_t from, size_t to) const {
  to = std::min(to, samples_.size());
  if (from >= to) return 0;
  return std::accumulate(samples_.begin() + static_cast<std::ptrdiff_t>(from),
                         samples_.begin() + static_cast<std::ptrdiff_t>(to), 0.0) /
         static_cast<double>(to - from);
}

double HostSpeed::Factor(size_t from, size_t to) const {
  const double mean = MeanMs(from, to);
  return mean > 0 ? kNominalMs / mean : 1.0;
}

void RecordLedger::Offer(const std::string& device, uint64_t records) {
  devices_[device].offered += records;
  offered_ += records;
}

void RecordLedger::Deliver(const std::string& device, uint64_t records) {
  devices_[device].delivered += records;
  delivered_ += records;
}

void RecordLedger::Explain(const std::string& reason, uint64_t records) {
  explained_.emplace_back(reason, records);
}

uint64_t RecordLedger::over_delivered() const {
  uint64_t over = 0;
  for (const auto& [device, d] : devices_) {
    if (d.delivered > d.offered) over += d.delivered - d.offered;
  }
  return over;
}

std::map<std::string, uint64_t> RecordLedger::LossByReason() const {
  std::map<std::string, uint64_t> out;
  uint64_t remaining = lost();
  for (const auto& [reason, records] : explained_) {
    const uint64_t charged = std::min(records, remaining);
    if (charged > 0) out[reason] += charged;
    remaining -= charged;
  }
  if (remaining > 0) out["unexplained"] = remaining;
  return out;
}

FragmentLoss ShortFragmentLoss(const std::vector<int64_t>& offered,
                               const std::vector<bool>& delivered,
                               size_t min_flush_records, int64_t split_gap_ms) {
  FragmentLoss loss;
  size_t run = 0;
  auto close_run = [&] {
    if (run > 0 && run < min_flush_records) {
      loss.records += run;
      ++loss.fragments;
    }
    run = 0;
  };
  for (size_t i = 0; i < offered.size(); ++i) {
    if (i > 0 && offered[i] - offered[i - 1] >= split_gap_ms) close_run();
    if (i < delivered.size() && delivered[i]) {
      close_run();
    } else {
      ++run;
    }
  }
  close_run();
  return loss;
}

}  // namespace trips::perf
