#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace trips::perf {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

int64_t SpanRecorder::Begin(const char* name, uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(span);
  const int64_t index = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(index);
  spans_.back().start_ns = NowNs();
  return index;
}

void SpanRecorder::End(int64_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, uint64_t> SpanRecorder::SelfTimeByName() const {
  // Children are recorded after their parent and, being strictly nested on
  // one thread, never overlap each other: the covered part of a parent is
  // the sum of its direct children's durations clipped to the parent.
  std::vector<uint64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    const uint64_t b = std::max(s.start_ns, p.start_ns);
    const uint64_t e = std::min(s.end_ns, p.end_ns);
    if (e > b) covered[static_cast<size_t>(s.parent)] += e - b;
  }
  std::map<std::string, uint64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t d = spans_[i].end_ns - spans_[i].start_ns;
    out[spans_[i].name] += d > covered[i] ? d - covered[i] : 0;
  }
  return out;
}

std::map<std::string, uint64_t> SpanRecorder::TotalTimeByName() const {
  std::map<std::string, uint64_t> out;
  for (const Span& s : spans_) out[s.name] += s.end_ns - s.start_ns;
  return out;
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "index\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%lld\t%llu\t%s\t%llu\t%llu\n", i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<unsigned long long>(s.start_ns - base),
                 static_cast<unsigned long long>(s.end_ns - base));
  }
  return std::fclose(f) == 0;
}

double CalibrateSpanCostNs() {
  constexpr int kSpans = 20000;
  SpanRecorder recorder(true);
  const uint64_t t0 = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(&recorder, "calibrate");
  }
  return static_cast<double>(NowNs() - t0) / kSpans;
}

}  // namespace trips::perf
