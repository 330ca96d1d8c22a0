// In-memory span recording for the traced benchmark run. Spans wrap the
// benchmark's own calls into each layer's public entry points; nothing inside
// the program is instrumented. Spans are appended to a vector while the run
// is timed and written out only when it ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace trips::perf {

/// Monotonic nanoseconds (steady clock).
uint64_t NowNs();

/// One recorded span. `parent` indexes the enclosing span (-1 for a root);
/// spans of one request share `request`.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// Collects spans when enabled; every method is a no-op otherwise. Not
/// thread-safe: each recording thread owns its recorder.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index (-1 when
  /// disabled).
  int64_t Begin(const char* name, uint64_t request);
  void End(int64_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the part of its
  /// interval covered by its direct children, summed by name (ns).
  std::map<std::string, uint64_t> SelfTimeByName() const;
  /// Total duration per span name (ns).
  std::map<std::string, uint64_t> TotalTimeByName() const;
  /// Durations (ms) of every span with `name`, in recording order.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Writes the spans as tab-separated lines (index, parent, request, name,
  /// start_ns, end_ns relative to the first span). Returns false on an I/O
  /// error.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t request = 0)
      : recorder_(recorder), index_(recorder->Begin(name, request)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int64_t index_;
};

/// Estimated cost of recording one span (ns), calibrated on this host by
/// recording a burst of empty spans.
double CalibrateSpanCostNs();

}  // namespace trips::perf
