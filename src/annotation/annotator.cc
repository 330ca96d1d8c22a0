#include "annotation/annotator.h"

#include <chrono>

namespace trips::annotation {

namespace {

// Shared post-processing: merge equal-adjacent triplets, drop short ones.
void Postprocess(const AnnotatorOptions& options,
                 core::MobilitySemanticsSequence* seq) {
  if (options.merge_adjacent && seq->semantics.size() > 1) {
    std::vector<core::MobilitySemantic> merged;
    for (core::MobilitySemantic& s : seq->semantics) {
      if (!merged.empty() && merged.back().event == s.event &&
          merged.back().region == s.region &&
          s.range.begin - merged.back().range.end <= options.merge_max_gap) {
        merged.back().range.end = s.range.end;
      } else {
        merged.push_back(std::move(s));
      }
    }
    seq->semantics = std::move(merged);
  }
  if (options.min_duration > 0) {
    std::vector<core::MobilitySemantic> kept;
    for (core::MobilitySemantic& s : seq->semantics) {
      if (s.range.Duration() >= options.min_duration) kept.push_back(std::move(s));
    }
    seq->semantics = std::move(kept);
  }
}

// Builds one triplet from a snippet, or returns false to drop it.
bool MakeTriplet(const positioning::RecordBlock& cleaned, const Snippet& snip,
                 const SpatialMatcher& matcher, const AnnotatorOptions& options,
                 const std::string& event, core::MobilitySemantic* out) {
  SpatialMatch match = matcher.Match(cleaned, snip.begin, snip.end);
  if (match.region == dsm::kInvalidRegion && options.drop_unmatched) return false;
  out->event = event;
  out->region = match.region;
  out->region_name = match.region_name;
  out->range = {cleaned.timestamps[snip.begin], cleaned.timestamps[snip.end - 1]};
  out->inferred = false;
  return true;
}

// The annotation loop shared by both annotators: split, extract features per
// snippet, pick the event through `event_of`, match the region, postprocess.
template <typename EventFn>
core::MobilitySemanticsSequence AnnotateImpl(
    const positioning::RecordBlock& cleaned, const AnnotatorOptions& options,
    const SpatialMatcher& matcher, const EventFn& event_of,
    AnnotateTimings* timings) {
  core::MobilitySemanticsSequence out;
  out.device_id = cleaned.device_id;
  std::vector<Snippet> snippets;
  if (timings != nullptr) {
    auto t0 = std::chrono::steady_clock::now();
    snippets = SplitSequence(cleaned, options.splitter);
    timings->split_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  } else {
    snippets = SplitSequence(cleaned, options.splitter);
  }
  for (const Snippet& snip : snippets) {
    if (snip.Size() < 2) continue;
    FeatureVector features = ExtractFeatures(cleaned, snip.begin, snip.end);
    std::string event = event_of(features);
    core::MobilitySemantic triplet;
    if (MakeTriplet(cleaned, snip, matcher, options, event, &triplet)) {
      out.semantics.push_back(std::move(triplet));
    }
  }
  Postprocess(options, &out);
  return out;
}

}  // namespace

Annotator::Annotator(const dsm::Dsm* dsm, const EventClassifier* classifier,
                     AnnotatorOptions options)
    : classifier_(classifier),
      options_(options),
      matcher_(dsm, options.matcher) {}

core::MobilitySemanticsSequence Annotator::Annotate(
    const positioning::RecordBlock& cleaned, AnnotateTimings* timings) const {
  return AnnotateImpl(
      cleaned, options_, matcher_,
      [this](const FeatureVector& f) { return classifier_->Identify(f); },
      timings);
}

StopMoveBaseline::StopMoveBaseline(const dsm::Dsm* dsm, AnnotatorOptions options,
                                   double stop_speed)
    : options_(options),
      stop_speed_(stop_speed),
      matcher_(dsm, options.matcher) {}

core::MobilitySemanticsSequence StopMoveBaseline::Annotate(
    const positioning::RecordBlock& cleaned) const {
  // The two-pattern vocabulary of the prior GPS systems: stop or move.
  return AnnotateImpl(
      cleaned, options_, matcher_,
      [this](const FeatureVector& f) {
        return std::string(f[kMeanSpeed] < stop_speed_ ? core::kEventStay
                                                       : core::kEventPassBy);
      },
      nullptr);
}

}  // namespace trips::annotation
