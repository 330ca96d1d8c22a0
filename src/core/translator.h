// The Translator — backend component of TRIPS (§2): "constructs a sequence
// of mobility semantics for each individual positioning sequence" by running
// the three-layer framework (Fig. 3): Cleaning -> Annotation -> Complementing,
// "without manual interventions".
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "annotation/annotator.h"
#include "annotation/event_classifier.h"
#include "cleaning/cleaner.h"
#include "complement/complementor.h"
#include "complement/knowledge.h"
#include "config/event_editor.h"
#include "core/semantics.h"
#include "dsm/dsm.h"
#include "dsm/routing.h"
#include "obs/metrics.h"
#include "positioning/record_block.h"
#include "util/thread_pool.h"

namespace trips::core {

/// Cleaner defaults for the full pipeline: light smoothing suppresses the
/// per-fix positioning jitter that would otherwise inflate the motion
/// features the Annotation layer classifies on.
inline cleaning::CleanerOptions DefaultPipelineCleanerOptions() {
  cleaning::CleanerOptions opt;
  opt.smoothing_window = 3;
  return opt;
}

/// End-to-end translation options (one knob struct per layer).
struct TranslatorOptions {
  cleaning::CleanerOptions cleaner = DefaultPipelineCleanerOptions();
  annotation::AnnotatorOptions annotator;
  annotation::EventClassifierOptions classifier;
  complement::ComplementorOptions complementor;
  /// Route planner knobs (memoization, contraction, vertical cost) for the
  /// planner Init() builds; the cleaning layer's gap interpolation and every
  /// Engine session route through it.
  dsm::RoutePlannerOptions routing;
  /// Layer switches (ablations / baselines).
  bool enable_cleaning = true;
  bool enable_complementing = true;
  /// Laplace smoothing used when building mobility knowledge.
  double knowledge_smoothing = 0.5;
};

/// Per-stage observability hooks of the translation pipeline. Every pointer
/// may be null (that stage is simply not recorded); sessions resolve one of
/// these from their Service's obs::MetricsRegistry and pass it into the
/// stateless layer primitives below. Recording never changes translation
/// output — results are byte-identical metrics on or off.
struct TranslationStageMetrics {
  obs::Histogram* clean_ns = nullptr;       ///< cleaning layer, per sequence
  obs::Histogram* split_ns = nullptr;       ///< SplitSequence inside annotation
  obs::Histogram* annotate_ns = nullptr;    ///< annotation layer (includes split)
  obs::Histogram* complement_ns = nullptr;  ///< complementing layer, per sequence
  obs::Counter* sequences = nullptr;        ///< sequences clean+annotated
  obs::Counter* records = nullptr;          ///< raw records clean+annotated
  /// Complementing work counters, added once per sequence from its
  /// ComplementReport: MAP searches run and priority-queue pops they took.
  obs::Counter* infer_calls = nullptr;
  obs::Counter* infer_states_popped = nullptr;
  /// Per-pass breakdown inside the cleaning layer (clean.scan_ns etc.),
  /// forwarded into RawDataCleaner::CleanBlock; clean_ns is their sum plus
  /// the block sort.
  cleaning::CleaningStageMetrics cleaning;
};

/// Everything the Translator produced for one device — the material the
/// Viewer traces ("the input, output and intermediate data involved in the
/// translation", §1).
struct TranslationResult {
  positioning::PositioningSequence raw;
  positioning::PositioningSequence cleaned;
  /// Annotation-layer output (before complementing).
  MobilitySemanticsSequence original_semantics;
  /// Final output (after complementing).
  MobilitySemanticsSequence semantics;
  cleaning::CleaningReport cleaning_report;
  complement::ComplementReport complement_report;
  /// When the record batch was traced (stream ingest), the ingest stamp rides
  /// along so the session can report true ingest-to-emit latency.
  obs::TraceContext trace;
};

/// The three-layer translator. Typical use:
///
///     core::Translator translator(&dsm, options);
///     TRIPS_RETURN_NOT_OK(translator.Init());
///     translator.TrainEventModel(editor.training_data());       // optional
///     auto results = translator.TranslateAll(selected_sequences);
class Translator {
 public:
  /// `dsm` must outlive the translator and have topology computed.
  explicit Translator(const dsm::Dsm* dsm, TranslatorOptions options = {});

  // The hoisted layer instances below hold pointers into this object, so a
  // translator is pinned to its address once constructed.
  Translator(const Translator&) = delete;
  Translator& operator=(const Translator&) = delete;

  /// Builds the route planner over the DSM. Must be called once before
  /// translating.
  Status Init();

  /// Trains the learning-based event identification model from Event Editor
  /// segments. Without training, the rule-based identifier is used.
  Status TrainEventModel(const std::vector<config::LabeledSegment>& training_data);

  /// Translates a batch: cleans and annotates every sequence, builds the
  /// mobility knowledge from all annotated sequences ("referring to other
  /// generated mobility semantics sequences", §2), then complements each.
  Result<std::vector<TranslationResult>> TranslateAll(
      const std::vector<positioning::PositioningSequence>& sequences);

  /// Translates one sequence using the current knowledge (from a previous
  /// TranslateAll, or the uniform prior when none exists yet).
  Result<TranslationResult> Translate(const positioning::PositioningSequence& seq) const;

  // ---- stateless layer primitives -----------------------------------------
  // The three batch phases of TranslateAll, exposed individually so callers
  // that manage knowledge themselves (core::Engine and its sessions) can fan
  // the per-sequence phases out over threads. All three are const and safe to
  // call concurrently once Init() has succeeded.

  /// Cleaning + Annotation layers for one sequence (no complementing). AoS
  /// shim: copies the sequence into a per-thread RecordBlock and delegates to
  /// the columnar form below, so both entry points produce byte-identical
  /// results. `stages` (may be null) receives per-stage timings/counts.
  TranslationResult CleanAndAnnotate(
      const positioning::PositioningSequence& seq,
      const TranslationStageMetrics* stages = nullptr) const;

  /// Columnar Cleaning + Annotation: sorts and cleans `block` in place and
  /// annotates the cleaned columns directly — the stages never rematerialize
  /// AoS records between each other (the result's raw/cleaned sequences are
  /// materialized once, at the stage boundaries the TranslationResult
  /// contract requires). On return the block holds the cleaned columns.
  /// `pool` (may be null) parallelizes cleaning passes 2/4 inside long
  /// sequences; output is identical for every worker count and with `stages`
  /// (may be null) recording or not.
  TranslationResult CleanAndAnnotate(
      positioning::RecordBlock* block, util::ThreadPool* pool = nullptr,
      const TranslationStageMetrics* stages = nullptr) const;

  /// Builds mobility knowledge by aggregating the annotation-layer output of
  /// `results` (integer-count aggregation: independent of result order).
  complement::MobilityKnowledge BuildKnowledgeFrom(
      const std::vector<TranslationResult>& results) const;

  /// Complementing layer for one result: fills result->semantics from
  /// result->original_semantics with `complementor` (or copies it verbatim
  /// when complementing is disabled in the options). `stages` (may be null)
  /// receives the complement-stage timing and work counters.
  void ComplementResult(TranslationResult* result,
                        const complement::Complementor& complementor,
                        const TranslationStageMetrics* stages = nullptr) const;
  /// As above against uncompiled `knowledge`: compiles it once for this call.
  void ComplementResult(TranslationResult* result,
                        const complement::MobilityKnowledge& knowledge,
                        const TranslationStageMetrics* stages = nullptr) const;

  /// Compiles `knowledge` into a complementor with this translator's options.
  complement::Complementor CompileKnowledge(
      const complement::MobilityKnowledge& knowledge) const;

  /// The current mobility knowledge (uniform prior before any batch run).
  const complement::MobilityKnowledge& knowledge() const { return knowledge_; }
  /// The current knowledge compiled (valid after Init).
  const complement::Complementor& complementor() const { return *complementor_; }
  /// The event classifier (untrained => rule-based identification).
  const annotation::EventClassifier& classifier() const { return classifier_; }
  const TranslatorOptions& options() const { return options_; }
  /// The route planner (valid after Init).
  const dsm::RoutePlanner* planner() const {
    return planner_.has_value() ? &*planner_ : nullptr;
  }

 private:
  const dsm::Dsm* dsm_;
  TranslatorOptions options_;
  std::optional<dsm::RoutePlanner> planner_;
  annotation::EventClassifier classifier_;
  complement::MobilityKnowledge knowledge_;
  std::optional<complement::Complementor> complementor_;  // knowledge_ compiled
  // Layer instances hoisted out of the per-sequence path: constructed once at
  // Init() and shared by every CleanAndAnnotate call (all their methods are
  // const and thread-safe), instead of being rebuilt per sequence.
  std::optional<cleaning::RawDataCleaner> cleaner_;
  std::optional<annotation::Annotator> annotator_;
  bool initialized_ = false;
};

}  // namespace trips::core
