// The translation engine — the Translator backend of TRIPS (§2): "constructs
// a sequence of mobility semantics for each individual positioning sequence"
// by running the three-layer framework (Fig. 3): Cleaning -> Annotation ->
// Complementing, "without manual interventions".
//
// An Engine holds everything a translation needs that does NOT change per
// request: the DSM, its route planner, the trained event identification
// model, the baseline mobility knowledge and the configured layer instances.
// It is assembled once through Engine::Builder and then never mutated, so a
// single instance can be shared (via shared_ptr<const Engine>) by any number
// of concurrent sessions and threads. Per-request state (batch-learned
// mobility knowledge, streaming buffers) lives in the sessions handed out by
// core::Service.
#pragma once

#include <memory>
#include <string>
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
  /// engine's planner; the cleaning layer's gap interpolation and every
  /// session route through it.
  dsm::RoutePlannerOptions routing;
  /// Cleaning-layer switch (ablations / baselines). Complementing has none:
  /// every result carries the annotation-only output as original_semantics.
  bool enable_cleaning = true;
  /// Laplace smoothing used when building mobility knowledge.
  double knowledge_smoothing = 0.5;
};

/// Per-stage observability hooks of the translation pipeline. Every pointer
/// may be null (that stage is simply not recorded); sessions resolve one of
/// these from their Service's obs::MetricsRegistry and pass it into the
/// engine's layer primitives. Recording never changes translation output —
/// results are byte-identical metrics on or off.
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

/// Everything the translation produced for one device — the material the
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

/// The route planner's memoization counters plus the static graph sizes.
using RoutingCacheStats = dsm::RoutingCacheStats;

/// Immutable, shareable translation model. Every const method is thread-safe.
class Engine {
 public:
  /// Assembles an Engine: DSM + options + optional training corpus.
  ///
  ///     auto engine = core::Engine::Builder()
  ///                       .SetDsm(std::move(mall))
  ///                       .SetTrainingData(editor.training_data())
  ///                       .Build();
  class Builder {
   public:
    /// Takes ownership of `dsm`. Topology is computed at Build() if missing.
    Builder& SetDsm(dsm::Dsm dsm);
    /// Co-owns `dsm` (no copy; the engine keeps it alive). Must already have
    /// topology computed.
    Builder& ShareDsm(std::shared_ptr<const dsm::Dsm> dsm);
    /// Borrows `dsm` (caller keeps ownership; must outlive the Engine and
    /// already have topology computed).
    Builder& BorrowDsm(const dsm::Dsm* dsm);
    /// Loads the DSM from a JSON file at Build() time.
    Builder& LoadDsmFile(std::string path);
    /// Translation options for all three layers.
    Builder& SetOptions(TranslatorOptions options);
    /// Event Editor segments to train the event identification model with.
    /// Training is best-effort: with segments for fewer than two patterns the
    /// rule-based identifier stays in place and Engine::training_status()
    /// reports kFailedPrecondition.
    Builder& SetTrainingData(std::vector<config::LabeledSegment> training_data);

    /// Builds the engine: resolves the DSM, computes topology when owned and
    /// missing (a shared or borrowed DSM without topology fails with
    /// kFailedPrecondition), builds the route planner, compiles the uniform
    /// baseline knowledge and trains the event model.
    Result<std::shared_ptr<const Engine>> Build();

   private:
    std::unique_ptr<dsm::Dsm> owned_dsm_;
    std::shared_ptr<const dsm::Dsm> shared_dsm_;
    const dsm::Dsm* borrowed_dsm_ = nullptr;
    std::string dsm_path_;
    TranslatorOptions options_;
    std::vector<config::LabeledSegment> training_data_;
  };

  // The layer instances hold pointers into this object, so an engine is
  // pinned to its address.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- model accessors ------------------------------------------------------

  const dsm::Dsm& dsm() const { return *dsm_; }
  const TranslatorOptions& options() const { return options_; }
  const dsm::RoutePlanner& planner() const { return planner_; }
  /// The event classifier (untrained => rule-based identification).
  const annotation::EventClassifier& classifier() const { return classifier_; }
  /// Baseline mobility knowledge (uniform prior over the DSM adjacency).
  const complement::MobilityKnowledge& knowledge() const { return knowledge_; }
  /// The baseline knowledge compiled once at Build(): the stream and cluster
  /// paths complement with this.
  const complement::Complementor& complementor() const { return complementor_; }
  /// Outcome of event-model training at Build() time: OK when training was
  /// not requested or succeeded; kFailedPrecondition when the corpus covered
  /// fewer than two patterns (the rule-based identifier is used then).
  const Status& training_status() const { return training_status_; }

  // ---- observability --------------------------------------------------------

  /// Snapshot of the route planner's cache counters and graph sizes (see
  /// dsm::RoutePlanner::cache_stats): exact at quiescence.
  RoutingCacheStats routing_cache_stats() const { return planner_.cache_stats(); }

  /// Point-query counts of the DSM's spatial index (zeroes when the index is
  /// not built).
  dsm::SpatialProbeStats spatial_probe_stats() const {
    return dsm().spatial_index().probes();
  }

  /// Drops the memoized routing trees and zeroes the cache counters. The
  /// engine stays logically immutable: the cache is pure memoization, so
  /// translation results are unaffected.
  void ClearRoutingCache() const { planner_.ClearCache(); }

  /// Zeroes the spatial probe counters (benchmark phases, tests).
  void ResetSpatialProbes() const { dsm().spatial_index().ResetProbes(); }

  // ---- translation (all thread-safe) ----------------------------------------

  /// Full three-layer translation of one sequence with the baseline
  /// knowledge.
  TranslationResult Translate(const positioning::PositioningSequence& seq) const;

  /// Cleaning + Annotation layers (no complementing): sorts and cleans
  /// `block` in place and annotates the cleaned columns directly — the stages
  /// never rematerialize AoS records between each other (the result's raw and
  /// cleaned sequences are materialized once, at the stage boundaries). On
  /// return the block holds the cleaned columns. `pool` (may be null)
  /// parallelizes cleaning passes 2/4 inside long sequences; output is
  /// identical for every worker count and with `stages` (may be null)
  /// recording or not.
  TranslationResult CleanAndAnnotate(
      positioning::RecordBlock* block, util::ThreadPool* pool = nullptr,
      const TranslationStageMetrics* stages = nullptr) const;

  /// Aggregates the annotation-layer output of `results` into mobility
  /// knowledge ("referring to other generated mobility semantics sequences",
  /// §2; integer-count aggregation: independent of result order).
  complement::MobilityKnowledge BuildKnowledge(
      const std::vector<TranslationResult>& results) const;

  /// Compiles knowledge (e.g. BuildKnowledge's) into a complementor with the
  /// engine's options, for callers that complement many results with it.
  complement::Complementor CompileKnowledge(
      const complement::MobilityKnowledge& knowledge) const;

  /// Complementing layer for one result: fills result->semantics from
  /// result->original_semantics with `complementor`. `stages` (may be null)
  /// receives the complement-stage timing and work counters.
  void Complement(TranslationResult* result,
                  const complement::Complementor& complementor,
                  const TranslationStageMetrics* stages = nullptr) const;
  /// As above against uncompiled `knowledge`: compiles it once for this call.
  void Complement(TranslationResult* result,
                  const complement::MobilityKnowledge& knowledge,
                  const TranslationStageMetrics* stages = nullptr) const;

 private:
  Engine(std::shared_ptr<const dsm::Dsm> dsm_holder, const dsm::Dsm* dsm,
         TranslatorOptions options, dsm::RoutePlanner planner);

  std::shared_ptr<const dsm::Dsm> dsm_holder_;  // set when the engine (co)owns it
  const dsm::Dsm* dsm_;
  TranslatorOptions options_;
  dsm::RoutePlanner planner_;
  annotation::EventClassifier classifier_;  // trained (if at all) inside Build
  complement::MobilityKnowledge knowledge_;
  complement::Complementor complementor_;   // knowledge_ compiled
  // Configuration-only, const-thread-safe layer instances shared by every
  // translation instead of being rebuilt per sequence.
  cleaning::RawDataCleaner cleaner_;
  annotation::Annotator annotator_;
  Status training_status_;
};

}  // namespace trips::core
