// The immutable translation engine — everything a translation needs that does
// NOT change per request: the DSM, its routing topology, the trained event
// identification model, and the baseline mobility knowledge. An Engine is
// assembled once through Engine::Builder and then never mutated, so a single
// instance can be shared (via shared_ptr<const Engine>) by any number of
// concurrent sessions and threads. Per-request state (batch-learned mobility
// knowledge, streaming buffers) lives in the sessions handed out by
// core::Service.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "config/event_editor.h"
#include "core/translator.h"
#include "dsm/dsm.h"

namespace trips::core {

/// One coherent view of the route planner's memoization cache plus the static
/// graph sizes — Engine::routing_cache_stats() is the single observability
/// surface for routing; the raw RoutePlanner accessors remain as shims
/// underneath it.
struct RoutingCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
  size_t size = 0;      ///< memoized trees currently held
  size_t nodes = 0;     ///< static routing graph nodes
  size_t portals = 0;   ///< portal nodes surviving contraction
};

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
    /// missing, builds the route planner, and trains the event model.
    Result<std::shared_ptr<const Engine>> Build();

   private:
    std::unique_ptr<dsm::Dsm> owned_dsm_;
    std::shared_ptr<const dsm::Dsm> shared_dsm_;
    const dsm::Dsm* borrowed_dsm_ = nullptr;
    std::string dsm_path_;
    TranslatorOptions options_;
    std::vector<config::LabeledSegment> training_data_;
  };

  // ---- model accessors ------------------------------------------------------

  const dsm::Dsm& dsm() const { return *dsm_; }
  const TranslatorOptions& options() const { return translator_->options(); }
  const dsm::RoutePlanner& planner() const { return *translator_->planner(); }
  const annotation::EventClassifier& classifier() const {
    return translator_->classifier();
  }
  /// Baseline mobility knowledge (uniform prior over the DSM adjacency).
  const complement::MobilityKnowledge& knowledge() const {
    return translator_->knowledge();
  }
  /// The baseline knowledge compiled once at Build(): the stream and cluster
  /// paths complement with this.
  const complement::Complementor& complementor() const {
    return translator_->complementor();
  }
  /// Outcome of event-model training at Build() time: OK when training was
  /// not requested or succeeded; kFailedPrecondition when the corpus covered
  /// fewer than two patterns (the rule-based identifier is used then).
  const Status& training_status() const { return training_status_; }
  /// The underlying (initialized, const-only) translator.
  const Translator* translator() const { return translator_.get(); }

  // ---- observability --------------------------------------------------------

  /// Snapshot of the route planner's cache counters and graph sizes. Each
  /// counter is read atomically but the struct as a whole is not one atomic
  /// snapshot (concurrent queries may land between reads) — fine for
  /// monitoring, and exact at quiescence.
  RoutingCacheStats routing_cache_stats() const {
    const dsm::RoutePlanner& p = planner();
    RoutingCacheStats stats;
    stats.hits = p.cache_hits();
    stats.misses = p.cache_misses();
    stats.evictions = p.cache_evictions();
    stats.size = p.cache_size();
    stats.nodes = p.NodeCount();
    stats.portals = p.PortalCount();
    return stats;
  }

  /// Point-query counts of the DSM's spatial index (zeroes when the index is
  /// not built).
  dsm::SpatialProbeStats spatial_probe_stats() const {
    return dsm().spatial_index().probes();
  }

  /// Drops the memoized routing trees and zeroes the cache counters. The
  /// engine stays logically immutable: the cache is pure memoization, so
  /// translation results are unaffected.
  void ClearRoutingCache() const { planner().ClearCache(); }

  /// Zeroes the spatial probe counters (benchmark phases, tests).
  void ResetSpatialProbes() const { dsm().spatial_index().ResetProbes(); }

  // ---- stateless translation primitives (all thread-safe) -------------------

  /// Cleaning + Annotation layers for one sequence. `stages` (may be null)
  /// receives per-stage timings/counts without affecting the output.
  TranslationResult CleanAndAnnotate(
      const positioning::PositioningSequence& seq,
      const TranslationStageMetrics* stages = nullptr) const {
    return translator_->CleanAndAnnotate(seq, stages);
  }
  /// Columnar Cleaning + Annotation: consumes `block` in place (no AoS
  /// rematerialization between the stages). `pool` (may be null) parallelizes
  /// cleaning inside long sequences with worker-count-independent output.
  TranslationResult CleanAndAnnotate(
      positioning::RecordBlock* block, util::ThreadPool* pool = nullptr,
      const TranslationStageMetrics* stages = nullptr) const {
    return translator_->CleanAndAnnotate(block, pool, stages);
  }
  /// Aggregates annotated results into mobility knowledge.
  complement::MobilityKnowledge BuildKnowledge(
      const std::vector<TranslationResult>& results) const {
    return translator_->BuildKnowledgeFrom(results);
  }
  /// Compiles knowledge (e.g. BuildKnowledge's) into a complementor with the
  /// engine's options, for callers that complement many results with it.
  complement::Complementor CompileKnowledge(
      const complement::MobilityKnowledge& knowledge) const {
    return translator_->CompileKnowledge(knowledge);
  }
  /// Complementing layer for one result with compiled knowledge.
  void Complement(TranslationResult* result,
                  const complement::Complementor& complementor,
                  const TranslationStageMetrics* stages = nullptr) const {
    translator_->ComplementResult(result, complementor, stages);
  }
  /// Complementing layer for one result against the given knowledge, which
  /// is compiled once for this call.
  void Complement(TranslationResult* result,
                  const complement::MobilityKnowledge& knowledge,
                  const TranslationStageMetrics* stages = nullptr) const {
    translator_->ComplementResult(result, knowledge, stages);
  }
  /// Full three-layer translation of one sequence with the baseline knowledge.
  TranslationResult Translate(const positioning::PositioningSequence& seq) const {
    TranslationResult result = CleanAndAnnotate(seq);
    Complement(&result, complementor());
    return result;
  }
  /// Columnar full translation: consumes `block` in place (the streaming
  /// path — buffers translate without ever materializing an input AoS copy).
  TranslationResult TranslateBlockWith(
      positioning::RecordBlock* block,
      const complement::Complementor& complementor,
      util::ThreadPool* pool = nullptr,
      const TranslationStageMetrics* stages = nullptr) const {
    TranslationResult result = CleanAndAnnotate(block, pool, stages);
    Complement(&result, complementor, stages);
    return result;
  }

 private:
  Engine() = default;

  std::shared_ptr<const dsm::Dsm> dsm_holder_;  // set when the engine (co)owns it
  const dsm::Dsm* dsm_ = nullptr;               // always valid after Build
  std::unique_ptr<Translator> translator_;      // initialized; used const-only
  Status training_status_;
};

}  // namespace trips::core
