// Test-only oracle for a whole batch translation: the sequential three-layer
// pass assembled from the layer classes directly — RawDataCleaner::CleanBlock,
// Annotator::Annotate, KnowledgeBuilder and Complementor — without going
// through core::Engine, its sessions or any thread pool. Service batches (any
// worker count), Engine::Translate and stream flushes must equal it byte for
// byte. Header-only; nothing outside tests/ includes it.
#pragma once

#include <vector>

#include "annotation/annotator.h"
#include "annotation/event_classifier.h"
#include "cleaning/cleaner.h"
#include "complement/complementor.h"
#include "complement/knowledge.h"
#include "core/engine.h"
#include "dsm/dsm.h"
#include "dsm/routing.h"
#include "positioning/record_block.h"

namespace trips::core::reference {

/// Cleans and annotates every sequence, builds mobility knowledge from all of
/// them when `learn_knowledge` (keeping the uniform prior when the batch shows
/// no transition, or when not learning), then complements each. Results are
/// in input order. `classifier` may be null (untrained: rule-based events).
inline Result<std::vector<TranslationResult>> TranslateAll(
    const dsm::Dsm& dsm, const std::vector<positioning::PositioningSequence>& sequences,
    const TranslatorOptions& options = {},
    const annotation::EventClassifier* classifier = nullptr,
    bool learn_knowledge = true) {
  TRIPS_ASSIGN_OR_RETURN(dsm::RoutePlanner planner,
                         dsm::RoutePlanner::Build(&dsm, options.routing));
  cleaning::RawDataCleaner cleaner(&dsm, &planner, options.cleaner);
  annotation::EventClassifier untrained(options.classifier);
  annotation::Annotator annotator(
      &dsm, classifier != nullptr ? classifier : &untrained, options.annotator);

  std::vector<TranslationResult> results(sequences.size());
  for (size_t i = 0; i < sequences.size(); ++i) {
    TranslationResult& r = results[i];
    positioning::RecordBlock block;
    block.AssignFrom(sequences[i]);
    block.SortByTime();
    block.MaterializeTo(&r.raw);
    if (options.enable_cleaning) {
      cleaner.CleanBlock(&block, nullptr, &r.cleaning_report);
      block.MaterializeTo(&r.cleaned);
    } else {
      r.cleaned = r.raw;
      r.cleaning_report.total_records = r.raw.records.size();
    }
    r.original_semantics = annotator.Annotate(block);
  }

  complement::MobilityKnowledge knowledge = complement::MobilityKnowledge::Uniform(dsm);
  if (learn_knowledge) {
    complement::KnowledgeBuilder builder(&dsm);
    for (const TranslationResult& r : results) builder.AddSequence(r.original_semantics);
    complement::MobilityKnowledge learned = builder.Build(options.knowledge_smoothing);
    if (learned.observed_transitions > 0) knowledge = std::move(learned);
  }
  complement::Complementor complementor(&dsm, &knowledge, options.complementor);
  for (TranslationResult& r : results) {
    r.semantics = complementor.Complement(r.original_semantics, &r.complement_report);
  }
  return results;
}

}  // namespace trips::core::reference
