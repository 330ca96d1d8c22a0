#include "core/translator.h"

namespace trips::core {

Translator::Translator(const dsm::Dsm* dsm, TranslatorOptions options)
    : dsm_(dsm), options_(options), classifier_(options.classifier) {}

Status Translator::Init() {
  if (dsm_ == nullptr) return Status::InvalidArgument("dsm is null");
  if (!dsm_->topology_computed()) {
    return Status::FailedPrecondition("DSM topology not computed");
  }
  TRIPS_ASSIGN_OR_RETURN(dsm::RoutePlanner planner,
                         dsm::RoutePlanner::Build(dsm_, options_.routing));
  planner_.emplace(std::move(planner));
  knowledge_ = complement::MobilityKnowledge::Uniform(*dsm_);
  complementor_.emplace(CompileKnowledge(knowledge_));
  // Per-sequence layer state, hoisted: both objects are configuration-only
  // and const-thread-safe, so every translation reuses them.
  cleaner_.emplace(dsm_, &*planner_, options_.cleaner);
  annotator_.emplace(dsm_, &classifier_, options_.annotator);
  initialized_ = true;
  return Status::OK();
}

Status Translator::TrainEventModel(
    const std::vector<config::LabeledSegment>& training_data) {
  return classifier_.Train(training_data);
}

TranslationResult Translator::CleanAndAnnotate(
    const positioning::PositioningSequence& seq,
    const TranslationStageMetrics* stages) const {
  // Per-thread block, reused across sequences: each translation worker
  // reaches a steady state where the AoS->SoA conversion allocates nothing.
  static thread_local positioning::RecordBlock block;
  block.AssignFrom(seq);
  return CleanAndAnnotate(&block, nullptr, stages);
}

TranslationResult Translator::CleanAndAnnotate(
    positioning::RecordBlock* block, util::ThreadPool* pool,
    const TranslationStageMetrics* stages) const {
  TranslationResult result;
  block->SortByTime();
  block->MaterializeTo(&result.raw);
  if (stages != nullptr) {
    if (stages->sequences != nullptr) stages->sequences->Add(1);
    if (stages->records != nullptr) stages->records->Add(result.raw.records.size());
  }

  if (options_.enable_cleaning) {
    obs::StageTimer clean_timer(stages != nullptr ? stages->clean_ns : nullptr);
    const cleaning::CleaningStageMetrics* pass_stages =
        stages != nullptr ? &stages->cleaning : nullptr;
    if (cleaner_.has_value()) {
      cleaner_->CleanBlock(block, nullptr, &result.cleaning_report, pool,
                           pass_stages);
    } else {
      // Uninitialized translator (no planner yet): clean without routes.
      cleaning::RawDataCleaner cleaner(dsm_, nullptr, options_.cleaner);
      cleaner.CleanBlock(block, nullptr, &result.cleaning_report, pool,
                         pass_stages);
    }
    block->MaterializeTo(&result.cleaned);
  } else {
    result.cleaned = result.raw;
    result.cleaning_report.total_records = result.raw.records.size();
  }

  // The annotation layer consumes the cleaned columns directly. The split
  // phase is timed by the annotator itself (annotate_ns includes split_ns).
  annotation::AnnotateTimings timings;
  annotation::AnnotateTimings* timings_ptr =
      (stages != nullptr && stages->split_ns != nullptr &&
       stages->split_ns->recording())
          ? &timings
          : nullptr;
  {
    obs::StageTimer annotate_timer(stages != nullptr ? stages->annotate_ns
                                                     : nullptr);
    if (annotator_.has_value()) {
      result.original_semantics = annotator_->Annotate(*block, timings_ptr);
    } else {
      annotation::Annotator annotator(dsm_, &classifier_, options_.annotator);
      result.original_semantics = annotator.Annotate(*block, timings_ptr);
    }
  }
  if (timings_ptr != nullptr) stages->split_ns->Record(timings.split_ns);
  return result;
}

complement::MobilityKnowledge Translator::BuildKnowledgeFrom(
    const std::vector<TranslationResult>& results) const {
  complement::KnowledgeBuilder builder(dsm_);
  for (const TranslationResult& r : results) {
    builder.AddSequence(r.original_semantics);
  }
  return builder.Build(options_.knowledge_smoothing);
}

complement::Complementor Translator::CompileKnowledge(
    const complement::MobilityKnowledge& knowledge) const {
  return complement::Complementor(dsm_, &knowledge, options_.complementor);
}

void Translator::ComplementResult(TranslationResult* result,
                                  const complement::Complementor& complementor,
                                  const TranslationStageMetrics* stages) const {
  obs::StageTimer complement_timer(stages != nullptr ? stages->complement_ns
                                                     : nullptr);
  if (!options_.enable_complementing) {
    result->semantics = result->original_semantics;
    return;
  }
  result->semantics =
      complementor.Complement(result->original_semantics, &result->complement_report);
  if (stages != nullptr) {
    const complement::ComplementReport& report = result->complement_report;
    if (stages->infer_calls != nullptr) stages->infer_calls->Add(report.infer_calls);
    if (stages->infer_states_popped != nullptr) {
      stages->infer_states_popped->Add(report.infer_states_popped);
    }
  }
}

void Translator::ComplementResult(TranslationResult* result,
                                  const complement::MobilityKnowledge& knowledge,
                                  const TranslationStageMetrics* stages) const {
  ComplementResult(result, CompileKnowledge(knowledge), stages);
}

Result<std::vector<TranslationResult>> Translator::TranslateAll(
    const std::vector<positioning::PositioningSequence>& sequences) {
  if (!initialized_) return Status::FailedPrecondition("call Init() first");

  // Layers 1+2 on every sequence.
  std::vector<TranslationResult> results;
  results.reserve(sequences.size());
  for (const positioning::PositioningSequence& seq : sequences) {
    results.push_back(CleanAndAnnotate(seq));
  }

  // Knowledge construction aggregates all annotated sequences.
  complement::MobilityKnowledge learned = BuildKnowledgeFrom(results);
  if (learned.observed_transitions > 0) {
    knowledge_ = std::move(learned);
    complementor_.emplace(CompileKnowledge(knowledge_));
  }

  // Layer 3 on every sequence.
  for (TranslationResult& r : results) ComplementResult(&r, *complementor_);
  return results;
}

Result<TranslationResult> Translator::Translate(
    const positioning::PositioningSequence& seq) const {
  if (!initialized_) return Status::FailedPrecondition("call Init() first");
  TranslationResult result = CleanAndAnnotate(seq);
  ComplementResult(&result, *complementor_);
  return result;
}

}  // namespace trips::core
