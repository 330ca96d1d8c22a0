#include "annotation/event_classifier.h"

#include <algorithm>

#include "annotation/decision_tree.h"
#include "annotation/knn.h"
#include "annotation/logistic.h"
#include "annotation/random_forest.h"
#include "core/semantics.h"

namespace trips::annotation {

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kDecisionTree:
      return "decision_tree";
    case ModelKind::kRandomForest:
      return "random_forest";
    case ModelKind::kLogisticRegression:
      return "logistic_regression";
    case ModelKind::kKnn:
      return "knn";
  }
  return "unknown";
}

EventClassifier::EventClassifier(EventClassifierOptions options)
    : options_(options) {}

void BuildTrainingMatrix(const std::vector<config::LabeledSegment>& segments,
                         const std::vector<std::string>& vocabulary,
                         std::vector<Sample>* samples, std::vector<int>* labels) {
  samples->clear();
  labels->clear();
  positioning::RecordBlock block;  // one block, refilled per segment
  for (const config::LabeledSegment& seg : segments) {
    auto it = std::find(vocabulary.begin(), vocabulary.end(), seg.event);
    if (it == vocabulary.end()) continue;
    block.AssignFrom(seg.segment);
    FeatureVector f = ExtractFeatures(block, 0, block.Size());
    samples->emplace_back(f.begin(), f.end());
    labels->push_back(static_cast<int>(it - vocabulary.begin()));
  }
}

Status EventClassifier::Train(
    const std::vector<config::LabeledSegment>& training_data) {
  // Vocabulary = distinct event names in first-appearance order.
  std::vector<std::string> vocab;
  for (const config::LabeledSegment& seg : training_data) {
    if (std::find(vocab.begin(), vocab.end(), seg.event) == vocab.end()) {
      vocab.push_back(seg.event);
    }
  }
  if (vocab.size() < 2) {
    return Status::FailedPrecondition(
        "need designated segments for >= 2 event patterns, got " +
        std::to_string(vocab.size()));
  }

  std::vector<Sample> samples;
  std::vector<int> labels;
  BuildTrainingMatrix(training_data, vocab, &samples, &labels);

  std::unique_ptr<Classifier> model;
  switch (options_.model) {
    case ModelKind::kDecisionTree:
      model = std::make_unique<DecisionTree>();
      break;
    case ModelKind::kRandomForest:
      model = std::make_unique<RandomForest>();
      break;
    case ModelKind::kLogisticRegression:
      model = std::make_unique<LogisticRegression>();
      break;
    case ModelKind::kKnn:
      model = std::make_unique<KnnClassifier>();
      break;
  }
  TRIPS_RETURN_NOT_OK(model->Train(samples, labels, static_cast<int>(vocab.size())));
  model_ = std::move(model);
  event_names_ = std::move(vocab);
  return Status::OK();
}

std::string EventClassifier::RuleBasedIdentify(const FeatureVector& f) {
  // Thresholds follow the GPS stop/move literature adapted to indoor scale
  // and to residual positioning jitter (a stationary device still shows
  // ~0.3-0.6 m/s of apparent speed after cleaning at Wi-Fi noise levels).
  bool slow = f[kMeanSpeed] < 0.8;
  bool compact = f[kCoveringRange] < 12.0;
  bool longish = f[kDurationS] >= 120;
  if (slow && compact && longish) return core::kEventStay;
  bool directed = f[kStraightness] > 0.5 && f[kMeanSpeed] >= 0.8;
  if (directed) return core::kEventPassBy;
  if (f[kDurationS] < 60 && f[kMeanSpeed] >= 0.7) return core::kEventPassBy;
  if (slow && compact) return core::kEventStay;
  return core::kEventWander;
}

std::pair<std::string, double> EventClassifier::IdentifyWithConfidence(
    const FeatureVector& features) const {
  if (model_ == nullptr) return {RuleBasedIdentify(features), 1.0};
  Sample x(features.begin(), features.end());
  std::vector<double> probs = model_->PredictProba(x);
  int best = static_cast<int>(std::max_element(probs.begin(), probs.end()) -
                              probs.begin());
  double confidence = probs.empty() ? 0 : probs[best];
  if (confidence < options_.min_confidence) {
    return {core::kEventUnknown, confidence};
  }
  return {event_names_[best], confidence};
}

std::string EventClassifier::Identify(const FeatureVector& features) const {
  return IdentifyWithConfidence(features).first;
}

}  // namespace trips::annotation

namespace trips::annotation {

Result<json::Value> EventClassifier::ToJson() const {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("cannot serialize an untrained identifier");
  }
  json::Object root;
  root["model_kind"] = ModelKindName(options_.model);
  root["min_confidence"] = options_.min_confidence;
  json::Array events;
  for (const std::string& name : event_names_) events.push_back(name);
  root["events"] = std::move(events);
  // Each concrete model serializes itself with an embedded "type" tag.
  if (const auto* tree = dynamic_cast<const DecisionTree*>(model_.get())) {
    root["model"] = tree->ToJson();
  } else if (const auto* forest = dynamic_cast<const RandomForest*>(model_.get())) {
    root["model"] = forest->ToJson();
  } else if (const auto* logistic =
                 dynamic_cast<const LogisticRegression*>(model_.get())) {
    root["model"] = logistic->ToJson();
  } else if (const auto* knn = dynamic_cast<const KnnClassifier*>(model_.get())) {
    root["model"] = knn->ToJson();
  } else {
    return Status::NotSupported("unknown model family: " + model_->Name());
  }
  return json::Value(std::move(root));
}

Result<EventClassifier> EventClassifier::FromJson(const json::Value& value) {
  if (!value.is_object()) {
    return Status::ParseError("identifier document must be an object");
  }
  EventClassifierOptions options;
  options.min_confidence = value.GetDouble("min_confidence", 0.0);
  const json::Value* model = value.AsObject().Find("model");
  if (model == nullptr || !model->is_object()) {
    return Status::ParseError("missing 'model' object");
  }
  std::string type = model->GetString("type");
  std::unique_ptr<Classifier> restored;
  if (type == "decision_tree") {
    options.model = ModelKind::kDecisionTree;
    TRIPS_ASSIGN_OR_RETURN(DecisionTree tree, DecisionTree::FromJson(*model));
    restored = std::make_unique<DecisionTree>(std::move(tree));
  } else if (type == "random_forest") {
    options.model = ModelKind::kRandomForest;
    TRIPS_ASSIGN_OR_RETURN(RandomForest forest, RandomForest::FromJson(*model));
    restored = std::make_unique<RandomForest>(std::move(forest));
  } else if (type == "logistic_regression") {
    options.model = ModelKind::kLogisticRegression;
    TRIPS_ASSIGN_OR_RETURN(LogisticRegression logistic,
                           LogisticRegression::FromJson(*model));
    restored = std::make_unique<LogisticRegression>(std::move(logistic));
  } else if (type == "knn") {
    options.model = ModelKind::kKnn;
    TRIPS_ASSIGN_OR_RETURN(KnnClassifier knn, KnnClassifier::FromJson(*model));
    restored = std::make_unique<KnnClassifier>(std::move(knn));
  } else {
    return Status::ParseError("unknown model type '" + type + "'");
  }

  EventClassifier classifier(options);
  const json::Value* events = value.AsObject().Find("events");
  if (events == nullptr || !events->is_array() || events->AsArray().size() < 2) {
    return Status::ParseError("identifier needs >= 2 event names");
  }
  for (const json::Value& e : events->AsArray()) {
    if (!e.is_string()) return Status::ParseError("event name must be a string");
    classifier.event_names_.push_back(e.AsString());
  }
  if (restored->NumClasses() != static_cast<int>(classifier.event_names_.size())) {
    return Status::ParseError("event vocabulary does not match model classes");
  }
  classifier.model_ = std::move(restored);
  return classifier;
}

Status EventClassifier::SaveToFile(const std::string& path) const {
  TRIPS_ASSIGN_OR_RETURN(json::Value doc, ToJson());
  return json::WriteFile(doc, path);
}

Result<EventClassifier> EventClassifier::LoadFromFile(const std::string& path) {
  TRIPS_ASSIGN_OR_RETURN(json::Value doc, json::ParseFile(path));
  return FromJson(doc);
}

}  // namespace trips::annotation
