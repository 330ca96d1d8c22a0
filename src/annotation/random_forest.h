// Random forest classifier: bagged CART trees with per-split feature
// subsampling, implemented from scratch. The default learning-based event
// identification model of the Annotator.
#pragma once

#include <memory>

#include "annotation/decision_tree.h"

namespace trips::annotation {

/// Forest hyper-parameters.
struct RandomForestOptions {
  int num_trees = 25;
  DecisionTreeOptions tree = {};
  /// Features per split; 0 = floor(sqrt(num_features)).
  size_t max_features = 0;
  uint64_t seed = 0xf0425;
};

/// Bootstrap-aggregated decision trees; probabilities are averaged over trees.
class RandomForest : public Classifier {
 public:
  explicit RandomForest(RandomForestOptions options = {});

  Status Train(const std::vector<Sample>& samples, const std::vector<int>& labels,
               int num_classes) override;
  int Predict(const Sample& x) const override;
  std::vector<double> PredictProba(const Sample& x) const override;
  std::string Name() const override { return "random_forest"; }
  int NumClasses() const override { return num_classes_; }

  size_t TreeCount() const { return trees_.size(); }

  /// Serializes the trained forest (all member trees).
  json::Value ToJson() const;
  /// Restores a forest serialized with ToJson.
  static Result<RandomForest> FromJson(const json::Value& value);

 private:
  RandomForestOptions options_;
  std::vector<DecisionTree> trees_;
  int num_classes_ = 0;
};

}  // namespace trips::annotation
