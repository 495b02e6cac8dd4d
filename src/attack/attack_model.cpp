#include "attack/attack_model.h"

#include <cmath>

#include "util/error.h"

namespace dinar::attack {
namespace {

double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

}  // namespace

void LogisticAttackModel::fit(const std::vector<FeatureRow>& features,
                              const std::vector<bool>& labels, const FitConfig& config) {
  DINAR_CHECK(features.size() == labels.size(), "feature/label count mismatch");
  DINAR_CHECK(!features.empty(), "cannot fit attack model on no data");
  const auto n = static_cast<double>(features.size());

  // Standardization statistics.
  mean_.fill(0.0);
  stddev_.fill(0.0);
  for (const FeatureRow& row : features)
    for (std::size_t j = 0; j < kNumMembershipFeatures; ++j) mean_[j] += row[j];
  for (double& m : mean_) m /= n;
  for (const FeatureRow& row : features)
    for (std::size_t j = 0; j < kNumMembershipFeatures; ++j)
      stddev_[j] += (row[j] - mean_[j]) * (row[j] - mean_[j]);
  for (double& s : stddev_) s = std::max(std::sqrt(s / n), 1e-9);

  // Pre-standardize once.
  std::vector<FeatureRow> x = features;
  for (FeatureRow& row : x)
    for (std::size_t j = 0; j < kNumMembershipFeatures; ++j)
      row[j] = (row[j] - mean_[j]) / stddev_[j];

  weights_.fill(0.0);
  bias_ = 0.0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    std::array<double, kNumMembershipFeatures> grad_w{};
    double grad_b = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      double z = bias_;
      for (std::size_t j = 0; j < kNumMembershipFeatures; ++j)
        z += weights_[j] * x[i][j];
      const double err = sigmoid(z) - (labels[i] ? 1.0 : 0.0);
      for (std::size_t j = 0; j < kNumMembershipFeatures; ++j)
        grad_w[j] += err * x[i][j];
      grad_b += err;
    }
    for (std::size_t j = 0; j < kNumMembershipFeatures; ++j) {
      grad_w[j] = grad_w[j] / n + config.l2 * weights_[j];
      weights_[j] -= config.learning_rate * grad_w[j];
    }
    bias_ -= config.learning_rate * grad_b / n;
  }
  trained_ = true;
}

double LogisticAttackModel::score(const FeatureRow& row) const {
  DINAR_CHECK(trained_, "attack model not trained");
  double z = bias_;
  for (std::size_t j = 0; j < kNumMembershipFeatures; ++j)
    z += weights_[j] * (row[j] - mean_[j]) / stddev_[j];
  return sigmoid(z);
}

}  // namespace dinar::attack
