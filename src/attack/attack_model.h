// Binary membership classifier: regularized logistic regression over the
// membership feature rows, trained by full-batch gradient descent with
// feature standardization. Small, deterministic, and strong enough to
// recover the loss/confidence gap MIAs exploit.
#pragma once

#include <vector>

#include "attack/features.h"

namespace dinar::attack {

struct AttackFitConfig {
  int epochs = 300;
  double learning_rate = 0.5;
  double l2 = 1e-4;
};

class LogisticAttackModel {
 public:
  using FitConfig = AttackFitConfig;

  // labels: true = member. Standardizes features internally.
  void fit(const std::vector<FeatureRow>& features, const std::vector<bool>& labels,
           const FitConfig& config = FitConfig());

  // P(member) for one row.
  double score(const FeatureRow& row) const;

  bool trained() const { return trained_; }

 private:
  std::array<double, kNumMembershipFeatures> weights_{};
  double bias_ = 0.0;
  std::array<double, kNumMembershipFeatures> mean_{};
  std::array<double, kNumMembershipFeatures> stddev_{};
  bool trained_ = false;
};

}  // namespace dinar::attack
