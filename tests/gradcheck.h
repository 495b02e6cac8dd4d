// Finite-difference gradient checking for layers/models.
//
// Loss is L(x) = sum(w ⊙ model(x)) for a fixed random weighting w, whose
// gradient w.r.t. the output is exactly w. Analytic input/parameter
// gradients from backward() are compared against central differences.
// float32 forward math limits attainable precision; eps and tolerances
// are chosen accordingly.
#pragma once

#include <gtest/gtest.h>

#include <cmath>

#include "nn/model.h"

namespace dinar::testing {

inline double weighted_sum(const Tensor& y, const Tensor& w) {
  double s = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i)
    s += static_cast<double>(y.at(i)) * w.at(i);
  return s;
}

// Checks dL/dparams and dL/dinput. Coordinates of large tensors are
// sampled with a stride to bound runtime.
inline void expect_gradients_match(nn::Model& model, const Tensor& x,
                                   double eps = 1e-2, double tol = 5e-2) {
  Rng rng(2024);
  Tensor y = model.forward(x, /*train=*/true);
  Tensor w = Tensor::uniform(y.shape(), rng, -1.0f, 1.0f);

  model.zero_grad();
  Tensor dx = model.backward_with_input_grad(w);

  // Parameter gradients.
  for (const nn::ParamGroup& group : model.param_layers()) {
    for (std::size_t t = 0; t < group.params.size(); ++t) {
      Tensor* param = group.params[t];
      Tensor* grad = group.grads[t];
      const std::int64_t n = param->numel();
      const std::int64_t stride = std::max<std::int64_t>(1, n / 24);
      for (std::int64_t i = 0; i < n; i += stride) {
        const float orig = param->at(i);
        param->at(i) = orig + static_cast<float>(eps);
        const double lp = weighted_sum(model.forward(x, false), w);
        param->at(i) = orig - static_cast<float>(eps);
        const double lm = weighted_sum(model.forward(x, false), w);
        param->at(i) = orig;
        const double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(grad->at(i), numeric, tol * std::max(1.0, std::fabs(numeric)))
            << group.name << " tensor " << t << " coord " << i;
      }
    }
  }

  // Input gradients.
  Tensor xm = x;
  const std::int64_t n = xm.numel();
  const std::int64_t stride = std::max<std::int64_t>(1, n / 24);
  for (std::int64_t i = 0; i < n; i += stride) {
    const float orig = xm.at(i);
    xm.at(i) = orig + static_cast<float>(eps);
    const double lp = weighted_sum(model.forward(xm, false), w);
    xm.at(i) = orig - static_cast<float>(eps);
    const double lm = weighted_sum(model.forward(xm, false), w);
    xm.at(i) = orig;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(dx.at(i), numeric, tol * std::max(1.0, std::fabs(numeric)))
        << "input coord " << i;
  }
}

}  // namespace dinar::testing
