// DINAR client middleware: personalization + obfuscation (Algorithm 1).
//
// Per FL round, for each protected layer p:
//   - on_download (Model Personalization, lines 1-6): install the global
//     model but keep the client's own stored private-layer parameters
//     theta_p^* instead of the server's obfuscated ones;
//   - before_upload (Model Obfuscation, lines 15-17): store the trained
//     private layer as theta_p^*, then replace it with random values in
//     the outgoing snapshot. The client's live model keeps the real
//     layer — that personalized model serves the client's predictions.
//
// The set of protected layers is normally the single consensus-agreed
// index; Figure 5's multi-layer sweep passes several.
#pragma once

#include <vector>

#include "core/obfuscation.h"
#include "fl/defense.h"
#include "util/rng.h"

namespace dinar::core {

class DinarDefense final : public fl::ClientDefense {
 public:
  DinarDefense(std::vector<std::size_t> protected_layers, Rng rng,
               ObfuscationStrategy strategy = ObfuscationStrategy::kScaledUniform);

  std::string name() const override { return "dinar"; }
  void initialize(nn::Model& model, int client_id) override;
  void on_download(nn::Model& model, const nn::FlatParams& global_params) override;
  nn::FlatParams before_upload(nn::Model& model, nn::FlatParams params,
                               std::int64_t num_samples, bool& pre_weighted) override;

  // Durable-state serde: theta_p^* per protected layer + the obfuscation
  // RNG, so a crash-recovered client re-personalizes and re-obfuscates
  // bit-identically to the uninterrupted run.
  void save_state(BinaryWriter& w) const override;
  void restore_state(BinaryReader& r) override;

 private:
  std::vector<std::size_t> protected_layers_;
  // theta_p^* per protected layer, aligned with protected_layers_.
  std::vector<nn::FlatParams> stored_private_;
  ObfuscationStrategy strategy_;
  Rng rng_;
  int client_id_ = -1;
};

}  // namespace dinar::core
