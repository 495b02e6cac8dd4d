// Figure 1: per-layer Jensen-Shannon divergence between the gradients
// produced by member and non-member predictions on an *unprotected* FL
// model, for GTSRB, CelebA, Texas100 and Purchase100. The paper observes
// one layer (typically the penultimate) leaking markedly more than the
// rest — the motivation for DINAR's fine-grained protection.
#include "core/sensitivity.h"
#include "harness/experiment.h"

namespace dinar::bench {
namespace {

int run(int argc, char** argv) {
  const double scale = parse_scale(argc, argv);
  print_header("Figure 1 — layer-level member/non-member divergence", "Figure 1, §3");

  for (const char* name : {"gtsrb", "celeba", "texas100", "purchase100"}) {
    PreparedCase prepared = prepare_case(get_case(name, scale),
                                         std::numeric_limits<double>::infinity(),
                                         /*fit_mia=*/false);

    // Train the FL model without any protection, as in the paper's setup.
    const DatasetCase& spec = prepared.spec;
    fl::SimulationConfig cfg;
    cfg.rounds = spec.rounds;
    cfg.train = fl::TrainConfig{spec.local_epochs, spec.batch_size};
    cfg.learning_rate = spec.learning_rate;
    cfg.seed = spec.seed + 7;
    fl::FederatedSimulation sim(spec.model_factory, prepared.split, cfg,
                                fl::DefenseBundle{});
    sim.run();

    // Member pool: the clients' training data; non-members: the test split.
    data::Dataset members;
    for (fl::FlClient& c : sim.clients())
      members = members.empty() ? c.train_data()
                                : data::Dataset::concat(members, c.train_data());

    nn::Model global = sim.global_model();
    core::SensitivityConfig sens;
    sens.seed = spec.seed ^ 0xF16;
    const std::vector<core::LayerSensitivity> layers =
        core::analyze_layer_sensitivity(global, members, sim.test_data(), sens);

    const std::size_t top = core::most_sensitive_layer(layers);
    std::printf("\n--- %s (%s), J = %zu parameterized layers ---\n", name,
                spec.paper_model.c_str(), layers.size());
    print_table_header("layer", {"JS divergence", "argmax"});
    for (const core::LayerSensitivity& l : layers) {
      std::string label = "[";
      label.append(std::to_string(l.layer_index)).append("] ").append(l.layer_name);
      std::printf("%-24s%12.4f%12s\n", label.substr(0, 24).c_str(), l.divergence,
                  l.layer_index == top ? "<== max" : "");
    }
    std::printf("paper: one layer (typically the penultimate, index %zu here) "
                "dominates; measured argmax = %zu\n",
                layers.size() - 2, top);
  }
  return 0;
}

}  // namespace
}  // namespace dinar::bench

int main(int argc, char** argv) { return dinar::bench::run(argc, argv); }
