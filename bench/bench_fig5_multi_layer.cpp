// Figure 5 (Purchase100, 6-layer FCNN): impact of obfuscating more than
// one layer. Paper: privacy is already optimal (50%) with the single most
// sensitive layer; every additional obfuscated layer only costs utility.
#include "harness/experiment.h"

namespace dinar::bench {
namespace {

int run(int argc, char** argv) {
  const double scale = parse_scale(argc, argv);
  print_header("Figure 5 — obfuscating multiple layers (Purchase100)",
               "Figure 5, §5.4");

  PreparedCase prepared = prepare_case(get_case("purchase100", scale));

  // The paper's sweep grows the protected set from the last layers down:
  // {5}, {4,5}, {3,4,5}, ..., {0..5}.
  const std::size_t j = 6;  // parameterized layers in the FCNN
  std::printf("\nprotected layer p from consensus: %zu\n\n", prepared.dinar_layer);
  print_table_header("obfuscated set",
                     {"AUC(paper)%", "AUC(ours)%", "acc(ours)%"});

  for (std::size_t first = j - 1; first + 1 >= 1; --first) {
    std::vector<std::size_t> layers;
    std::string label;
    for (std::size_t l = first; l < j; ++l) {
      layers.push_back(l);
      if (!label.empty()) label.append(1, '-');
      label.append(std::to_string(l));
    }
    fl::DefenseBundle bundle =
        core::make_dinar_bundle(layers, prepared.spec.seed ^ 0xF55);
    bundle.name = "dinar{" + label + "}";
    const ExperimentResult r = run_experiment(prepared, bundle);
    print_table_row(label,
                    {50.0, 100.0 * r.local_attack_auc,
                     100.0 * r.personalized_accuracy});
    if (first == 0) break;
  }
  std::printf("\npaper: AUC pinned at 50 for every set; accuracy degrades as more "
              "layers are obfuscated (Figure 5b).\n");
  return 0;
}

}  // namespace
}  // namespace dinar::bench

int main(int argc, char** argv) { return dinar::bench::run(argc, argv); }
