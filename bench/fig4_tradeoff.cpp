// Fig. 4: accuracy (fraction of humans detected after multi-view fusion)
// versus total energy for fixed camera/algorithm combinations on dataset #1:
// 2HOG, 2ACF, HOG+ACF (two cameras) and 4HOG, 4ACF, 2HOG+2ACF (four
// cameras). The paper's headline data point: 2HOG+2ACF consumes ~54% of
// 4HOG's energy while detecting 85% of the humans vs 92% — a ~7% accuracy
// hit for ~46% energy savings.
#include "bench_common.hpp"

using namespace eecs;
using namespace eecs::bench;

int main() {
  Stopwatch watch;
  const core::DetectorBank bank = detect::make_trained_detectors(kSeed);
  core::OfflineOptions options;
  options.algorithms = {detect::AlgorithmId::Hog, detect::AlgorithmId::Acf};
  const core::OfflineKnowledge knowledge = core::run_offline_training(bank, {1}, 42, options);
  std::printf("offline training done (%.0fs)\n", watch.seconds());

  using detect::AlgorithmId;
  struct Combo {
    std::string name;
    core::FixedCombo combo;
  };
  const std::vector<Combo> combos = {
      {"2ACF", {{{0, AlgorithmId::Acf}, {1, AlgorithmId::Acf}}}},
      {"HOG+ACF", {{{0, AlgorithmId::Hog}, {1, AlgorithmId::Acf}}}},
      {"2HOG", {{{0, AlgorithmId::Hog}, {1, AlgorithmId::Hog}}}},
      {"4ACF",
       {{{0, AlgorithmId::Acf}, {1, AlgorithmId::Acf}, {2, AlgorithmId::Acf}, {3, AlgorithmId::Acf}}}},
      {"2HOG+2ACF",
       {{{0, AlgorithmId::Hog}, {1, AlgorithmId::Hog}, {2, AlgorithmId::Acf}, {3, AlgorithmId::Acf}}}},
      {"4HOG",
       {{{0, AlgorithmId::Hog}, {1, AlgorithmId::Hog}, {2, AlgorithmId::Hog}, {3, AlgorithmId::Hog}}}},
  };

  core::FixedComboConfig config;
  config.dataset = 1;
  config.gt_frame_step = 2;
  config.models = options;

  double energy_4hog = 0.0, rate_4hog = 0.0;
  std::vector<std::vector<std::string>> rows;
  std::vector<core::SimulationResult> results;
  for (const auto& c : combos) {
    const auto result = core::run_fixed_combo(bank, knowledge, c.combo, config);
    results.push_back(result);
    if (c.name == "4HOG") {
      energy_4hog = result.total_joules();
      rate_4hog = result.detection_rate();
    }
  }
  for (std::size_t i = 0; i < combos.size(); ++i) {
    const auto& r = results[i];
    rows.push_back({combos[i].name, to_fixed(r.detection_rate(), 3),
                    format("%d/%d", r.humans_detected, r.humans_present),
                    to_fixed(r.total_joules(), 1), to_fixed(r.radio_joules, 3),
                    energy_4hog > 0 ? to_fixed(100.0 * r.total_joules() / energy_4hog, 0) + "%" : "-"});
  }
  std::printf("Fig. 4: accuracy vs energy trade-off, dataset #1 test segment\n%s\n",
              render_table({"Combo", "Recall (fused)", "Humans", "Energy J", "Radio J", "vs 4HOG"},
                           rows)
                  .c_str());
  for (std::size_t i = 0; i < combos.size(); ++i) {
    if (combos[i].name == "2HOG+2ACF" && energy_4hog > 0) {
      std::printf("2HOG+2ACF: %.0f%% of 4HOG energy at %.0f%% vs %.0f%% detection rate "
                  "(paper: ~54%% energy, 85%% vs 92%% detected)\n",
                  100.0 * results[i].total_joules() / energy_4hog,
                  100.0 * results[i].detection_rate(), 100.0 * rate_4hog);
    }
  }
  std::printf("total %.1fs\n", watch.seconds());
  return 0;
}
