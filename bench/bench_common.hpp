// Shared scaffolding for the paper-reproduction bench binaries: trained
// detector bank, segment sampling, and table printing. Every bench prints the
// paper's reported numbers next to the measured reproduction so the shape
// comparison is visible in the output itself.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "core/offline.hpp"
#include "core/simulation.hpp"
#include "obs/metrics.hpp"
#include "video/scene.hpp"

namespace eecs::bench {

/// Deterministic seed shared by all benches.
inline constexpr std::uint64_t kSeed = 1234;

/// True when this binary was compiled without NDEBUG (assertions active):
/// such timings are NOT comparable across commits and must not be committed
/// as BENCH_*.json baselines.
#ifdef NDEBUG
inline constexpr bool kAssertsCompiledIn = false;
#else
inline constexpr bool kAssertsCompiledIn = true;
#endif

/// Loud stderr warning for perf benches run from a non-benchmark build.
inline void warn_if_debug_build() {
  if (kAssertsCompiledIn) {
    std::fprintf(stderr,
                 "============================================================\n"
                 " WARNING: this bench was built WITHOUT NDEBUG (assertions\n"
                 " are active). Timings are not comparable; rebuild with\n"
                 "   cmake --preset bench && cmake --build --preset bench\n"
                 "============================================================\n");
  }
}

/// Build-flavor fragment every BENCH_*.json carries, so a debug-build run, an
/// EECS_OBS_OFF (telemetry stripped) run, or a scalar-dispatch (SIMD off) run
/// is visible in the committed artifact itself. eecs_simd records the active
/// dispatch backend ("sse2"/"avx2"/"avx512"/"neon", "emul256"/"emul512", or
/// "scalar"); eecs_simd_width its virtual lane width in bits (128/256/512),
/// so rows taken under different dispatch tiers stay comparable.
inline std::string json_build_context() {
  return format("\"ndebug\": %s, \"obs\": \"%s\", \"eecs_simd\": \"%s\", \"eecs_simd_width\": %d",
                kAssertsCompiledIn ? "false" : "true", obs::kEnabled ? "on" : "off",
                simd::dispatch_name(), simd::dispatch_width());
}

/// Sampled ground-truth frames of one (dataset, camera) segment.
struct Segment {
  std::vector<imaging::Image> frames;
  std::vector<std::vector<video::GroundTruthBox>> truths;
};

/// Collect `count` ground-truth frames of camera `camera`, starting at
/// `start_frame`, spaced `step` ground-truth strides apart.
inline Segment collect_segment(int dataset, int camera, int start_frame, int count, int step = 1,
                               std::uint64_t seed = 777) {
  video::SceneSimulator sim(video::dataset_by_id(dataset), seed);
  const int stride = sim.environment().ground_truth_stride * step;
  sim.skip(start_frame);
  Segment segment;
  for (int i = 0; i < count; ++i) {
    std::vector<video::GroundTruthBox> truth;
    segment.frames.push_back(sim.next_frame_single(camera, &truth));
    segment.truths.push_back(std::move(truth));
    sim.skip(stride - 1);
  }
  return segment;
}

/// Print an accuracy table in the paper's Table II-IV format, with the
/// paper's reference row below each measured row.
struct PaperRow {
  const char* algorithm;
  double threshold, recall, precision, f_score, joules, seconds;
};

inline void print_accuracy_table(const std::string& title,
                                 const std::vector<core::AlgorithmProfile>& measured,
                                 const std::vector<PaperRow>& paper) {
  std::printf("%s\n", title.c_str());
  std::vector<std::vector<std::string>> rows;
  for (const auto& p : measured) {
    rows.push_back({std::string(detect::to_string(p.id)) + " (measured)", to_fixed(p.threshold, 2),
                    to_fixed(p.accuracy.recall, 3), to_fixed(p.accuracy.precision, 3),
                    to_fixed(p.accuracy.f_score, 3), to_fixed(p.total_joules_per_frame(), 3),
                    to_fixed(p.seconds_per_frame, 2)});
    for (const auto& ref : paper) {
      if (std::string(ref.algorithm) == detect::to_string(p.id)) {
        rows.push_back({std::string(ref.algorithm) + " (paper)", to_fixed(ref.threshold, 2),
                        to_fixed(ref.recall, 3), to_fixed(ref.precision, 3),
                        to_fixed(ref.f_score, 3), to_fixed(ref.joules, 3),
                        to_fixed(ref.seconds, 2)});
      }
    }
  }
  std::printf("%s\n", render_table({"Alg", "Threshold", "Recall", "Precision", "F-score",
                                    "Energy J/frame", "Time s/frame"},
                                   rows)
                          .c_str());
}

/// Serialize per-stage wall-clock timings for the BENCH_*.json files.
inline std::string json_timings(const core::StageTimings& t) {
  return format(
      "{\"render_s\": %.6f, \"detect_s\": %.6f, \"features_s\": %.6f, "
      "\"controller_s\": %.6f, \"net_s\": %.6f, \"total_s\": %.6f}",
      t.render_s, t.detect_s, t.features_s, t.controller_s, t.net_s, t.total());
}

/// Write a machine-readable observability file next to the bench's stdout
/// report (BENCH_<name>.json by convention, tracked for perf trajectory).
/// Re-warns on debug builds so the notice brackets the run's output.
inline void write_bench_json(const std::string& path, const std::string& content) {
  warn_if_debug_build();
  std::ofstream out(path);
  out << content << "\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace eecs::bench
