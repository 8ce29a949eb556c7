// Google-benchmark microbenchmarks of the substrates: linear algebra, GFK,
// features, detectors, re-id, and serialization. These are performance
// regression guards, not paper reproductions.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "imaging/filter.hpp"
#include "core/offline.hpp"
#include "detect/block_grid.hpp"
#include "detect/detector.hpp"
#include "detect/frame_cache.hpp"
#include "detect/sweep_scheduler.hpp"
#include "domain/gfk.hpp"
#include "features/census.hpp"
#include "features/frame_feature.hpp"
#include "features/hog.hpp"
#include "geometry/homography.hpp"
#include "linalg/decomp.hpp"
#include "linalg/kmeans.hpp"
#include "net/messages.hpp"
#include "video/scene.hpp"

namespace {

using namespace eecs;

linalg::Matrix random_matrix(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) m(r, c) = rng.normal();
  }
  return m;
}

void BM_SvdDecompose(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const linalg::Matrix a = random_matrix(n, n, 1);
  for (auto _ : state) benchmark::DoNotOptimize(linalg::svd_decompose(a));
}
BENCHMARK(BM_SvdDecompose)->Arg(16)->Arg(64);

void BM_QrDecompose(benchmark::State& state) {
  const linalg::Matrix a = random_matrix(208, 10, 2);
  for (auto _ : state) benchmark::DoNotOptimize(linalg::qr_decompose(a));
}
BENCHMARK(BM_QrDecompose);

void BM_Kmeans(benchmark::State& state) {
  const common::ScopedThreads width(static_cast<int>(state.range(0)));
  const linalg::Matrix data = random_matrix(500, 64, 3);
  for (auto _ : state) {
    Rng rng(7);
    benchmark::DoNotOptimize(linalg::kmeans(data, 32, rng));
  }
  state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_Kmeans)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_MatrixMultiply(benchmark::State& state) {
  const common::ScopedThreads width(static_cast<int>(state.range(0)));
  const linalg::Matrix a = random_matrix(192, 224, 6);
  const linalg::Matrix b = random_matrix(224, 192, 7);
  for (auto _ : state) benchmark::DoNotOptimize(a * b);
  state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_MatrixMultiply)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_GeodesicFlowKernel(benchmark::State& state) {
  const domain::VideoSubspace a = domain::build_subspace(random_matrix(14, 224, 4), 10);
  const domain::VideoSubspace b = domain::build_subspace(random_matrix(14, 224, 5), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(domain::geodesic_flow_kernel(a.basis, a.complement, b.basis));
  }
}
BENCHMARK(BM_GeodesicFlowKernel);

void BM_VideoSimilarity(benchmark::State& state) {
  const domain::VideoSubspace a = domain::build_subspace(random_matrix(14, 224, 4), 10);
  const domain::VideoSubspace b = domain::build_subspace(random_matrix(14, 224, 5), 10);
  for (auto _ : state) benchmark::DoNotOptimize(domain::video_similarity(a, b));
}
BENCHMARK(BM_VideoSimilarity);

const imaging::Image& dataset1_frame() {
  static const imaging::Image frame = [] {
    video::SceneSimulator sim(video::dataset1_lab(), 9);
    return sim.next_frame_single(0);
  }();
  return frame;
}

void BM_SceneRenderDs1(benchmark::State& state) {
  video::SceneSimulator sim(video::dataset1_lab(), 9);
  for (auto _ : state) benchmark::DoNotOptimize(sim.next_frame_single(0));
}
BENCHMARK(BM_SceneRenderDs1);

void BM_HogGrid(benchmark::State& state) {
  const common::ScopedThreads width(static_cast<int>(state.range(0)));
  const imaging::Image& frame = dataset1_frame();
  for (auto _ : state) benchmark::DoNotOptimize(features::compute_hog_grid(frame));
  state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_HogGrid)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_GaussianBlur(benchmark::State& state) {
  const common::ScopedThreads width(static_cast<int>(state.range(0)));
  const imaging::Image& frame = dataset1_frame();
  for (auto _ : state) benchmark::DoNotOptimize(imaging::gaussian_blur(frame, 1.5f));
  state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_GaussianBlur)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

const core::DetectorBank& bank() {
  static const core::DetectorBank detectors = detect::make_trained_detectors(1234);
  return detectors;
}

void BM_Detector(benchmark::State& state) {
  const auto& detector = *bank()[static_cast<std::size_t>(state.range(0))];
  const imaging::Image& frame = dataset1_frame();
  for (auto _ : state) benchmark::DoNotOptimize(detector.detect(frame));
  state.SetLabel(detect::to_string(detector.id()));
}
BENCHMARK(BM_Detector)->DenseRange(0, 3);

// One detector through an explicit FramePrecompute, optimized (score maps +
// memoized substrates) vs forced-naive (the pre-cache per-window path). Both
// use a fresh cache per iteration, so this isolates the scoring-path win.
void BM_DetectFrame(benchmark::State& state) {
  const auto& detector = *bank()[static_cast<std::size_t>(state.range(0))];
  const imaging::Image& frame = dataset1_frame();
  const bool naive = state.range(1) != 0;
  for (auto _ : state) {
    detect::FramePrecompute pre(frame, naive);
    benchmark::DoNotOptimize(detector.detect(pre));
  }
  state.SetLabel(std::string(detect::to_string(detector.id())) +
                 (naive ? "/naive" : "/optimized"));
}
BENCHMARK(BM_DetectFrame)->ArgsProduct({{0, 1, 2, 3}, {0, 1}});

// The assessment sweep: all four algorithms on one frame. shared = one
// FramePrecompute across the sweep (what core/simulation.cpp does now);
// cold = a fresh cache per algorithm (score maps, no cross-detector reuse);
// naive = the pre-cache per-window path, the old baseline.
void BM_AssessmentSweep(benchmark::State& state) {
  const imaging::Image& frame = dataset1_frame();
  // Touch the bank before timing starts: its first use trains all four
  // detectors, which must not land in this benchmark's measurement.
  const core::DetectorBank& detectors = bank();
  const int mode = static_cast<int>(state.range(0));
  for (auto _ : state) {
    if (mode == 2) {
      detect::FramePrecompute pre(frame);
      for (const auto& detector : detectors) benchmark::DoNotOptimize(detector->detect(pre));
    } else {
      for (const auto& detector : detectors) {
        detect::FramePrecompute pre(frame, /*force_naive=*/mode == 0);
        benchmark::DoNotOptimize(detector->detect(pre));
      }
    }
  }
  state.SetLabel(mode == 0 ? "naive" : (mode == 1 ? "cold-cache" : "shared-cache"));
}
BENCHMARK(BM_AssessmentSweep)->Arg(0)->Arg(1)->Arg(2);

// The context gate on the multi-camera round fan-out (all four algorithms on
// every camera view, through the scheduler's work-list): gate-off sweeps
// every (scale, row band) tile; gate-on prunes the tiles the cameras'
// ground-plane calibration rules out before any resize/channel work
// (round_phase=1, a gated round). Not bit-identical by design — the win is
// skipped work. Single threaded so the gate is the only variable.
void BM_ContextGate(benchmark::State& state) {
  const common::ScopedThreads width(1);
  const core::DetectorBank& detectors = bank();
  struct SceneData {
    std::vector<imaging::Image> frames;
    std::vector<geometry::PinholeCamera> cameras;
  };
  static const SceneData scene = [] {
    video::SceneSimulator sim(video::dataset1_lab(), 9);
    SceneData data;
    for (int c = 0; c < 4; ++c) data.frames.push_back(sim.next_frame_single(c));
    data.cameras = sim.cameras();
    return data;
  }();
  detect::ContextGateOptions opts;
  opts.enabled = state.range(0) != 0;
  for (auto _ : state) {
    detect::SweepScheduler sched(scene.frames.size(), opts, /*round_phase=*/1);
    for (std::size_t c = 0; c < scene.frames.size(); ++c) {
      for (const auto& detector : detectors) {
        sched.plan(c, scene.frames[c], *detector, &scene.cameras[c]);
      }
    }
    for (std::size_t c = 0; c < scene.frames.size(); ++c) {
      for (const auto& detector : detectors) {
        benchmark::DoNotOptimize(detector->detect(sched.at(c)));
      }
    }
  }
  state.SetLabel(opts.enabled ? "gate-on" : "gate-off");
}
BENCHMARK(BM_ContextGate)->Arg(0)->Arg(1);

// Width sweep of kernels ported onto the virtual-width lane layer in
// common/simd.hpp: scalar baseline (0), native tiers at 128/256/512 bits
// (falling back to same-width emulation where this build/CPU lacks them),
// and the forced-emulation twins (-256/-512). Outputs are bit-identical
// across every mode by contract (see tools/sim_determinism); these quantify
// the speed side of the trade. Labels carry the resolved dispatch backend
// ("sse2", "avx2", "emul512", ...) so JSON rows from hosts with different
// tiers stay distinguishable. Single threaded so the dispatch mode is the
// only variable.
void BM_SimdKernelsCensus(benchmark::State& state) {
  const common::ScopedThreads width(1);
  const simd::ScopedSimd mode(static_cast<int>(state.range(0)));
  const imaging::Image& frame = dataset1_frame();
  for (auto _ : state) benchmark::DoNotOptimize(features::census_transform(frame));
  state.SetLabel(simd::dispatch_name());
}
BENCHMARK(BM_SimdKernelsCensus)->Arg(0)->Arg(128)->Arg(256)->Arg(512)->Arg(-256)->Arg(-512);

void BM_SimdKernelsResize(benchmark::State& state) {
  const common::ScopedThreads width(1);
  const simd::ScopedSimd mode(static_cast<int>(state.range(0)));
  const imaging::Image& frame = dataset1_frame();
  // 0.6x, the kind of pyramid step the ACF octave sweep takes.
  const int nw = frame.width() * 3 / 5;
  const int nh = frame.height() * 3 / 5;
  for (auto _ : state) benchmark::DoNotOptimize(imaging::resize(frame, nw, nh));
  state.SetLabel(simd::dispatch_name());
}
BENCHMARK(BM_SimdKernelsResize)->Arg(0)->Arg(128)->Arg(256)->Arg(512)->Arg(-256)->Arg(-512);

// Gradients = magnitude (sqrt chain) + orientation (the vendored fdlibm
// atan2f of common/atan2.hpp, the kernel the detect-stage speedup rides on).
void BM_SimdKernelsGradients(benchmark::State& state) {
  const common::ScopedThreads width(1);
  const simd::ScopedSimd mode(static_cast<int>(state.range(0)));
  const imaging::Image& frame = dataset1_frame();
  for (auto _ : state) benchmark::DoNotOptimize(imaging::compute_gradients(frame));
  state.SetLabel(simd::dispatch_name());
}
BENCHMARK(BM_SimdKernelsGradients)->Arg(0)->Arg(128)->Arg(256)->Arg(512)->Arg(-256)->Arg(-512);

void BM_SimdKernelsScoreMap(benchmark::State& state) {
  const common::ScopedThreads width(1);
  const simd::ScopedSimd mode(static_cast<int>(state.range(0)));
  const imaging::Image& frame = dataset1_frame();
  const detect::BlockGrid grid(frame);
  constexpr int kWindowCells = 6;
  detect::LinearModel model;
  Rng rng(21);
  const int window_blocks = kWindowCells - 1;
  model.weights.resize(static_cast<std::size_t>(window_blocks) * window_blocks *
                       static_cast<std::size_t>(grid.block_dim()));
  for (auto& w : model.weights) w = static_cast<float>(rng.normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.score_map(model, kWindowCells, kWindowCells));
  }
  state.SetLabel(simd::dispatch_name());
}
BENCHMARK(BM_SimdKernelsScoreMap)->Arg(0)->Arg(128)->Arg(256)->Arg(512)->Arg(-256)->Arg(-512);

void BM_SimdKernelsMatmul(benchmark::State& state) {
  const common::ScopedThreads width(1);
  const simd::ScopedSimd mode(static_cast<int>(state.range(0)));
  const linalg::Matrix a = random_matrix(192, 224, 6);
  const linalg::Matrix b = random_matrix(224, 192, 7);
  for (auto _ : state) benchmark::DoNotOptimize(a * b);
  state.SetLabel(simd::dispatch_name());
}
BENCHMARK(BM_SimdKernelsMatmul)->Arg(0)->Arg(128)->Arg(256)->Arg(512)->Arg(-256)->Arg(-512);

void BM_HomographyRansac(benchmark::State& state) {
  Rng rng(11);
  const geometry::Homography truth({{{1.1, 0.05, 3}, {0.02, 0.95, -2}, {1e-4, -2e-4, 1}}});
  std::vector<geometry::PointPair> pairs;
  for (int i = 0; i < 40; ++i) {
    const geometry::Vec2 p{rng.uniform(0, 300), rng.uniform(0, 200)};
    const auto q = truth.apply(p);
    pairs.push_back({p, {q->x + rng.normal() * 0.3, q->y + rng.normal() * 0.3}});
  }
  for (auto _ : state) {
    Rng local(13);
    benchmark::DoNotOptimize(geometry::estimate_homography_ransac(pairs, local));
  }
}
BENCHMARK(BM_HomographyRansac);

void BM_MessageRoundTrip(benchmark::State& state) {
  net::DetectionMetadataMsg msg;
  msg.camera_id = 2;
  msg.frame_index = 1000;
  for (int i = 0; i < 6; ++i) {
    net::ObjectMetadata obj;
    obj.x = 10;
    obj.y = 20;
    obj.w = 30;
    obj.h = 60;
    obj.probability = 0.9f;
    obj.color_feature.assign(40, 0.5f);
    msg.objects.push_back(obj);
  }
  for (auto _ : state) {
    const auto bytes = net::encode(msg);
    benchmark::DoNotOptimize(net::decode_detection_metadata(bytes));
  }
}
BENCHMARK(BM_MessageRoundTrip);

}  // namespace

// BENCHMARK_MAIN with a default JSON report: unless the caller picked an
// output file, results also land in BENCH_micro_substrates.json so perf is
// diffable across commits.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  char out_flag[] = "--benchmark_out=BENCH_micro_substrates.json";
  char fmt_flag[] = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  eecs::bench::warn_if_debug_build();
  benchmark::AddCustomContext("eecs_ndebug", eecs::bench::kAssertsCompiledIn ? "false" : "true");
  benchmark::AddCustomContext("eecs_simd", eecs::simd::dispatch_name());
  benchmark::AddCustomContext("eecs_simd_width",
                              std::to_string(eecs::simd::dispatch_width()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
