#include "detect/acf_detector.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/simd.hpp"
#include "detect/frame_cache.hpp"
#include "detect/nms.hpp"
#include "imaging/filter.hpp"

namespace eecs::detect {

namespace {

/// One output row of 4x4 block-averaged color aggregation. Each lane owns
/// one output block: tap dx of lane k sits at source column 4k + dx, so the
/// four strided gathers t0..t3 are the dx taps across kLanes outputs, and
/// the add sequence acc + t0 + t1 + t2 + t3 reproduces the scalar dx
/// accumulation order per lane at every width. Tail outputs run the scalar
/// chain.
template <class F4>
void acf_color_row(const float* src, int iw, int y, int aw, float* dst) {
  static_assert(kAcfShrink == 4, "lane blocking assumes 4x4 aggregation blocks");
  const F4 area = F4::broadcast(static_cast<float>(kAcfShrink * kAcfShrink));
  int x = 0;
  for (; x + F4::kLanes <= aw; x += F4::kLanes) {
    F4 acc = F4::broadcast(0.0f);
    for (int dy = 0; dy < kAcfShrink; ++dy) {
      const float* row = src + static_cast<std::size_t>(y * kAcfShrink + dy) *
                                   static_cast<std::size_t>(iw) +
                         static_cast<std::size_t>(x * kAcfShrink);
      const F4 t0 = F4::gather_stride(row + 0, kAcfShrink);
      const F4 t1 = F4::gather_stride(row + 1, kAcfShrink);
      const F4 t2 = F4::gather_stride(row + 2, kAcfShrink);
      const F4 t3 = F4::gather_stride(row + 3, kAcfShrink);
      acc = acc + t0 + t1 + t2 + t3;
    }
    (acc / area).store(dst + y * aw + x);
  }
  for (; x < aw; ++x) {
    float s = 0.0f;
    for (int dy = 0; dy < kAcfShrink; ++dy) {
      const float* row = src + static_cast<std::size_t>(y * kAcfShrink + dy) *
                                   static_cast<std::size_t>(iw) +
                         static_cast<std::size_t>(x * kAcfShrink);
      for (int dx = 0; dx < kAcfShrink; ++dx) s += row[dx];
    }
    dst[y * aw + x] = s / (kAcfShrink * kAcfShrink);
  }
}

/// One output row of gradient-magnitude + orientation-channel aggregation.
/// Magnitude sums use the same strided-gather blocking as the color rows (tap
/// dx across kLanes outputs); the orientation bin of every source pixel is
/// computed lane-blocked (floor + min are exact), then scattered scalar in
/// (dy, dx) order into each output's private 6-bin accumulator — the same
/// float order as the scalar loop at every width.
template <class F4>
void acf_gradient_row(const float* mag_src, const float* ori_src, int iw, int y, int aw, int ah,
                      float bin_width, int orientations, float* planes, std::ptrdiff_t plane_stride,
                      float* mag_plane) {
  static_assert(kAcfShrink == 4, "lane blocking assumes 4x4 aggregation blocks");
  const F4 area = F4::broadcast(static_cast<float>(kAcfShrink * kAcfShrink));
  const F4 bw = F4::broadcast(bin_width);
  const F4 top_bin = F4::broadcast(static_cast<float>(orientations - 1));
  (void)ah;
  int x = 0;
  for (; x + F4::kLanes <= aw; x += F4::kLanes) {
    F4 macc = F4::broadcast(0.0f);
    float orient_sum[F4::kLanes][8] = {};
    for (int dy = 0; dy < kAcfShrink; ++dy) {
      const std::size_t base = static_cast<std::size_t>(y * kAcfShrink + dy) *
                                   static_cast<std::size_t>(iw) +
                               static_cast<std::size_t>(x * kAcfShrink);
      // Gather dx holds tap dx of every output lane; per output the scatter
      // drains taps in dx order, the scalar chain's order.
      float mvals[kAcfShrink][F4::kLanes];
      float bvals[kAcfShrink][F4::kLanes];
      F4 md[kAcfShrink];
      for (int dx = 0; dx < kAcfShrink; ++dx) {
        md[dx] = F4::gather_stride(mag_src + base + static_cast<std::size_t>(dx), kAcfShrink);
        const F4 o =
            F4::gather_stride(ori_src + base + static_cast<std::size_t>(dx), kAcfShrink);
        const F4 bins = F4::min(top_bin, F4::floor(o / bw));
        md[dx].store(mvals[dx]);
        bins.store(bvals[dx]);
      }
      for (int k = 0; k < F4::kLanes; ++k) {
        for (int dx = 0; dx < kAcfShrink; ++dx) {
          orient_sum[k][static_cast<int>(bvals[dx][k])] += mvals[dx][k];
        }
      }
      macc = macc + md[0] + md[1] + md[2] + md[3];
    }
    (macc / area).store(mag_plane + y * aw + x);
    for (int k = 0; k < F4::kLanes; ++k) {
      for (int o = 0; o < orientations; ++o) {
        planes[static_cast<std::ptrdiff_t>(o) * plane_stride + y * aw + x + k] =
            orient_sum[k][o] / (kAcfShrink * kAcfShrink);
      }
    }
  }
  for (; x < aw; ++x) {
    float mag_sum = 0.0f;
    float orient_sum[8] = {};
    for (int dy = 0; dy < kAcfShrink; ++dy) {
      const std::size_t base = static_cast<std::size_t>(y * kAcfShrink + dy) *
                                   static_cast<std::size_t>(iw) +
                               static_cast<std::size_t>(x * kAcfShrink);
      for (int dx = 0; dx < kAcfShrink; ++dx) {
        const float mv = mag_src[base + static_cast<std::size_t>(dx)];
        mag_sum += mv;
        const int bin = std::min(orientations - 1,
                                 static_cast<int>(ori_src[base + static_cast<std::size_t>(dx)] / bin_width));
        orient_sum[bin] += mv;
      }
    }
    mag_plane[y * aw + x] = mag_sum / (kAcfShrink * kAcfShrink);
    for (int o = 0; o < orientations; ++o) {
      planes[static_cast<std::ptrdiff_t>(o) * plane_stride + y * aw + x] =
          orient_sum[o] / (kAcfShrink * kAcfShrink);
    }
  }
}

}  // namespace

ChannelMap compute_acf_channels(const imaging::Image& img, energy::CostCounter* cost) {
  const int aw = img.width() / kAcfShrink;
  const int ah = img.height() / kAcfShrink;
  ChannelMap map;
  map.width = aw;
  map.height = ah;
  map.data.assign(static_cast<std::size_t>(kAcfChannels) * static_cast<std::size_t>(aw) *
                      static_cast<std::size_t>(ah),
                  0.0f);
  if (aw == 0 || ah == 0) return map;

  auto plane = [&](int c) {
    return map.data.data() + static_cast<std::size_t>(c) * static_cast<std::size_t>(aw) *
                                 static_cast<std::size_t>(ah);
  };

  // Color channels: block-averaged RGB (grayscale images replicate). Every
  // sample x*kAcfShrink+dx <= aw*kAcfShrink-1 <= width-1 is in bounds, so the
  // aggregation indexes source rows directly; the (dy, dx) sum order matches
  // the clamped-access form this replaces bit for bit.
  const int iw = img.width();
  simd::dispatch([&](auto isa) {
    using F4 = typename decltype(isa)::F32;
    for (int c = 0; c < 3; ++c) {
      float* dst = plane(c);
      const float* src = img.plane(img.channels() == 3 ? c : 0).data();
      for (int y = 0; y < ah; ++y) {
        acf_color_row<F4>(src, iw, y, aw, dst);
      }
    }
  });

  // Gradient magnitude + 6 orientation channels, aggregated.
  const imaging::Gradients grads = imaging::compute_gradients(img);
  constexpr int kOrientations = 6;
  const float bin_width = std::numbers::pi_v<float> / kOrientations;
  const float* mag_src = grads.magnitude.plane(0).data();
  const float* ori_src = grads.orientation.plane(0).data();
  const std::ptrdiff_t plane_stride =
      static_cast<std::ptrdiff_t>(aw) * static_cast<std::ptrdiff_t>(ah);
  simd::dispatch([&](auto isa) {
    using F4 = typename decltype(isa)::F32;
    for (int y = 0; y < ah; ++y) {
      acf_gradient_row<F4>(mag_src, ori_src, iw, y, aw, ah, bin_width, kOrientations, plane(4),
                           plane_stride, plane(3));
    }
  });

  if (cost != nullptr) {
    // One gradient pass plus one aggregation pass over all pixels.
    cost->add_pixels(2 * img.pixel_count());
  }
  return map;
}

std::vector<float> acf_window_features(const ChannelMap& channels, int x0, int y0) {
  EECS_EXPECTS(x0 >= 0 && y0 >= 0);
  EECS_EXPECTS(x0 + kAcfWindowX <= channels.width && y0 + kAcfWindowY <= channels.height);
  std::vector<float> feat;
  feat.reserve(static_cast<std::size_t>(kAcfChannels * kAcfWindowX * kAcfWindowY));
  for (int c = 0; c < kAcfChannels; ++c) {
    for (int y = 0; y < kAcfWindowY; ++y) {
      for (int x = 0; x < kAcfWindowX; ++x) feat.push_back(channels.at(x0 + x, y0 + y, c));
    }
  }
  return feat;
}

void AcfDetector::train(const TrainingSet& training_set, Rng& rng) {
  const auto x = training_set.map<std::vector<float>>([](const imaging::Image& patch) {
    return acf_window_features(compute_acf_channels(patch), 0, 0);
  });
  const std::vector<int> y = training_set.labels();
  model_ = train_adaboost(x, y, rng, params_.boost);
  total_alpha_ = 0.0;
  for (const Stump& st : model_.stumps) total_alpha_ += std::abs(static_cast<double>(st.alpha));

  std::vector<double> scores;
  for (const auto& row : x) scores.push_back(model_.score(row));
  fit_score_calibration(scores, y);
}

std::vector<Detection> AcfDetector::run(FramePrecompute& pre, energy::CostCounter* cost) const {
  EECS_EXPECTS(trained());
  std::vector<Detection> candidates;
  const double total_alpha = total_alpha_;

  for (const Rung& rung : rungs(pre.frame().width(), pre.frame().height())) {
    // Anchor geometry from the dims alone (channel maps shrink by
    // kAcfShrink), so fully pruned levels are accounted before any channel
    // work happens.
    const int aw = rung.width / kAcfShrink;
    const int ah = rung.height / kAcfShrink;
    const int max_x = aw - kAcfWindowX;
    const int max_y = ah - kAcfWindowY;
    const RowInterval anchors = sweep_rows(pre, rung, kAcfShrink, 0, max_x, max_y, cost);
    if (anchors.empty()) continue;  // Pruned by the gate: no work at all.
    level(pre, rung, cost);  // The resize the channels read, charged here.

    const ChannelMap& channels = pre.acf_channels(rung.width, rung.height, cost);
    EECS_EXPECTS(channels.width == aw && channels.height == ah);
    // Each stump's (channel, cell) coordinates are fixed by its feature
    // index; resolve them to a flat offset into this scale's channel map once
    // instead of div/mod per stump per window.
    const std::size_t cw = static_cast<std::size_t>(channels.width);
    std::vector<std::size_t> stump_off(model_.stumps.size());
    for (std::size_t k = 0; k < model_.stumps.size(); ++k) {
      const int feature = model_.stumps[k].feature;
      const int c = feature / (kAcfWindowX * kAcfWindowY);
      const int rem = feature % (kAcfWindowX * kAcfWindowY);
      const int cy = rem / kAcfWindowX;
      const int cx = rem % kAcfWindowX;
      stump_off[k] = static_cast<std::size_t>(c) * cw * static_cast<std::size_t>(channels.height) +
                     static_cast<std::size_t>(cy) * cw + static_cast<std::size_t>(cx);
    }
    const float* map_data = channels.data.data();
    const std::size_t check_every = static_cast<std::size_t>(params_.cascade_check_every);
    const std::size_t n_stumps = model_.stumps.size();
    // Per-stump constants hoisted out of the scan, in the exact doubles the
    // per-window loop produced: the signed weight a = double(alpha) *
    // double(polarity) (its negation is bit-exact because IEEE multiply is
    // sign-symmetric), the threshold widened (float compare == double compare
    // of the exact conversions), and the cascade's `remaining` sequence —
    // identical for every window, built with the same serial subtraction.
    std::vector<double> stump_a(n_stumps), stump_na(n_stumps), stump_thr(n_stumps);
    std::vector<double> remaining_after(n_stumps);
    {
      double r = total_alpha;
      for (std::size_t k = 0; k < n_stumps; ++k) {
        const Stump& st = model_.stumps[k];
        stump_a[k] = static_cast<double>(st.alpha) * static_cast<double>(st.polarity);
        stump_na[k] = -stump_a[k];
        stump_thr[k] = static_cast<double>(st.threshold);
        r -= std::abs(static_cast<double>(st.alpha));
        remaining_after[k] = r;
      }
    }
    const double reject_rhs = static_cast<double>(params_.cascade_margin) * total_alpha;
    // Evaluate stumps directly against the channel map (no feature
    // materialization), with soft-cascade early rejection. Lanes run across
    // adjacent x0 anchors: window_base steps by 1 per lane, so every stump
    // reads kLanes contiguous floats. Each lane's score is the same serial
    // sum_k ±a_k chain as the scalar loop, and each lane freezes its own
    // `evaluated` count at the first cascade check it fails (the pack keeps
    // running until all lanes are rejected — extra work, but the per-window
    // op counts the energy model charges are exact). Emission stays in
    // (y0, x0) order.
    simd::dispatch([&](auto isa) {
      using D2 = typename decltype(isa)::F64;
      constexpr int K = D2::kLanes;
      double tmp[K];
      std::size_t eval[K];
      bool rejected[K];
      for (int y0 = anchors.lo; y0 <= anchors.hi; ++y0) {
        int x0 = 0;
        for (; x0 + K <= max_x + 1; x0 += K) {
          const std::size_t window_base =
              static_cast<std::size_t>(y0) * cw + static_cast<std::size_t>(x0);
          D2 s = D2::broadcast(0.0);
          for (int l = 0; l < K; ++l) {
            rejected[l] = false;
            eval[l] = 0;
          }
          int active = K;
          std::size_t until_check = check_every;
          for (std::size_t k = 0; k < n_stumps; ++k) {
            const D2 v = D2::load2f(map_data + stump_off[k] + window_base);
            s = s + D2::select_gt(v, D2::broadcast(stump_thr[k]), D2::broadcast(stump_a[k]),
                                  D2::broadcast(stump_na[k]));
            if (--until_check == 0) {
              until_check = check_every;
              s.store(tmp);
              const double remaining = remaining_after[k];
              for (int l = 0; l < K; ++l) {
                if (!rejected[l] && tmp[l] + remaining < reject_rhs) {
                  rejected[l] = true;
                  eval[l] = k + 1;
                  --active;
                }
              }
              if (active == 0) break;
            }
          }
          s.store(tmp);
          for (int l = 0; l < K; ++l) {
            const std::size_t evaluated = rejected[l] ? eval[l] : n_stumps;
            if (cost != nullptr) cost->add_classifier(2 * evaluated);
            if (!rejected[l]) {
              emit(candidates, rung, (x0 + l) * kAcfShrink, y0 * kAcfShrink, tmp[l]);
            }
          }
        }
        for (; x0 <= max_x; ++x0) {
          const std::size_t window_base =
              static_cast<std::size_t>(y0) * cw + static_cast<std::size_t>(x0);
          double s = 0.0;
          std::size_t evaluated = 0;
          std::size_t until_check = check_every;
          bool was_rejected = false;
          for (std::size_t k = 0; k < n_stumps; ++k) {
            const double v = static_cast<double>(map_data[stump_off[k] + window_base]);
            s += (v > stump_thr[k]) ? stump_a[k] : stump_na[k];
            ++evaluated;
            if (--until_check == 0) {
              until_check = check_every;
              if (s + remaining_after[k] < reject_rhs) {
                was_rejected = true;
                break;
              }
            }
          }
          if (cost != nullptr) cost->add_classifier(2 * evaluated);
          if (!was_rejected) emit(candidates, rung, x0 * kAcfShrink, y0 * kAcfShrink, s);
        }
      }
    });
  }
  return non_max_suppression(std::move(candidates), params_.nms_iou);
}

}  // namespace eecs::detect
