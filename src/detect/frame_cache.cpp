#include "detect/frame_cache.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"
#include "features/census.hpp"
#include "imaging/filter.hpp"
#include "obs/telemetry.hpp"

namespace eecs::detect {

FramePrecompute::FramePrecompute(const imaging::Image& frame, bool force_naive)
    : frame_(&frame), force_naive_(force_naive) {
  if constexpr (obs::kEnabled) {
    // Hoist the hit/miss counter handles once per frame; every access inside
    // the sliding-window scan is then a relaxed atomic increment. Totals are
    // order-independent, so they stay deterministic across thread widths.
    obs::MetricsRegistry& metrics = obs::current().metrics();
    static constexpr const char* kHit[kNumSubstrates] = {
        "detect.cache.scaled.hit", "detect.cache.block_grid.hit",
        "detect.cache.acf_channels.hit", "detect.cache.census.hit"};
    static constexpr const char* kMiss[kNumSubstrates] = {
        "detect.cache.scaled.miss", "detect.cache.block_grid.miss",
        "detect.cache.acf_channels.miss", "detect.cache.census.miss"};
    for (int s = 0; s < kNumSubstrates; ++s) {
      cache_hit_[s] = &metrics.counter(kHit[s]);
      cache_miss_[s] = &metrics.counter(kMiss[s]);
    }
  }
}

void FramePrecompute::count_access(Substrate substrate, bool hit) {
  obs::Counter* c = hit ? cache_hit_[substrate] : cache_miss_[substrate];
  if (c != nullptr) c->inc();
}

const imaging::Image& FramePrecompute::scaled(int width, int height) {
  EECS_EXPECTS(width > 0 && height > 0);
  if (width == frame_->width() && height == frame_->height()) return *frame_;
  const DimKey key{width, height};
  auto it = scaled_.find(key);
  count_access(kScaled, it != scaled_.end());
  if (it == scaled_.end()) {
    it = scaled_.insert_or_assign(key, imaging::resize(*frame_, width, height)).first;
  }
  return it->second;
}

const BlockGrid& FramePrecompute::block_grid(int width, int height,
                                             const features::HogParams& params,
                                             energy::CostCounter* cost) {
  const GridKey key{width, height, params.cell_size, params.block_size, params.bins};
  auto it = grids_.find(key);
  count_access(kBlockGrid, it != grids_.end());
  if (it == grids_.end()) {
    energy::CostCounter charge;
    BlockGrid grid(scaled(width, height), params, &charge);
    it = grids_.insert_or_assign(key, Entry<BlockGrid>{std::move(grid), charge}).first;
  }
  if (cost != nullptr) *cost += it->second.charge;
  return it->second.value;
}

const ChannelMap& FramePrecompute::acf_channels(int width, int height,
                                                energy::CostCounter* cost) {
  const DimKey key{width, height};
  auto it = channels_.find(key);
  count_access(kAcfChannels, it != channels_.end());
  if (it == channels_.end()) {
    energy::CostCounter charge;
    ChannelMap channels = compute_acf_channels(scaled(width, height), &charge);
    it = channels_.insert_or_assign(key, Entry<ChannelMap>{std::move(channels), charge}).first;
  }
  if (cost != nullptr) *cost += it->second.charge;
  return it->second.value;
}

const imaging::Image& FramePrecompute::gray(int width, int height) {
  const DimKey key{width, height};
  auto it = gray_.find(key);
  if (it == gray_.end()) {
    it = gray_.insert_or_assign(key, imaging::to_gray(scaled(width, height))).first;
  }
  return it->second;
}

const std::vector<std::uint8_t>& FramePrecompute::census_codes(int width, int height) {
  const DimKey key{width, height};
  auto it = census_codes_.find(key);
  if (it == census_codes_.end()) {
    it = census_codes_.insert_or_assign(key, features::census_transform(gray(width, height)))
             .first;
  }
  return it->second;
}

namespace {

/// Census code of crop pixel (x, y) of the (crop_w x crop_h) window of `gray`
/// anchored at (offset_x, offset_y), with neighbor clamping at the CROP's
/// borders — exactly what census_transform computes on the materialized crop.
std::uint8_t crop_census_code(const float* gray, int stride, int offset_x, int offset_y,
                              int crop_w, int crop_h, int x, int y) {
  const int xl = x > 0 ? x - 1 : 0;
  const int xr = x + 1 < crop_w ? x + 1 : crop_w - 1;
  const int yu = y > 0 ? y - 1 : 0;
  const int yd = y + 1 < crop_h ? y + 1 : crop_h - 1;
  const float* row = gray + static_cast<std::size_t>(offset_y + y) * static_cast<std::size_t>(stride) +
                     static_cast<std::size_t>(offset_x);
  const float* up = gray + static_cast<std::size_t>(offset_y + yu) * static_cast<std::size_t>(stride) +
                    static_cast<std::size_t>(offset_x);
  const float* dn = gray + static_cast<std::size_t>(offset_y + yd) * static_cast<std::size_t>(stride) +
                    static_cast<std::size_t>(offset_x);
  const float t = row[x] + features::kCensusThreshold;
  unsigned code = (up[xl] > t) ? 1u : 0u;
  code |= (up[x] > t) ? 2u : 0u;
  code |= (up[xr] > t) ? 4u : 0u;
  code |= (row[xl] > t) ? 8u : 0u;
  code |= (row[xr] > t) ? 16u : 0u;
  code |= (dn[xl] > t) ? 32u : 0u;
  code |= (dn[x] > t) ? 64u : 0u;
  code |= (dn[xr] > t) ? 128u : 0u;
  return static_cast<std::uint8_t>(code);
}

}  // namespace

const CensusCellGrid& FramePrecompute::census_grid(int width, int height, int offset_x,
                                                   int offset_y, energy::CostCounter* cost) {
  const CensusKey key{width, height, offset_x, offset_y};
  auto it = census_.find(key);
  count_access(kCensus, it != census_.end());
  if (it == census_.end()) {
    energy::CostCounter charge;
    // to_gray is positionwise (each output pixel depends only on the same
    // input pixel), so census on a crop of the gray plane is bit-identical to
    // census on the gray of a 3-channel crop — and the four phase offsets
    // share one luma conversion instead of paying it per offset.
    if (force_naive_) {
      // Legacy work profile: crop the 3-channel frame and run a fresh census
      // transform — including its internal luma conversion — per offset,
      // exactly as the per-window path did. to_gray is positionwise, so the
      // codes are bit-identical to the shared-gray derivation below.
      const imaging::Image& color = scaled(width, height);
      const imaging::Image shifted =
          (offset_x == 0 && offset_y == 0)
              ? color
              : color.crop(offset_x, offset_y, color.width() - offset_x,
                           color.height() - offset_y);
      CensusCellGrid grid(shifted, &charge);
      it = census_.insert_or_assign(key, Entry<CensusCellGrid>{std::move(grid), charge}).first;
      if (cost != nullptr) *cost += it->second.charge;
      return it->second.value;
    }
    const imaging::Image& base = gray(width, height);
    if (offset_x == 0 && offset_y == 0) {
      CensusCellGrid grid(base, &charge);
      it = census_.insert_or_assign(key, Entry<CensusCellGrid>{std::move(grid), charge}).first;
    } else {
      // An offset crop reaches the image's right/bottom edges, so its census
      // codes are the full-image codes shifted — except the crop's left
      // column (offset_x > 0) and top row (offset_y > 0), where clamping
      // reads different neighbors; recompute just those. Bit-identical to a
      // fresh transform of the crop at a fraction of the work.
      const int cw = base.width() - offset_x;
      const int ch = base.height() - offset_y;
      const std::vector<std::uint8_t>& full = census_codes(width, height);
      std::vector<std::uint8_t> codes(static_cast<std::size_t>(cw) * static_cast<std::size_t>(ch));
      for (int y = 0; y < ch; ++y) {
        const std::uint8_t* src = full.data() +
                                  static_cast<std::size_t>(y + offset_y) *
                                      static_cast<std::size_t>(base.width()) +
                                  static_cast<std::size_t>(offset_x);
        std::copy(src, src + cw, codes.data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(cw));
      }
      const float* g = base.plane(0).data();
      if (offset_y > 0) {
        for (int x = 0; x < cw; ++x) {
          codes[static_cast<std::size_t>(x)] =
              crop_census_code(g, base.width(), offset_x, offset_y, cw, ch, x, 0);
        }
      }
      if (offset_x > 0) {
        for (int y = 0; y < ch; ++y) {
          codes[static_cast<std::size_t>(y) * static_cast<std::size_t>(cw)] =
              crop_census_code(g, base.width(), offset_x, offset_y, cw, ch, 0, y);
        }
      }
      // Charge what the legacy fresh build would: the census transform's
      // per-pixel comparisons plus the histogram pass the ctor records.
      CensusCellGrid grid(codes, cw, ch, &charge);
      charge.add_pixels(static_cast<std::size_t>(cw) * static_cast<std::size_t>(ch) * 8);
      it = census_.insert_or_assign(key, Entry<CensusCellGrid>{std::move(grid), charge}).first;
    }
  }
  if (cost != nullptr) *cost += it->second.charge;
  return it->second.value;
}

}  // namespace eecs::detect
