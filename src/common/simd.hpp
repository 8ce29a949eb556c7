// Bit-exact portable SIMD layer: virtual-width packs (128/256/512 bits).
//
// Every pack type exists at three virtual widths (4/8/16 float lanes, 2/4/8
// double lanes) and in two interchangeable implementations per width with an
// identical API: a native one (SSE2/AVX2/AVX-512 on x86, NEON on AArch64) and
// a scalar emulation twin (`F32xEmul<W>` etc.) that executes the very same
// lane-blocked order with plain scalar IEEE arithmetic. Kernels are written
// once, templated over the pack type, and dispatched at runtime through an
// ISA tag:
//
//   template <class F4> void kernel_impl(...);   // lane-blocked body
//   simd::dispatch([&](auto isa) {
//     using F4 = typename decltype(isa)::F32;
//     kernel_impl<F4>(...);
//   });
//
// The bit-exactness contract (same as the thread-pool layer, DESIGN.md "SIMD
// & portability"): a kernel may vectorize only ACROSS independent output
// chains — one output element (or one accumulator) per lane — and must never
// reassociate a single float/double reduction chain. Every pack operation is
// a deterministic per-lane IEEE-754 operation (add/sub/mul/div/min/max,
// correctly-rounded sqrt, exact floor), so the native and emulated builds,
// every ISA, and every WIDTH produce bit-identical results by construction.
// No FMA is ever emitted through this API (mul and add round separately,
// like the scalar code they replace); every x86 build compiles with
// -ffp-contract=off so the compiler cannot fuse them behind our back (the
// avx512f target enables GCC's FMA patterns, so this flag, not the target
// strings, is what keeps them out).
//
// Runtime tiers on x86-64: the 128-bit SSE2 packs are the build baseline.
// Every optimised GCC x86-64 build also compiles the 8- and 16-lane packs,
// with no -march: each of their members carries a per-function target
// attribute (avx2 / avx512f), and `dispatch` selects a tier only when the CPU
// probe in simd.cpp says this host runs it. Baseline code must never
// call those members out of line — the host may lack the ISA, and the vector
// ABI differs — so the rule is: A PACK NEVER CROSSES AN OUT-OF-LINE CALL.
// `dispatch` enters each wide tier through one trampoline compiled for that
// tier with `flatten`, which inlines the kernel lambda and every same-TU
// helper it calls. A lambda handed to parallel_for is called through
// std::function, out of line, so a kernel dispatches INSIDE each task, never
// around the parallel loop. The `simd_tier_calls` test disassembles the test
// and tool binaries and fails on any call to a wide-pack symbol. GCC ignores
// `flatten` at -O0, so unoptimised builds compile only the baseline tier.
// Clang builds do too: the scheme rests on GCC's `flatten` inlining every
// helper into the trampoline, and has not been checked under Clang's inliner.
//
// Runtime control mirrors the threads knob: `config.simd` (runners, via
// ScopedSimd) > `EECS_SIMD` env > compiled default. Modes:
//     0            scalar emulation at the baseline width (4 lanes)
//     1 / "auto"   widest native backend compiled in AND supported by the CPU
//     128/256/512  native packs of that width when compiled in and CPU-
//                  supported, else the bit-identical emulation twin of the
//                  SAME width (so wide code paths run everywhere)
//     -128/-256/-512  forced emulation twin of that width (A/B harnesses)
//     any other negative  reset to the environment/compiled default
// `EECS_SIMD_DISABLE` (CMake option EECS_SIMD_OFF) removes every native
// backend at compile time: the fixed-width names alias the emulation and the
// compiled default flips to off.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#if !defined(EECS_SIMD_DISABLE)
#if defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))
#define EECS_SIMD_SSE2 1
#include <emmintrin.h>
#if defined(__SSE4_1__)
#include <smmintrin.h>
#endif
// The wide tiers, under target attributes, in optimised GCC x86-64 builds
// (see the header comment).
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && defined(__OPTIMIZE__)
#define EECS_SIMD_AVX2 1
#define EECS_SIMD_AVX512 1
#include <immintrin.h>
#endif
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define EECS_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif  // !EECS_SIMD_DISABLE

// Every member of a wide pack, and every trampoline into its tier, is compiled
// for that tier's ISA.
#define EECS_SIMD_TIER256 [[gnu::target("avx2")]]
#define EECS_SIMD_TIER512 [[gnu::target("avx512f")]]

namespace eecs::simd {

/// Baseline virtual width: the 128-bit packs carry 4 floats / 2 doubles.
/// Width-generic kernels should use F4::kLanes / D2::kLanes instead.
inline constexpr int kF32Lanes = 4;
inline constexpr int kF64Lanes = 2;

/// True when at least one native backend was compiled in.
#if defined(EECS_SIMD_SSE2) || defined(EECS_SIMD_NEON)
inline constexpr bool kNativeBackend = true;
#else
inline constexpr bool kNativeBackend = false;
#endif

/// Native backend that `auto` dispatches on this CPU: the widest tier that is
/// compiled in and that the CPU runs ("avx512", "avx2", "sse2", "neon"), or
/// "scalar" when no native backend is compiled in.
[[nodiscard]] const char* isa_name();

/// True when the native packs of that virtual width (128/256/512 bits) are
/// compiled in and this CPU runs them. The 128-bit tier is the build baseline.
[[nodiscard]] bool native_available(int width_bits);

/// Active dispatch backend: "avx512"/"avx2"/"sse2"/"neon" when a native
/// width is selected, "scalar" for baseline emulation, "emul256"/"emul512"
/// for the forced wide emulation twins.
[[nodiscard]] const char* dispatch_name();

/// Virtual width (in bits: 128/256/512) of the active dispatch.
[[nodiscard]] int dispatch_width();

/// True when the active dispatch runs native packs (any width).
[[nodiscard]] bool enabled();

/// Override the runtime switch with one of the mode values documented at the
/// top of this header. Returns the previous override (-1 when none was
/// active) for restore. Not thread-safe against in-flight kernels — set it
/// from the top of a run, like set_max_threads.
int set_enabled(int mode);

/// Resolved dispatch target; `dispatch()` below maps it to an ISA tag.
enum class Dispatch : int {
  kEmul128 = 0,
  kEmul256,
  kEmul512,
  kNative128,
  kNative256,
  kNative512,
};
[[nodiscard]] Dispatch current_dispatch();

/// RAII switch override for a scope; the runners apply their `simd` config
/// field with this. Negative modes other than the forced-emulation widths
/// (-128/-256/-512) leave the global switch untouched.
class ScopedSimd {
 public:
  static constexpr bool is_override(int mode) {
    return mode >= 0 || mode == -128 || mode == -256 || mode == -512;
  }
  explicit ScopedSimd(int mode) : active_(is_override(mode)), prev_(active_ ? set_enabled(mode) : 0) {}
  ~ScopedSimd() {
    if (active_) set_enabled(prev_);
  }
  ScopedSimd(const ScopedSimd&) = delete;
  ScopedSimd& operator=(const ScopedSimd&) = delete;

 private:
  bool active_;
  int prev_;
};

// ---------------------------------------------------------------------------
// Scalar emulation packs, templated over the lane count. These ARE the
// reference semantics: the native packs below implement exactly these
// per-lane operations, and every width runs the identical per-lane math.
// ---------------------------------------------------------------------------

template <int W>
struct U32xEmul {
  static constexpr int kLanes = W;
  std::uint32_t lane[W];

  static U32xEmul broadcast(std::uint32_t x) {
    U32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = x;
    return r;
  }
  [[nodiscard]] std::uint32_t extract(int i) const { return lane[i]; }

  friend U32xEmul operator&(U32xEmul a, U32xEmul b) {
    U32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] & b.lane[i];
    return r;
  }
  friend U32xEmul operator|(U32xEmul a, U32xEmul b) {
    U32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] | b.lane[i];
    return r;
  }
  friend U32xEmul operator^(U32xEmul a, U32xEmul b) {
    U32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] ^ b.lane[i];
    return r;
  }
  /// Wrapping 32-bit subtraction per lane (two's complement, like psubd).
  friend U32xEmul operator-(U32xEmul a, U32xEmul b) {
    U32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] - b.lane[i];
    return r;
  }
  /// All-ones mask per lane where a == b.
  [[nodiscard]] static U32xEmul cmpeq(U32xEmul a, U32xEmul b) {
    U32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] == b.lane[i] ? 0xFFFFFFFFu : 0u;
    return r;
  }
  /// All-ones mask per lane where a > b as SIGNED 32-bit ints (like pcmpgtd).
  [[nodiscard]] static U32xEmul cmpgt_signed(U32xEmul a, U32xEmul b) {
    U32xEmul r{};
    for (int i = 0; i < W; ++i) {
      r.lane[i] = static_cast<std::int32_t>(a.lane[i]) > static_cast<std::int32_t>(b.lane[i])
                      ? 0xFFFFFFFFu
                      : 0u;
    }
    return r;
  }
  /// True when any lane is nonzero (mask "is any lane set").
  [[nodiscard]] static bool any(U32xEmul a) {
    std::uint32_t acc = 0;
    for (int i = 0; i < W; ++i) acc |= a.lane[i];
    return acc != 0u;
  }
};

template <int W>
struct F32xEmul {
  static constexpr int kLanes = W;
  using Mask = U32xEmul<W>;
  float lane[W];

  static F32xEmul load(const float* p) {
    F32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = p[i];
    return r;
  }
  static F32xEmul broadcast(float x) {
    F32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = x;
    return r;
  }
  template <class... T>
  static F32xEmul set(T... v) {
    static_assert(sizeof...(T) == W, "set() takes exactly kLanes values");
    return {{static_cast<float>(v)...}};
  }
  /// Indexed gather: lane i = p[idx[i]] (the resize kernels' column taps).
  static F32xEmul gather(const float* p, const int* idx) {
    F32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = p[idx[i]];
    return r;
  }
  /// Strided gather: lane i = p[i * stride] (the ACF block-sum taps).
  static F32xEmul gather_stride(const float* p, std::size_t stride) {
    F32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = p[static_cast<std::size_t>(i) * stride];
    return r;
  }
  void store(float* p) const {
    for (int i = 0; i < W; ++i) p[i] = lane[i];
  }
  [[nodiscard]] float extract(int i) const { return lane[i]; }

  friend F32xEmul operator+(F32xEmul a, F32xEmul b) {
    F32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] + b.lane[i];
    return r;
  }
  friend F32xEmul operator-(F32xEmul a, F32xEmul b) {
    F32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] - b.lane[i];
    return r;
  }
  friend F32xEmul operator*(F32xEmul a, F32xEmul b) {
    F32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] * b.lane[i];
    return r;
  }
  friend F32xEmul operator/(F32xEmul a, F32xEmul b) {
    F32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] / b.lane[i];
    return r;
  }

  /// Correctly-rounded per-lane square root (IEEE-754, matches std::sqrt).
  [[nodiscard]] static F32xEmul sqrt(F32xEmul a) {
    F32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = std::sqrt(a.lane[i]);
    return r;
  }
  /// Exact per-lane floor; callers keep |x| < 2^31 (the SSE2 emulation goes
  /// through a 32-bit truncating convert).
  [[nodiscard]] static F32xEmul floor(F32xEmul a) {
    F32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = std::floor(a.lane[i]);
    return r;
  }
  /// min/max use the SSE tie rule — return b unless a is strictly
  /// less/greater — so ties (incl. ±0.0) and unordered operands are bit-exact
  /// in every backend (NEON implements them as compare + select).
  [[nodiscard]] static F32xEmul min(F32xEmul a, F32xEmul b) {
    F32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] < b.lane[i] ? a.lane[i] : b.lane[i];
    return r;
  }
  [[nodiscard]] static F32xEmul max(F32xEmul a, F32xEmul b) {
    F32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
    return r;
  }
  /// All-ones mask per lane where a > b (ordered, like the scalar >).
  [[nodiscard]] static Mask gt(F32xEmul a, F32xEmul b) {
    Mask r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] > b.lane[i] ? 0xFFFFFFFFu : 0u;
    return r;
  }
  /// All-ones mask per lane where a < b (ordered).
  [[nodiscard]] static Mask lt(F32xEmul a, F32xEmul b) {
    Mask r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] < b.lane[i] ? 0xFFFFFFFFu : 0u;
    return r;
  }
  /// All-ones mask per lane where a >= b (ordered).
  [[nodiscard]] static Mask ge(F32xEmul a, F32xEmul b) {
    Mask r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] >= b.lane[i] ? 0xFFFFFFFFu : 0u;
    return r;
  }
  /// Per-lane |x|: clears the sign bit (bitwise, so NaN payloads pass through).
  [[nodiscard]] static F32xEmul abs(F32xEmul a) {
    F32xEmul r{};
    for (int i = 0; i < W; ++i) {
      r.lane[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(a.lane[i]) & 0x7FFFFFFFu);
    }
    return r;
  }
  /// Bitwise blend: lanes of a where the mask bits are set, b elsewhere
  /// ((m & a) | (~m & b) on the raw bits, like SSE and/andnot/or or NEON bsl).
  [[nodiscard]] static F32xEmul select(Mask m, F32xEmul a, F32xEmul b) {
    F32xEmul r{};
    for (int i = 0; i < W; ++i) {
      r.lane[i] = std::bit_cast<float>((m.lane[i] & std::bit_cast<std::uint32_t>(a.lane[i])) |
                                       (~m.lane[i] & std::bit_cast<std::uint32_t>(b.lane[i])));
    }
    return r;
  }
  /// Raw IEEE-754 bit pattern per lane, and its inverse.
  [[nodiscard]] static Mask to_bits(F32xEmul a) {
    Mask r{};
    for (int i = 0; i < W; ++i) r.lane[i] = std::bit_cast<std::uint32_t>(a.lane[i]);
    return r;
  }
  [[nodiscard]] static F32xEmul from_bits(Mask a) {
    F32xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = std::bit_cast<float>(a.lane[i]);
    return r;
  }
};

template <int W>
struct F64xEmul {
  static constexpr int kLanes = W;
  double lane[W];

  static F64xEmul load(const double* p) {
    F64xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = p[i];
    return r;
  }
  static F64xEmul broadcast(double x) {
    F64xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = x;
    return r;
  }
  template <class... T>
  static F64xEmul set(T... v) {
    static_assert(sizeof...(T) == W, "set() takes exactly kLanes values");
    return {{static_cast<double>(v)...}};
  }
  /// Strided float loads widened to double: lane i = double(p[i * stride]).
  /// The score-map kernels gather adjacent windows with this (their
  /// descriptors sit `stride` floats apart). The name is historical from the
  /// 2-lane pack; it gathers kLanes values at every width.
  static F64xEmul gather2f(const float* p, std::size_t stride) {
    F64xEmul r{};
    for (int i = 0; i < W; ++i) {
      r.lane[i] = static_cast<double>(p[static_cast<std::size_t>(i) * stride]);
    }
    return r;
  }
  /// Contiguous float loads widened to double: lane i = double(p[i]).
  /// Equivalent to gather2f(p, 1) — float->double is exact, so the transposed
  /// score-map layout can swap gathers for these without changing any bit.
  static F64xEmul load2f(const float* p) {
    F64xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = static_cast<double>(p[i]);
    return r;
  }
  /// Even-lane load: lane i = p[2 * i] (the keypoint response rows read
  /// lattice points two table columns apart). The native packs load the
  /// whole span p[0 .. 2 * kLanes - 1], one double past the last lane, so
  /// the caller keeps that double readable.
  static F64xEmul load_even(const double* p) {
    F64xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = p[2 * i];
    return r;
  }
  /// Lanewise (v > t) ? x : y, false on NaN — the cascade's stump predicate.
  [[nodiscard]] static F64xEmul select_gt(F64xEmul v, F64xEmul t, F64xEmul x, F64xEmul y) {
    F64xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = v.lane[i] > t.lane[i] ? x.lane[i] : y.lane[i];
    return r;
  }
  void store(double* p) const {
    for (int i = 0; i < W; ++i) p[i] = lane[i];
  }
  [[nodiscard]] double extract(int i) const { return lane[i]; }

  friend F64xEmul operator+(F64xEmul a, F64xEmul b) {
    F64xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] + b.lane[i];
    return r;
  }
  friend F64xEmul operator-(F64xEmul a, F64xEmul b) {
    F64xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] - b.lane[i];
    return r;
  }
  friend F64xEmul operator*(F64xEmul a, F64xEmul b) {
    F64xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] * b.lane[i];
    return r;
  }
  friend F64xEmul operator/(F64xEmul a, F64xEmul b) {
    F64xEmul r{};
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] / b.lane[i];
    return r;
  }
};

using U32x4Emul = U32xEmul<4>;
using F32x4Emul = F32xEmul<4>;
using F64x2Emul = F64xEmul<2>;
using U32x8Emul = U32xEmul<8>;
using F32x8Emul = F32xEmul<8>;
using F64x4Emul = F64xEmul<4>;
using U32x16Emul = U32xEmul<16>;
using F32x16Emul = F32xEmul<16>;
using F64x8Emul = F64xEmul<8>;

/// In-place 4x4 transpose: rows (a,b,c,d) become columns. Only defined for
/// the 4-lane packs (legacy layout helper; the width-generic kernels use
/// gather_stride instead).
inline void transpose4(F32x4Emul& a, F32x4Emul& b, F32x4Emul& c, F32x4Emul& d) {
  const F32x4Emul ta = {{a.lane[0], b.lane[0], c.lane[0], d.lane[0]}};
  const F32x4Emul tb = {{a.lane[1], b.lane[1], c.lane[1], d.lane[1]}};
  const F32x4Emul tc = {{a.lane[2], b.lane[2], c.lane[2], d.lane[2]}};
  const F32x4Emul td = {{a.lane[3], b.lane[3], c.lane[3], d.lane[3]}};
  a = ta;
  b = tb;
  c = tc;
  d = td;
}

// ---------------------------------------------------------------------------
// Native backends. Each implements the exact per-lane semantics above at its
// width. The wider x86 tiers carry their ISA in a per-member target attribute
// (see the header comment); the dispatcher selects them only where the CPU
// runs them.
// ---------------------------------------------------------------------------

#if defined(EECS_SIMD_SSE2)

struct U32x4 {
  static constexpr int kLanes = 4;
  __m128i v;

  static U32x4 broadcast(std::uint32_t x) { return {_mm_set1_epi32(static_cast<int>(x))}; }
  [[nodiscard]] std::uint32_t extract(int i) const {
    alignas(16) std::uint32_t tmp[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(tmp), v);
    return tmp[i];
  }

  friend U32x4 operator&(U32x4 a, U32x4 b) { return {_mm_and_si128(a.v, b.v)}; }
  friend U32x4 operator|(U32x4 a, U32x4 b) { return {_mm_or_si128(a.v, b.v)}; }
  friend U32x4 operator^(U32x4 a, U32x4 b) { return {_mm_xor_si128(a.v, b.v)}; }
  friend U32x4 operator-(U32x4 a, U32x4 b) { return {_mm_sub_epi32(a.v, b.v)}; }
  [[nodiscard]] static U32x4 cmpeq(U32x4 a, U32x4 b) { return {_mm_cmpeq_epi32(a.v, b.v)}; }
  [[nodiscard]] static U32x4 cmpgt_signed(U32x4 a, U32x4 b) { return {_mm_cmpgt_epi32(a.v, b.v)}; }
  [[nodiscard]] static bool any(U32x4 a) {
    return _mm_movemask_epi8(_mm_cmpeq_epi32(a.v, _mm_setzero_si128())) != 0xFFFF;
  }
};

struct F32x4 {
  static constexpr int kLanes = 4;
  using Mask = U32x4;
  __m128 v;

  static F32x4 load(const float* p) { return {_mm_loadu_ps(p)}; }
  static F32x4 broadcast(float x) { return {_mm_set1_ps(x)}; }
  static F32x4 set(float a, float b, float c, float d) { return {_mm_setr_ps(a, b, c, d)}; }
  static F32x4 gather(const float* p, const int* idx) {
    return {_mm_setr_ps(p[idx[0]], p[idx[1]], p[idx[2]], p[idx[3]])};
  }
  static F32x4 gather_stride(const float* p, std::size_t stride) {
    return {_mm_setr_ps(p[0], p[stride], p[2 * stride], p[3 * stride])};
  }
  void store(float* p) const { _mm_storeu_ps(p, v); }
  [[nodiscard]] float extract(int i) const {
    alignas(16) float tmp[4];
    _mm_store_ps(tmp, v);
    return tmp[i];
  }

  friend F32x4 operator+(F32x4 a, F32x4 b) { return {_mm_add_ps(a.v, b.v)}; }
  friend F32x4 operator-(F32x4 a, F32x4 b) { return {_mm_sub_ps(a.v, b.v)}; }
  friend F32x4 operator*(F32x4 a, F32x4 b) { return {_mm_mul_ps(a.v, b.v)}; }
  friend F32x4 operator/(F32x4 a, F32x4 b) { return {_mm_div_ps(a.v, b.v)}; }

  [[nodiscard]] static F32x4 sqrt(F32x4 a) { return {_mm_sqrt_ps(a.v)}; }
  [[nodiscard]] static F32x4 floor(F32x4 a) {
#if defined(__SSE4_1__)
    return {_mm_floor_ps(a.v)};
#else
    // trunc(x), then subtract 1 where trunc rounded towards zero past the
    // floor (negative non-integers), then restore the sign bit so
    // floor(-0.0) == -0.0 (a no-op on every other input: the result already
    // carries x's sign when nonzero). Exact for |x| < 2^31.
    const __m128 t = _mm_cvtepi32_ps(_mm_cvttps_epi32(a.v));
    const __m128 one = _mm_set1_ps(1.0f);
    const __m128 f = _mm_sub_ps(t, _mm_and_ps(_mm_cmpgt_ps(t, a.v), one));
    const __m128 sign = _mm_set1_ps(-0.0f);
    return {_mm_or_ps(f, _mm_and_ps(a.v, sign))};
#endif
  }
  [[nodiscard]] static F32x4 min(F32x4 a, F32x4 b) { return {_mm_min_ps(a.v, b.v)}; }
  [[nodiscard]] static F32x4 max(F32x4 a, F32x4 b) { return {_mm_max_ps(a.v, b.v)}; }
  [[nodiscard]] static Mask gt(F32x4 a, F32x4 b) {
    return {_mm_castps_si128(_mm_cmpgt_ps(a.v, b.v))};
  }
  [[nodiscard]] static Mask lt(F32x4 a, F32x4 b) {
    return {_mm_castps_si128(_mm_cmplt_ps(a.v, b.v))};
  }
  [[nodiscard]] static Mask ge(F32x4 a, F32x4 b) {
    return {_mm_castps_si128(_mm_cmpge_ps(a.v, b.v))};
  }
  [[nodiscard]] static F32x4 abs(F32x4 a) {
    return {_mm_and_ps(a.v, _mm_castsi128_ps(_mm_set1_epi32(0x7FFFFFFF)))};
  }
  [[nodiscard]] static F32x4 select(Mask m, F32x4 a, F32x4 b) {
    const __m128 mm = _mm_castsi128_ps(m.v);
#if defined(__SSE4_1__)
    // Masks are full-lane compare results, so sign-bit blendv is exact. One
    // uop versus the three-op and/andnot/or emulation — atan2f_pack blends
    // ~26 times per pack, which made emulated select its single biggest
    // instruction cost on the pre-v2 baseline.
    return {_mm_blendv_ps(b.v, a.v, mm)};
#else
    return {_mm_or_ps(_mm_and_ps(mm, a.v), _mm_andnot_ps(mm, b.v))};
#endif
  }
  [[nodiscard]] static U32x4 to_bits(F32x4 a) { return {_mm_castps_si128(a.v)}; }
  [[nodiscard]] static F32x4 from_bits(U32x4 a) { return {_mm_castsi128_ps(a.v)}; }
};

inline void transpose4(F32x4& a, F32x4& b, F32x4& c, F32x4& d) {
  _MM_TRANSPOSE4_PS(a.v, b.v, c.v, d.v);
}

struct F64x2 {
  static constexpr int kLanes = 2;
  __m128d v;

  static F64x2 load(const double* p) { return {_mm_loadu_pd(p)}; }
  static F64x2 broadcast(double x) { return {_mm_set1_pd(x)}; }
  static F64x2 set(double lo, double hi) { return {_mm_setr_pd(lo, hi)}; }
  static F64x2 gather2f(const float* p, std::size_t stride) {
    return {_mm_setr_pd(static_cast<double>(p[0]), static_cast<double>(p[stride]))};
  }
  static F64x2 load2f(const float* p) {
    return {_mm_cvtps_pd(_mm_castsi128_ps(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))))};
  }
  static F64x2 load_even(const double* p) {
    return {_mm_unpacklo_pd(_mm_loadu_pd(p), _mm_loadu_pd(p + 2))};
  }
  [[nodiscard]] static F64x2 select_gt(F64x2 v, F64x2 t, F64x2 x, F64x2 y) {
    const __m128d m = _mm_cmpgt_pd(v.v, t.v);
#if defined(__SSE4_1__)
    return {_mm_blendv_pd(y.v, x.v, m)};
#else
    return {_mm_or_pd(_mm_and_pd(m, x.v), _mm_andnot_pd(m, y.v))};
#endif
  }
  void store(double* p) const { _mm_storeu_pd(p, v); }
  [[nodiscard]] double extract(int i) const {
    return i == 0 ? _mm_cvtsd_f64(v) : _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
  }

  friend F64x2 operator+(F64x2 a, F64x2 b) { return {_mm_add_pd(a.v, b.v)}; }
  friend F64x2 operator-(F64x2 a, F64x2 b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend F64x2 operator*(F64x2 a, F64x2 b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend F64x2 operator/(F64x2 a, F64x2 b) { return {_mm_div_pd(a.v, b.v)}; }
};

#elif defined(EECS_SIMD_NEON)

struct U32x4 {
  static constexpr int kLanes = 4;
  uint32x4_t v;

  static U32x4 broadcast(std::uint32_t x) { return {vdupq_n_u32(x)}; }
  [[nodiscard]] std::uint32_t extract(int i) const {
    std::uint32_t tmp[4];
    vst1q_u32(tmp, v);
    return tmp[i];
  }

  friend U32x4 operator&(U32x4 a, U32x4 b) { return {vandq_u32(a.v, b.v)}; }
  friend U32x4 operator|(U32x4 a, U32x4 b) { return {vorrq_u32(a.v, b.v)}; }
  friend U32x4 operator^(U32x4 a, U32x4 b) { return {veorq_u32(a.v, b.v)}; }
  friend U32x4 operator-(U32x4 a, U32x4 b) { return {vsubq_u32(a.v, b.v)}; }
  [[nodiscard]] static U32x4 cmpeq(U32x4 a, U32x4 b) { return {vceqq_u32(a.v, b.v)}; }
  [[nodiscard]] static U32x4 cmpgt_signed(U32x4 a, U32x4 b) {
    return {vcgtq_s32(vreinterpretq_s32_u32(a.v), vreinterpretq_s32_u32(b.v))};
  }
  [[nodiscard]] static bool any(U32x4 a) { return vmaxvq_u32(a.v) != 0u; }
};

struct F32x4 {
  static constexpr int kLanes = 4;
  using Mask = U32x4;
  float32x4_t v;

  static F32x4 load(const float* p) { return {vld1q_f32(p)}; }
  static F32x4 broadcast(float x) { return {vdupq_n_f32(x)}; }
  static F32x4 set(float a, float b, float c, float d) {
    const float tmp[4] = {a, b, c, d};
    return {vld1q_f32(tmp)};
  }
  static F32x4 gather(const float* p, const int* idx) {
    return set(p[idx[0]], p[idx[1]], p[idx[2]], p[idx[3]]);
  }
  static F32x4 gather_stride(const float* p, std::size_t stride) {
    return set(p[0], p[stride], p[2 * stride], p[3 * stride]);
  }
  void store(float* p) const { vst1q_f32(p, v); }
  [[nodiscard]] float extract(int i) const {
    float tmp[4];
    vst1q_f32(tmp, v);
    return tmp[i];
  }

  friend F32x4 operator+(F32x4 a, F32x4 b) { return {vaddq_f32(a.v, b.v)}; }
  friend F32x4 operator-(F32x4 a, F32x4 b) { return {vsubq_f32(a.v, b.v)}; }
  friend F32x4 operator*(F32x4 a, F32x4 b) { return {vmulq_f32(a.v, b.v)}; }
  friend F32x4 operator/(F32x4 a, F32x4 b) { return {vdivq_f32(a.v, b.v)}; }

  [[nodiscard]] static F32x4 sqrt(F32x4 a) { return {vsqrtq_f32(a.v)}; }
  [[nodiscard]] static F32x4 floor(F32x4 a) { return {vrndmq_f32(a.v)}; }
  // Compare + select, not vminq/vmaxq: NEON's native min/max disagree with
  // the SSE tie rule on ±0.0 and NaN, and the contract is bit-exactness.
  [[nodiscard]] static F32x4 min(F32x4 a, F32x4 b) {
    return {vbslq_f32(vcltq_f32(a.v, b.v), a.v, b.v)};
  }
  [[nodiscard]] static F32x4 max(F32x4 a, F32x4 b) {
    return {vbslq_f32(vcgtq_f32(a.v, b.v), a.v, b.v)};
  }
  [[nodiscard]] static Mask gt(F32x4 a, F32x4 b) { return {vcgtq_f32(a.v, b.v)}; }
  [[nodiscard]] static Mask lt(F32x4 a, F32x4 b) { return {vcltq_f32(a.v, b.v)}; }
  [[nodiscard]] static Mask ge(F32x4 a, F32x4 b) { return {vcgeq_f32(a.v, b.v)}; }
  // Bitwise sign clear (NOT vabsq_f32: that is also bitwise, but spell the
  // contract out) so NaN payloads pass through unchanged.
  [[nodiscard]] static F32x4 abs(F32x4 a) {
    return {vreinterpretq_f32_u32(vandq_u32(vreinterpretq_u32_f32(a.v), vdupq_n_u32(0x7FFFFFFFu)))};
  }
  [[nodiscard]] static F32x4 select(Mask m, F32x4 a, F32x4 b) {
    return {vbslq_f32(m.v, a.v, b.v)};
  }
  [[nodiscard]] static U32x4 to_bits(F32x4 a) { return {vreinterpretq_u32_f32(a.v)}; }
  [[nodiscard]] static F32x4 from_bits(U32x4 a) { return {vreinterpretq_f32_u32(a.v)}; }
};

inline void transpose4(F32x4& a, F32x4& b, F32x4& c, F32x4& d) {
  const float32x4x2_t ab = vtrnq_f32(a.v, b.v);
  const float32x4x2_t cd = vtrnq_f32(c.v, d.v);
  a.v = vcombine_f32(vget_low_f32(ab.val[0]), vget_low_f32(cd.val[0]));
  b.v = vcombine_f32(vget_low_f32(ab.val[1]), vget_low_f32(cd.val[1]));
  c.v = vcombine_f32(vget_high_f32(ab.val[0]), vget_high_f32(cd.val[0]));
  d.v = vcombine_f32(vget_high_f32(ab.val[1]), vget_high_f32(cd.val[1]));
}

struct F64x2 {
  static constexpr int kLanes = 2;
  float64x2_t v;

  static F64x2 load(const double* p) { return {vld1q_f64(p)}; }
  static F64x2 broadcast(double x) { return {vdupq_n_f64(x)}; }
  static F64x2 set(double lo, double hi) {
    const double tmp[2] = {lo, hi};
    return {vld1q_f64(tmp)};
  }
  static F64x2 gather2f(const float* p, std::size_t stride) {
    return set(static_cast<double>(p[0]), static_cast<double>(p[stride]));
  }
  static F64x2 load2f(const float* p) { return {vcvt_f64_f32(vld1_f32(p))}; }
  static F64x2 load_even(const double* p) { return {vld2q_f64(p).val[0]}; }
  [[nodiscard]] static F64x2 select_gt(F64x2 v, F64x2 t, F64x2 x, F64x2 y) {
    return {vbslq_f64(vcgtq_f64(v.v, t.v), x.v, y.v)};
  }
  void store(double* p) const { vst1q_f64(p, v); }
  [[nodiscard]] double extract(int i) const {
    double tmp[2];
    vst1q_f64(tmp, v);
    return tmp[i];
  }

  friend F64x2 operator+(F64x2 a, F64x2 b) { return {vaddq_f64(a.v, b.v)}; }
  friend F64x2 operator-(F64x2 a, F64x2 b) { return {vsubq_f64(a.v, b.v)}; }
  friend F64x2 operator*(F64x2 a, F64x2 b) { return {vmulq_f64(a.v, b.v)}; }
  friend F64x2 operator/(F64x2 a, F64x2 b) { return {vdivq_f64(a.v, b.v)}; }
};

#else  // scalar-only build: the native names alias the emulation.

using U32x4 = U32x4Emul;
using F32x4 = F32x4Emul;
using F64x2 = F64x2Emul;

#endif

#if defined(EECS_SIMD_AVX2)

struct U32x8 {
  static constexpr int kLanes = 8;
  __m256i v;

  EECS_SIMD_TIER256 static U32x8 broadcast(std::uint32_t x) {
    return {_mm256_set1_epi32(static_cast<int>(x))};
  }
  [[nodiscard]] EECS_SIMD_TIER256 std::uint32_t extract(int i) const {
    alignas(32) std::uint32_t tmp[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), v);
    return tmp[i];
  }

  EECS_SIMD_TIER256 friend U32x8 operator&(U32x8 a, U32x8 b) {
    return {_mm256_and_si256(a.v, b.v)};
  }
  EECS_SIMD_TIER256 friend U32x8 operator|(U32x8 a, U32x8 b) { return {_mm256_or_si256(a.v, b.v)}; }
  EECS_SIMD_TIER256 friend U32x8 operator^(U32x8 a, U32x8 b) {
    return {_mm256_xor_si256(a.v, b.v)};
  }
  EECS_SIMD_TIER256 friend U32x8 operator-(U32x8 a, U32x8 b) {
    return {_mm256_sub_epi32(a.v, b.v)};
  }
  [[nodiscard]] EECS_SIMD_TIER256 static U32x8 cmpeq(U32x8 a, U32x8 b) {
    return {_mm256_cmpeq_epi32(a.v, b.v)};
  }
  [[nodiscard]] EECS_SIMD_TIER256 static U32x8 cmpgt_signed(U32x8 a, U32x8 b) {
    return {_mm256_cmpgt_epi32(a.v, b.v)};
  }
  [[nodiscard]] EECS_SIMD_TIER256 static bool any(U32x8 a) {
    return _mm256_testz_si256(a.v, a.v) == 0;
  }
};

struct F32x8 {
  static constexpr int kLanes = 8;
  using Mask = U32x8;
  __m256 v;

  EECS_SIMD_TIER256 static F32x8 load(const float* p) { return {_mm256_loadu_ps(p)}; }
  EECS_SIMD_TIER256 static F32x8 broadcast(float x) { return {_mm256_set1_ps(x)}; }
  EECS_SIMD_TIER256 static F32x8 set(float a, float b, float c, float d, float e, float f,
                                     float g, float h) {
    return {_mm256_setr_ps(a, b, c, d, e, f, g, h)};
  }
  EECS_SIMD_TIER256 static F32x8 gather(const float* p, const int* idx) {
    return {_mm256_i32gather_ps(p, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx)), 4)};
  }
  EECS_SIMD_TIER256 static F32x8 gather_stride(const float* p, std::size_t stride) {
    return {_mm256_setr_ps(p[0], p[stride], p[2 * stride], p[3 * stride], p[4 * stride],
                           p[5 * stride], p[6 * stride], p[7 * stride])};
  }
  EECS_SIMD_TIER256 void store(float* p) const { _mm256_storeu_ps(p, v); }
  [[nodiscard]] EECS_SIMD_TIER256 float extract(int i) const {
    alignas(32) float tmp[8];
    _mm256_store_ps(tmp, v);
    return tmp[i];
  }

  EECS_SIMD_TIER256 friend F32x8 operator+(F32x8 a, F32x8 b) { return {_mm256_add_ps(a.v, b.v)}; }
  EECS_SIMD_TIER256 friend F32x8 operator-(F32x8 a, F32x8 b) { return {_mm256_sub_ps(a.v, b.v)}; }
  EECS_SIMD_TIER256 friend F32x8 operator*(F32x8 a, F32x8 b) { return {_mm256_mul_ps(a.v, b.v)}; }
  EECS_SIMD_TIER256 friend F32x8 operator/(F32x8 a, F32x8 b) { return {_mm256_div_ps(a.v, b.v)}; }

  [[nodiscard]] EECS_SIMD_TIER256 static F32x8 sqrt(F32x8 a) { return {_mm256_sqrt_ps(a.v)}; }
  [[nodiscard]] EECS_SIMD_TIER256 static F32x8 floor(F32x8 a) { return {_mm256_floor_ps(a.v)}; }
  // AVX vminps/vmaxps keep the SSE tie rule (return b on ties/NaN).
  [[nodiscard]] EECS_SIMD_TIER256 static F32x8 min(F32x8 a, F32x8 b) {
    return {_mm256_min_ps(a.v, b.v)};
  }
  [[nodiscard]] EECS_SIMD_TIER256 static F32x8 max(F32x8 a, F32x8 b) {
    return {_mm256_max_ps(a.v, b.v)};
  }
  // _CMP_*_OQ returns the same mask values as the SSE cmpgt/cmplt/cmpge
  // (signaling-ness only affects FP exception flags, never results).
  [[nodiscard]] EECS_SIMD_TIER256 static Mask gt(F32x8 a, F32x8 b) {
    return {_mm256_castps_si256(_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ))};
  }
  [[nodiscard]] EECS_SIMD_TIER256 static Mask lt(F32x8 a, F32x8 b) {
    return {_mm256_castps_si256(_mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ))};
  }
  [[nodiscard]] EECS_SIMD_TIER256 static Mask ge(F32x8 a, F32x8 b) {
    return {_mm256_castps_si256(_mm256_cmp_ps(a.v, b.v, _CMP_GE_OQ))};
  }
  [[nodiscard]] EECS_SIMD_TIER256 static F32x8 abs(F32x8 a) {
    return {_mm256_and_ps(a.v, _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF)))};
  }
  [[nodiscard]] EECS_SIMD_TIER256 static F32x8 select(Mask m, F32x8 a, F32x8 b) {
    const __m256 mm = _mm256_castsi256_ps(m.v);
    return {_mm256_or_ps(_mm256_and_ps(mm, a.v), _mm256_andnot_ps(mm, b.v))};
  }
  [[nodiscard]] EECS_SIMD_TIER256 static U32x8 to_bits(F32x8 a) {
    return {_mm256_castps_si256(a.v)};
  }
  [[nodiscard]] EECS_SIMD_TIER256 static F32x8 from_bits(U32x8 a) {
    return {_mm256_castsi256_ps(a.v)};
  }
};

struct F64x4 {
  static constexpr int kLanes = 4;
  __m256d v;

  EECS_SIMD_TIER256 static F64x4 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  EECS_SIMD_TIER256 static F64x4 broadcast(double x) { return {_mm256_set1_pd(x)}; }
  EECS_SIMD_TIER256 static F64x4 set(double a, double b, double c, double d) {
    return {_mm256_setr_pd(a, b, c, d)};
  }
  EECS_SIMD_TIER256 static F64x4 gather2f(const float* p, std::size_t stride) {
    return {_mm256_setr_pd(static_cast<double>(p[0]), static_cast<double>(p[stride]),
                           static_cast<double>(p[2 * stride]),
                           static_cast<double>(p[3 * stride]))};
  }
  EECS_SIMD_TIER256 static F64x4 load2f(const float* p) {
    return {_mm256_cvtps_pd(_mm_loadu_ps(p))};
  }
  // unpacklo gives (p0, p4, p2, p6); the lane permute puts them in order.
  EECS_SIMD_TIER256 static F64x4 load_even(const double* p) {
    const __m256d mixed = _mm256_unpacklo_pd(_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4));
    return {_mm256_permute4x64_pd(mixed, _MM_SHUFFLE(3, 1, 2, 0))};
  }
  [[nodiscard]] EECS_SIMD_TIER256 static F64x4 select_gt(F64x4 v, F64x4 t, F64x4 x, F64x4 y) {
    return {_mm256_blendv_pd(y.v, x.v, _mm256_cmp_pd(v.v, t.v, _CMP_GT_OQ))};
  }
  EECS_SIMD_TIER256 void store(double* p) const { _mm256_storeu_pd(p, v); }
  [[nodiscard]] EECS_SIMD_TIER256 double extract(int i) const {
    alignas(32) double tmp[4];
    _mm256_store_pd(tmp, v);
    return tmp[i];
  }

  EECS_SIMD_TIER256 friend F64x4 operator+(F64x4 a, F64x4 b) { return {_mm256_add_pd(a.v, b.v)}; }
  EECS_SIMD_TIER256 friend F64x4 operator-(F64x4 a, F64x4 b) { return {_mm256_sub_pd(a.v, b.v)}; }
  EECS_SIMD_TIER256 friend F64x4 operator*(F64x4 a, F64x4 b) { return {_mm256_mul_pd(a.v, b.v)}; }
  EECS_SIMD_TIER256 friend F64x4 operator/(F64x4 a, F64x4 b) { return {_mm256_div_pd(a.v, b.v)}; }
};

#endif  // EECS_SIMD_AVX2

#if defined(EECS_SIMD_AVX512)

// GCC 12's unmasked sqrt, gather, min, max, roundscale and cvtps_pd merge
// into an `_mm512_undefined_*()` source, which its -Wmaybe-uninitialized
// then flags. These packs call the masked forms with a zero source and an
// all-ones mask instead: the same instruction on every lane.

struct U32x16 {
  static constexpr int kLanes = 16;
  __m512i v;

  EECS_SIMD_TIER512 static U32x16 broadcast(std::uint32_t x) {
    return {_mm512_set1_epi32(static_cast<int>(x))};
  }
  [[nodiscard]] EECS_SIMD_TIER512 std::uint32_t extract(int i) const {
    alignas(64) std::uint32_t tmp[16];
    _mm512_store_si512(tmp, v);
    return tmp[i];
  }

  EECS_SIMD_TIER512 friend U32x16 operator&(U32x16 a, U32x16 b) {
    return {_mm512_and_si512(a.v, b.v)};
  }
  EECS_SIMD_TIER512 friend U32x16 operator|(U32x16 a, U32x16 b) {
    return {_mm512_or_si512(a.v, b.v)};
  }
  EECS_SIMD_TIER512 friend U32x16 operator^(U32x16 a, U32x16 b) {
    return {_mm512_xor_si512(a.v, b.v)};
  }
  EECS_SIMD_TIER512 friend U32x16 operator-(U32x16 a, U32x16 b) {
    return {_mm512_sub_epi32(a.v, b.v)};
  }
  // AVX-512 compares produce k-masks; expand back to the full-width all-ones
  // vector masks of the narrower ISAs (masks double as DATA in the census
  // and atan2 kernels, so the representation is part of the contract).
  [[nodiscard]] EECS_SIMD_TIER512 static U32x16 cmpeq(U32x16 a, U32x16 b) {
    return {_mm512_maskz_set1_epi32(_mm512_cmpeq_epi32_mask(a.v, b.v), -1)};
  }
  [[nodiscard]] EECS_SIMD_TIER512 static U32x16 cmpgt_signed(U32x16 a, U32x16 b) {
    return {_mm512_maskz_set1_epi32(_mm512_cmpgt_epi32_mask(a.v, b.v), -1)};
  }
  [[nodiscard]] EECS_SIMD_TIER512 static bool any(U32x16 a) {
    return _mm512_test_epi32_mask(a.v, a.v) != 0;
  }
};

struct F32x16 {
  static constexpr int kLanes = 16;
  using Mask = U32x16;
  __m512 v;

  EECS_SIMD_TIER512 static F32x16 load(const float* p) { return {_mm512_loadu_ps(p)}; }
  EECS_SIMD_TIER512 static F32x16 broadcast(float x) { return {_mm512_set1_ps(x)}; }
  EECS_SIMD_TIER512 static F32x16 set(float a, float b, float c, float d, float e, float f,
                                      float g, float h, float i, float j, float k, float l,
                                      float m, float n, float o, float q) {
    return {_mm512_setr_ps(a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, q)};
  }
  EECS_SIMD_TIER512 static F32x16 gather(const float* p, const int* idx) {
    return {
        _mm512_mask_i32gather_ps(_mm512_setzero_ps(), 0xFFFF, _mm512_loadu_si512(idx), p, 4)};
  }
  EECS_SIMD_TIER512 static F32x16 gather_stride(const float* p, std::size_t stride) {
    alignas(64) float tmp[16];
    for (int i = 0; i < 16; ++i) tmp[i] = p[static_cast<std::size_t>(i) * stride];
    return {_mm512_load_ps(tmp)};
  }
  EECS_SIMD_TIER512 void store(float* p) const { _mm512_storeu_ps(p, v); }
  [[nodiscard]] EECS_SIMD_TIER512 float extract(int i) const {
    alignas(64) float tmp[16];
    _mm512_store_ps(tmp, v);
    return tmp[i];
  }

  EECS_SIMD_TIER512 friend F32x16 operator+(F32x16 a, F32x16 b) {
    return {_mm512_add_ps(a.v, b.v)};
  }
  EECS_SIMD_TIER512 friend F32x16 operator-(F32x16 a, F32x16 b) {
    return {_mm512_sub_ps(a.v, b.v)};
  }
  EECS_SIMD_TIER512 friend F32x16 operator*(F32x16 a, F32x16 b) {
    return {_mm512_mul_ps(a.v, b.v)};
  }
  EECS_SIMD_TIER512 friend F32x16 operator/(F32x16 a, F32x16 b) {
    return {_mm512_div_ps(a.v, b.v)};
  }

  [[nodiscard]] EECS_SIMD_TIER512 static F32x16 sqrt(F32x16 a) {
    return {_mm512_mask_sqrt_ps(_mm512_setzero_ps(), 0xFFFF, a.v)};
  }
  [[nodiscard]] EECS_SIMD_TIER512 static F32x16 floor(F32x16 a) {
    return {_mm512_mask_roundscale_ps(_mm512_setzero_ps(), 0xFFFF, a.v,
                                      _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC)};
  }
  // AVX-512 vminps/vmaxps keep the SSE tie rule (return b on ties/NaN).
  [[nodiscard]] EECS_SIMD_TIER512 static F32x16 min(F32x16 a, F32x16 b) {
    return {_mm512_mask_min_ps(_mm512_setzero_ps(), 0xFFFF, a.v, b.v)};
  }
  [[nodiscard]] EECS_SIMD_TIER512 static F32x16 max(F32x16 a, F32x16 b) {
    return {_mm512_mask_max_ps(_mm512_setzero_ps(), 0xFFFF, a.v, b.v)};
  }
  [[nodiscard]] EECS_SIMD_TIER512 static Mask gt(F32x16 a, F32x16 b) {
    return {_mm512_maskz_set1_epi32(_mm512_cmp_ps_mask(a.v, b.v, _CMP_GT_OQ), -1)};
  }
  [[nodiscard]] EECS_SIMD_TIER512 static Mask lt(F32x16 a, F32x16 b) {
    return {_mm512_maskz_set1_epi32(_mm512_cmp_ps_mask(a.v, b.v, _CMP_LT_OQ), -1)};
  }
  [[nodiscard]] EECS_SIMD_TIER512 static Mask ge(F32x16 a, F32x16 b) {
    return {_mm512_maskz_set1_epi32(_mm512_cmp_ps_mask(a.v, b.v, _CMP_GE_OQ), -1)};
  }
  [[nodiscard]] EECS_SIMD_TIER512 static F32x16 abs(F32x16 a) {
    return {_mm512_castsi512_ps(
        _mm512_and_si512(_mm512_castps_si512(a.v), _mm512_set1_epi32(0x7FFFFFFF)))};
  }
  // (m & a) | (~m & b) in one ternlog: imm 0xCA selects B where A else C.
  [[nodiscard]] EECS_SIMD_TIER512 static F32x16 select(Mask m, F32x16 a, F32x16 b) {
    return {_mm512_castsi512_ps(_mm512_ternarylogic_epi32(
        m.v, _mm512_castps_si512(a.v), _mm512_castps_si512(b.v), 0xCA))};
  }
  [[nodiscard]] EECS_SIMD_TIER512 static U32x16 to_bits(F32x16 a) {
    return {_mm512_castps_si512(a.v)};
  }
  [[nodiscard]] EECS_SIMD_TIER512 static F32x16 from_bits(U32x16 a) {
    return {_mm512_castsi512_ps(a.v)};
  }
};

struct F64x8 {
  static constexpr int kLanes = 8;
  __m512d v;

  EECS_SIMD_TIER512 static F64x8 load(const double* p) { return {_mm512_loadu_pd(p)}; }
  EECS_SIMD_TIER512 static F64x8 broadcast(double x) { return {_mm512_set1_pd(x)}; }
  EECS_SIMD_TIER512 static F64x8 set(double a, double b, double c, double d, double e,
                                     double f, double g, double h) {
    return {_mm512_setr_pd(a, b, c, d, e, f, g, h)};
  }
  EECS_SIMD_TIER512 static F64x8 gather2f(const float* p, std::size_t stride) {
    alignas(64) double tmp[8];
    for (int i = 0; i < 8; ++i) {
      tmp[i] = static_cast<double>(p[static_cast<std::size_t>(i) * stride]);
    }
    return {_mm512_load_pd(tmp)};
  }
  EECS_SIMD_TIER512 static F64x8 load2f(const float* p) {
    return {_mm512_mask_cvtps_pd(_mm512_setzero_pd(), 0xFF, _mm256_loadu_ps(p))};
  }
  EECS_SIMD_TIER512 static F64x8 load_even(const double* p) {
    const __m512i even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    return {_mm512_permutex2var_pd(_mm512_loadu_pd(p), even, _mm512_loadu_pd(p + 8))};
  }
  [[nodiscard]] EECS_SIMD_TIER512 static F64x8 select_gt(F64x8 v, F64x8 t, F64x8 x, F64x8 y) {
    return {_mm512_mask_blend_pd(_mm512_cmp_pd_mask(v.v, t.v, _CMP_GT_OQ), y.v, x.v)};
  }
  EECS_SIMD_TIER512 void store(double* p) const { _mm512_storeu_pd(p, v); }
  [[nodiscard]] EECS_SIMD_TIER512 double extract(int i) const {
    alignas(64) double tmp[8];
    _mm512_store_pd(tmp, v);
    return tmp[i];
  }

  EECS_SIMD_TIER512 friend F64x8 operator+(F64x8 a, F64x8 b) { return {_mm512_add_pd(a.v, b.v)}; }
  EECS_SIMD_TIER512 friend F64x8 operator-(F64x8 a, F64x8 b) { return {_mm512_sub_pd(a.v, b.v)}; }
  EECS_SIMD_TIER512 friend F64x8 operator*(F64x8 a, F64x8 b) { return {_mm512_mul_pd(a.v, b.v)}; }
  EECS_SIMD_TIER512 friend F64x8 operator/(F64x8 a, F64x8 b) { return {_mm512_div_pd(a.v, b.v)}; }
};

#endif  // EECS_SIMD_AVX512

// ---------------------------------------------------------------------------
// ISA tags and the runtime dispatcher. A tag bundles the pack types of one
// (width, native-or-emulated) combination; `dispatch(fn)` invokes fn with the
// tag matching the current runtime mode. All tags produce bit-identical
// results — the dispatcher only selects how fast they are computed.
// ---------------------------------------------------------------------------

struct IsaEmul128 {
  using F32 = F32xEmul<4>;
  using U32 = U32xEmul<4>;
  using F64 = F64xEmul<2>;
  static constexpr int kWidthBits = 128;
  static constexpr bool kIsNative = false;
};
struct IsaEmul256 {
  using F32 = F32xEmul<8>;
  using U32 = U32xEmul<8>;
  using F64 = F64xEmul<4>;
  static constexpr int kWidthBits = 256;
  static constexpr bool kIsNative = false;
};
struct IsaEmul512 {
  using F32 = F32xEmul<16>;
  using U32 = U32xEmul<16>;
  using F64 = F64xEmul<8>;
  static constexpr int kWidthBits = 512;
  static constexpr bool kIsNative = false;
};

#if defined(EECS_SIMD_SSE2) || defined(EECS_SIMD_NEON)
struct IsaNative128 {
  using F32 = F32x4;
  using U32 = U32x4;
  using F64 = F64x2;
  static constexpr int kWidthBits = 128;
  static constexpr bool kIsNative = true;
};
#endif
#if defined(EECS_SIMD_AVX2)
struct IsaNative256 {
  using F32 = F32x8;
  using U32 = U32x8;
  using F64 = F64x4;
  static constexpr int kWidthBits = 256;
  static constexpr bool kIsNative = true;
};
#endif
#if defined(EECS_SIMD_AVX512)
struct IsaNative512 {
  using F32 = F32x16;
  using U32 = U32x16;
  using F64 = F64x8;
  static constexpr int kWidthBits = 512;
  static constexpr bool kIsNative = true;
};
#endif

// The trampolines into the wide tiers: compiled for the tier, with fn and
// everything it calls in this TU inlined, so no wide pack crosses a call.
#if defined(EECS_SIMD_AVX2)
template <class Fn>
[[gnu::flatten]] EECS_SIMD_TIER256 decltype(auto) run_native256(Fn& fn) {
  return fn(IsaNative256{});
}
#endif
#if defined(EECS_SIMD_AVX512)
template <class Fn>
[[gnu::flatten]] EECS_SIMD_TIER512 decltype(auto) run_native512(Fn& fn) {
  return fn(IsaNative512{});
}
#endif

/// Invoke fn with the ISA tag of the current runtime mode. Native cases not
/// compiled into this binary are unreachable (current_dispatch() never
/// returns them); the default keeps the switch total. Call it inside each
/// parallel task, not around the parallel loop (see the header comment).
template <class Fn>
decltype(auto) dispatch(Fn&& fn) {
  switch (current_dispatch()) {
#if defined(EECS_SIMD_AVX512)
    case Dispatch::kNative512:
      return run_native512(fn);
#endif
#if defined(EECS_SIMD_AVX2)
    case Dispatch::kNative256:
      return run_native256(fn);
#endif
#if defined(EECS_SIMD_SSE2) || defined(EECS_SIMD_NEON)
    case Dispatch::kNative128:
      return fn(IsaNative128{});
#endif
    case Dispatch::kEmul512:
      return fn(IsaEmul512{});
    case Dispatch::kEmul256:
      return fn(IsaEmul256{});
    case Dispatch::kEmul128:
    default:
      return fn(IsaEmul128{});
  }
}

/// Invoke fn once per ISA tag this binary can run here (every emulation width
/// plus every native width that is compiled in and that the CPU runs),
/// regardless of the runtime mode. Test and verification harnesses sweep
/// kernels across widths with this.
template <class Fn>
void for_each_isa(Fn&& fn) {
  fn(IsaEmul128{});
  fn(IsaEmul256{});
  fn(IsaEmul512{});
#if defined(EECS_SIMD_SSE2) || defined(EECS_SIMD_NEON)
  fn(IsaNative128{});
#endif
#if defined(EECS_SIMD_AVX2)
  if (native_available(256)) run_native256(fn);
#endif
#if defined(EECS_SIMD_AVX512)
  if (native_available(512)) run_native512(fn);
#endif
}

}  // namespace eecs::simd
