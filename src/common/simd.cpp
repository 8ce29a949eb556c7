#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace eecs::simd {

namespace {

/// Normalize a requested mode to the stored encoding: -1 none/reset, 0
/// baseline emulation, 1 auto-native, ±128/±256/±512 width requests. Any
/// other positive value means "on" (historical 0/1 knob), any other negative
/// value resets.
int normalize(int mode) {
  switch (mode) {
    case 0:
    case 1:
    case 128:
    case 256:
    case 512:
    case -128:
    case -256:
    case -512:
      return mode;
    default:
      return mode > 0 ? 1 : -1;
  }
}

/// Runtime override: -1 none (fall through to the environment default), else
/// a normalized mode.
std::atomic<int>& mode_override() {
  static std::atomic<int> mode{-1};
  return mode;
}

/// EECS_SIMD environment default, resolved once: "auto" or a mode number
/// when set and valid, else the compiled default (native-auto iff a native
/// backend exists).
int env_default() {
  static const int value = [] {
    const char* env = std::getenv("EECS_SIMD");
    if (env != nullptr && env[0] != '\0') {
      if (std::strcmp(env, "auto") == 0) return 1;
      char* end = nullptr;
      const long parsed = std::strtol(env, &end, 10);
      if (end != env && *end == '\0') {
        switch (parsed) {
          case 0:
          case 1:
          case 128:
          case 256:
          case 512:
          case -128:
          case -256:
          case -512:
            return static_cast<int>(parsed);
          default:
            break;  // fall through to the compiled default
        }
      }
    }
    return kNativeBackend ? 1 : 0;
  }();
  return value;
}

/// Runtime CPU support for each compiled native tier. The 128-bit tier is
/// the build baseline (SSE2/NEON), so compiled-in implies supported; the
/// wider x86 tiers are compiled into binaries that run on narrower hosts, so
/// they are probed (the probe also checks that the OS saves their registers).
bool native256_available() {
#if defined(EECS_SIMD_AVX2)
  static const bool value = __builtin_cpu_supports("avx2");
  return value;
#else
  return false;
#endif
}

bool native512_available() {
#if defined(EECS_SIMD_AVX512)
  static const bool value = __builtin_cpu_supports("avx512f");
  return value;
#else
  return false;
#endif
}

int active_mode() {
  const int mode = mode_override().load(std::memory_order_relaxed);
  return mode == -1 ? env_default() : mode;
}

}  // namespace

const char* isa_name() {
  if (native512_available()) return "avx512";
  if (native256_available()) return "avx2";
#if defined(EECS_SIMD_SSE2)
  return "sse2";
#elif defined(EECS_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

bool native_available(int width_bits) {
  switch (width_bits) {
    case 128:
      return kNativeBackend;
    case 256:
      return native256_available();
    case 512:
      return native512_available();
    default:
      return false;
  }
}

Dispatch current_dispatch() {
  switch (active_mode()) {
    case 0:
      return Dispatch::kEmul128;
    case -128:
      return Dispatch::kEmul128;
    case -256:
      return Dispatch::kEmul256;
    case -512:
      return Dispatch::kEmul512;
    case 128:
      return kNativeBackend ? Dispatch::kNative128 : Dispatch::kEmul128;
    case 256:
      return native256_available() ? Dispatch::kNative256 : Dispatch::kEmul256;
    case 512:
      return native512_available() ? Dispatch::kNative512 : Dispatch::kEmul512;
    default:  // 1 / auto: widest compiled-in tier the CPU supports.
      if (native512_available()) return Dispatch::kNative512;
      if (native256_available()) return Dispatch::kNative256;
      return kNativeBackend ? Dispatch::kNative128 : Dispatch::kEmul128;
  }
}

const char* dispatch_name() {
  switch (current_dispatch()) {
    case Dispatch::kNative512:
      return "avx512";
    case Dispatch::kNative256:
      return "avx2";
    case Dispatch::kNative128:
#if defined(EECS_SIMD_NEON)
      return "neon";
#else
      return "sse2";
#endif
    case Dispatch::kEmul512:
      return "emul512";
    case Dispatch::kEmul256:
      return "emul256";
    case Dispatch::kEmul128:
    default:
      return "scalar";
  }
}

int dispatch_width() {
  switch (current_dispatch()) {
    case Dispatch::kNative512:
    case Dispatch::kEmul512:
      return 512;
    case Dispatch::kNative256:
    case Dispatch::kEmul256:
      return 256;
    default:
      return 128;
  }
}

bool enabled() {
  switch (current_dispatch()) {
    case Dispatch::kNative128:
    case Dispatch::kNative256:
    case Dispatch::kNative512:
      return true;
    default:
      return false;
  }
}

int set_enabled(int mode) {
  return mode_override().exchange(normalize(mode), std::memory_order_relaxed);
}

}  // namespace eecs::simd
