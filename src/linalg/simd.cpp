#include "linalg/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string_view>

namespace somrm::linalg::simd {

namespace {

Level clamp_to_supported(Level level) {
  const Level top = highest_supported();
  return static_cast<int>(level) > static_cast<int>(top) ? top : level;
}

/// SOMRM_SIMD is read once, like SOMRM_NUM_THREADS: only "scalar" lowers
/// the level; "avx2", "auto" and any unrecognized value select
/// highest_supported() rather than aborting a long bench run.
Level env_default_level() {
  const char* env = std::getenv("SOMRM_SIMD");
  if (env != nullptr && std::string_view(env) == "scalar")
    return Level::kScalar;
  return highest_supported();
}

std::atomic<Level>& level_state() {
  static std::atomic<Level> level{env_default_level()};
  return level;
}

}  // namespace

Level highest_supported() {
#if SOMRM_SIMD_X86
  static const Level top =
      __builtin_cpu_supports("avx2") ? Level::kAvx2 : Level::kScalar;
  return top;
#else
  return Level::kScalar;
#endif
}

Level active_level() { return level_state().load(std::memory_order_relaxed); }

void set_level(Level level) {
  level_state().store(clamp_to_supported(level), std::memory_order_relaxed);
}

const char* level_name(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

}  // namespace somrm::linalg::simd
