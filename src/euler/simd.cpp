#include "euler/simd.hpp"

#include <atomic>
#include <string>

#include "support/env.hpp"
#include "support/error.hpp"

namespace euler::simd {

namespace {

bool cpu_has(Isa isa) {
#if defined(__x86_64__) || defined(_M_X64)
  switch (isa) {
    case Isa::scalar:
      return true;
    case Isa::avx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Isa::avx512:
      return __builtin_cpu_supports("avx512f") != 0;
  }
  return false;
#else
  return isa == Isa::scalar;
#endif
}

bool compiled_in(Isa isa) {
  switch (isa) {
    case Isa::scalar:
      return true;
    case Isa::avx2:
#if CCAPERF_SIMD_AVX2
      return true;
#else
      return false;
#endif
    case Isa::avx512:
#if CCAPERF_SIMD_AVX512
      return true;
#else
      return false;
#endif
  }
  return false;
}

Isa clamp_supported(Isa want) {
  int level = static_cast<int>(want);
  while (level > 0 && !(compiled_in(static_cast<Isa>(level)) &&
                        cpu_has(static_cast<Isa>(level))))
    --level;
  return static_cast<Isa>(level);
}

Isa env_isa() {
  Isa want = Isa::avx512;  // "native": highest level we know about
  if (const auto text = ccaperf::env_text("CCAPERF_SIMD")) {
    bool native = false;
    Isa parsed = Isa::scalar;
    if (!parse_isa(*text, parsed, native))
      ccaperf::env_malformed("CCAPERF_SIMD", *text,
                             "scalar|avx2|avx512|native");
    if (!native) want = parsed;
  }
  return clamp_supported(want);
}

std::atomic<Isa>& active_slot() {
  static std::atomic<Isa> slot{env_isa()};
  return slot;
}

}  // namespace

Isa highest_supported() { return clamp_supported(Isa::avx512); }

Isa active() { return active_slot().load(std::memory_order_relaxed); }

Isa set_isa(Isa isa) {
  const Isa installed = clamp_supported(isa);
  active_slot().store(installed, std::memory_order_relaxed);
  return installed;
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::scalar:
      return "scalar";
    case Isa::avx2:
      return "avx2";
    case Isa::avx512:
      return "avx512";
  }
  return "?";
}

bool parse_isa(std::string_view text, Isa& out, bool& native) {
  native = false;
  if (text == "scalar") {
    out = Isa::scalar;
  } else if (text == "avx2") {
    out = Isa::avx2;
  } else if (text == "avx512") {
    out = Isa::avx512;
  } else if (text == "native") {
    native = true;
    out = Isa::avx512;
  } else {
    return false;
  }
  return true;
}

}  // namespace euler::simd
