// Scalar reference for the FP8 codec in src/numerics/fp8.h, shared by the
// tests and tools/fp8_sweep.cc that pin the codec against it. It is the
// original double-precision implementation: ilogb splits off the exponent,
// ldexp scales, and lrint rounds to nearest even. It shares no code with the
// bit-pattern codec it checks.
#ifndef MSMOE_TESTS_REF_FP8_H_
#define MSMOE_TESTS_REF_FP8_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/numerics/fp8.h"

namespace msmoe {
namespace ref_fp8 {

struct Fp8Layout {
  int exponent_bits;
  int mantissa_bits;
  int bias;
  float max_finite;
  uint8_t nan_code;  // without sign bit
};

inline Fp8Layout LayoutFor(Fp8Format format) {
  if (format == Fp8Format::kE4M3) {
    // E4M3 has no infinities; S.1111.111 is NaN, so max finite is 1.75*2^8.
    return Fp8Layout{4, 3, 7, 448.0f, 0x7Fu};
  }
  // IEEE-like: S.11111.00 is Inf, mantissa != 0 is NaN; max finite 1.75*2^15.
  return Fp8Layout{5, 2, 15, 57344.0f, 0x7Fu};
}

// Round-half-even to integer; assumes default FE_TONEAREST mode.
inline long RoundHalfEven(double value) { return std::lrint(value); }

inline uint8_t RefFp8Encode(float value, Fp8Format format) {
  const Fp8Layout layout = LayoutFor(format);
  const uint8_t sign = std::signbit(value) ? 0x80u : 0x00u;

  if (std::isnan(value)) {
    return static_cast<uint8_t>(sign | layout.nan_code);
  }
  float magnitude = std::fabs(value);
  if (magnitude > layout.max_finite) {
    magnitude = layout.max_finite;  // saturating cast
  }
  if (magnitude == 0.0f) {
    return sign;
  }

  const int min_normal_exp = 1 - layout.bias;
  int exponent = std::ilogb(magnitude);
  if (exponent < min_normal_exp) {
    // Subnormal range: quantum is 2^(min_normal_exp - mantissa_bits).
    const double quantum = std::ldexp(1.0, min_normal_exp - layout.mantissa_bits);
    long code = RoundHalfEven(magnitude / quantum);
    if (code >= (1L << layout.mantissa_bits)) {
      // Rounded up into the smallest normal.
      return static_cast<uint8_t>(sign | (1u << layout.mantissa_bits));
    }
    return static_cast<uint8_t>(sign | static_cast<uint8_t>(code));
  }

  // Normal range: significand in [1, 2).
  double significand = static_cast<double>(magnitude) / std::ldexp(1.0, exponent);
  long mantissa = RoundHalfEven((significand - 1.0) * (1L << layout.mantissa_bits));
  if (mantissa == (1L << layout.mantissa_bits)) {
    mantissa = 0;
    ++exponent;
  }
  const int max_exponent = (1 << layout.exponent_bits) - 1 - layout.bias;
  int max_usable_exponent = max_exponent;
  if (format == Fp8Format::kE5M2) {
    // Top exponent is reserved for Inf/NaN in E5M2.
    max_usable_exponent = max_exponent - 1;
  }
  if (exponent > max_usable_exponent) {
    // Rounded past the top; saturate to max finite.
    const uint8_t max_code = RefFp8Encode(layout.max_finite, format);
    return static_cast<uint8_t>(sign | max_code);
  }
  uint8_t biased = static_cast<uint8_t>(exponent + layout.bias);
  uint8_t code =
      static_cast<uint8_t>((biased << layout.mantissa_bits) | static_cast<uint8_t>(mantissa));
  if (format == Fp8Format::kE4M3 && code == layout.nan_code) {
    // 1.75 * 2^8 rounded up from 1.75-ish values: the NaN slot is not a
    // number, so the largest finite code is one below it.
    code = static_cast<uint8_t>(code - 1);
  }
  return static_cast<uint8_t>(sign | code);
}

inline float RefFp8Decode(uint8_t code, Fp8Format format) {
  const Fp8Layout layout = LayoutFor(format);
  const bool negative = (code & 0x80u) != 0;
  const uint8_t body = code & 0x7Fu;
  const uint8_t mantissa_mask = static_cast<uint8_t>((1u << layout.mantissa_bits) - 1);
  const uint8_t exponent_field = static_cast<uint8_t>(body >> layout.mantissa_bits);
  const uint8_t mantissa_field = static_cast<uint8_t>(body & mantissa_mask);
  const int max_exponent_field = (1 << layout.exponent_bits) - 1;

  if (format == Fp8Format::kE4M3) {
    if (body == layout.nan_code) {
      return std::numeric_limits<float>::quiet_NaN();
    }
  } else if (exponent_field == max_exponent_field) {
    if (mantissa_field == 0) {
      return negative ? -std::numeric_limits<float>::infinity()
                      : std::numeric_limits<float>::infinity();
    }
    return std::numeric_limits<float>::quiet_NaN();
  }

  double magnitude;
  if (exponent_field == 0) {
    magnitude = std::ldexp(static_cast<double>(mantissa_field),
                           1 - layout.bias - layout.mantissa_bits);
  } else {
    const double significand =
        1.0 + static_cast<double>(mantissa_field) / (1 << layout.mantissa_bits);
    magnitude = std::ldexp(significand, exponent_field - layout.bias);
  }
  const float out = static_cast<float>(magnitude);
  return negative ? -out : out;
}

// The amax-scaled E4M3 cast of the trainer (parameters per tensor,
// activations per token, the ZeRO wire per 128 elements), written out over
// the reference codec: the oracle for Fp8RoundScaledInPlace.
inline void RefFp8RoundScaledInPlace(float* data, int64_t n) {
  float amax = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    amax = std::max(amax, std::fabs(data[i]));
  }
  const float scale = amax > 0.0f ? amax / 448.0f : 1.0f;
  for (int64_t i = 0; i < n; ++i) {
    data[i] = RefFp8Decode(RefFp8Encode(data[i] / scale, Fp8Format::kE4M3), Fp8Format::kE4M3) *
              scale;
  }
}

}  // namespace ref_fp8
}  // namespace msmoe

#endif  // MSMOE_TESTS_REF_FP8_H_
