// Software-emulated 8-bit floating point in the two formats used by Hopper
// tensor cores: E4M3 (4-bit exponent, 3-bit mantissa, no infinities, max
// finite 448) and E5M2 (5-bit exponent, 2-bit mantissa, max finite 57344).
//
// Conversions follow the NVIDIA saturating cast: values beyond the maximum
// finite magnitude clamp to it rather than overflowing, and rounding is
// round-to-nearest-even. The paper uses E4M3 for all compressed tensors (§5).
//
// The codec is inline and works on the float's bit pattern (DESIGN.md §14):
// a normal value is rounded by one integer add and shift of its bits, an
// FP8-subnormal one by an exact power-of-two scale and nearbyint, and
// decoding is a lookup in a 256-entry table built at compile time. Its
// output is bit-identical to the scalar ilogb/ldexp/lrint reference kept in
// tests/ref_fp8.h, on every one of the 2^32 float inputs of both formats
// (tools/fp8_sweep.cc, run by tools/check.sh).
#ifndef MSMOE_SRC_NUMERICS_FP8_H_
#define MSMOE_SRC_NUMERICS_FP8_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace msmoe {

enum class Fp8Format {
  kE4M3,
  kE5M2,
};

namespace fp8_internal {

// Bit layout of one format. max_code is the largest finite code without the
// sign bit: S.1111.110 in E4M3 (S.1111.111 is NaN) and S.11110.11 in E5M2
// (the top exponent is Inf/NaN).
struct Layout {
  int mantissa_bits;
  int bias;
  float max_finite;
  uint8_t max_code;
};

constexpr Layout LayoutOf(Fp8Format format) {
  return format == Fp8Format::kE4M3 ? Layout{3, 7, 448.0f, 0x7Eu}
                                    : Layout{2, 15, 57344.0f, 0x7Bu};
}

constexpr uint32_t kQuietNanBits = 0x7FC00000u;
constexpr uint32_t kInfBits = 0x7F800000u;

template <Fp8Format kFormat>
inline uint8_t Encode(float value) {
  constexpr Layout kLayout = LayoutOf(kFormat);
  constexpr int kShift = 23 - kLayout.mantissa_bits;
  // Smallest FP8 normal 2^(1 - bias) as float bits; below it the FP8 value
  // is subnormal, with quantum 2^(1 - bias - M).
  constexpr uint32_t kMinNormalBits = static_cast<uint32_t>(127 + 1 - kLayout.bias) << 23;
  // 2^(bias - 1 + M): scales an FP8-subnormal magnitude to its integer code.
  constexpr float kSubnormalScale =
      static_cast<float>(1u << (kLayout.bias - 1 + kLayout.mantissa_bits));
  // Float exponent bias minus FP8 exponent bias, in code units.
  constexpr uint32_t kRebias = static_cast<uint32_t>(127 - kLayout.bias) << kLayout.mantissa_bits;
  constexpr uint32_t kMaxFiniteBits = std::bit_cast<uint32_t>(kLayout.max_finite);

  const uint32_t bits = std::bit_cast<uint32_t>(value);
  const uint8_t sign = static_cast<uint8_t>((bits >> 24) & 0x80u);
  const uint32_t magnitude = bits & 0x7FFFFFFFu;
  if (magnitude > kInfBits) {
    return static_cast<uint8_t>(sign | 0x7Fu);  // NaN
  }
  if (magnitude >= kMaxFiniteBits) {
    return static_cast<uint8_t>(sign | kLayout.max_code);  // saturating cast
  }
  if (magnitude == 0) {
    return sign;
  }
  if (magnitude < kMinNormalBits) {
    // Exact: a power-of-two scale of a value below 2^(1 - bias) neither
    // overflows nor drops bits. A result of 2^M is the smallest normal code.
    const float code = std::nearbyint(std::bit_cast<float>(magnitude) * kSubnormalScale);
    return static_cast<uint8_t>(sign | static_cast<uint8_t>(code));
  }
  // Round-to-nearest-even on the bits: add half an FP8 ulp minus one, plus
  // the kept lsb (so exact ties go to even), and shift. A mantissa carry
  // propagates into the exponent field by itself.
  const uint32_t lsb = (magnitude >> kShift) & 1u;
  const uint32_t rounded = (magnitude + ((1u << (kShift - 1)) - 1u) + lsb) >> kShift;
  const uint32_t code = std::min<uint32_t>(rounded - kRebias, kLayout.max_code);
  return static_cast<uint8_t>(sign | code);
}

template <Fp8Format kFormat>
constexpr float DecodeEntry(uint8_t code) {
  constexpr Layout kLayout = LayoutOf(kFormat);
  constexpr int kExponentBits = 7 - kLayout.mantissa_bits;
  const uint32_t sign = static_cast<uint32_t>(code & 0x80u) << 24;
  const uint32_t body = code & 0x7Fu;
  const uint32_t exponent = body >> kLayout.mantissa_bits;
  const uint32_t mantissa = body & ((1u << kLayout.mantissa_bits) - 1u);
  if (kFormat == Fp8Format::kE4M3 && body == 0x7Fu) {
    return std::bit_cast<float>(kQuietNanBits);
  }
  if (kFormat == Fp8Format::kE5M2 && exponent == (1u << kExponentBits) - 1u) {
    return std::bit_cast<float>(mantissa == 0 ? (sign | kInfBits) : kQuietNanBits);
  }
  if (exponent == 0) {
    // Subnormal: mantissa * 2^(1 - bias - M), exact in float.
    const float magnitude = static_cast<float>(mantissa) /
                            static_cast<float>(1u << (kLayout.bias - 1 + kLayout.mantissa_bits));
    return std::bit_cast<float>(sign | std::bit_cast<uint32_t>(magnitude));
  }
  return std::bit_cast<float>(sign | ((exponent + 127u - kLayout.bias) << 23) |
                              (mantissa << (23 - kLayout.mantissa_bits)));
}

template <Fp8Format kFormat>
constexpr std::array<float, 256> MakeDecodeTable() {
  std::array<float, 256> table{};
  for (int code = 0; code < 256; ++code) {
    table[static_cast<size_t>(code)] = DecodeEntry<kFormat>(static_cast<uint8_t>(code));
  }
  return table;
}

inline constexpr std::array<float, 256> kDecodeE4M3 = MakeDecodeTable<Fp8Format::kE4M3>();
inline constexpr std::array<float, 256> kDecodeE5M2 = MakeDecodeTable<Fp8Format::kE5M2>();

}  // namespace fp8_internal

// Largest representable finite magnitude of the format (448 or 57344).
constexpr float Fp8MaxFinite(Fp8Format format) {
  return fp8_internal::LayoutOf(format).max_finite;
}

// Encodes a float into the 8-bit code (sign | exponent | mantissa), with
// saturation and round-to-nearest-even. NaN input yields the format's NaN
// (sign | 0x7F); infinities saturate like any out-of-range value.
inline uint8_t Fp8Encode(float value, Fp8Format format) {
  return format == Fp8Format::kE4M3 ? fp8_internal::Encode<Fp8Format::kE4M3>(value)
                                    : fp8_internal::Encode<Fp8Format::kE5M2>(value);
}

// Decodes an 8-bit code back to float (exact).
inline float Fp8Decode(uint8_t code, Fp8Format format) {
  return format == Fp8Format::kE4M3 ? fp8_internal::kDecodeE4M3[code]
                                    : fp8_internal::kDecodeE5M2[code];
}

// Round-trips through the format: the quantization applied by an FP8 cast.
inline float Fp8Round(float value, Fp8Format format) {
  return Fp8Decode(Fp8Encode(value, format), format);
}

// Fixed-format convenience wrappers.
inline float Fp8RoundE4M3(float value) { return Fp8Round(value, Fp8Format::kE4M3); }
inline float Fp8RoundE5M2(float value) { return Fp8Round(value, Fp8Format::kE5M2); }

// The amax-scaled E4M3 cast of data[0, n), in place: amax = max |x| (NaNs
// skipped), scale = amax / 448 (1 when amax is 0), and every element becomes
// Fp8RoundE4M3(x / scale) * scale. Long spans are split across the calling
// rank's ParallelFor workers; the shard amaxes combine by max, which is
// exact and order-free, and each element rounds on its own, so the result
// is bitwise the same at every worker count.
void Fp8RoundScaledInPlace(float* data, int64_t n);

}  // namespace msmoe

#endif  // MSMOE_SRC_NUMERICS_FP8_H_
