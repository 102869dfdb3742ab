#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "src/base/parallel_for.h"
#include "src/base/rng.h"
#include "src/numerics/bf16.h"
#include "src/numerics/fp8.h"
#include "src/numerics/quantize.h"
#include "tests/ref_fp8.h"

namespace msmoe {
namespace {

TEST(Bf16Test, ExactValuesRoundTrip) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -0.25f, 65536.0f}) {
    EXPECT_EQ(Bf16Round(v), v) << v;
  }
}

TEST(Bf16Test, RoundsToNearest) {
  // 1.0 + 2^-9 is halfway-ish below bf16 resolution (2^-8 around 1.0):
  // it must round to 1.0 or 1.00390625, never anything else.
  const float rounded = Bf16Round(1.0f + 0.001f);
  EXPECT_TRUE(rounded == 1.0f || rounded == 1.00390625f);
}

TEST(Bf16Test, RelativeErrorBounded) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float v = static_cast<float>(rng.NextGaussian(0.0, 100.0));
    const float r = Bf16Round(v);
    // bf16 has 8 mantissa bits -> rel error <= 2^-9.
    EXPECT_LE(std::fabs(r - v), std::fabs(v) * (1.0f / 256.0f) + 1e-30f);
  }
}

TEST(Bf16Test, NanPreserved) {
  const float nan = std::nanf("");
  EXPECT_TRUE(std::isnan(Bf16Round(nan)));
}

TEST(Bf16Test, InfPreserved) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(Bf16Round(inf), inf);
  EXPECT_EQ(Bf16Round(-inf), -inf);
}

TEST(Fp8Test, MaxFinite) {
  EXPECT_EQ(Fp8MaxFinite(Fp8Format::kE4M3), 448.0f);
  EXPECT_EQ(Fp8MaxFinite(Fp8Format::kE5M2), 57344.0f);
}

TEST(Fp8Test, E4M3ExactValues) {
  // Values exactly representable in E4M3 survive a round trip.
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 1.75f, 448.0f, -448.0f, 0.875f, 240.0f}) {
    EXPECT_EQ(Fp8RoundE4M3(v), v) << v;
  }
}

TEST(Fp8Test, E4M3Saturates) {
  EXPECT_EQ(Fp8RoundE4M3(1000.0f), 448.0f);
  EXPECT_EQ(Fp8RoundE4M3(-1000.0f), -448.0f);
  EXPECT_EQ(Fp8RoundE4M3(449.0f), 448.0f);
}

TEST(Fp8Test, E5M2Saturates) {
  EXPECT_EQ(Fp8RoundE5M2(1e6f), 57344.0f);
  EXPECT_EQ(Fp8RoundE5M2(-1e6f), -57344.0f);
}

TEST(Fp8Test, E4M3Subnormals) {
  // Smallest subnormal is 2^-9 = 0.001953125.
  const float min_subnormal = 0.001953125f;
  EXPECT_EQ(Fp8RoundE4M3(min_subnormal), min_subnormal);
  // Half of it rounds to 0 (ties to even).
  EXPECT_EQ(Fp8RoundE4M3(min_subnormal / 2.0f), 0.0f);
  // Values well below the subnormal quantum vanish.
  EXPECT_EQ(Fp8RoundE4M3(1e-8f), 0.0f);
}

TEST(Fp8Test, NanRoundTrips) {
  EXPECT_TRUE(std::isnan(Fp8Round(std::nanf(""), Fp8Format::kE4M3)));
  EXPECT_TRUE(std::isnan(Fp8Round(std::nanf(""), Fp8Format::kE5M2)));
}

TEST(Fp8Test, SignPreserved) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const float v = static_cast<float>(rng.NextGaussian(0.0, 10.0));
    const float r = Fp8RoundE4M3(v);
    if (r != 0.0f) {
      EXPECT_EQ(std::signbit(r), std::signbit(v)) << v;
    }
  }
}

TEST(Fp8Test, E4M3RelativeErrorBounded) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    // Stay in the normal range [2^-6, 448).
    const float v = static_cast<float>(rng.NextUniform(0.016, 440.0));
    const float r = Fp8RoundE4M3(v);
    // 3 mantissa bits -> rel error <= 2^-4.
    EXPECT_LE(std::fabs(r - v), v / 16.0f + 1e-30f) << v;
  }
}

TEST(Fp8Test, MonotoneEncoding) {
  // Decoded values of consecutive positive codes must increase (E4M3).
  float prev = -1.0f;
  for (int code = 0; code < 0x7F; ++code) {  // skip NaN at 0x7F
    const float value = Fp8Decode(static_cast<uint8_t>(code), Fp8Format::kE4M3);
    EXPECT_GT(value, prev) << code;
    prev = value;
  }
}

TEST(Fp8Test, EncodeDecodeAllCodesStable) {
  // Every finite code must re-encode to itself (quantization idempotent).
  for (int code = 0; code < 256; ++code) {
    const float value = Fp8Decode(static_cast<uint8_t>(code), Fp8Format::kE4M3);
    if (std::isnan(value)) {
      continue;
    }
    const uint8_t re = Fp8Encode(value, Fp8Format::kE4M3);
    EXPECT_EQ(Fp8Decode(re, Fp8Format::kE4M3), value) << code;
  }
}

constexpr Fp8Format kBothFormats[] = {Fp8Format::kE4M3, Fp8Format::kE5M2};

int MantissaBits(Fp8Format format) { return format == Fp8Format::kE4M3 ? 3 : 2; }

// Encode must equal the reference code for the float with these bits.
::testing::AssertionResult EncodeMatchesReference(uint32_t bits, Fp8Format format) {
  const float value = std::bit_cast<float>(bits);
  const uint8_t got = Fp8Encode(value, format);
  const uint8_t want = ref_fp8::RefFp8Encode(value, format);
  if (got == want) {
    return ::testing::AssertionSuccess();
  }
  char message[96];
  std::snprintf(message, sizeof(message), "E%dM%d bits 0x%08x: code 0x%02x, reference 0x%02x",
                7 - MantissaBits(format), MantissaBits(format), bits, got, want);
  return ::testing::AssertionFailure() << message;
}

TEST(Fp8CodecTest, MatchesReferenceOnRoundingBoundaries) {
  for (const Fp8Format format : kBothFormats) {
    const int m = MantissaBits(format);
    // The top M + 1 mantissa bits are the kept mantissa plus the round bit;
    // the 22 - M bits below them decide ties ({0, 1, half - 1, half,
    // half + 1, all ones} hits every tie and carry case).
    const int low_bits = 22 - m;
    const uint32_t half = 1u << (low_bits - 1);
    const uint32_t all_ones = (1u << low_bits) - 1u;
    const uint32_t lows[] = {0u, 1u, half - 1u, half, half + 1u, all_ones};
    for (const uint32_t sign : {0u, 0x80000000u}) {
      for (uint32_t exponent = 0; exponent < 256; ++exponent) {
        for (uint32_t top = 0; top < (1u << (m + 1)); ++top) {
          for (const uint32_t low : lows) {
            const uint32_t bits = sign | (exponent << 23) | (top << low_bits) | low;
            ASSERT_TRUE(EncodeMatchesReference(bits, format));
          }
        }
      }
      // Infinity and NaNs with quiet, signalling and full payloads.
      for (const uint32_t special :
           {0x7F800000u, 0x7FC00000u, 0x7F800001u, 0x7FBFFFFFu, 0x7FFFFFFFu, 0x7FC00001u}) {
        ASSERT_TRUE(EncodeMatchesReference(sign | special, format));
      }
    }
    Rng rng(0xF8C0DEC);
    for (int i = 0; i < (1 << 24); ++i) {
      ASSERT_TRUE(EncodeMatchesReference(static_cast<uint32_t>(rng.NextU64()), format));
    }
    for (int code = 0; code < 256; ++code) {
      const uint8_t c = static_cast<uint8_t>(code);
      EXPECT_EQ(std::bit_cast<uint32_t>(Fp8Decode(c, format)),
                std::bit_cast<uint32_t>(ref_fp8::RefFp8Decode(c, format)))
          << "code " << code;
    }
  }
}

// A span with what the trainer's casts meet: Gaussian bulk, exact zeros of
// both signs, values small enough to land in the FP8 subnormals, NaN and
// (in `with_inf` spans) an infinity that makes the scale infinite.
std::vector<float> CastInput(int64_t n, uint64_t seed, bool with_inf) {
  Rng rng(seed);
  std::vector<float> data(static_cast<size_t>(n));
  for (float& x : data) {
    x = static_cast<float>(rng.NextGaussian(0.0, 0.02));
  }
  for (int64_t i = 0; i < n; i += 97) {
    data[static_cast<size_t>(i)] *= 1e-5f;
  }
  data[0] = -0.0f;
  data[static_cast<size_t>(n / 3)] = 0.0f;
  data[static_cast<size_t>(n / 2)] = std::numeric_limits<float>::quiet_NaN();
  if (with_inf) {
    data[static_cast<size_t>(n - 1)] = -std::numeric_limits<float>::infinity();
  }
  return data;
}

TEST(Fp8CodecTest, ScaledRoundMatchesReferenceAtAnyWorkerCount) {
  // Fp8RoundScaledInPlace is the trainer's parameter (per tensor),
  // activation (per row) and ZeRO wire (per 128-group) cast; long spans are
  // split across workers, short ones run inline.
  for (const int workers : {1, 3}) {
    const int restore = SetParallelWorkerCount(workers);
    for (const int64_t n : {int64_t{128}, int64_t{100}, int64_t{4096}, int64_t{300001}}) {
      for (const bool with_inf : {false, true}) {
        std::vector<float> got = CastInput(n, static_cast<uint64_t>(n), with_inf);
        std::vector<float> want = got;
        Fp8RoundScaledInPlace(got.data(), n);
        ref_fp8::RefFp8RoundScaledInPlace(want.data(), n);
        EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
            << "n=" << n << " workers=" << workers << " inf=" << with_inf;
      }
    }
    SetParallelWorkerCount(restore);
  }
}

class QuantizeGranularityTest : public ::testing::TestWithParam<QuantGranularity> {};

TEST_P(QuantizeGranularityTest, RoundTripErrorBounded) {
  Rng rng(11);
  const int64_t rows = 64;
  const int64_t cols = 16;
  std::vector<float> data(static_cast<size_t>(rows * cols));
  for (auto& v : data) {
    v = static_cast<float>(rng.NextGaussian(0.0, 2.0));
  }
  QuantConfig config;
  config.granularity = GetParam();
  config.group_size = 16;
  QuantizedMatrix q = Quantize(data.data(), rows, cols, config);
  std::vector<float> back(data.size());
  Dequantize(q, back.data());
  // amax-scaled E4M3: rel error vs the slice amax <= 2^-4 per element of the
  // normal range; allow a loose absolute bound derived from the global amax.
  float amax = 0.0f;
  for (float v : data) {
    amax = std::max(amax, std::fabs(v));
  }
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_LE(std::fabs(back[i] - data[i]), amax / 16.0f) << i;
  }
}

TEST_P(QuantizeGranularityTest, ZeroTensorStaysZero) {
  std::vector<float> data(128, 0.0f);
  QuantConfig config;
  config.granularity = GetParam();
  const std::vector<float> back = QuantizeRoundTrip(data.data(), 8, 16, config);
  for (float v : back) {
    EXPECT_EQ(v, 0.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllGranularities, QuantizeGranularityTest,
                         ::testing::Values(QuantGranularity::kPerTensor,
                                           QuantGranularity::kPerToken,
                                           QuantGranularity::kPerChannel,
                                           QuantGranularity::kPerChannelGrouped));

TEST(QuantizeTest, PerTokenBeatsPerTensorOnSkewedRows) {
  // One huge row and one tiny row: per-tensor scaling destroys the tiny row,
  // per-token preserves it — the reason §7 moves SwiGLU to per-token quant.
  const int64_t rows = 2;
  const int64_t cols = 8;
  std::vector<float> data(static_cast<size_t>(rows * cols));
  for (int64_t c = 0; c < cols; ++c) {
    data[static_cast<size_t>(c)] = 400.0f;          // big row
    data[static_cast<size_t>(cols + c)] = 0.01f;    // small row
  }
  QuantConfig per_tensor;
  per_tensor.granularity = QuantGranularity::kPerTensor;
  QuantConfig per_token;
  per_token.granularity = QuantGranularity::kPerToken;
  const double err_tensor = QuantizationMaxError(data.data(), rows, cols, per_tensor);
  const double err_token = QuantizationMaxError(data.data(), rows, cols, per_token);
  EXPECT_LT(err_token, err_tensor);
  // Per-token keeps the small row to within its own 1/16 relative error.
  const std::vector<float> back = QuantizeRoundTrip(data.data(), rows, cols, per_token);
  EXPECT_NEAR(back[static_cast<size_t>(cols)], 0.01f, 0.01f / 16.0f);
}

TEST(QuantizeTest, GroupedTracksShiftingChannelScale) {
  // A channel whose magnitude drifts over tokens: grouped per-channel scales
  // adapt per 4-row group and beat a single per-channel scale.
  const int64_t rows = 16;
  const int64_t cols = 4;
  Rng rng(23);
  std::vector<float> data(static_cast<size_t>(rows * cols));
  for (int64_t r = 0; r < rows; ++r) {
    // Group magnitudes 1e-4, 1e-2, 1, 1e2: the full span exceeds E4M3's
    // dynamic range, so a single per-channel scale flushes the small groups
    // to zero while per-group scales keep them at 1/16 relative error.
    const double magnitude = std::pow(10.0, static_cast<double>(r / 4) * 2.0 - 4.0);
    for (int64_t c = 0; c < cols; ++c) {
      data[static_cast<size_t>(r * cols + c)] =
          static_cast<float>(rng.NextGaussian(0.0, 1.0) * magnitude);
    }
  }
  QuantConfig per_channel;
  per_channel.granularity = QuantGranularity::kPerChannel;
  QuantConfig grouped;
  grouped.granularity = QuantGranularity::kPerChannelGrouped;
  grouped.group_size = 4;
  auto first_group_error = [&](const QuantConfig& config) {
    const std::vector<float> back = QuantizeRoundTrip(data.data(), rows, cols, config);
    double total = 0.0;
    for (size_t i = 0; i < static_cast<size_t>(4 * cols); ++i) {
      total += std::fabs(back[i] - data[i]);
    }
    return total;
  };
  // The small-magnitude rows are crushed by the tensor-wide channel scale but
  // preserved by their own group scale — the paper's motivation for grouping
  // backward quantization along the token dimension.
  EXPECT_LT(first_group_error(grouped), first_group_error(per_channel) * 0.25);
}

TEST(QuantizeTest, WireBytesAccounting) {
  QuantConfig config;
  config.granularity = QuantGranularity::kPerToken;
  std::vector<float> data(32 * 64, 1.0f);
  QuantizedMatrix q = Quantize(data.data(), 32, 64, config);
  // 32*64 codes + 32 scales * 4 bytes.
  EXPECT_EQ(q.WireBytes(), 32 * 64 + 32 * 4);
  // FP8 wire is ~4x smaller than FP32 at realistic hidden widths.
  EXPECT_LT(q.WireBytes() * 3, static_cast<int64_t>(data.size() * sizeof(float)));
}

TEST(QuantizeTest, GranularityNames) {
  EXPECT_STREQ(QuantGranularityName(QuantGranularity::kPerTensor), "per-tensor");
  EXPECT_STREQ(QuantGranularityName(QuantGranularity::kPerChannelGrouped),
               "per-channel-grouped");
}

}  // namespace
}  // namespace msmoe
