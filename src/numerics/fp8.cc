#include "src/numerics/fp8.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "src/base/parallel_for.h"

namespace msmoe {
namespace {

// Below this many elements a cast runs inline: per-token rows and 128-element
// wire groups never pay for a fork, while a parameter tensor of ~1M elements
// splits across every worker.
constexpr int64_t kParallelGrain = 1 << 15;

float SpanAmax(const float* data, int64_t n) {
  float amax = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    amax = std::max(amax, std::fabs(data[i]));
  }
  return amax;
}

void RoundSpan(float* data, int64_t n, float scale) {
  for (int64_t i = 0; i < n; ++i) {
    data[i] = Fp8RoundE4M3(data[i] / scale) * scale;
  }
}

float ScaleFor(float amax) { return amax > 0.0f ? amax / Fp8MaxFinite(Fp8Format::kE4M3) : 1.0f; }

}  // namespace

void Fp8RoundScaledInPlace(float* data, int64_t n) {
  if (n <= kParallelGrain) {
    RoundSpan(data, n, ScaleFor(SpanAmax(data, n)));
    return;
  }
  float amax = 0.0f;
  std::mutex mu;
  ParallelFor(n, kParallelGrain, [&](int64_t begin, int64_t end) {
    const float shard_amax = SpanAmax(data + begin, end - begin);
    std::lock_guard<std::mutex> lock(mu);
    amax = std::max(amax, shard_amax);
  });
  const float scale = ScaleFor(amax);
  ParallelFor(n, kParallelGrain, [data, scale](int64_t begin, int64_t end) {
    RoundSpan(data + begin, end - begin, scale);
  });
}

}  // namespace msmoe
