// Exhaustive check of the FP8 codec: encodes every one of the 2^32 float bit
// patterns in both formats (E4M3, E5M2) with src/numerics/fp8.h and with the
// scalar reference in tests/ref_fp8.h, and fails on any differing code. The
// decode table is checked on all 256 codes of both formats too.
//
//   $ build-release/tools/fp8_sweep
//
// Runs on at most 4 threads; about a minute and a half on 4 cores in a
// Release build. Prints the mismatch count per format and exits 1 if any.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/numerics/fp8.h"
#include "tests/ref_fp8.h"

namespace {

using msmoe::Fp8Format;

constexpr unsigned kMaxThreads = 4;
constexpr uint64_t kBlock = uint64_t{1} << 20;  // bit patterns per work item

struct Mismatch {
  std::atomic<uint64_t> count{0};
  std::atomic<bool> has_example{false};
  std::atomic<uint32_t> example_bits{0};
};

void SweepBlock(Fp8Format format, uint64_t begin, Mismatch& mismatch) {
  uint64_t local = 0;
  for (uint64_t b = begin; b < begin + kBlock; ++b) {
    const uint32_t bits = static_cast<uint32_t>(b);
    const float value = std::bit_cast<float>(bits);
    if (msmoe::Fp8Encode(value, format) != msmoe::ref_fp8::RefFp8Encode(value, format)) {
      if (local++ == 0 && !mismatch.has_example.exchange(true)) {
        mismatch.example_bits.store(bits);
      }
    }
  }
  mismatch.count.fetch_add(local);
}

uint64_t SweepFormat(Fp8Format format, const char* name, unsigned threads) {
  Mismatch mismatch;
  std::atomic<uint64_t> next{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (uint64_t begin = next.fetch_add(kBlock); begin < (uint64_t{1} << 32);
           begin = next.fetch_add(kBlock)) {
        SweepBlock(format, begin, mismatch);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  uint64_t decode_mismatches = 0;
  for (int code = 0; code < 256; ++code) {
    const uint8_t c = static_cast<uint8_t>(code);
    if (std::bit_cast<uint32_t>(msmoe::Fp8Decode(c, format)) !=
        std::bit_cast<uint32_t>(msmoe::ref_fp8::RefFp8Decode(c, format))) {
      ++decode_mismatches;
    }
  }
  const uint64_t total = mismatch.count.load();
  std::printf("%s: %llu / 4294967296 encode mismatches", name,
              static_cast<unsigned long long>(total));
  if (total > 0) {
    std::printf(" (e.g. bits 0x%08x)", mismatch.example_bits.load());
  }
  std::printf(", %llu / 256 decode mismatches\n",
              static_cast<unsigned long long>(decode_mismatches));
  return total + decode_mismatches;
}

}  // namespace

int main() {
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, kMaxThreads);
  std::printf("fp8_sweep: every float bit pattern, %u threads\n", threads);
  uint64_t failures = SweepFormat(Fp8Format::kE4M3, "E4M3", threads);
  failures += SweepFormat(Fp8Format::kE5M2, "E5M2", threads);
  std::printf("%s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
