// e2e_train: runs one workload of the end-to-end training benchmark and
// writes its measurements as one JSON object. e2ebench/run.py drives it:
//
//   e2e_train --workload mp4_a2a --seed 7 --steps 22 --warmup 2 --trace 0
//             --out result.json
//
// The worker count comes from MSMOE_NUM_THREADS, like any program run.
// Exit status is 0 when the result file was written (correctness failures
// are listed in it), non-zero on bad arguments or a crash.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "e2ebench/bench.h"
#include "src/base/parallel_for.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "e2e_train: %s\nusage: e2e_train --workload NAME --seed N --steps N "
               "[--warmup N] [--trace 0|1] --out FILE\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msmoe::e2e;
  RunOptions options;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--steps") {
      options.steps = std::atoll(value.c_str());
    } else if (flag == "--warmup") {
      options.warmup_steps = std::atoll(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out") {
      out_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) {
    return Usage("every flag takes a value");
  }
  if (options.workload.empty() || out_path.empty() || options.steps < 1 ||
      options.warmup_steps < 0 || options.warmup_steps >= options.steps) {
    return Usage("missing or out-of-range arguments");
  }

  try {
    WorkloadResult result = options.workload.rfind("mp4_", 0) == 0 ? RunMpWorkload(options)
                                                                   : RunDpWorkload(options);
    result.out.Str("workload", options.workload)
        .Int("seed", static_cast<int64_t>(options.seed))
        .Int("steps", options.steps)
        .Int("warmup_steps", options.warmup_steps)
        .Bool("trace", options.trace)
        .Int("workers", msmoe::ParallelWorkerCount())
        .Int("hardware_threads", static_cast<int64_t>(std::thread::hardware_concurrency()))
        .Str("build_type", E2E_BUILD_TYPE)
        .Num("peak_rss_mb", PeakRssMb())
        .Ints("failed_steps", result.failed_steps)
        .Strs("failures", result.failures);
    std::ofstream file(out_path);
    file << result.out.str() << "\n";
    file.close();
    if (!file) {
      std::fprintf(stderr, "e2e_train: cannot write %s\n", out_path.c_str());
      return 1;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "e2e_train: %s failed: %s\n", options.workload.c_str(), error.what());
    return 1;
  }
  return 0;
}
