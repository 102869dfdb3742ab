// Unified observability layer: MetricsRegistry aggregation across threads,
// StepProfiler determinism and artifact round-trips, and the online anomaly
// detector (synthetic feeds plus a real slow-rank injection through the
// trainer).
//
// The central claims under test:
//   1. registry totals are exact across concurrent recording threads,
//      including threads that exited before aggregation (retired shards);
//   2. the StepReport fields documented as deterministic (loss, wire_bytes,
//      collectives, dispatch_rows, expert_imbalance) are bitwise stable
//      across worker counts;
//   3. the anomaly detector stays quiet on clean runs and flags an injected
//      slow rank within five steps of the fault, and the profiler's
//      straggler verdict names the right rank;
//   4. metrics.jsonl lines and the merged trace round-trip / parse;
//   5. attaching a profiler changes neither the loss curve nor the elastic
//      recovery verdicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/parallel_for.h"
#include "src/comm/fault.h"
#include "src/comm/telemetry.h"
#include "src/core/trainer.h"
#include "src/model/config.h"
#include "src/obs/anomaly.h"
#include "src/obs/metrics.h"
#include "src/obs/step_profiler.h"
#include "src/sim/trace_export.h"

namespace msmoe {
namespace {

// --- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistryTest, AggregatesExactlyAcrossLiveAndRetiredThreads) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricId counter =
      registry.Counter("obs_test.thread_counter", "test counter");
  const MetricId hist = registry.Histogram("obs_test.thread_hist", "test histogram",
                                           {1.0, 10.0});

  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        registry.Add(counter, 1.0);
        // One observation per bucket: <=1, (1,10], +inf.
        registry.Add(hist, 0.5);
        registry.Add(hist, 5.0);
        registry.Add(hist, 50.0);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();  // threads retire; their shards fold into the registry
  }
  registry.Add(counter, 2.0);  // the live (main-thread) shard path

  const MetricsSnapshot snapshot = registry.Snapshot();
  const MetricSnapshot* c = snapshot.Find("obs_test.thread_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->type, MetricType::kCounter);
  EXPECT_DOUBLE_EQ(c->value, kThreads * kAddsPerThread + 2.0);

  const MetricSnapshot* h = snapshot.Find("obs_test.thread_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->type, MetricType::kHistogram);
  EXPECT_EQ(h->histogram.count,
            static_cast<uint64_t>(kThreads) * kAddsPerThread * 3);
  ASSERT_EQ(h->histogram.counts.size(), 3u);
  EXPECT_EQ(h->histogram.counts[0], static_cast<uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_EQ(h->histogram.counts[1], static_cast<uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_EQ(h->histogram.counts[2], static_cast<uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_DOUBLE_EQ(h->histogram.sum, kThreads * kAddsPerThread * (0.5 + 5.0 + 50.0));
}

TEST(MetricsRegistryTest, RegistrationIsIdempotentByName) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricId a = registry.Counter("obs_test.idempotent", "first");
  const MetricId b = registry.Counter("obs_test.idempotent", "second");
  EXPECT_EQ(a.index, b.index);
}

TEST(MetricsRegistryTest, DisabledRegistryDropsRecordsAndGaugesStick) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricId counter = registry.Counter("obs_test.gated_counter", "gated");
  const MetricId gauge = registry.Gauge("obs_test.gauge", "gauge");

  registry.Add(counter, 5.0);
  registry.Set(gauge, 42.0);
  registry.set_enabled(false);
  registry.Add(counter, 100.0);  // must be dropped
  registry.Set(gauge, -1.0);     // must be dropped
  registry.set_enabled(true);

  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.Find("obs_test.gated_counter")->value, 5.0);
  EXPECT_DOUBLE_EQ(snapshot.Find("obs_test.gauge")->value, 42.0);
}

TEST(MetricsRegistryTest, PrometheusTextExposesSanitizedFamilies) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Add(registry.Counter("obs_test.prom_counter", "prom help"), 3.0);
  registry.Add(registry.Histogram("obs_test.prom_hist", "hist help", {2.0}), 1.0);

  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE obs_test_prom_counter counter"), std::string::npos);
  EXPECT_NE(text.find("# HELP obs_test_prom_counter prom help"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist_bucket{le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist_count 1"), std::string::npos);
}

// --- AnomalyDetector (synthetic, fully deterministic) -----------------------

StepSample MakeSample(int rank, int64_t step, double step_ms, double exposed_ms) {
  StepSample sample;
  sample.rank = rank;
  sample.step = step;
  sample.ts_us = static_cast<double>(step) * 1000.0;
  sample.step_ms = step_ms;
  sample.exposed_comm_ms = exposed_ms;
  return sample;
}

TEST(AnomalyDetectorTest, QuietOnSteadySamples) {
  AnomalyDetector detector;
  for (int64_t step = 0; step < 20; ++step) {
    for (int rank = 0; rank < 2; ++rank) {
      EXPECT_TRUE(detector.Observe(MakeSample(rank, step, 2.0, 0.4)).empty());
    }
  }
  EXPECT_TRUE(detector.events().empty());
}

TEST(AnomalyDetectorTest, FlagsEachRanksOwnSpike) {
  AnomalyDetector detector;
  for (int64_t step = 0; step < 8; ++step) {
    for (int rank = 0; rank < 2; ++rank) {
      ASSERT_TRUE(detector.Observe(MakeSample(rank, step, 2.0, 0.4)).empty());
    }
  }
  // Step 8: rank 0 stalls; rank 1 waits in the barrier (exposed comm
  // balloons). Both step times spike in lockstep — the synchronous-training
  // signature. The detector pages on each rank's own spike and names no
  // culprit: that is DetectStragglers' verdict (comm/health.h).
  const auto fired0 = detector.Observe(MakeSample(0, 8, 30.0, 0.4));
  ASSERT_EQ(fired0.size(), 1u);
  EXPECT_EQ(fired0[0].kind, AnomalyEvent::Kind::kStepTimeRegression);
  EXPECT_EQ(fired0[0].rank, 0);
  const auto fired1 = detector.Observe(MakeSample(1, 8, 30.0, 28.0));
  ASSERT_EQ(fired1.size(), 2u);
  EXPECT_EQ(fired1[0].kind, AnomalyEvent::Kind::kStepTimeRegression);
  EXPECT_EQ(fired1[1].kind, AnomalyEvent::Kind::kExposedCommSpike);
  for (const AnomalyEvent& event : detector.events()) {
    EXPECT_EQ(event.step, 8);
  }
  EXPECT_EQ(detector.events().size(), 3u);
}

TEST(AnomalyDetectorTest, FlaggedSamplesDoNotPoisonTheBaseline) {
  AnomalyDetector detector;
  for (int64_t step = 0; step < 8; ++step) {
    ASSERT_TRUE(detector.Observe(MakeSample(0, step, 2.0, 0.4)).empty());
  }
  // A sustained regression: every slow step must keep firing because the
  // flagged samples never enter the rolling baseline.
  for (int64_t step = 8; step < 12; ++step) {
    EXPECT_FALSE(detector.Observe(MakeSample(0, step, 30.0, 0.4)).empty())
        << "step " << step << " stopped firing (baseline poisoned)";
  }
}

// --- StepReport JSON round-trip ---------------------------------------------

TEST(StepReportJsonTest, RoundTripsEveryField) {
  StepReport report;
  report.step = 17;
  report.rank = 3;
  report.ts_us = 123456.789;
  report.step_ms = 12.5;
  report.compute_ms = 9.25;
  report.comm_ms = 4.75;
  report.exposed_comm_ms = 3.25;
  report.bubble_ms = 0.5;
  report.gemm_gflop = 1.75;
  report.achieved_gflops = 140.0;
  report.mfu = 0.375;
  report.wire_bytes = 987654321;
  report.collectives = 42;
  report.expert_imbalance = 2.125;
  report.dispatch_rows = 4096;
  report.pool_hit_rate = 0.96875;
  report.heap_allocs = 7;
  report.retries = 2;
  report.evictions = 1;
  report.loss = 3.14159265358979;

  StepReport parsed;
  ASSERT_TRUE(ParseStepReportJson(StepReportToJson(report), &parsed));
  EXPECT_EQ(parsed.step, report.step);
  EXPECT_EQ(parsed.rank, report.rank);
  EXPECT_EQ(parsed.ts_us, report.ts_us);
  EXPECT_EQ(parsed.step_ms, report.step_ms);
  EXPECT_EQ(parsed.compute_ms, report.compute_ms);
  EXPECT_EQ(parsed.comm_ms, report.comm_ms);
  EXPECT_EQ(parsed.exposed_comm_ms, report.exposed_comm_ms);
  EXPECT_EQ(parsed.bubble_ms, report.bubble_ms);
  EXPECT_EQ(parsed.gemm_gflop, report.gemm_gflop);
  EXPECT_EQ(parsed.achieved_gflops, report.achieved_gflops);
  EXPECT_EQ(parsed.mfu, report.mfu);
  EXPECT_EQ(parsed.wire_bytes, report.wire_bytes);
  EXPECT_EQ(parsed.collectives, report.collectives);
  EXPECT_EQ(parsed.expert_imbalance, report.expert_imbalance);
  EXPECT_EQ(parsed.dispatch_rows, report.dispatch_rows);
  EXPECT_EQ(parsed.pool_hit_rate, report.pool_hit_rate);
  EXPECT_EQ(parsed.heap_allocs, report.heap_allocs);
  EXPECT_EQ(parsed.retries, report.retries);
  EXPECT_EQ(parsed.evictions, report.evictions);
  EXPECT_EQ(parsed.loss, report.loss);

  EXPECT_FALSE(ParseStepReportJson("{\"not\":\"a report\"}", &parsed));
}

// --- Telemetry drop accounting ----------------------------------------------

TEST(TelemetryDropsTest, DropsSplitByKindAndSurfaceInTrace) {
  CommTelemetry telemetry;
  telemetry.set_capacity(2);
  for (int i = 0; i < 5; ++i) {
    CommEvent event;
    event.rank = 0;
    telemetry.Record(event);
    CompEvent comp;
    comp.rank = 0;
    telemetry.RecordComp(comp);
    DispatchEvent dispatch;
    dispatch.rank = 0;
    telemetry.RecordDispatch(dispatch);
  }
  const TelemetryDropCounts drops = telemetry.drop_counts();
  EXPECT_EQ(drops.comm, 3u);
  EXPECT_EQ(drops.comp, 3u);
  EXPECT_EQ(drops.dispatch, 3u);
  EXPECT_EQ(drops.total(), 9u);
  EXPECT_EQ(telemetry.dropped(), 9u);

  const std::string trace =
      CommEventsToChromeTrace(telemetry.Events(), "obs-test", nullptr, nullptr,
                              nullptr, nullptr, nullptr, &drops);
  EXPECT_NE(trace.find("[WARNING] telemetry dropped events"), std::string::npos);
  EXPECT_NE(trace.find("\"dropped_comm\":3"), std::string::npos);
  EXPECT_NE(trace.find("\"dropped_dispatch\":3"), std::string::npos);

  // A clean registry emits no warning row.
  const TelemetryDropCounts none;
  const std::string clean_trace =
      CommEventsToChromeTrace({}, "obs-test", nullptr, nullptr, nullptr, nullptr,
                              nullptr, &none);
  EXPECT_EQ(clean_trace.find("[WARNING]"), std::string::npos);
}

// --- Trainer integration ----------------------------------------------------

NumericTrainConfig ObsTrainConfig() {
  NumericTrainConfig config;
  config.model = TinyMoeConfig(4, 2);
  config.model.num_layers = 1;
  config.model.vocab = 32;
  config.model.seq_len = 8;
  config.router.num_experts = 4;
  config.router.top_k = 2;
  config.dp_size = 2;
  config.batch_per_rank = 2;
  config.steps = 8;
  return config;
}

// Generous thresholds for wall-clock-driven assertions: a loaded CI host
// jitters single-digit-ms steps, so a verdict requires a >=2x, >=10ms,
// z>=6 excursion — trivial for an injected 30ms-per-collective stall,
// unreachable for scheduler noise.
AnomalyConfig RobustAnomalyConfig() {
  AnomalyConfig anomaly;
  anomaly.z_threshold = 6.0;
  anomaly.min_ratio = 2.0;
  anomaly.min_delta_ms = 10.0;
  return anomaly;
}

TEST(StepProfilerTrainerTest, EmitsOneReportPerRankStepAndWritesArtifacts) {
  const std::string jsonl_path = "obs_test_metrics.jsonl";
  const std::string trace_path = "obs_test_trace.json";
  const std::string prom_path = "obs_test_metrics.prom";
  std::remove(jsonl_path.c_str());
  std::remove(trace_path.c_str());
  std::remove(prom_path.c_str());

  StepProfilerConfig profiler_config;
  profiler_config.jsonl_path = jsonl_path;
  profiler_config.trace_path = trace_path;
  profiler_config.prom_path = prom_path;
  profiler_config.anomaly = RobustAnomalyConfig();
  profiler_config.world = 2;
  StepProfiler profiler(profiler_config);

  NumericTrainConfig config = ObsTrainConfig();
  config.profiler = &profiler;
  const TrainCurve curve = TrainLm(config);

  const std::vector<StepReport> reports = profiler.reports();
  ASSERT_EQ(reports.size(), static_cast<size_t>(config.steps * config.dp_size));
  ASSERT_EQ(curve.loss.size(), static_cast<size_t>(config.steps));
  for (const StepReport& report : reports) {
    EXPECT_GE(report.rank, 0);
    EXPECT_LT(report.rank, config.dp_size);
    EXPECT_GT(report.step_ms, 0.0) << "step " << report.step;
    EXPECT_GT(report.collectives, 0) << "step " << report.step;
    EXPECT_GT(report.wire_bytes, 0u) << "step " << report.step;
    // Each rank reports its own micro-batch CE loss; the curve is rank 0's.
    if (report.rank == 0) {
      EXPECT_EQ(report.loss, curve.loss[static_cast<size_t>(report.step)])
          << "step " << report.step;
    }
  }

  // metrics.jsonl: one parseable line per rank-step, matching reports().
  std::ifstream jsonl(jsonl_path);
  ASSERT_TRUE(jsonl.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(jsonl, line)) {
    StepReport parsed;
    EXPECT_TRUE(ParseStepReportJson(line, &parsed)) << line;
    ++lines;
  }
  EXPECT_EQ(lines, reports.size());

  // Merged trace: valid-looking Chrome trace with the step spans on it.
  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.good());
  std::stringstream trace_buffer;
  trace_buffer << trace.rdbuf();
  const std::string trace_text = trace_buffer.str();
  EXPECT_EQ(trace_text.front(), '{');
  EXPECT_NE(trace_text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_text.find("step 0"), std::string::npos);
  EXPECT_EQ(trace_text.find("[WARNING]"), std::string::npos);

  // Prometheus snapshot carries the obs families.
  std::ifstream prom(prom_path);
  ASSERT_TRUE(prom.good());
  std::stringstream prom_buffer;
  prom_buffer << prom.rdbuf();
  EXPECT_NE(prom_buffer.str().find("obs_steps"), std::string::npos);
  EXPECT_NE(prom_buffer.str().find("obs_step_ms_bucket"), std::string::npos);

  std::remove(jsonl_path.c_str());
  std::remove(trace_path.c_str());
  std::remove(prom_path.c_str());
}

// The documented deterministic field set must be bitwise stable across
// worker counts (MSMOE_NUM_THREADS): these fields derive from the rank's
// own event streams, not from process-global counters.
TEST(StepProfilerTrainerTest, DeterministicFieldsBitwiseStableAcrossWorkerCounts) {
  const auto run = [](int workers) {
    const int restore = SetParallelWorkerCount(workers);
    StepProfilerConfig profiler_config;
    profiler_config.anomaly = RobustAnomalyConfig();
    profiler_config.world = 2;
    StepProfiler profiler(profiler_config);
    NumericTrainConfig config = ObsTrainConfig();
    config.profiler = &profiler;
    TrainLm(config);
    SetParallelWorkerCount(restore);
    std::vector<StepReport> reports = profiler.reports();
    // Rank threads interleave Submit arbitrarily; order by (step, rank).
    std::sort(reports.begin(), reports.end(),
              [](const StepReport& a, const StepReport& b) {
                return a.step != b.step ? a.step < b.step : a.rank < b.rank;
              });
    return reports;
  };

  const std::vector<StepReport> one_worker = run(1);
  const std::vector<StepReport> four_workers = run(4);
  ASSERT_EQ(one_worker.size(), four_workers.size());
  for (size_t i = 0; i < one_worker.size(); ++i) {
    const StepReport& a = one_worker[i];
    const StepReport& b = four_workers[i];
    ASSERT_EQ(a.step, b.step);
    ASSERT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.loss, b.loss) << "step " << a.step << " rank " << a.rank;
    EXPECT_EQ(a.wire_bytes, b.wire_bytes) << "step " << a.step << " rank " << a.rank;
    EXPECT_EQ(a.collectives, b.collectives) << "step " << a.step << " rank " << a.rank;
    EXPECT_EQ(a.dispatch_rows, b.dispatch_rows)
        << "step " << a.step << " rank " << a.rank;
    EXPECT_EQ(a.expert_imbalance, b.expert_imbalance)
        << "step " << a.step << " rank " << a.rank;
  }
}

TEST(StepProfilerTrainerTest, CleanRunRaisesNoAnomalies) {
  StepProfilerConfig profiler_config;
  profiler_config.anomaly = RobustAnomalyConfig();
  profiler_config.world = 2;
  StepProfiler profiler(profiler_config);
  NumericTrainConfig config = ObsTrainConfig();
  config.profiler = &profiler;
  TrainLm(config);
  EXPECT_TRUE(profiler.anomalies().empty());
  EXPECT_EQ(profiler.StragglerSuspect(), -1);
}

TEST(StepProfilerTrainerTest, InjectedSlowRankFlaggedWithinFiveSteps) {
  // Clean pilot run: learn how many collectives one rank issues per step so
  // the fault window can be aimed at roughly step 6 (after the detector's
  // baseline has filled).
  StepProfilerConfig pilot_config;
  pilot_config.anomaly = RobustAnomalyConfig();
  pilot_config.world = 2;
  StepProfiler pilot(pilot_config);
  NumericTrainConfig config = ObsTrainConfig();
  config.steps = 14;
  config.profiler = &pilot;
  TrainLm(config);
  int64_t ops_per_step = 0;
  for (const StepReport& report : pilot.reports()) {
    if (report.rank == 1 && report.step == 0) {
      ops_per_step = report.collectives;
    }
  }
  ASSERT_GT(ops_per_step, 0);

  // Faulted run: rank 1 sleeps 30ms before every collective from roughly
  // step 6 onward. No timeout is armed, so nothing fails — the run is just
  // slow, which is exactly what the detector must notice on its own.
  FaultPlan plan;
  plan.AddSlowRank(/*rank=*/1, /*delay_us=*/30000.0,
                   /*from_op=*/7 * ops_per_step, /*num_ops=*/-1);
  StepProfilerConfig profiler_config;
  profiler_config.anomaly = RobustAnomalyConfig();
  profiler_config.world = 2;
  StepProfiler profiler(profiler_config);
  NumericTrainConfig faulty = ObsTrainConfig();
  faulty.steps = 14;
  faulty.fault_plan = &plan;
  faulty.profiler = &profiler;
  TrainLm(faulty);

  const std::vector<AnomalyEvent> anomalies = profiler.anomalies();
  ASSERT_FALSE(anomalies.empty()) << "slow rank never flagged";
  int64_t first_step = anomalies.front().step;
  for (const AnomalyEvent& event : anomalies) {
    first_step = std::min(first_step, event.step);
  }
  // The fault lands within steps ~5-7 (the op-index aim is approximate by
  // at most the setup collectives before step 0); the detector must page
  // within five steps of it.
  EXPECT_GE(first_step, 4);
  EXPECT_LE(first_step, 12) << "detector took more than five steps to fire";
  EXPECT_EQ(profiler.StragglerSuspect(), 1)
      << "straggler verdict picked the wrong rank";
}

// Instrumented == bare for fault handling: a profiler only observes, so an
// elastic run must reach the same recovery verdicts with or without one.
// Rank 0 is slow but healthy; the checksum guard catches two bit flips on
// rank 1, and a DataLoss names no culprit, so both are transient
// rollbacks and nobody is evicted.
TEST(StepProfilerTrainerTest, ProfilerDoesNotChangeElasticRecovery) {
  const auto run = [](StepProfiler* profiler) {
    FaultPlan plan;
    plan.AddSlowRank(/*rank=*/0, /*delay_us=*/30000.0, /*from_op=*/16,
                     /*num_ops=*/-1);
    plan.AddBitFlip(/*rank=*/1, /*at_op=*/40);
    plan.AddBitFlip(/*rank=*/1, /*at_op=*/50);
    NumericTrainConfig config = ObsTrainConfig();
    config.steps = 20;
    config.elastic = true;
    config.guard_grad_checksum = true;
    config.checkpoint_every = 2;
    config.fault_plan = &plan;
    config.profiler = profiler;
    return TrainLm(config);
  };
  const TrainCurve bare = run(nullptr);
  StepProfilerConfig profiler_config;
  profiler_config.anomaly = RobustAnomalyConfig();
  profiler_config.world = 2;
  StepProfiler profiler(profiler_config);
  const TrainCurve profiled = run(&profiler);

  EXPECT_EQ(bare.final_world, 2);
  EXPECT_EQ(profiled.final_world, bare.final_world);
  ASSERT_EQ(profiled.loss.size(), bare.loss.size());
  EXPECT_EQ(std::memcmp(profiled.loss.data(), bare.loss.data(),
                        bare.loss.size() * sizeof(double)),
            0);
  ASSERT_EQ(bare.recoveries.size(), 2u);
  ASSERT_EQ(profiled.recoveries.size(), bare.recoveries.size());
  for (size_t i = 0; i < bare.recoveries.size(); ++i) {
    const RecoveryEvent& a = bare.recoveries[i];
    const RecoveryEvent& b = profiled.recoveries[i];
    EXPECT_EQ(a.verdict, FaultVerdict::kTransient) << "recovery " << i;
    EXPECT_EQ(a.culprit_rank, -1) << "recovery " << i;
    EXPECT_EQ(b.failed_step, a.failed_step) << "recovery " << i;
    EXPECT_EQ(b.resumed_step, a.resumed_step) << "recovery " << i;
    EXPECT_EQ(b.verdict, a.verdict) << "recovery " << i;
    EXPECT_EQ(b.culprit_rank, a.culprit_rank) << "recovery " << i;
    EXPECT_EQ(b.world_after, a.world_after) << "recovery " << i;
  }
}

}  // namespace
}  // namespace msmoe
