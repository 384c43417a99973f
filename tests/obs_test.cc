// Unit tests for the observability layer (snd/obs/): histogram bucket
// boundaries and quantile interpolation, registry get-or-create and
// stable snapshot ordering, the JSONL event line format (field order is
// a wire contract pinned byte-for-byte here), and the no-op guarantees
// of trace spans outside a traced request.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "snd/obs/event_log.h"
#include "snd/obs/metrics.h"
#include "snd/obs/names.h"
#include "snd/obs/trace.h"
#include "snd/util/thread_pool.h"

namespace snd {
namespace obs {
namespace {

TEST(HistogramTest, BucketBoundariesFollowThePowerOfTwoLayout) {
  // Bucket 0 holds exactly {0}; bucket i >= 1 holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);
  for (int bucket = 1; bucket < Histogram::kNumBuckets - 1; ++bucket) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLowerBound(bucket)),
              bucket);
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpperBound(bucket)),
              bucket);
    EXPECT_EQ(Histogram::BucketUpperBound(bucket) + 1,
              Histogram::BucketLowerBound(bucket + 1));
  }
}

TEST(HistogramTest, CountSumAndQuantilesOnKnownData) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0);  // Empty histogram.
  for (int k = 0; k < 100; ++k) h.Record(1000);
  h.Record(1'000'000);
  EXPECT_EQ(h.Count(), 101);
  EXPECT_EQ(h.Sum(), 100 * 1000 + 1'000'000);
  // The p50 lands in 1000's bucket [512, 1023]; the single outlier
  // must not drag the median anywhere near it.
  EXPECT_GE(h.Quantile(0.5), Histogram::BucketLowerBound(
                                 Histogram::BucketIndex(1000)));
  EXPECT_LE(h.Quantile(0.5), Histogram::BucketUpperBound(
                                 Histogram::BucketIndex(1000)));
  // The p100 extreme lands in the outlier's bucket.
  EXPECT_GE(h.Quantile(1.0), Histogram::BucketLowerBound(
                                 Histogram::BucketIndex(1'000'000)));
}

TEST(HistogramTest, QuantilesAreMonotoneInQ) {
  Histogram h;
  for (int k = 1; k <= 1000; ++k) h.Record(k * 37);
  int64_t previous = 0;
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const int64_t value = h.Quantile(q);
    EXPECT_GE(value, previous) << "q=" << q;
    previous = value;
  }
}

TEST(HistogramTest, RecordClampsNegativeValuesIntoBucketZero) {
  Histogram h;
  h.Record(-5);  // A backwards clock step must not crash or corrupt.
  EXPECT_EQ(h.Count(), 1);
}

TEST(MetricsRegistryTest, RegisterIsGetOrCreate) {
  MetricsRegistry registry;
  Counter* a = registry.RegisterCounter("snd.test.counter");
  Counter* b = registry.RegisterCounter("snd.test.counter");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(b->Value(), 3);
  Gauge* g = registry.RegisterGauge("snd.test.gauge");
  g->Set(7);
  EXPECT_EQ(registry.RegisterGauge("snd.test.gauge")->Value(), 7);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndFlattensHistograms) {
  MetricsRegistry registry;
  registry.RegisterCounter("snd.test.zebra")->Add(1);
  registry.RegisterCounter("snd.test.apple")->Add(2);
  Histogram* h = registry.RegisterHistogram("snd.test.lat");
  h->Record(100);
  h->Record(200);
  const std::vector<MetricRow> rows = registry.Snapshot();
  std::vector<std::string> names;
  for (const MetricRow& row : rows) names.push_back(row.name);
  const std::vector<std::string> expected = {
      "snd.test.apple",      "snd.test.lat.count",  "snd.test.lat.p50_ns",
      "snd.test.lat.p90_ns", "snd.test.lat.p99_ns", "snd.test.lat.sum_ns",
      "snd.test.zebra"};
  EXPECT_EQ(names, expected);
  EXPECT_EQ(rows[0].value, 2);
  EXPECT_EQ(rows[1].value, 2);    // .count
  EXPECT_EQ(rows[5].value, 300);  // .sum_ns
}

// Gauge::Add keeps an up/down count exact under concurrent writers,
// where Set(load) from each writer could publish a stale level.
TEST(MetricsRegistryTest, GaugeAddMovesAnUpDownCountExactly) {
  MetricsRegistry registry;
  Gauge* open = registry.RegisterGauge("snd.test.open");
  open->Add(3);
  open->Add(-1);
  EXPECT_EQ(open->Value(), 2);
  ThreadPool pool(4);
  pool.ParallelFor(4000, [open](int64_t k, int32_t) {
    open->Add(k % 2 == 0 ? 2 : -2);
  });
  EXPECT_EQ(open->Value(), 2);
  open->Set(9);  // Set still publishes a sampled level.
  EXPECT_EQ(open->Value(), 9);
}

TEST(MetricsRegistryTest, SnapshotValueReadsRowsByName) {
  MetricsRegistry registry;
  registry.RegisterCounter("snd.test.b")->Add(4);
  registry.RegisterGauge("snd.test.a")->Set(-5);
  registry.RegisterHistogram("snd.test.c")->Record(10);
  const std::vector<MetricRow> rows = registry.Snapshot();
  EXPECT_EQ(SnapshotValue(rows, "snd.test.a"), -5);
  EXPECT_EQ(SnapshotValue(rows, "snd.test.b"), 4);
  EXPECT_EQ(SnapshotValue(rows, "snd.test.c.count"), 1);
  EXPECT_EQ(SnapshotValue(rows, "snd.test.c.sum_ns"), 10);
}

TEST(MetricsRegistryTest, IsMetricNameRequiresLowercaseDottedIdentifiers) {
  EXPECT_TRUE(MetricsRegistry::IsMetricName("snd.req.ok"));
  EXPECT_TRUE(MetricsRegistry::IsMetricName("snd.phase.edge_cost.ns"));
  EXPECT_FALSE(MetricsRegistry::IsMetricName("snd"));          // No dot.
  EXPECT_FALSE(MetricsRegistry::IsMetricName("snd..req"));     // Empty part.
  EXPECT_FALSE(MetricsRegistry::IsMetricName(".snd.req"));     // Leading dot.
  EXPECT_FALSE(MetricsRegistry::IsMetricName("snd.req."));     // Trailing dot.
  EXPECT_FALSE(MetricsRegistry::IsMetricName("snd.Req.ok"));   // Uppercase.
  EXPECT_FALSE(MetricsRegistry::IsMetricName("snd.req-ok.x"));  // Dash.
  EXPECT_FALSE(MetricsRegistry::IsMetricName(""));
}

// The exact line body of a request event: field order and spelling are
// a wire contract shared with tools/check_event_log.py and the README
// schema table. Changing this string means changing all of them.
TEST(EventLogTest, FormatRequestEventIsByteStable) {
  RequestEvent event;
  event.trace_id = 42;
  event.kind = "distance";
  event.name = "g";
  event.status = "ok";
  event.graph_epoch = 1;
  event.sub_epoch = 2;
  event.states_epoch = 3;
  for (int p = 0; p < kNumObsPhases; ++p) event.phase_ns[p] = 10 * (p + 1);
  event.sssp_runs = 4;
  event.sssp_settled = 96;
  event.transport_solves = 4;
  event.edge_cost_builds = 4;
  event.edge_cost_patches = 0;
  event.result_hits = 0;
  event.result_misses = 1;
  event.results_retained = -1;
  event.results_erased = -1;
  EXPECT_EQ(
      EventLog::FormatRequestEvent(event),
      "{\"event\":\"request\",\"trace_id\":42,\"kind\":\"distance\","
      "\"name\":\"g\",\"status\":\"ok\",\"graph_epoch\":1,\"sub_epoch\":2,"
      "\"states_epoch\":3,\"parse_ns\":10,\"dispatch_ns\":20,"
      "\"edge_cost_ns\":30,\"sssp_ns\":40,\"transport_ns\":50,"
      "\"encode_ns\":60,\"sssp_runs\":4,\"sssp_settled\":96,"
      "\"transport_solves\":4,\"edge_cost_builds\":4,"
      "\"edge_cost_patches\":0,\"result_hits\":0,\"result_misses\":1,"
      "\"results_retained\":-1,\"results_erased\":-1}");
}

TEST(EventLogTest, FormatStatsEventListsRowsInSnapshotOrder) {
  const std::vector<MetricRow> rows = {{"snd.a.b", 1}, {"snd.c.d", -2}};
  EXPECT_EQ(EventLog::FormatStatsEvent(rows),
            "{\"event\":\"stats\",\"metrics\":{\"snd.a.b\":1,"
            "\"snd.c.d\":-2}}");
}

TEST(EventLogTest, EmitWritesOneLinePerEventToTheSink) {
  std::ostringstream sink;
  {
    EventLog log(&sink);
    RequestEvent event;
    event.trace_id = 1;
    event.kind = "info";
    event.status = "ok";
    EXPECT_TRUE(log.Emit(event));
    event.trace_id = 2;
    EXPECT_TRUE(log.Emit(event));
    EXPECT_TRUE(log.EmitStats({{"snd.x.y", 5}}));
    log.Flush();
    EXPECT_EQ(log.dropped(), 0);
  }  // Destructor drains and joins.
  std::istringstream lines(sink.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(count, 3);
  EXPECT_NE(sink.str().find("\"trace_id\":2"), std::string::npos);
  EXPECT_NE(sink.str().find("\"event\":\"stats\""), std::string::npos);
}

TEST(TraceTest, SpansAndHooksAreNoOpsWithoutAnInstalledTrace) {
  ASSERT_EQ(CurrentRequestTrace(), nullptr);
  {
    const ObsSpan span(ObsPhase::kSssp);
    TraceCountSsspRun();
    TraceCountTransportSolve();
    TraceCountEngineRun(kSsspSlotDijkstra, 100);
  }  // Nothing to observe — the assertion is "does not crash".
  EXPECT_EQ(CurrentRequestTrace(), nullptr);
}

TEST(TraceTest, ScopeInstallsAndRestoresAndSpansAccrue) {
  RequestTrace outer;
  RequestTrace inner;
  {
    const TraceScope outer_scope(&outer);
    EXPECT_EQ(CurrentRequestTrace(), &outer);
    {
      const TraceScope inner_scope(&inner);
      EXPECT_EQ(CurrentRequestTrace(), &inner);
      const ObsSpan span(ObsPhase::kTransport);
      TraceCountTransportSolve();
    }
    EXPECT_EQ(CurrentRequestTrace(), &outer);
    TraceCountSsspRun();
  }
  EXPECT_EQ(CurrentRequestTrace(), nullptr);
  EXPECT_EQ(inner.transport_solves.load(), 1);
  EXPECT_GE(inner.phase_ns[static_cast<int>(ObsPhase::kTransport)].load(),
            0);
  EXPECT_EQ(outer.sssp_runs.load(), 1);
  EXPECT_EQ(outer.transport_solves.load(), 0);
}

TEST(TraceTest, EngineRunScopeReportsRunAndSettledOnDestruction) {
  RequestTrace trace;
  {
    const TraceScope scope(&trace);
    {
      EngineRunScope run(kSsspSlotDial);
      run.AddSettled(5);
      run.AddSettled();
    }
  }
  EXPECT_EQ(trace.backend_runs[kSsspSlotDial].load(), 1);
  EXPECT_EQ(trace.backend_settled[kSsspSlotDial].load(), 6);
  EXPECT_EQ(trace.sssp_settled.load(), 6);
  EXPECT_EQ(trace.backend_runs[kSsspSlotDijkstra].load(), 0);
}

}  // namespace
}  // namespace obs
}  // namespace snd
