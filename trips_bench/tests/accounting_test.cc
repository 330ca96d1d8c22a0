// Tests of the benchmark's own accounting: nearest-rank quantiles and the
// ten-samples-beyond rule, due-time latency under a stalled call, loss
// accounting on a tiny stream with a forced fragment drop, and the restating
// of times at the nominal host speed.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "accounting.h"
#include "common.h"

namespace trips::perf {
namespace {

std::vector<double> OneToN(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Quantiles, NearestRank) {
  const std::vector<double> v = OneToN(100);
  EXPECT_EQ(NearestRank(v, 0.50), 50);
  EXPECT_EQ(NearestRank(v, 0.90), 90);
  EXPECT_EQ(NearestRank(v, 0.99), 99);
  EXPECT_EQ(NearestRank(v, 1.0), 100);
  EXPECT_EQ(NearestRank(v, 0.0), 1);
  EXPECT_EQ(NearestRank({7}, 0.99), 7);
  EXPECT_EQ(NearestRank({}, 0.5), 0);
  // Nearest rank picks a sample, never an interpolated value.
  EXPECT_EQ(NearestRank({1, 2, 3, 4}, 0.5), 2);
  EXPECT_EQ(NearestRank({1, 2, 3, 4, 5}, 0.5), 3);
}

TEST(Quantiles, SummarizeSortsAndReports) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  const LatencyStats s = Summarize(&v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.p50, 3);
  EXPECT_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3);
}

TEST(Quantiles, PercentileNeedsTenSamplesBeyond) {
  EXPECT_TRUE(PercentileSupported(100, 0.90));
  EXPECT_FALSE(PercentileSupported(99, 0.90));
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(20, 0.50));
  EXPECT_FALSE(PercentileSupported(19, 0.50));
  EXPECT_FALSE(PercentileSupported(0, 0.50));
}

// A fake clock that advances 1 us per reading, plus explicit jumps for the
// time a call takes.
struct FakeClock {
  uint64_t now = 1'000'000;
  uint64_t Read() { return now += 1'000; }
};

TEST(DueTimeLatency, StalledCallIsChargedToCallsBehindIt) {
  FakeClock clock;
  OpenLoopDriver driver([&clock] { return clock.Read(); },
                        [&clock](uint64_t ns) { clock.now += ns; });
  driver.Start();
  constexpr uint64_t kMs = 1'000'000;
  // Four calls due every 10 ms; each releases one result as it returns. The
  // first call stalls for 45 ms, the others take 1 ms.
  std::vector<double> latency;
  for (uint64_t k = 0; k < 4; ++k) {
    const uint64_t due = driver.WaitUntilDue(k * 10 * kMs);
    clock.now += (k == 0 ? 45 : 1) * kMs;
    latency.push_back(driver.LatencyMsSince(due));
  }
  // Calls 1..3 started late, behind the stall: 35, 26 and 17 ms of lag.
  ASSERT_EQ(driver.lag_ms().size(), 4u);
  EXPECT_LT(driver.lag_ms()[0], 0.1);
  EXPECT_NEAR(driver.lag_ms()[1], 35, 0.1);
  EXPECT_NEAR(driver.lag_ms()[2], 26, 0.1);
  EXPECT_NEAR(driver.lag_ms()[3], 17, 0.1);
  // Their results are charged that wait: latency from due time, not from
  // when the call actually started (which would read ~1 ms each).
  EXPECT_NEAR(latency[0], 45, 0.1);
  EXPECT_NEAR(latency[1], 36, 0.1);
  EXPECT_NEAR(latency[2], 27, 0.1);
  EXPECT_NEAR(latency[3], 18, 0.1);
}

TEST(DueTimeLatency, OnTimeCallsWaitForTheirDueTime) {
  FakeClock clock;
  uint64_t slept = 0;
  OpenLoopDriver driver([&clock] { return clock.Read(); },
                        [&](uint64_t ns) { clock.now += ns; slept += ns; });
  driver.Start();
  const uint64_t due = driver.WaitUntilDue(5'000'000);
  EXPECT_GE(clock.now, due);
  EXPECT_LT(driver.lag_ms()[0], 0.01);
  // Most of the 5 ms wait was slept, not spun.
  EXPECT_GT(slept, 4'000'000u);
}

TEST(Ledger, ShortFragmentRuns) {
  // Records every 3 s; a 5-minute hole after the second one.
  const std::vector<int64_t> offered = {0, 3000, 303000, 306000, 309000, 312000};
  // The first two never arrived: one run of two, shorter than 4.
  FragmentLoss loss =
      ShortFragmentLoss(offered, {false, false, true, true, true, true}, 4, 45000);
  EXPECT_EQ(loss.records, 2u);
  EXPECT_EQ(loss.fragments, 1u);
  // A missing run of four is not a small fragment.
  loss = ShortFragmentLoss(offered, {true, true, false, false, false, false}, 4, 45000);
  EXPECT_EQ(loss.records, 0u);
  EXPECT_EQ(loss.fragments, 0u);
  // Two short runs split by a long gap are two fragments.
  loss = ShortFragmentLoss({0, 3000, 100000, 103000}, {false, false, false, false}, 4,
                           45000);
  EXPECT_EQ(loss.records, 4u);
  EXPECT_EQ(loss.fragments, 2u);
  // Two records sharing a timestamp: only the mask says which one arrived.
  loss = ShortFragmentLoss({0, 3000, 3000, 6000}, {true, true, false, false}, 4, 45000);
  EXPECT_EQ(loss.records, 2u);
  EXPECT_EQ(loss.fragments, 1u);
}

TEST(Ledger, ReasonsAndRemainder) {
  RecordLedger ledger;
  ledger.Offer("a", 10);
  ledger.Offer("b", 5);
  ledger.Deliver("a", 7);
  ledger.Deliver("b", 5);
  EXPECT_EQ(ledger.lost(), 3u);
  ledger.Explain("small_buffer_dropped", 2);
  const auto loss = ledger.LossByReason();
  EXPECT_EQ(loss.at("small_buffer_dropped"), 2u);
  EXPECT_EQ(loss.at("unexplained"), 1u);
  EXPECT_EQ(ledger.over_delivered(), 0u);
  EXPECT_DOUBLE_EQ(ledger.delivered_ratio(), 12.0 / 15.0);
}

// A real stream session on the small office venue: one device sends two
// records, goes dark for five minutes, then sends ten more. The age-based
// Poll drops the two-record fragment (below min_flush_records); the final
// FlushAll delivers the rest. The ledger must charge exactly those two
// records to the named reason.
TEST(Ledger, ForcedFragmentDropOnATinyStream) {
  auto office = dsm::BuildOfficeDsm();
  ASSERT_TRUE(office.ok());
  auto engine = core::Engine::Builder().SetDsm(std::move(office).ValueOrDie()).Build();
  ASSERT_TRUE(engine.ok());
  core::ServiceOptions options;
  options.worker_threads = 0;
  core::Service service(engine.ValueOrDie(), options);
  core::StreamOptions policy;
  policy.flush_after = 45 * kMillisPerSecond;
  policy.min_flush_records = 4;
  auto session = service.NewStreamSession(policy);

  SessionFeed feed;
  PlannedSession planned;
  planned.device.id = "t-000000";
  planned.device.raw.device_id = planned.device.id;
  for (int i = 0; i < 2; ++i) {
    planned.device.raw.records.emplace_back(4.0 + i, 3.0, 0, i * 3000);
  }
  for (int i = 0; i < 10; ++i) {
    planned.device.raw.records.emplace_back(4.0 + 0.5 * i, 3.0, 0, 300000 + i * 3000);
  }
  feed.sessions.push_back(planned);

  std::vector<Delivery> deliveries;
  std::vector<core::TranslationResult> full;
  session->SetSink([&](core::TranslationResult result) {
    const uint32_t s = SessionOf(result.raw.device_id);
    Retain(s, std::move(result), &deliveries, &full);
  });
  const auto& records = planned.device.raw.records;
  ASSERT_TRUE(session->Ingest("t-000000", records[0]).ok());
  ASSERT_TRUE(session->Ingest("t-000000", records[1]).ok());
  ASSERT_TRUE(session->Poll(60000).ok());  // 57 s idle: fragment dropped
  for (size_t i = 2; i < records.size(); ++i) {
    ASSERT_TRUE(session->Ingest("t-000000", records[i]).ok());
  }
  ASSERT_TRUE(session->FlushAll().ok());
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].records, 10u);

  const uint64_t dropped =
      service.stats_registry()->Snap().counter_or("stream.dropped_small_buffers");
  EXPECT_EQ(dropped, 1u);
  const FeedCheck check =
      CheckFeed(feed, deliveries, full, {&service.engine()}, policy, dropped);
  EXPECT_EQ(check.ledger.offered(), 12u);
  EXPECT_EQ(check.ledger.delivered(), 10u);
  const auto loss = check.ledger.LossByReason();
  ASSERT_EQ(loss.size(), 1u);
  EXPECT_EQ(loss.at("small_buffer_dropped"), 2u);
  // The session was not released whole, so it is not a parity sample.
  EXPECT_EQ(check.whole_checked, 0u);

  // Had the session not counted the drop, the loss would be unexplained.
  const FeedCheck unexplained =
      CheckFeed(feed, deliveries, full, {&service.engine()}, policy, 0);
  EXPECT_EQ(unexplained.ledger.LossByReason().at("unexplained"), 2u);
}

TEST(HostSpeed, FactorIsNominalOverMeanOfTheWindow) {
  HostSpeed host;
  EXPECT_EQ(host.mark(), 0u);
  EXPECT_EQ(host.MeanMs(0, 0), 0);
  EXPECT_EQ(host.Factor(0, 0), 1.0);  // no samples: nothing to restate
  for (int i = 0; i < 5; ++i) host.Sample();
  ASSERT_EQ(host.mark(), 5u);
  const double mean = host.MeanMs(0, 5);
  EXPECT_GT(mean, 0);
  EXPECT_DOUBLE_EQ(host.Factor(0, 5), HostSpeed::kNominalMs / mean);
  EXPECT_DOUBLE_EQ(host.MeanMs(0, 5),
                   (2 * host.MeanMs(0, 2) + 3 * host.MeanMs(2, 5)) / 5);
  EXPECT_EQ(host.MeanMs(3, 99), host.MeanMs(3, 5));  // clipped to the samples
}

TEST(HostSpeed, ProbeSamplesUntilDestroyed) {
  HostSpeed host;
  {
    HostProbe probe(&host, 1'000'000);
    while (host.mark() < 3) std::this_thread::yield();
  }
  const size_t taken = host.mark();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(host.mark(), taken);  // the thread has stopped
  HostProbe none(nullptr, 1'000'000);  // starts nothing
}

TEST(HostSpeed, ScaleToNominalScalesTimesAndHostRatesOnly) {
  std::map<std::string, Metric> m = {
      {"latency_p50_ms", {10, "ms"}}, {"setup_s", {2, "s"}},
      {"records_per_s", {100, "1/s"}}, {"offered_per_s", {100, "1/s"}},
      {"share", {0.5, "ratio"}},       {"allocs", {7, "count"}}};
  ScaleToNominal(&m, {"records_per_s"}, 0.5);
  EXPECT_DOUBLE_EQ(m["latency_p50_ms"].value, 5);  // a slow host's time shrinks
  EXPECT_DOUBLE_EQ(m["setup_s"].value, 1);
  EXPECT_DOUBLE_EQ(m["records_per_s"].value, 200);  // and its throughput grows
  EXPECT_DOUBLE_EQ(m["offered_per_s"].value, 100);  // schedule-set rates stay
  EXPECT_DOUBLE_EQ(m["share"].value, 0.5);
  EXPECT_DOUBLE_EQ(m["allocs"].value, 7);
}

}  // namespace
}  // namespace trips::perf
