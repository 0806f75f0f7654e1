// Tests of perfbench's metric derivation (derive.hpp): percentiles with
// their sample counts, ratios with their bases, registry-frame parsing and
// counter deltas. Plain checks that run in every build type; exit code 1
// on the first failure.
//
//   cmake --build .bench_build --target perfbench_derive_test
//   .bench_build/perfbench_derive_test
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "derive.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "derive_test.cpp:%d: FAILED: %s\n", line, what);
}

#define CHECK(cond) check((cond), #cond, __LINE__)
#define CHECK_NEAR(a, b) \
  check(std::fabs((a) - (b)) < 1e-9, #a " == " #b, __LINE__)

void percentiles_carry_their_sample_count() {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // 1..100, reversed
  perfbench::Percentile p50 = perfbench::percentile(xs, 0.50);
  CHECK_NEAR(p50.value, 50.0);
  CHECK(p50.n == 100);
  perfbench::Percentile p99 = perfbench::percentile(xs, 0.99);
  CHECK_NEAR(p99.value, 99.0);
  CHECK_NEAR(perfbench::percentile(xs, 1.0).value, 100.0);
  CHECK_NEAR(perfbench::percentile(xs, 0.0).value, 1.0);

  // Nearest rank rounds up: with 10 samples p99 is the maximum.
  std::vector<double> ten{5, 1, 9, 3, 7, 2, 8, 4, 6, 10};
  CHECK_NEAR(perfbench::percentile(ten, 0.99).value, 10.0);
  CHECK_NEAR(perfbench::percentile(ten, 0.50).value, 5.0);

  std::vector<double> none;
  const perfbench::Percentile empty = perfbench::percentile(none, 0.5);
  CHECK(empty.n == 0);
  CHECK_NEAR(empty.value, 0.0);
}

void medians_follow_statistics_median() {
  CHECK_NEAR(perfbench::median({3, 1, 2}), 2.0);
  CHECK_NEAR(perfbench::median({4, 1, 3, 2}), 2.5);
  CHECK_NEAR(perfbench::median({}), 0.0);
}

void ratios_keep_their_base() {
  const perfbench::Ratio r{3, 12};
  CHECK_NEAR(r.value(), 0.25);
  CHECK_NEAR(r.den, 12.0);
  // No base: the layer did no work of that kind, reported as 0, not NaN.
  const perfbench::Ratio z{5, 0};
  CHECK_NEAR(z.value(), 0.0);
}

const char* kSnapshotA = R"({
  "core.btree.nodes_live": 40,
  "sched.queue_depth": -2,
  "stm.commit.stage.assign_ns":
      {"count": 3, "sum": 30, "buckets": [0, 1, 2, 0]},
  "tx.commits": 100
})";

const char* kSnapshotB = R"({
  "core.btree.nodes_live": 35,
  "server.admitted": 7,
  "stm.commit.stage.assign_ns":
      {"count": 10, "sum": 130, "buckets": [0, 1, 2, 7]},
  "tx.commits": 250
})";

void frames_parse_the_registry_snapshot() {
  const perfbench::Frame a = perfbench::parse_frame(kSnapshotA);
  CHECK(a.size() == 4);
  CHECK_NEAR(perfbench::count_of(a, "tx.commits"), 100.0);
  CHECK_NEAR(perfbench::count_of(a, "sched.queue_depth"), -2.0);
  CHECK_NEAR(perfbench::count_of(a, "stm.commit.stage.assign_ns"), 3.0);
  CHECK(a.at("stm.commit.stage.assign_ns").buckets.size() == 4);
  CHECK_NEAR(perfbench::count_of(a, "absent"), 0.0);
  CHECK(perfbench::parse_frame("{}").empty());

  bool threw = false;
  try {
    perfbench::parse_frame("{\"x\": 1");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  CHECK(threw);
}

void counter_deltas_and_windowed_histograms() {
  const perfbench::Frame a = perfbench::parse_frame(kSnapshotA);
  const perfbench::Frame b = perfbench::parse_frame(kSnapshotB);
  const perfbench::Frame d = perfbench::delta(b, a);
  CHECK_NEAR(perfbench::count_of(d, "tx.commits"), 150.0);
  // A metric registered only after the first frame counts from zero.
  CHECK_NEAR(perfbench::count_of(d, "server.admitted"), 7.0);
  // Histogram delta: count 7, sum 100, all new samples in bucket 3.
  const perfbench::Ratio mean =
      perfbench::hist_mean(d, "stm.commit.stage.assign_ns");
  CHECK_NEAR(mean.num, 100.0);
  CHECK_NEAR(mean.den, 7.0);
  const perfbench::Percentile p50 =
      perfbench::hist_quantile(d, "stm.commit.stage.assign_ns", 0.5);
  CHECK_NEAR(p50.value, 8.0);  // bucket 3 covers (4, 8]
  CHECK(p50.n == 7);
  // Over the whole lifetime the median falls in bucket 3 as well, but the
  // window's count is what the percentile reports.
  const perfbench::Percentile life =
      perfbench::hist_quantile(b, "stm.commit.stage.assign_ns", 0.5);
  CHECK(life.n == 10);

  // Summing two windows' deltas equals one delta over both.
  perfbench::Frame total;
  perfbench::accumulate(total, perfbench::delta(a, perfbench::Frame{}));
  perfbench::accumulate(total, d);
  CHECK_NEAR(perfbench::count_of(total, "tx.commits"), 250.0);
  CHECK(total.at("stm.commit.stage.assign_ns").buckets[3] == 7);
}

}  // namespace

int main() {
  percentiles_carry_their_sample_count();
  medians_follow_statistics_median();
  ratios_keep_their_base();
  frames_parse_the_registry_snapshot();
  counter_deltas_and_windowed_histograms();
  if (failures != 0) {
    std::fprintf(stderr, "%d derivation check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench derive tests passed\n");
  return 0;
}
