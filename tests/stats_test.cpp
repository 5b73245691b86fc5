// Unit tests for the statistics kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <random>
#include <utility>

#include "stats/cdf.h"
#include "stats/correlation.h"
#include "stats/gini.h"
#include "stats/histogram.h"
#include "stats/percentile.h"
#include "stats/rate_estimator.h"
#include "stats/summary.h"
#include "stats/timeseries.h"

namespace swarmlab::stats {
namespace {

TEST(Summary, Empty) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, MeanAndVariance) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, SingleSampleHasZeroVariance) {
  Summary s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Percentile, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 100.0), 42.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 1.75);
}

TEST(Percentile, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

TEST(Cdf, AtAndQuantile) {
  Cdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
}

TEST(Cdf, IncrementalAdd) {
  Cdf cdf;
  cdf.add(3.0);
  cdf.add(1.0);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 3.0);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.5);
}

TEST(Cdf, LogSpacedPointsMonotone) {
  Cdf cdf({0.1, 1.0, 10.0, 100.0});
  const auto pts = cdf.log_spaced_points(0.01, 1000.0, 20);
  ASSERT_EQ(pts.size(), 20u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].first, pts[i - 1].first);
    EXPECT_GE(pts[i].second, pts[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

TEST(Cdf, DescribeQuantiles) {
  Cdf cdf({1.0, 2.0, 3.0});
  EXPECT_NE(describe_quantiles(cdf).find("p50"), std::string::npos);
  EXPECT_EQ(describe_quantiles(Cdf{}), "(empty)");
}

TEST(Histogram, BinsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.0);   // bin 0
  h.add(1.9);   // bin 0
  h.add(2.0);   // bin 1
  h.add(9.99);  // bin 4
  h.add(-1.0);  // underflow
  h.add(10.0);  // overflow (hi is exclusive)
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_lower(1), 2.0);
  EXPECT_DOUBLE_EQ(h.fraction(0), 2.0 / 6.0);
}

TEST(TimeSeries, ValueAtUsesLastSample) {
  TimeSeries ts;
  ts.add(1.0, 10.0);
  ts.add(2.0, 20.0);
  ts.add(3.0, 30.0);
  EXPECT_DOUBLE_EQ(ts.value_at(0.5, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(ts.value_at(1.0), 10.0);
  EXPECT_DOUBLE_EQ(ts.value_at(2.5), 20.0);
  EXPECT_DOUBLE_EQ(ts.value_at(99.0), 30.0);
}

TEST(TimeSeries, DownsampleKeepsEndpoints) {
  TimeSeries ts;
  for (int i = 0; i < 100; ++i) ts.add(i, i * 2.0);
  const auto ds = ts.downsample(10);
  ASSERT_EQ(ds.size(), 10u);
  EXPECT_DOUBLE_EQ(ds.front().time, 0.0);
  EXPECT_DOUBLE_EQ(ds.back().time, 99.0);
}

TEST(TimeSeries, DownsampleSmallSeriesReturnsAll) {
  TimeSeries ts;
  ts.add(1.0, 1.0);
  ts.add(2.0, 2.0);
  EXPECT_EQ(ts.downsample(10).size(), 2u);
}

TEST(TimeSeries, MinMaxValues) {
  TimeSeries ts;
  ts.add(0.0, 5.0);
  ts.add(1.0, -2.0);
  ts.add(2.0, 7.0);
  EXPECT_DOUBLE_EQ(ts.min_value(), -2.0);
  EXPECT_DOUBLE_EQ(ts.max_value(), 7.0);
}

TEST(RateEstimator, FreshConnectionNotOvercredited) {
  RateEstimator r(20.0);
  r.add(100.0, 1000);
  r.add(101.0, 1000);
  // 2000 bytes over ~1 second of history, not over the full window.
  EXPECT_NEAR(r.rate(101.0), 2000.0, 10.0);
}

TEST(RateEstimator, SteadyRateMatches) {
  RateEstimator r(20.0);
  for (int t = 0; t <= 100; ++t) r.add(t, 500);
  EXPECT_NEAR(r.rate(100.0), 500.0, 50.0);
}

TEST(RateEstimator, OldEventsExpire) {
  RateEstimator r(20.0);
  r.add(0.0, 1'000'000);
  EXPECT_DOUBLE_EQ(r.rate(100.0), 0.0);
}

TEST(RateEstimator, TotalsPersistAcrossReset) {
  RateEstimator r(20.0);
  r.add(0.0, 100);
  r.add(1.0, 200);
  r.reset_window();
  EXPECT_EQ(r.total_bytes(), 300u);
  EXPECT_DOUBLE_EQ(r.rate(2.0), 0.0);
}

/// The deque-based estimator RateEstimator replaced, kept verbatim as the
/// reference its rate() must match bit for bit. It also counts expiries
/// that empty the window and expiries that leave some events live, so the
/// test can show its sequence reaches both of the new buffer's
/// compaction paths.
class DequeRateEstimator {
 public:
  explicit DequeRateEstimator(double window) : window_(window) {}

  void add(double now, std::uint64_t bytes) {
    if (first_event_time_ < 0.0) first_event_time_ = now;
    events_.emplace_back(now, bytes);
    window_bytes_ += bytes;
    total_ += bytes;
    expire(now);
  }
  double rate(double now) {
    expire(now);
    if (events_.empty()) return 0.0;
    double span = window_;
    if (first_event_time_ >= 0.0) {
      span = std::min(window_, now - first_event_time_);
    }
    if (span <= 0.0) span = 1e-9;
    return static_cast<double>(window_bytes_) / span;
  }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_; }
  void reset_window() {
    events_.clear();
    window_bytes_ = 0;
    first_event_time_ = -1.0;
  }

  int emptied = 0;  // expiries that dropped every event
  int partial = 0;  // expiries that dropped some events and kept others

 private:
  void expire(double now) {
    const double cutoff = now - window_;
    bool dropped = false;
    while (!events_.empty() && events_.front().first < cutoff) {
      window_bytes_ -= events_.front().second;
      events_.pop_front();
      dropped = true;
    }
    if (dropped) ++(events_.empty() ? emptied : partial);
  }

  double window_;
  std::deque<std::pair<double, std::uint64_t>> events_;
  std::uint64_t window_bytes_ = 0;
  std::uint64_t total_ = 0;
  double first_event_time_ = -1.0;
};

TEST(RateEstimator, MatchesDequeReferenceBitForBit) {
  RateEstimator fast(20.0);
  DequeRateEstimator ref(20.0);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::mt19937_64 rng(20061025);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  double now = 0.0;
  for (int op = 0; op < 10'000; ++op) {
    if (op % 1000 == 999) {
      // A silence longer than the window expires every event.
      now += 20.0 + 20.0 * unit(rng);
      ASSERT_EQ(bits(fast.rate(now)), bits(ref.rate(now))) << "op " << op;
      continue;
    }
    // Block-scale gaps, often zero, so the window holds dozens of events
    // and expires them a few at a time.
    if (unit(rng) < 0.5) now += 0.6 * unit(rng);
    const double what = unit(rng);
    if (what < 0.6) {
      const auto bytes = static_cast<std::uint64_t>(16384 * unit(rng)) + 1;
      fast.add(now, bytes);
      ref.add(now, bytes);
    } else if (what < 0.999) {
      ASSERT_EQ(bits(fast.rate(now)), bits(ref.rate(now)))
          << "op " << op << " at t=" << now;
    } else {
      fast.reset_window();
      ref.reset_window();
    }
    ASSERT_EQ(fast.total_bytes(), ref.total_bytes()) << "op " << op;
  }
  EXPECT_GE(ref.emptied, 5);
  EXPECT_GE(ref.partial, 1000);
}

TEST(Correlation, PerfectPositive) {
  EXPECT_DOUBLE_EQ(pearson({1, 2, 3}, {2, 4, 6}), 1.0);
  EXPECT_DOUBLE_EQ(spearman({1, 2, 3}, {10, 20, 30}), 1.0);
}

TEST(Correlation, PerfectNegative) {
  EXPECT_DOUBLE_EQ(pearson({1, 2, 3}, {6, 4, 2}), -1.0);
  EXPECT_DOUBLE_EQ(spearman({1, 2, 3}, {3, 2, 1}), -1.0);
}

TEST(Correlation, ConstantSeriesIsZero) {
  EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(spearman({2, 2, 2}, {1, 2, 3}), 0.0);
}

TEST(Correlation, TooFewSamplesIsZero) {
  EXPECT_DOUBLE_EQ(pearson({1}, {2}), 0.0);
  EXPECT_DOUBLE_EQ(pearson({}, {}), 0.0);
}

TEST(Correlation, SpearmanMonotoneNonlinear) {
  // y = x^3 is monotone: Spearman 1, Pearson < 1.
  std::vector<double> xs, ys;
  for (int i = 1; i <= 20; ++i) {
    xs.push_back(i);
    ys.push_back(std::pow(i, 3));
  }
  EXPECT_DOUBLE_EQ(spearman(xs, ys), 1.0);
  EXPECT_LT(pearson(xs, ys), 1.0);
}

TEST(Correlation, SpearmanHandlesTies) {
  const std::vector<double> xs{1, 2, 2, 3};
  const std::vector<double> ys{1, 2, 2, 3};
  EXPECT_DOUBLE_EQ(spearman(xs, ys), 1.0);
}


TEST(Gini, EqualSharesAreZero) {
  EXPECT_DOUBLE_EQ(gini({5, 5, 5, 5}), 0.0);
}

TEST(Gini, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(gini({}), 0.0);
  EXPECT_DOUBLE_EQ(gini({7}), 0.0);
  EXPECT_DOUBLE_EQ(gini({0, 0, 0}), 0.0);
}

TEST(Gini, MonopolyApproachesOne) {
  std::vector<double> v(100, 0.0);
  v[0] = 1000.0;
  EXPECT_NEAR(gini(v), 0.99, 0.011);
}

TEST(Gini, OrderingInvariant) {
  EXPECT_DOUBLE_EQ(gini({1, 2, 3, 4}), gini({4, 2, 1, 3}));
}

TEST(Gini, KnownValue) {
  // {1, 3}: G = |1-3| / (2 * 2 * 2) * 2 = 0.25.
  EXPECT_DOUBLE_EQ(gini({1.0, 3.0}), 0.25);
}

}  // namespace
}  // namespace swarmlab::stats
