// Equivalence of the selection-based result statistics and the to_chars CSV
// writers with the sort-and-stream implementations they replaced. The
// references below are test-local copies of those: a Summary over freshly
// materialized samples, and std::ostream formatting. Every comparison is
// bit-for-bit (doubles) or byte-for-byte (CSV text).

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/simulator/metrics.h"
#include "src/simulator/telemetry.h"

namespace sarathi {
namespace {

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// ---- Sort-based references ----

double RefP99Tbt(const SimResult& result) {
  Summary summary;
  for (const RequestMetrics& r : result.requests) {
    summary.AddAll(r.TbtSamples());
  }
  return summary.empty() ? 0.0 : summary.Quantile(0.99);
}

double RefMaxTbt(const SimResult& result) {
  double max_tbt = 0.0;
  for (const RequestMetrics& r : result.requests) {
    for (double tbt : r.TbtSamples()) {
      max_tbt = std::max(max_tbt, tbt);
    }
  }
  return max_tbt;
}

int64_t RefCountStalls(const SimResult& result, double threshold_s) {
  int64_t stalls = 0;
  for (const RequestMetrics& r : result.requests) {
    for (double tbt : r.TbtSamples()) {
      stalls += tbt > threshold_s ? 1 : 0;
    }
  }
  return stalls;
}

double RefMedianTtft(const SimResult& result) {
  Summary summary;
  for (const RequestMetrics& r : result.requests) {
    if (r.Ttft() >= 0.0) {
      summary.Add(r.Ttft());
    }
  }
  return summary.empty() ? 0.0 : summary.Median();
}

double RefMedianSchedulingDelay(const SimResult& result) {
  Summary summary;
  for (const RequestMetrics& r : result.requests) {
    if (r.SchedulingDelay() >= 0.0) {
      summary.Add(r.SchedulingDelay());
    }
  }
  return summary.empty() ? 0.0 : summary.Median();
}

std::string RefRequestsCsv(const SimResult& result) {
  std::ostringstream out;
  out << "id,arrival_s,scheduling_delay_s,ttft_s,completion_s,latency_s,num_tokens,"
         "p99_tbt_s,max_tbt_s,preemptions,deadline_s,failed_s,failure,retries,"
         "wasted_tokens,hedges,migrations,cached_prefill_tokens\n";
  for (const RequestMetrics& r : result.requests) {
    Summary tbt;
    tbt.AddAll(r.TbtSamples());
    double p99 = tbt.empty() ? 0.0 : tbt.Quantile(0.99);
    double max_tbt = tbt.empty() ? 0.0 : tbt.Max();
    double latency = r.completed() ? r.completion_s - r.arrival_s : -1.0;
    out << r.id << ',' << r.arrival_s << ',' << r.SchedulingDelay() << ',' << r.Ttft() << ','
        << r.completion_s << ',' << latency << ',' << r.token_times_s.size() << ',' << p99
        << ',' << max_tbt << ',' << r.preemptions << ',' << r.deadline_s << ',' << r.failed_s
        << ',' << FailureKindName(r.failure) << ',' << r.retries << ',' << r.wasted_tokens
        << ',' << r.hedges << ',' << r.migrations << ',' << r.cached_prefill_tokens << '\n';
  }
  return out.str();
}

std::string RefTbtCsv(const SimResult& result) {
  std::ostringstream out;
  out << "request_id,token_index,tbt_s\n";
  for (const RequestMetrics& r : result.requests) {
    std::vector<double> samples = r.TbtSamples();
    for (size_t i = 0; i < samples.size(); ++i) {
      out << r.id << ',' << i + 1 << ',' << samples[i] << '\n';
    }
  }
  return out.str();
}

// ---- Seeded random results ----

// One gap drawn from a mix that produces ties: a few recurring iteration
// times, occasional stalls, and continuous values.
double DrawGap(std::mt19937_64& rng) {
  static const double kRecurring[] = {0.025, 0.0251, 0.03125, 0.1};
  switch (rng() % 5) {
    case 0:
    case 1:
      return kRecurring[rng() % 4];
    case 2:
      return 0.5 + 0.001 * static_cast<double>(rng() % 1000);  // A stall.
    default:
      return std::uniform_real_distribution<double>(0.001, 0.2)(rng);
  }
}

SimResult RandomResult(uint64_t seed) {
  std::mt19937_64 rng(seed);
  SimResult result;
  const int num_requests = 1 + static_cast<int>(rng() % 200);
  for (int i = 0; i < num_requests; ++i) {
    RequestMetrics r;
    r.id = i;
    r.arrival_s = std::uniform_real_distribution<double>(0.0, 100.0)(rng);
    // Token counts: the 0/1/2 edge cases often, otherwise up to 400.
    size_t tokens = rng() % 4 == 0 ? rng() % 3 : rng() % 400;
    const int shape = static_cast<int>(rng() % 3);
    const double equal_gap = DrawGap(rng);
    double t = r.arrival_s + std::uniform_real_distribution<double>(0.0, 5.0)(rng);
    for (size_t k = 0; k < tokens; ++k) {
      r.token_times_s.push_back(t);
      t += shape == 0 ? equal_gap : DrawGap(rng);  // shape 0: all gaps equal.
    }
    if (!r.token_times_s.empty() || rng() % 2 == 0) {
      r.first_scheduled_s = r.arrival_s + std::uniform_real_distribution<double>(0.0, 2.0)(rng);
    }
    if (!r.token_times_s.empty() && rng() % 8 != 0) {
      r.completion_s = r.token_times_s.back();
    } else if (rng() % 2 == 0) {
      r.failed_s = t;
      r.failure = FailureKind::kTimeout;
    }
    r.preemptions = static_cast<int64_t>(rng() % 3);
    result.requests.push_back(std::move(r));
  }
  return result;
}

TEST(SelectQuantileTest, BitEqualToSummaryQuantile) {
  std::mt19937_64 rng(7);
  const double quantiles[] = {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0};
  for (int trial = 0; trial < 400; ++trial) {
    // Sizes 1..3 often (the interpolation edges), otherwise up to 2000.
    size_t n = trial % 4 == 0 ? 1 + rng() % 3 : 1 + rng() % 2000;
    std::vector<double> samples(n);
    const bool ties = trial % 3 == 0;
    for (double& s : samples) {
      s = ties ? static_cast<double>(rng() % 4) * 0.1 : DrawGap(rng);
    }
    Summary summary;
    summary.AddAll(samples);
    for (double q : quantiles) {
      std::vector<double> scratch = samples;
      EXPECT_EQ(Bits(SelectQuantile(&scratch, q)), Bits(summary.Quantile(q)))
          << "n=" << n << " q=" << q;
    }
  }
  std::vector<double> empty;
  EXPECT_EQ(SelectQuantile(&empty, 0.99), 0.0);
}

TEST(ResultStatsTest, SelectionStatisticsMatchSortedReference) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    SimResult result = RandomResult(seed);
    EXPECT_EQ(Bits(result.P99Tbt()), Bits(RefP99Tbt(result))) << "seed " << seed;
    EXPECT_EQ(Bits(result.MaxTbt()), Bits(RefMaxTbt(result))) << "seed " << seed;
    EXPECT_EQ(Bits(result.MedianTtft()), Bits(RefMedianTtft(result))) << "seed " << seed;
    EXPECT_EQ(Bits(result.MedianSchedulingDelay()), Bits(RefMedianSchedulingDelay(result)))
        << "seed " << seed;
    // Thresholds on and around the recurring gaps exercise ties with it.
    for (double threshold : {0.0, 0.025, 0.0251, 0.1, 0.5, 10.0}) {
      EXPECT_EQ(result.CountStalls(threshold), RefCountStalls(result, threshold))
          << "seed " << seed << " threshold " << threshold;
    }
    Summary tbt_summary;
    for (const RequestMetrics& r : result.requests) {
      tbt_summary.AddAll(r.TbtSamples());
    }
    EXPECT_EQ(result.TbtSummary().samples(), tbt_summary.samples());
  }
}

TEST(ResultStatsTest, EmptyAndDegenerateResults) {
  SimResult empty;
  EXPECT_EQ(empty.P99Tbt(), 0.0);
  EXPECT_EQ(empty.MaxTbt(), 0.0);
  EXPECT_EQ(empty.MedianTtft(), 0.0);
  EXPECT_EQ(empty.MedianSchedulingDelay(), 0.0);
  EXPECT_EQ(empty.CountStalls(0.0), 0);

  // Requests with 0, 1 and 2 tokens: exactly one TBT sample in the run.
  SimResult tiny;
  tiny.requests.resize(3);
  tiny.requests[1].token_times_s = {1.0};
  tiny.requests[2].token_times_s = {2.0, 2.5};
  EXPECT_EQ(tiny.P99Tbt(), 0.5);
  EXPECT_EQ(tiny.MaxTbt(), 0.5);
  EXPECT_EQ(Bits(tiny.MedianTtft()), Bits(RefMedianTtft(tiny)));
  std::ostringstream out;
  WriteRequestMetricsCsv(tiny, out);
  EXPECT_EQ(out.str(), RefRequestsCsv(tiny));
}

TEST(ResultStatsTest, RequestsCsvMatchesStreamReference) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    SimResult result = RandomResult(seed);
    std::ostringstream out;
    WriteRequestMetricsCsv(result, out);
    ASSERT_EQ(out.str(), RefRequestsCsv(result)) << "seed " << seed;
  }
}

// The TBT CSV over gaps of every magnitude and sign, including the values
// where "%.6g" switches between fixed and exponent notation, rounding
// carries, zero, and non-finite values.
TEST(ResultStatsTest, TbtCsvNumberFormattingMatchesStream) {
  std::mt19937_64 rng(3);
  SimResult result;
  RequestMetrics r;
  r.id = 42;
  std::vector<double> values = {0.0,       -0.0,      1e-5,     1e-4,      9.999995e-5,
                                0.0001,    999999.0,  999999.5, 1e6,       123456.5,
                                0.5,       1.5,       2.5,      1e-300,    4.9e-324,
                                1e300,     -1e300,    -0.1,     100000.25, 0.30000000000000004,
                                0.1 + 0.2, 2.0 / 3.0, 1.0 / 3.0};
  for (int i = 0; i < 20000; ++i) {
    double mantissa = std::uniform_real_distribution<double>(1.0, 10.0)(rng);
    int exponent = static_cast<int>(rng() % 40) - 20;
    values.push_back((rng() % 2 ? 1.0 : -1.0) * mantissa * std::pow(10.0, exponent));
  }
  values.push_back(std::numeric_limits<double>::infinity());
  values.push_back(-std::numeric_limits<double>::infinity());
  values.push_back(std::numeric_limits<double>::quiet_NaN());
  values.push_back(-std::numeric_limits<double>::quiet_NaN());
  // The values as token times: the TBT CSV formats their differences.
  r.token_times_s.push_back(0.0);
  r.token_times_s.insert(r.token_times_s.end(), values.begin(), values.end());
  result.requests.push_back(r);
  std::ostringstream out;
  WriteTbtSamplesCsv(result, out);
  EXPECT_EQ(out.str(), RefTbtCsv(result));

  // And every value itself, through the requests CSV's arrival column.
  SimResult direct;
  for (double v : values) {
    RequestMetrics row;
    row.arrival_s = v;
    direct.requests.push_back(row);
  }
  std::ostringstream requests;
  WriteRequestMetricsCsv(direct, requests);
  EXPECT_EQ(requests.str(), RefRequestsCsv(direct));
}

}  // namespace
}  // namespace sarathi
