// Statistics helpers used by the simulator's metric collection and by the
// benchmark harnesses: exact-percentile sample summaries, streaming
// mean/variance accumulators, and fixed-bucket histograms.

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sarathi {

// Collects samples and answers exact quantile queries. Quantiles use linear
// interpolation between closest ranks (the same convention as numpy's default
// "linear" method), so results are stable across sample counts.
class Summary {
 public:
  void Add(double sample);
  void AddAll(const std::vector<double>& samples);

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double Sum() const;
  double Mean() const;
  // Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
  double StdDev() const;
  double Min() const;
  double Max() const;

  // q in [0, 1]; e.g. Quantile(0.99) is the P99. Requires at least 1 sample.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  // Raw samples in insertion order.
  const std::vector<double>& samples() const { return samples_; }

 private:
  // Sorts lazily: `sorted_` mirrors `samples_` once a quantile is requested.
  void EnsureSorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

// The q-quantile of `samples` by selection instead of a full sort, with the
// same linear interpolation as Summary::Quantile. It reads the same two order
// statistics a sorted copy would, so the result is bit-equal. Reorders
// `samples` in place; returns 0 when it is empty.
double SelectQuantile(std::vector<double>* samples, double q);

// O(1)-memory mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void Add(double sample);

  int64_t count() const { return count_; }
  double Mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double Variance() const;
  double StdDev() const;
  double Min() const { return min_; }
  double Max() const { return max_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Fixed-width bucket histogram over [lo, hi); out-of-range samples clamp to
// the first/last bucket.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t num_buckets);

  void Add(double sample);

  size_t num_buckets() const { return counts_.size(); }
  int64_t bucket_count(size_t i) const { return counts_[i]; }
  double bucket_lo(size_t i) const;
  double bucket_hi(size_t i) const;
  int64_t total() const { return total_; }

  // Multi-line textual rendering with proportional bars, for logs.
  std::string ToString() const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

}  // namespace sarathi

#endif  // SRC_COMMON_STATS_H_
