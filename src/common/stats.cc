#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/logging.h"

namespace sarathi {

void Summary::Add(double sample) {
  samples_.push_back(sample);
  sorted_valid_ = false;
}

void Summary::AddAll(const std::vector<double>& samples) {
  samples_.insert(samples_.end(), samples.begin(), samples.end());
  sorted_valid_ = false;
}

double Summary::Sum() const {
  double sum = 0.0;
  for (double s : samples_) {
    sum += s;
  }
  return sum;
}

double Summary::Mean() const {
  CHECK(!samples_.empty());
  return Sum() / static_cast<double>(samples_.size());
}

double Summary::StdDev() const {
  if (samples_.size() < 2) {
    return 0.0;
  }
  double mean = Mean();
  double ss = 0.0;
  for (double s : samples_) {
    ss += (s - mean) * (s - mean);
  }
  return std::sqrt(ss / static_cast<double>(samples_.size() - 1));
}

double Summary::Min() const {
  CHECK(!samples_.empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::Max() const {
  CHECK(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

void Summary::EnsureSorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Summary::Quantile(double q) const {
  CHECK(!samples_.empty());
  CHECK_GE(q, 0.0);
  CHECK_LE(q, 1.0);
  EnsureSorted();
  if (sorted_.size() == 1) {
    return sorted_[0];
  }
  double rank = q * static_cast<double>(sorted_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted_[lo] + frac * (sorted_[hi] - sorted_[lo]);
}

double SelectQuantile(std::vector<double>* samples, double q) {
  CHECK_GE(q, 0.0);
  CHECK_LE(q, 1.0);
  std::vector<double>& s = *samples;
  if (s.size() <= 1) {
    return s.empty() ? 0.0 : s[0];
  }
  double rank = q * static_cast<double>(s.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  double frac = rank - static_cast<double>(lo);
  std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(lo), s.end());
  double a = s[lo];
  // Everything after the selected element is >= it, so their minimum is the
  // next order statistic.
  double b = lo + 1 < s.size()
                 ? *std::min_element(s.begin() + static_cast<std::ptrdiff_t>(lo) + 1, s.end())
                 : a;
  return a + frac * (b - a);
}

void RunningStats::Add(double sample) {
  if (count_ == 0) {
    min_ = sample;
    max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  double delta = sample - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (sample - mean_);
}

double RunningStats::Variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::StdDev() const { return std::sqrt(Variance()); }

Histogram::Histogram(double lo, double hi, size_t num_buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(num_buckets)), counts_(num_buckets) {
  CHECK_GT(hi, lo);
  CHECK_GT(num_buckets, 0u);
}

void Histogram::Add(double sample) {
  size_t index;
  if (sample < lo_) {
    index = 0;
  } else if (sample >= hi_) {
    index = counts_.size() - 1;
  } else {
    index = static_cast<size_t>((sample - lo_) / width_);
    index = std::min(index, counts_.size() - 1);
  }
  ++counts_[index];
  ++total_;
}

double Histogram::bucket_lo(size_t i) const { return lo_ + width_ * static_cast<double>(i); }

double Histogram::bucket_hi(size_t i) const { return lo_ + width_ * static_cast<double>(i + 1); }

std::string Histogram::ToString() const {
  int64_t max_count = 1;
  for (int64_t c : counts_) {
    max_count = std::max(max_count, c);
  }
  std::ostringstream out;
  for (size_t i = 0; i < counts_.size(); ++i) {
    int bar = static_cast<int>(40.0 * static_cast<double>(counts_[i]) /
                               static_cast<double>(max_count));
    out << "[" << bucket_lo(i) << ", " << bucket_hi(i) << ") " << counts_[i] << " "
        << std::string(static_cast<size_t>(bar), '#') << "\n";
  }
  return out.str();
}

}  // namespace sarathi
