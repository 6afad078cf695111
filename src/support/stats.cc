#include "src/support/stats.h"

#include <algorithm>
#include <cmath>

namespace diablo {

void SampleSet::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

const std::vector<double>& SampleSet::sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  return samples_;
}

double SampleSet::Mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double s : samples_) {
    sum += s;
  }
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::Min() const { return samples_.empty() ? 0.0 : sorted().front(); }
double SampleSet::Max() const { return samples_.empty() ? 0.0 : sorted().back(); }

double SampleSet::Percentile(double q) const {
  const auto& s = sorted();
  if (s.empty()) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(s.size())));
  return s[rank == 0 ? 0 : rank - 1];
}

double SampleSet::CdfAt(double x) const {
  const auto& s = sorted();
  if (s.empty()) {
    return 0.0;
  }
  const auto it = std::upper_bound(s.begin(), s.end(), x);
  return static_cast<double>(it - s.begin()) / static_cast<double>(s.size());
}

std::vector<std::pair<double, double>> SampleSet::CdfSeries(size_t points) const {
  std::vector<std::pair<double, double>> series;
  if (samples_.empty() || points == 0) {
    return series;
  }
  const double lo = Min();
  const double hi = Max();
  const double step = points > 1 ? (hi - lo) / static_cast<double>(points - 1) : 0.0;
  series.reserve(points);
  for (size_t i = 0; i < points; ++i) {
    const double x = lo + step * static_cast<double>(i);
    series.emplace_back(x, CdfAt(x));
  }
  return series;
}

void TimeSeries::Add(double seconds) {
  const size_t bucket = seconds > 0.0 ? static_cast<size_t>(seconds) : 0;
  if (bucket >= counts_.size()) {
    counts_.resize(bucket + 1, 0);
  }
  ++counts_[bucket];
}

uint64_t TimeSeries::CountAt(size_t second) const {
  return second < counts_.size() ? counts_[second] : 0;
}

uint64_t TimeSeries::TotalCount() const {
  uint64_t n = 0;
  for (uint64_t c : counts_) {
    n += c;
  }
  return n;
}

}  // namespace diablo
