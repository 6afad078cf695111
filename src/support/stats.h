// Statistics primitives used by the result aggregator and the analysis
// library: exact percentiles/CDFs over stored samples and per-second counts.
#ifndef SRC_SUPPORT_STATS_H_
#define SRC_SUPPORT_STATS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace diablo {

// Stores samples for exact order statistics. Sorting is deferred and cached.
class SampleSet {
 public:
  void Add(double x);
  void Reserve(size_t n) { samples_.reserve(n); }

  size_t count() const { return samples_.size(); }
  double Mean() const;
  double Min() const;
  double Max() const;
  // q in [0, 1]; nearest-rank percentile. Returns 0 for an empty set.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }

  // Cumulative distribution: fraction of samples <= x.
  double CdfAt(double x) const;

  // Evaluates the CDF at `points` evenly spaced values between min and max,
  // returning (value, fraction<=value) pairs — the series behind Fig. 6.
  std::vector<std::pair<double, double>> CdfSeries(size_t points) const;

  const std::vector<double>& sorted() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Per-second event counts over the duration of a run, e.g. the
// committed-transactions-per-second series behind throughput plots.
class TimeSeries {
 public:
  // Counts one event at time `seconds` since run start (fractional allowed;
  // negative times count in second 0).
  void Add(double seconds);

  // Number of buckets (last populated second + 1).
  size_t size() const { return counts_.size(); }
  uint64_t CountAt(size_t second) const;
  uint64_t TotalCount() const;

 private:
  std::vector<uint64_t> counts_;
};

}  // namespace diablo

#endif  // SRC_SUPPORT_STATS_H_
