// Shared helpers of the benchmark program: wall-clock timing, percentiles,
// peak RSS, and the one-line JSON result every run prints last.
#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

// Linear-interpolated q-quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Tail percentiles are the highest ones with at least ten samples beyond
// them; a run whose sample is too short for its named tail fails its checks.
inline bool HasTenBeyond(size_t samples, double q) {
  return (1.0 - q) * static_cast<double>(samples) >= 10.0;
}

// Peak resident set in MB (VmHWM) of a live process: "self" or a pid.
// getrusage() is no use here: its peak survives exec(), so it reports the
// launcher's footprint (or, for a child, the forked parent's) whenever
// that was larger.
double PeakRssMb(const std::string& pid);

struct Metric {
  double value = 0.0;
  std::string unit;
};

// The run's result: printed as the last line of standard output.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failures;  // Check failures, printed to stderr.

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  std::string ToJson() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
