#include "perfbench/src/report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double PeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // Reported in kB.
    }
  }
  return 0.0;
}

std::string RunReport::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char buf[32];
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    const auto end = std::to_chars(buf, buf + sizeof(buf), value);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + std::string(buf, end.ptr) + ", \"unit\": \"" +
           metric.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
