#pragma once
/// \file stats.h
/// Order statistics and the metric set one benchmark run reports.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rxc::perfbench {

/// q-quantile (0..1) with linear interpolation between order statistics;
/// 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

struct MetricValue {
  double value = 0.0;
  std::string unit;
};

/// Everything one run measured, plus its output checks.
struct Outcome {
  std::map<std::string, MetricValue> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed output check; empty when every check passed.
  std::vector<std::string> errors;
  /// Run parameters worth stamping on the result (host_threads, device...).
  std::map<std::string, std::string> env;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a failed output check.
  void fail(const std::string& what) {
    errors.push_back(what);
  }
};

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// JSON string literal with the characters JSON requires escaped.
std::string json_quote(const std::string& text);

}  // namespace rxc::perfbench
