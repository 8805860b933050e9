#pragma once
/// \file workloads.h
/// The benchmark's three workloads.  Each one builds its inputs from the
/// seed, sets up (several times; the median is setup_s), measures for the
/// requested seconds with tracing off, checks every output, and — when a
/// span recorder is passed — makes one extra traced pass that fills the
/// per-layer metrics.  See perfbench/README.md for why each was chosen.

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "search/search.h"

#include "spans.h"
#include "stats.h"
#include "timed_executor.h"

namespace rxc::perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Shrunken inputs for the smoke test; same code paths and metrics.
  bool smoke = false;
};

Outcome run_sc42_cell(const RunOptions& opt, SpanRecorder* spans);
Outcome run_wide_host(const RunOptions& opt, SpanRecorder* spans);
Outcome run_serve_openloop(const RunOptions& opt, SpanRecorder* spans);

// --- helpers shared by the workloads ---------------------------------------

/// Search options of the analysis workloads (sc42-cell, wide-host): a fixed
/// two lazy-SPR rounds with the early-stop test disabled, so every seed does
/// the same amount of search work.  With the default stop test the searches
/// end after one to three rounds depending on the data, which spread the
/// analysis wall time by ~25% across seeds; on these shapes a third round
/// moves the lnl by ~0.1.
inline search::SearchOptions fixed_work_search() {
  search::SearchOptions so;
  so.max_rounds = 2;
  so.epsilon = -std::numeric_limits<double>::infinity();
  return so;
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall seconds of every analysis a timed run made, by input.
struct AnalysisTimes {
  std::vector<std::vector<double>> by_input;

  /// Analyses of input j, the untimed warm-up of input 0 included.
  std::size_t runs(std::size_t j) const {
    return by_input[j].size() + (j == 0 ? 1 : 0);
  }
  /// Analyses of all inputs, the warm-up included.
  std::size_t total() const;
  /// Per-analysis wall seconds of the run: the mean over inputs of each
  /// input's mean.  Every input weighs the same however often it ran, and
  /// the mean takes in the host's fast and slow phases over the whole run
  /// alike.
  double per_analysis_s() const;
  /// Every time, input by input ("i0a0,i0a1;i1a0,..."), for the report.
  std::string to_string() const;
};

/// Analyses `inputs` inputs (`analyse(j)` runs input j once) round-robin:
/// each input once, then on until `seconds` have been spent in all (the
/// last analysis may overrun).  One untimed analysis of input 0 warms the
/// process up first (allocator, page faults, caches).
template <class F>
AnalysisTimes timed_analyses(std::size_t inputs, double seconds, F&& analyse) {
  AnalysisTimes out;
  out.by_input.resize(inputs);
  analyse(0);
  const auto budget_start = Clock::now();
  for (std::size_t k = 0; k < inputs || seconds_since(budget_start) < seconds;
       ++k) {
    const std::size_t j = k % inputs;
    const auto t0 = Clock::now();
    analyse(j);
    out.by_input[j].push_back(seconds_since(t0));
  }
  return out;
}

/// Copies a TimedExecutor's per-kind calls / wall / computed bytes into the
/// kernel.* per-layer metrics (accumulating over several executors).
void add_kernel_metrics(Outcome& out, const TimedExecutor& exec);

/// Sets every per-layer metric to 0 with its unit, so a workload reports
/// the full set and a layer it does not exercise reads 0.
void zero_layer_metrics(Outcome& out);

/// Reads the obs registry's counters into the per-layer metrics the
/// program already counts: engine partial hits/misses, search rounds and
/// move acceptance.  The registry must have been configured to collect.
void add_obs_metrics(Outcome& out);

/// True when the two doubles have the same bits.
bool same_bits(double a, double b);

}  // namespace rxc::perfbench
