// rxc_perfbench — the whole-analysis benchmark program.
//
//   rxc_perfbench --workload sc42-cell|wide-host|serve-openloop --seed N
//                 --seconds S [--trace 0|1] [--trace-out FILE] [--smoke]
//
// Prints one JSON document on stdout: the workload, its environment, the
// output checks (correct / attempted / failed / errors) and every metric it
// measured, each with its unit.  perfbench/run.py builds this binary and
// turns the document into the benchmark's result line.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "workloads.h"

namespace rxc::perfbench {

void add_kernel_metrics(Outcome& out, const TimedExecutor& exec) {
  double bytes = 0.0;
  for (int k = 0; k < kCallKinds; ++k) {
    const auto kind = static_cast<CallKind>(k);
    const CallStats& st = exec.stats(kind);
    const std::string base = std::string("kernel.") + call_kind_name(kind);
    out.set(base + ".calls",
            out.metrics[base + ".calls"].value + static_cast<double>(st.calls),
            "count");
    out.set(base + ".wall_s", out.metrics[base + ".wall_s"].value + st.wall_s,
            "s");
    bytes += st.computed_bytes;
  }
  out.set("kernel.computed_bytes",
          out.metrics["kernel.computed_bytes"].value + bytes, "B_computed");
  const lh::KernelCounters& c = exec.counters();
  auto add = [&](const char* name, std::uint64_t v) {
    out.set(name, out.metrics[name].value + static_cast<double>(v), "count");
  };
  add("kernel.patterns", c.newview_patterns);
  add("kernel.exp_calls", c.exp_calls);
  add("kernel.scale_events", c.scale_events);
}

void zero_layer_metrics(Outcome& out) {
  static const char* const kKinds[] = {
      "newview", "newview_batch", "preorder_batch", "evaluate",
      "sumtable", "nr_derivatives", "edge_gradient", "edge_gradient_batch"};
  for (const char* kind : kKinds) {
    out.set(std::string("kernel.") + kind + ".calls", 0.0, "count");
    out.set(std::string("kernel.") + kind + ".wall_s", 0.0, "s");
  }
  static const char* const kVshare[] = {"newview", "evaluate", "sumtable",
                                        "nr_derivatives", "edge_gradient"};
  for (const char* kind : kVshare)
    out.set(std::string("cell.vshare.") + kind, 0.0, "ratio");
  static const std::pair<const char*, const char*> kOthers[] = {
      {"kernel.patterns", "count"},
      {"kernel.exp_calls", "count"},
      {"kernel.scale_events", "count"},
      {"kernel.computed_bytes", "B_computed"},
      {"kernel.wall_share", "ratio"},
      {"search_engine.self_s", "s"},
      {"engine.partial_hit_ratio", "ratio"},
      {"search.rounds", "count"},
      {"search.candidate_scores", "count"},
      {"search.accept_ratio", "ratio"},
      {"seq.simulate_s", "s"},
      {"seq.compress_s", "s"},
      {"seq.bootstrap_s", "s"},
      {"cell.sim_overhead_s", "s"},
      {"sched.schedule_s", "s"},
      {"cell.virtual_s", "vs"},
      {"cell.dma_bytes", "B"},
      {"cell.dma_transfers", "count"},
      {"cell.dma_stall_cycles", "cycles"},
      {"sched.spe_busy_frac", "ratio"},
      {"sched.ppe_busy_frac", "ratio"},
      {"sched.signaled_offloads", "count"},
      {"sched.context_switches", "count"},
      {"serve.submit_ms.p50", "ms"},
      {"serve.submit_ms.p90", "ms"},
      {"serve.verify_ms", "ms"},
      {"serve.wait_ms.p50", "ms"},
      {"serve.wait_ms.p90", "ms"},
      {"serve.queue_depth_max", "count"},
      {"serve.device_idle_frac", "ratio"},
      {"serve.run_ms.p50", "ms"},
      {"serve.preemptions", "count"},
      {"serve.retries", "count"},
      {"serve.jobs", "count"},
      {"serve.job_p50_ms", "ms"},
      {"serve.job_p90_ms", "ms"},
      {"serve.goodput_jobs_per_s", "jobs/s"},
      {"loadgen.lag_p90_ms", "ms"},
      {"trace.overhead_s", "s"},
  };
  for (const auto& [name, unit] : kOthers) out.set(name, 0.0, unit);
}

void add_obs_metrics(Outcome& out) {
  const auto value = [](const char* name) {
    return static_cast<double>(obs::counter(name).value());
  };
  const double hits = value("engine.partial.hits");
  const double misses = value("engine.partial.misses");
  out.set("engine.partial_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  out.set("search.rounds", value("search.rounds"), "count");
  const double accepted = value("search.moves.accepted");
  const double rejected = value("search.moves.rejected");
  out.set("search.accept_ratio",
          accepted + rejected > 0 ? accepted / (accepted + rejected) : 0.0,
          "ratio");
}

std::size_t AnalysisTimes::total() const {
  std::size_t n = 1;  // the warm-up
  for (const auto& times : by_input) n += times.size();
  return n;
}

double AnalysisTimes::per_analysis_s() const {
  double sum = 0.0;
  for (const auto& times : by_input) {
    double input_sum = 0.0;
    for (double t : times) input_sum += t;
    sum += input_sum / static_cast<double>(times.size());
  }
  return sum / static_cast<double>(by_input.size());
}

std::string AnalysisTimes::to_string() const {
  std::string s;
  char buf[32];
  for (std::size_t j = 0; j < by_input.size(); ++j)
    for (std::size_t k = 0; k < by_input[j].size(); ++k) {
      std::snprintf(buf, sizeof buf, "%s%.4f",
                    k > 0 ? "," : (j > 0 ? ";" : ""), by_input[j][k]);
      s += buf;
    }
  return s;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rxc_perfbench: " << why << "\n"
            << "usage: rxc_perfbench --workload sc42-cell|wide-host|"
               "serve-openloop --seed N --seconds S [--trace 0|1]\n"
               "       [--trace-out FILE] [--smoke]\n";
  std::exit(2);
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace rxc::perfbench

int main(int argc, char** argv) {
  using namespace rxc::perfbench;
  std::string workload;
  std::string trace_out;
  bool trace = false;
  RunOptions opt;
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") workload = next();
      else if (arg == "--seed") opt.seed = std::stoull(next());
      else if (arg == "--seconds") opt.seconds = std::stod(next());
      else if (arg == "--trace") trace = next() == "1";
      else if (arg == "--trace-out") trace_out = next();
      else if (arg == "--smoke") opt.smoke = true;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!(opt.seconds > 0)) usage("--seconds must be positive");

  SpanRecorder recorder;
  SpanRecorder* spans = trace ? &recorder : nullptr;
  Outcome out;
  try {
    if (workload == "sc42-cell") out = run_sc42_cell(opt, spans);
    else if (workload == "wide-host") out = run_wide_host(opt, spans);
    else if (workload == "serve-openloop") out = run_serve_openloop(opt, spans);
    else usage("unknown workload '" + workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "rxc_perfbench: " << workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  out.set("peak_rss_mb", peak_rss_mb(), "MiB");
  if (!trace) {
    // Per-layer metrics come from the traced run only.
    for (auto it = out.metrics.begin(); it != out.metrics.end();)
      it = it->first.find('.') == std::string::npos ? std::next(it)
                                                     : out.metrics.erase(it);
  }

  if (trace && !trace_out.empty()) {
    std::ofstream f(trace_out);
    f << recorder.to_json();
    if (!f) {
      std::cerr << "rxc_perfbench: cannot write " << trace_out << "\n";
      return 1;
    }
  }

  out.env["build_type"] = RXC_PERFBENCH_BUILD_TYPE;
  out.env["compiler"] = RXC_PERFBENCH_COMPILER;
  out.env["nproc"] = std::to_string(cores);
  out.env["seed"] = std::to_string(opt.seed);
  out.env["smoke"] = opt.smoke ? "1" : "0";

  std::ostringstream os;
  os << "{\"workload\": " << json_quote(workload)
     << ", \"trace\": " << (trace ? 1 : 0)
     << ", \"correct\": " << (out.errors.empty() ? "true" : "false")
     << ", \"attempted\": " << out.attempted
     << ", \"failed\": " << out.failed << ", \"errors\": [";
  for (std::size_t i = 0; i < out.errors.size(); ++i)
    os << (i ? ", " : "") << json_quote(out.errors[i]);
  os << "], \"env\": {";
  bool first = true;
  for (const auto& [k, v] : out.env) {
    os << (first ? "" : ", ") << json_quote(k) << ": " << json_quote(v);
    first = false;
  }
  os << "}, \"metrics\": {";
  first = true;
  for (const auto& [name, m] : out.metrics) {
    os << (first ? "" : ", ") << json_quote(name) << ": {\"value\": "
       << number(m.value) << ", \"unit\": " << json_quote(m.unit) << "}";
    first = false;
  }
  os << "}}\n";
  std::cout << os.str() << std::flush;
  return 0;
}
