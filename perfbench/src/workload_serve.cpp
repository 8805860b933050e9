// serve-openloop: one generator thread sends seeded Poisson arrivals at a
// fixed offered rate into serve::Server over a pool of three simulated-Cell
// devices (host_threads=1 each, static admission verification on).  Jobs
// are small (16 taxa x 800 sites, GTR+CAT-4, 1 inference + 1 bootstrap) in
// three priority classes, so admission and per-job service dominate.
// Each job is timed from its scheduled send time to its terminal result.

#include <cmath>
#include <optional>
#include <thread>

#include "analysis/static_verifier.h"
#include "core/port.h"
#include "obs/obs.h"
#include "search/analysis.h"
#include "serve/server.h"
#include "seq/seqgen.h"
#include "support/rng.h"
#include "workloads.h"

namespace rxc::perfbench {
namespace {

// Offered rate, job size and latency limit: fixed properties of the workload
// (also stated in BENCHMARK.json).  A job runs for ~70-90 ms on a device, so
// the pool serves ~35-40 jobs/s; the rate sits near a quarter of that, so
// the host's own speed drift (up to ~2x between minutes on a shared host)
// does not push utilization near 1, where the latency median swung by 2x;
// queueing is light (Poisson bursts and priority preemption only).  Jobs
// of 400 sites at 20 jobs/s gave the same utilization, but their job p50
// spread 0.17 (IQR over median, ten seeds) against 0.13 for these, run
// alternately on the same host.
constexpr double kRatePerS = 10.0;
constexpr int kSites = 800;
constexpr double kLatencyLimitMs = 250.0;
constexpr int kDevices = 3;
constexpr int kSetupReps = 101;
/// Arrivals in the session's first seconds warm the server up (the first
/// jobs on a fresh pool ran up to 3x slower); they are checked like every
/// job but not timed.
constexpr double kWarmupS = 2.0;
constexpr std::size_t kSampledChecks = 3;

struct Plan {
  std::vector<serve::JobSpec> jobs;
  std::vector<double> send_s;  ///< scheduled send offsets from session start
  std::size_t warmup = 0;      ///< leading jobs that warm up; not timed
};

Plan make_plan(const RunOptions& opt) {
  Plan plan;
  Rng rng(opt.seed);
  plan.warmup = opt.smoke ? 2
                         : static_cast<std::size_t>(
                               std::llround(kRatePerS * kWarmupS));
  const std::size_t n =
      plan.warmup + (opt.smoke ? 12
                               : static_cast<std::size_t>(
                                     std::llround(kRatePerS * opt.seconds)));
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    serve::JobSpec spec;
    spec.id = std::to_string(i);
    spec.id.insert(0, 1, 'j');
    spec.priority = static_cast<int>(rng() % 3);
    spec.workload.sim_taxa = opt.smoke ? 8 : 16;
    spec.workload.sim_sites = opt.smoke ? 100 : kSites;
    spec.workload.sim_seed = rng();
    spec.model = "gtr";
    spec.rate_mode = "cat";
    spec.categories = 4;
    spec.inferences = 1;
    spec.bootstraps = 1;
    spec.seed = 1 + rng() % 1000;
    plan.jobs.push_back(spec);
    plan.send_s.push_back(t);
    // Exponential inter-arrival gap (Poisson arrivals at kRatePerS).
    const double u = (static_cast<double>(rng() >> 11) + 0.5) * 0x1.0p-53;
    t += -std::log(u) / (opt.smoke ? 50.0 : kRatePerS);
  }
  return plan;
}

std::vector<lh::ExecutorSpec> device_specs() {
  lh::ExecutorSpec spec = core::cell_executor_spec(core::Stage::kOffloadAll);
  spec.cell().host_threads = 1;
  return std::vector<lh::ExecutorSpec>(kDevices, spec);
}

std::unique_ptr<serve::Server> make_server(std::size_t jobs) {
  serve::ServerConfig cfg;
  cfg.queue_capacity = jobs + 1;  // the benchmark measures latency, not
                                  // backpressure: every job is admitted
  cfg.verify_admission = true;
  cfg.result_channel_capacity = jobs + 1;
  return std::make_unique<serve::Server>(device_specs(), cfg);
}

struct SessionResult {
  Clock::time_point start;  ///< session start: job 0's scheduled send
  Clock::time_point end;    ///< last terminal result (or last send)
  std::vector<Clock::time_point> due, sent, submitted;
  std::vector<std::optional<Clock::time_point>> done;
  std::vector<serve::SubmitStatus> status;
  std::vector<serve::JobResult> results;  ///< by job index, after join
  std::size_t queue_depth_max = 0;
  double idle_frac = 0.0;
};

std::size_t job_index(const std::string& id) {
  return static_cast<std::size_t>(std::stoull(id.substr(1)));
}

double ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Runs the open loop against `server` and joins it.
SessionResult run_session(serve::Server& server, const Plan& plan,
                          Clock::time_point server_built) {
  const std::size_t n = plan.jobs.size();
  SessionResult s;
  s.due.resize(n);
  s.sent.resize(n);
  s.submitted.resize(n);
  s.done.resize(n);
  s.status.resize(n, serve::SubmitStatus::kClosed);

  // Stamps terminal results as they stream out of the server.
  std::thread collector([&] {
    while (auto r = server.result_channel()->pop())
      s.done[job_index(r->id)] = Clock::now();
  });
  s.start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    s.due[i] = s.start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(plan.send_s[i]));
    std::this_thread::sleep_until(s.due[i]);
    s.sent[i] = Clock::now();
    s.status[i] = server.submit(plan.jobs[i]);
    s.submitted[i] = Clock::now();
    s.queue_depth_max = std::max(s.queue_depth_max, server.queue_depth());
  }
  server.join();
  collector.join();
  double idle_ms = 0.0;
  for (int d = 0; d < server.devices().size(); ++d)
    idle_ms += server.devices().device(d).idle_ms();
  s.idle_frac = idle_ms / (ms(server_built, Clock::now()) *
                           server.devices().size());

  s.results.resize(n);
  for (const serve::JobResult& r : server.results())
    s.results[job_index(r.id)] = r;
  s.end = s.sent.back();
  for (const auto& d : s.done)
    if (d && *d > s.end) s.end = *d;
  return s;
}

/// What one session measured, per timed job (warm-up jobs are only
/// checked).
struct SessionStats {
  std::vector<double> latency_ms;  ///< completed jobs: scheduled send -> result
  std::vector<double> lag_ms, submit_ms, wait_ms, run_ms;
  std::vector<std::string> failures;  ///< one line per job not completed,
                                      ///< warm-up jobs included
  std::size_t within_limit = 0;
  double mean_lnl = 0.0;  ///< over completed jobs
  int preemptions = 0, retries = 0;
};

SessionStats summarize(const SessionResult& s, const Plan& plan) {
  SessionStats st;
  double lnl_sum = 0.0;
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    const serve::JobResult& r = s.results[i];
    const bool completed = s.status[i] == serve::SubmitStatus::kAccepted &&
                           r.state == serve::JobState::kCompleted && s.done[i];
    if (!completed)
      st.failures.push_back("job " + plan.jobs[i].id + " ended " +
                            serve::submit_status_name(s.status[i]) + "/" +
                            serve::job_state_name(r.state) + " " + r.error);
    if (i < plan.warmup) continue;
    st.lag_ms.push_back(ms(s.due[i], s.sent[i]));
    st.submit_ms.push_back(ms(s.sent[i], s.submitted[i]));
    st.preemptions += r.preemptions;
    st.retries += r.retries;
    if (!completed) continue;
    st.latency_ms.push_back(ms(s.due[i], *s.done[i]));
    if (st.latency_ms.back() <= kLatencyLimitMs) ++st.within_limit;
    st.wait_ms.push_back(r.wait_ms);
    st.run_ms.push_back(r.run_ms);
    lnl_sum += r.best_lnl;
  }
  if (!st.latency_ms.empty())
    st.mean_lnl = lnl_sum / static_cast<double>(st.latency_ms.size());
  return st;
}

/// Best lnl of `spec` computed directly with search::run_task on a fresh
/// device executor, compiling the job the way the server does.
double direct_best_lnl(const serve::JobSpec& spec) {
  seq::SimOptions sim;
  sim.ntaxa = spec.workload.sim_taxa;
  sim.nsites = spec.workload.sim_sites;
  sim.seed = spec.workload.sim_seed;
  const seq::Alignment aln = seq::simulate_alignment(sim).alignment;
  lh::EngineConfig ec;
  ec.model = model::DnaModel::gtr({1, 1, 1, 1, 1, 1},
                                  aln.empirical_base_freqs());
  ec.mode = lh::RateMode::kCat;
  ec.categories = spec.categories;
  ec.alpha = spec.alpha;
  search::SearchOptions so;
  so.radius = spec.radius;
  so.max_rounds = spec.max_rounds;
  so.epsilon = spec.epsilon;
  const seq::PatternAlignment pa = seq::PatternAlignment::compress(aln);
  const auto tasks =
      search::make_analysis(spec.inferences, spec.bootstraps, spec.seed);
  const auto exec = lh::make_executor(device_specs().front());
  std::vector<search::TaskResult> results;
  for (const auto& task : tasks)
    results.push_back(search::run_task(pa, ec, so, task, exec.get()));
  return results[search::best_inference(results, tasks)].log_likelihood;
}

/// Mean wall time (ms) of one standalone static admission check —
/// extract_program + verify_program — per pooled device, for `spec`'s
/// shape.
double verify_ms(serve::Server& server, const serve::JobSpec& spec) {
  seq::SimOptions sim;
  sim.ntaxa = spec.workload.sim_taxa;
  sim.nsites = spec.workload.sim_sites;
  sim.seed = spec.workload.sim_seed;
  const seq::PatternAlignment pa =
      seq::PatternAlignment::compress(seq::simulate_alignment(sim).alignment);
  core::ProgramShape shape;
  shape.patterns = pa.pattern_count();
  shape.categories = spec.categories;
  shape.cat_mode = true;
  double total_ms = 0.0;
  for (int d = 0; d < server.devices().size(); ++d) {
    const lh::CellOptions* cell = server.devices().device(d).cell_options();
    const auto t0 = Clock::now();
    const analysis::StaticReport report = analysis::verify_program(
        core::extract_program(cell->device,
                              static_cast<core::Stage>(cell->stage),
                              cell->llp_ways, shape, cell->strip_bytes),
        cell->device, "perfbench");
    total_ms += ms(t0, Clock::now());
    RXC_REQUIRE(report.ok(), "static verification refuted a benchmark job");
  }
  return total_ms / server.devices().size();
}

}  // namespace

Outcome run_serve_openloop(const RunOptions& opt, SpanRecorder* spans) {
  Outcome out;
  zero_layer_metrics(out);
  out.env["device"] = "cell-2007 x3";
  out.env["host_threads"] = "1";
  out.env["offered_rate_jobs_per_s"] = std::to_string(kRatePerS);
  out.env["latency_limit_ms"] = std::to_string(kLatencyLimitMs);

  // --- set-up: arrival plan + server (device pool) construction -----------
  std::unique_ptr<serve::Server> server;
  Plan plan;
  std::vector<double> setup_s;
  Clock::time_point built;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();  // joins the previous repetition's workers
    const auto t0 = Clock::now();
    plan = make_plan(opt);
    server = make_server(plan.jobs.size());
    built = Clock::now();
    setup_s.push_back(seconds_since(t0));
  }
  out.set("setup_s", median(setup_s), "s");
  const std::size_t n = plan.jobs.size();

  // --- measurement ---------------------------------------------------------
  const SessionResult s = run_session(*server, plan, built);
  const SessionStats st = summarize(s, plan);
  out.attempted = n;
  out.failed = st.failures.size();
  for (const std::string& f : st.failures) out.fail(f);

  // --- output check: a seeded sample re-run directly ----------------------
  Rng pick(opt.seed ^ 0x5e7eULL);
  for (std::size_t k = 0; k < std::min(kSampledChecks, n); ++k) {
    const std::size_t i = pick() % n;
    if (s.results[i].state != serve::JobState::kCompleted) continue;
    const double direct = direct_best_lnl(plan.jobs[i]);
    if (!same_bits(direct, s.results[i].best_lnl)) {
      ++out.failed;
      out.fail("job " + plan.jobs[i].id + ": served best_lnl " +
               std::to_string(s.results[i].best_lnl) + " != direct " +
               std::to_string(direct));
    }
  }
  out.failed = std::min<std::uint64_t>(out.failed, out.attempted);

  const double session_s =
      std::chrono::duration<double>(s.end - s.due[plan.warmup]).count();
  const double p50 = quantile(st.latency_ms, 0.5);
  out.set("analysis_wall_s", p50 / 1000.0, "s");
  out.set("job_p50_ms", p50, "ms");
  out.set("job_p90_ms", quantile(st.latency_ms, 0.9), "ms");
  out.set("goodput_jobs_per_s",
          static_cast<double>(st.within_limit) / session_s, "jobs/s");
  out.set("best_lnl", st.mean_lnl, "lnL");
  out.set("neg_best_lnl", -st.mean_lnl, "-lnL");
  out.set("failed_frac",
          static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "ratio");
  out.set("success_frac", 1.0 - out.metrics["failed_frac"].value, "ratio");
  out.env["jobs"] = std::to_string(n);
  out.env["warmup_jobs"] = std::to_string(plan.warmup);
  out.env["latency_samples"] = std::to_string(st.latency_ms.size());
  if (!spans) return out;

  // --- traced pass ---------------------------------------------------------
  // The per-job timings and spans come from the measured session: their
  // timestamps are the benchmark's own and taken in both modes.  The
  // program's counters need the obs registry switched to counting, which
  // slows the devices (shared atomic counters across worker threads), so
  // they come from a second session; its job p50 minus the measured one is
  // the tracing overhead.
  // One span tree per job: its lifetime from the scheduled send to the
  // terminal result, with the submit call as the child.
  for (std::size_t i = plan.warmup; i < n; ++i) {
    const auto end =
        std::max(s.done[i].value_or(s.submitted[i]), s.submitted[i]);
    const std::uint32_t job = spans->add("serve.job", 0, i + 1, s.due[i], end);
    spans->add("serve.submit", job, i + 1, s.sent[i], s.submitted[i]);
  }
  out.set("serve.verify_ms", verify_ms(*server, plan.jobs.front()), "ms");
  out.set("serve.submit_ms.p50", quantile(st.submit_ms, 0.5), "ms");
  out.set("serve.submit_ms.p90", quantile(st.submit_ms, 0.9), "ms");
  out.set("serve.wait_ms.p50", quantile(st.wait_ms, 0.5), "ms");
  out.set("serve.wait_ms.p90", quantile(st.wait_ms, 0.9), "ms");
  out.set("serve.queue_depth_max", static_cast<double>(s.queue_depth_max),
          "count");
  out.set("serve.device_idle_frac", s.idle_frac, "ratio");
  out.set("serve.run_ms.p50", quantile(st.run_ms, 0.5), "ms");
  out.set("serve.preemptions", st.preemptions, "count");
  out.set("serve.retries", st.retries, "count");
  out.set("serve.jobs", static_cast<double>(st.latency_ms.size()), "count");
  out.set("serve.job_p50_ms", p50, "ms");
  out.set("serve.job_p90_ms", out.metrics["job_p90_ms"].value, "ms");
  out.set("serve.goodput_jobs_per_s", out.metrics["goodput_jobs_per_s"].value,
          "jobs/s");
  out.set("loadgen.lag_p90_ms", quantile(st.lag_ms, 0.9), "ms");

  obs::configure({obs::Mode::kSummary});
  server = make_server(n);
  const SessionStats counted =
      summarize(run_session(*server, plan, Clock::now()), plan);
  for (const std::string& f : counted.failures)
    out.fail("counting session: " + f);
  out.set("trace.overhead_s",
          (quantile(counted.latency_ms, 0.5) - p50) / 1000.0, "s");
  add_obs_metrics(out);
  const auto count = [](const char* name) {
    return static_cast<double>(obs::counter(name).value());
  };
  out.set("kernel.newview.calls", count("kernel.newview.calls"), "count");
  out.set("kernel.evaluate.calls", count("kernel.evaluate.calls"), "count");
  out.set("kernel.sumtable.calls", count("kernel.sumtable.calls"), "count");
  out.set("kernel.nr_derivatives.calls", count("kernel.nr.calls"), "count");
  out.set("kernel.edge_gradient.calls", count("kernel.edge_gradient.calls"),
          "count");
  out.set("kernel.patterns", count("kernel.newview.patterns"), "count");
  out.set("kernel.exp_calls", count("kernel.exp_calls"), "count");
  out.set("kernel.scale_events", count("kernel.scale_events"), "count");
  out.set("cell.dma_bytes", count("cell.dma.bytes"), "B");
  out.set("cell.dma_transfers", count("cell.dma.transfers"), "count");
  return out;
}

}  // namespace rxc::perfbench
