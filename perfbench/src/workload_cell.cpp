// sc42-cell: the paper's workload.  42_SC-shaped alignments (42 taxa x
// 1167 sites, ~200-250 patterns, GTR+CAT-25), each analysed as 1 inference
// + 8 bootstraps through core::run_on_cell at stage offload-all with the
// MGPS scheduler on the cell-2007 device: one EDTLP batch of 8 plus an
// LLP-8 remainder.

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/port.h"
#include "likelihood/registry.h"
#include "obs/obs.h"
#include "search/analysis.h"
#include "seq/bootstrap.h"
#include "seq/seqgen.h"
#include "tree/tree.h"
#include "workloads.h"

namespace rxc::perfbench {
namespace {

/// Seeded alignments per run (dataset j uses seed * 1000 + j).  One
/// analysis takes ~15% longer or shorter from one alignment to the next;
/// averaging twelve keeps that near 4% of the run's figure.
constexpr std::size_t kDatasets = 12;
constexpr int kSetupReps = 15;
/// Host worker threads of the simulated Cell: at this shape more threads
/// give no speed-up, and with 4 threads on a 4-core host one competing
/// process slowed an analysis by 40-85%.
constexpr int kHostThreads = 1;
/// Relative lnl agreement required when a returned tree is re-evaluated on
/// a fresh engine with its CAT site rates re-assigned.
constexpr double kReevalRel = 1e-2;

seq::SimResult make_input(const RunOptions& opt, std::size_t j) {
  const std::uint64_t seed = opt.seed * 1000 + j;
  if (!opt.smoke) return seq::make_42sc(seed);
  seq::SimOptions sim;
  sim.ntaxa = 10;
  sim.nsites = 200;
  sim.seed = seed;
  return seq::simulate_alignment(sim);
}

core::CellRunConfig run_config() {
  core::CellRunConfig cfg;
  cfg.stage = core::Stage::kOffloadAll;
  cfg.scheduler = core::SchedulerModel::kMgps;
  cfg.host_threads = kHostThreads;
  cfg.search = fixed_work_search();
  return cfg;
}

void set_bootstrap_weights(lh::LikelihoodEngine& engine,
                           const seq::PatternAlignment& pa,
                           const search::AnalysisTask& task) {
  // The seed derivation mirrors search::run_task's; the checks below
  // (traced vs run_on_cell, bitwise) catch any drift.
  Rng rng(task.seed ^ 0xb005eedULL);
  engine.set_pattern_weights(seq::bootstrap_weights(pa, rng));
}

/// One task run the way search::run_task runs it, but with spans around the
/// bootstrap resampling and the search, and the SearchResult kept (for the
/// candidate-score count).
search::SearchResult traced_task(const seq::PatternAlignment& pa,
                                 const core::CellRunConfig& cfg,
                                 const search::AnalysisTask& task,
                                 lh::KernelExecutor& exec,
                                 SpanRecorder& spans, std::uint64_t group) {
  ScopedSpan span(&spans, "task", group);
  lh::LikelihoodEngine engine(pa, cfg.engine);
  engine.set_executor(&exec);
  if (task.kind == search::TaskKind::kBootstrap) {
    ScopedSpan boot(&spans, "seq.bootstrap", group);
    set_bootstrap_weights(engine, pa, task);
  }
  ScopedSpan search_span(&spans, "search.run_search", group);
  return search::run_search(pa, engine, cfg.search, task.seed);
}

/// Lnl of `newick` on a fresh engine with the task's bootstrap weights,
/// through `exec` (null: the engine's own host executor).  With
/// `assign_rates` the CAT site rates are first re-assigned on the tree.
double evaluate_tree(const seq::PatternAlignment& pa,
                     const lh::EngineConfig& ec,
                     const search::AnalysisTask& task,
                     const std::string& newick, lh::KernelExecutor* exec,
                     bool assign_rates) {
  lh::LikelihoodEngine engine(pa, ec);
  if (exec) engine.set_executor(exec);
  if (task.kind == search::TaskKind::kBootstrap)
    set_bootstrap_weights(engine, pa, task);
  tree::Tree t = tree::Tree::from_newick_string(newick, pa.names());
  engine.set_tree(&t);
  if (assign_rates && ec.mode == lh::RateMode::kCat)
    engine.assign_cat_categories();
  return engine.log_likelihood();
}

/// Per-layer results of the traced pass over one dataset.
struct TracedDataset {
  double virtual_s = 0.0;
  double kernel_wall_s = 0.0;
  double schedule_s = 0.0;
  std::vector<double> lnl;
  std::uint64_t candidate_scores = 0, dma_bytes = 0, dma_transfers = 0;
  double dma_stall = 0.0;
  core::KernelProfile profile;
  core::ScheduleResult schedule;
};

/// Drives `tasks` through a forwarding executor around CellExecutors
/// configured exactly as run_on_cell configures each MGPS batch (run_on_cell
/// takes no executor), and replays the traces through schedule_traces with
/// the same policies.
TracedDataset traced_analysis(const seq::PatternAlignment& pa,
                              const core::CellRunConfig& cfg,
                              const std::vector<search::AnalysisTask>& tasks,
                              Outcome& out, SpanRecorder& spans) {
  const cell::DeviceModel& device = cfg.device;
  const int spes = device.spe_count;
  const std::size_t full = tasks.size() / static_cast<std::size_t>(spes) *
                           static_cast<std::size_t>(spes);
  const std::size_t rem = tasks.size() - full;
  struct Batch {
    std::size_t begin, end;
    int ways, workers;
    core::Policy policy;
  };
  std::vector<Batch> batches;
  if (full > 0) batches.push_back({0, full, 1, spes, core::Policy::kEdtlp});
  if (rem > 0) {
    const int ways = core::mgps_llp_ways(rem, spes);
    batches.push_back({full, tasks.size(), ways, static_cast<int>(rem),
                       ways > 1 ? core::Policy::kLlp : core::Policy::kEdtlp});
  }

  TracedDataset d;
  for (const Batch& b : batches) {
    core::SpeExecConfig ec;
    ec.toggles = core::stage_toggles(cfg.stage);
    ec.llp_ways = b.ways;
    ec.active_spes = spes;
    ec.concurrent_workers = std::max(1, b.workers);
    ec.host_threads = cfg.host_threads;
    core::CellExecutor cell(ec, device);
    TimedExecutor timed(cell, &spans);
    std::vector<core::TaskTrace> traces;
    for (std::size_t i = b.begin; i < b.end; ++i) {
      timed.set_group(i + 1);
      cell.begin_task();
      const search::SearchResult sr =
          traced_task(pa, cfg, tasks[i], timed, spans, i + 1);
      traces.push_back(cell.take_trace());
      d.lnl.push_back(sr.log_likelihood);
      d.candidate_scores += sr.candidate_scores;
      d.profile += traces.back().profile();
      d.dma_stall += traces.back().total_dma_stall();
    }
    for (int s = 0; s < cell.machine().spe_count(); ++s) {
      d.dma_bytes += cell.machine().spe(s).mfc().counters().bytes;
      d.dma_transfers += cell.machine().spe(s).mfc().counters().transfers;
    }
    std::vector<const core::TaskTrace*> order;
    for (const auto& t : traces) order.push_back(&t);
    core::ScheduleResult part;
    {
      ScopedSpan sched(&spans, "sched.schedule_traces", 0);
      const auto t0 = Clock::now();
      part = core::schedule_traces(device, order,
                                   {b.policy, b.workers, b.ways});
      d.schedule_s += seconds_since(t0);
    }
    d.schedule.makespan += part.makespan;
    d.schedule.ppe_busy += part.ppe_busy;
    d.schedule.spe_busy += part.spe_busy;
    d.schedule.signaled_offloads += part.signaled_offloads;
    d.schedule.context_switches += part.context_switches;
    d.kernel_wall_s += timed.total_wall_s();
    add_kernel_metrics(out, timed);
  }
  d.virtual_s = d.schedule.makespan / device.cost.clock_hz;
  return d;
}

}  // namespace

Outcome run_sc42_cell(const RunOptions& opt, SpanRecorder* spans) {
  Outcome out;
  zero_layer_metrics(out);
  out.env["device"] = "cell-2007";
  out.env["host_threads"] = std::to_string(kHostThreads);
  out.env["stage"] = "offload-all";
  out.env["datasets"] = std::to_string(kDatasets);

  // --- set-up: alignment simulation + pattern compression ----------------
  std::vector<seq::PatternAlignment> pas;
  std::vector<double> setup_s, sim_s, compress_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pas.clear();
    double sim = 0.0, compress = 0.0;
    for (std::size_t j = 0; j < kDatasets; ++j) {
      const auto t0 = Clock::now();
      const seq::SimResult input = make_input(opt, j);
      const auto t1 = Clock::now();
      pas.push_back(seq::PatternAlignment::compress(input.alignment));
      sim += std::chrono::duration<double>(t1 - t0).count();
      compress += seconds_since(t1);
    }
    sim_s.push_back(sim);
    compress_s.push_back(compress);
    setup_s.push_back(sim + compress);
  }
  out.set("setup_s", median(setup_s), "s");
  std::string patterns;
  for (const auto& pa : pas) {
    if (!patterns.empty()) patterns += ',';
    patterns += std::to_string(pa.pattern_count());
  }
  out.env["patterns"] = patterns;
  const core::CellRunConfig cfg = run_config();
  const std::vector<search::AnalysisTask> tasks =
      search::make_analysis(1, 8, 1);

  // --- measurement: whole analyses until the time budget is spent ---------
  std::vector<std::optional<core::CellRunResult>> first(kDatasets);
  const AnalysisTimes times =
      timed_analyses(kDatasets, opt.seconds, [&](std::size_t j) {
        core::CellRunResult r = core::run_on_cell(pas[j], cfg, tasks);
        out.attempted += tasks.size();
        if (!first[j]) {
          first[j] = std::move(r);
          return;
        }
        // Every repetition is the same deterministic analysis.
        for (std::size_t i = 0; i < tasks.size(); ++i)
          if (!same_bits(r.task_log_likelihoods[i],
                         first[j]->task_log_likelihoods[i])) {
            ++out.failed;
            out.fail("repeated analysis changed a task lnl");
          }
        if (!same_bits(r.virtual_seconds, first[j]->virtual_seconds))
          out.fail("repeated analysis changed virtual_s");
      });
  const double analysis_wall = times.per_analysis_s();
  out.set("analysis_wall_s", analysis_wall, "s");
  double virtual_s = 0.0, best_lnl = 0.0;
  for (const auto& r : first) {
    virtual_s += r->virtual_seconds / kDatasets;
    best_lnl += r->task_log_likelihoods[0] / kDatasets;
  }
  out.set("virtual_s", virtual_s, "vs");
  out.set("best_lnl", best_lnl, "lnL");
  out.set("neg_best_lnl", -best_lnl, "-lnL");
  out.env["analyses"] = std::to_string(times.total());
  out.env["analysis_times_s"] = times.to_string();

  // --- output checks -------------------------------------------------------
  // Per returned tree: (1) its lnl through a fresh simulated-Cell executor
  // matches the host reference executor at the stage's kernel configuration
  // within the cell-sim backend's declared tolerance (per-pattern values
  // bitwise, reductions reassociated); (2) it re-evaluates on a fresh engine
  // to the reported lnl (CAT site rates re-assigned, so loosely).
  const std::optional<lh::Backend> cell_backend = lh::find_backend("cell-sim");
  RXC_REQUIRE(cell_backend.has_value(), "cell-sim backend not registered");
  const double sum_rel = cell_backend->tolerance.sum_rel;
  lh::HostExecutor host(cell_backend->ref_kernels);
  const auto cell_check = lh::make_executor(cell_backend->spec);
  double kernel_rel_max = 0.0, reeval_rel_max = 0.0;
  for (std::size_t j = 0; j < kDatasets; ++j) {
    std::uint64_t bad_tasks = 0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const double lnl = first[j]->task_log_likelihoods[i];
      const std::string& newick = first[j]->task_newicks[i];
      const double on_host =
          evaluate_tree(pas[j], cfg.engine, tasks[i], newick, &host, false);
      const double on_cell = evaluate_tree(pas[j], cfg.engine, tasks[i],
                                           newick, cell_check.get(), false);
      const double kernel_rel = std::abs(on_cell - on_host) / std::abs(on_host);
      const double re_rel =
          std::abs(evaluate_tree(pas[j], cfg.engine, tasks[i], newick, nullptr,
                                 true) - lnl) / std::abs(lnl);
      kernel_rel_max = std::max(kernel_rel_max, kernel_rel);
      reeval_rel_max = std::max(reeval_rel_max, re_rel);
      std::string why;
      if (!(kernel_rel <= sum_rel))
        why += " cell and host reference kernels differ by " +
               std::to_string(kernel_rel) + " (relative);";
      if (!(re_rel <= kReevalRel))
        why += " tree re-evaluates " + std::to_string(re_rel) + " away;";
      if (!why.empty()) {
        ++bad_tasks;
        out.fail("dataset " + std::to_string(j) + " task " +
                 std::to_string(i) + ":" + why);
      }
    }
    // A wrong task is wrong in every analysis of its input.
    out.failed += bad_tasks * times.runs(j);
  }
  out.failed = std::min(out.failed, out.attempted);
  out.set("kernel_ref_max_rel_diff", kernel_rel_max, "ratio");
  out.set("reeval_max_rel_diff", reeval_rel_max, "ratio");
  out.set("failed_frac",
          static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "ratio");
  out.set("success_frac", 1.0 - out.metrics["failed_frac"].value, "ratio");
  if (!spans) return out;

  // --- traced pass ---------------------------------------------------------
  obs::configure({obs::Mode::kSummary});
  out.set("seq.simulate_s", median(sim_s), "s");
  out.set("seq.compress_s", median(compress_s), "s");
  double kernel_wall = 0.0, schedule_s = 0.0, dma_stall = 0.0;
  double traced_virtual = 0.0, spe_busy = 0.0, ppe_busy = 0.0, makespan = 0.0;
  std::uint64_t candidates = 0, dma_bytes = 0, dma_transfers = 0;
  std::uint64_t signaled = 0, switches = 0;
  core::KernelProfile profile;
  const std::uint32_t root = spans->open("analysis", 0);
  for (std::size_t j = 0; j < kDatasets; ++j) {
    const TracedDataset d = traced_analysis(pas[j], cfg, tasks, out, *spans);
    // Tracing must not change the results.
    if (!same_bits(d.virtual_s, first[j]->virtual_seconds))
      out.fail("traced virtual_s differs from run_on_cell's");
    for (std::size_t i = 0; i < tasks.size(); ++i)
      if (!same_bits(d.lnl[i], first[j]->task_log_likelihoods[i]))
        out.fail("traced task lnl differs from run_on_cell's");
    traced_virtual += d.virtual_s / kDatasets;
    kernel_wall += d.kernel_wall_s;
    schedule_s += d.schedule_s;
    candidates += d.candidate_scores;
    dma_bytes += d.dma_bytes;
    dma_transfers += d.dma_transfers;
    dma_stall += d.dma_stall;
    profile += d.profile;
    spe_busy += d.schedule.spe_busy;
    ppe_busy += d.schedule.ppe_busy;
    makespan += d.schedule.makespan;
    signaled += d.schedule.signaled_offloads;
    switches += d.schedule.context_switches;
  }
  spans->close(root);
  const double traced_wall = spans->spans()[root - 1].seconds() / kDatasets;
  add_obs_metrics(out);  // before the host reference runs below count too

  // The same tasks on the host reference executor: its kernel wall is the
  // baseline of cell.sim_overhead_s, and its results show how far whole
  // searches drift from the simulated Cell's (reported, not checked: a
  // few-ULP reduction difference can flip a near-tied search decision).
  TimedExecutor host_timed(host);
  double drift_max = 0.0;
  std::uint64_t drifted = 0;
  for (std::size_t j = 0; j < kDatasets; ++j)
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const double lnl = first[j]->task_log_likelihoods[i];
      const search::TaskResult ref = search::run_task(
          pas[j], cfg.engine, cfg.search, tasks[i], &host_timed);
      const double rel = std::abs(lnl - ref.log_likelihood) / std::abs(lnl);
      drift_max = std::max(drift_max, rel);
      if (rel > sum_rel) ++drifted;
    }
  out.set("host_ref_max_rel_diff", drift_max, "ratio");
  out.set("host_ref_drifted_tasks", static_cast<double>(drifted), "count");
  const cell::DeviceModel& device = cfg.device;

  out.set("kernel.wall_share", kernel_wall / (traced_wall * kDatasets),
          "ratio");
  const std::map<std::string, double> self = spans->self_by_name();
  out.set("search_engine.self_s", self.at("search.run_search"), "s");
  out.set("search.candidate_scores", static_cast<double>(candidates), "count");
  out.set("seq.bootstrap_s", self.at("seq.bootstrap"), "s");
  out.set("cell.sim_overhead_s", kernel_wall - host_timed.total_wall_s(), "s");
  out.set("sched.schedule_s", schedule_s, "s");
  out.set("cell.virtual_s", traced_virtual, "vs");
  out.set("cell.dma_bytes", static_cast<double>(dma_bytes), "B");
  out.set("cell.dma_transfers", static_cast<double>(dma_transfers), "count");
  out.set("cell.dma_stall_cycles", dma_stall, "cycles");
  out.set("sched.spe_busy_frac", spe_busy / (makespan * device.spe_count),
          "ratio");
  out.set("sched.ppe_busy_frac", ppe_busy / (makespan * device.ppe_threads),
          "ratio");
  out.set("sched.signaled_offloads", static_cast<double>(signaled), "count");
  out.set("sched.context_switches", static_cast<double>(switches), "count");
  for (int k = 0; k < 5; ++k) {
    const auto kind = static_cast<core::KernelKind>(k);
    out.set(std::string("cell.vshare.") + core::kernel_kind_name(kind),
            profile.share(kind), "ratio");
  }
  out.set("trace.overhead_s", traced_wall - analysis_wall, "s");
  return out;
}

}  // namespace rxc::perfbench
