// wide-host: wide alignments on the host.  Seq-gen 64 taxa x 5000 sites
// (~3400 patterns), GTR+GAMMA-4, one fixed-work inference (two SPR rounds)
// each on the single-threaded host SIMD executor, pinned (not calibrated)
// so the backend choice cannot flip.
// Kernel math dominates, partials stream from memory, and neither the
// simulator nor the server runs.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "likelihood/registry.h"
#include "obs/obs.h"
#include "search/analysis.h"
#include "seq/seqgen.h"
#include "tree/tree.h"
#include "workloads.h"

namespace rxc::perfbench {
namespace {

/// Seeded alignments per run (dataset j uses seed * 1000 + j).
constexpr std::size_t kDatasets = 2;
constexpr int kSetupReps = 7;
/// Relative lnl agreement required when a returned tree (branch lengths as
/// printed in its Newick string) is re-evaluated on a fresh engine.
constexpr double kReevalRel = 1e-6;

seq::SimOptions sim_options(const RunOptions& opt, std::size_t j) {
  seq::SimOptions sim;
  sim.ntaxa = opt.smoke ? 12 : 64;
  sim.nsites = opt.smoke ? 300 : 5000;
  sim.seed = opt.seed * 1000 + j;
  return sim;
}

lh::EngineConfig engine_config() {
  lh::EngineConfig ec;
  ec.mode = lh::RateMode::kGamma;
  ec.categories = 4;
  return ec;
}

std::unique_ptr<lh::KernelExecutor> make_host_simd() {
  const std::optional<lh::Backend> backend = lh::find_backend("host-simd");
  RXC_REQUIRE(backend.has_value(), "host-simd backend not registered");
  return lh::make_executor(backend->spec);
}

}  // namespace

Outcome run_wide_host(const RunOptions& opt, SpanRecorder* spans) {
  Outcome out;
  zero_layer_metrics(out);
  out.env["device"] = "host-simd";
  out.env["host_threads"] = "1";

  // --- set-up: simulation, compression, executor construction -------------
  std::vector<seq::PatternAlignment> pas;
  std::unique_ptr<lh::KernelExecutor> exec;
  std::vector<double> setup_s, sim_s, compress_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pas.clear();
    double sim = 0.0, compress = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t j = 0; j < kDatasets; ++j) {
      const auto t1 = Clock::now();
      const seq::SimResult input = seq::simulate_alignment(sim_options(opt, j));
      const auto t2 = Clock::now();
      pas.push_back(seq::PatternAlignment::compress(input.alignment));
      sim += std::chrono::duration<double>(t2 - t1).count();
      compress += seconds_since(t2);
    }
    exec = make_host_simd();
    sim_s.push_back(sim);
    compress_s.push_back(compress);
    setup_s.push_back(seconds_since(t0));
  }
  out.set("setup_s", median(setup_s), "s");
  std::string patterns;
  for (const auto& pa : pas) {
    if (!patterns.empty()) patterns += ',';
    patterns += std::to_string(pa.pattern_count());
  }
  out.env["patterns"] = patterns;
  out.env["datasets"] = std::to_string(kDatasets);
  const lh::EngineConfig ec = engine_config();
  const search::SearchOptions so = fixed_work_search();
  const search::AnalysisTask task{search::TaskKind::kInference, 1};

  // --- measurement ---------------------------------------------------------
  std::vector<std::optional<search::TaskResult>> first(kDatasets);
  const AnalysisTimes times =
      timed_analyses(kDatasets, opt.seconds, [&](std::size_t j) {
        search::TaskResult r =
            search::run_task(pas[j], ec, so, task, exec.get());
        ++out.attempted;
        if (!first[j]) {
          first[j] = std::move(r);
        } else if (!same_bits(r.log_likelihood, first[j]->log_likelihood)) {
          ++out.failed;
          out.fail("repeated inference changed its lnl");
        }
      });
  const double analysis_wall = times.per_analysis_s();
  out.set("analysis_wall_s", analysis_wall, "s");
  double best_lnl = 0.0;
  for (const auto& r : first) best_lnl += r->log_likelihood / kDatasets;
  out.set("best_lnl", best_lnl, "lnL");
  out.set("neg_best_lnl", -best_lnl, "-lnL");
  out.env["analyses"] = std::to_string(times.total());
  out.env["analysis_times_s"] = times.to_string();

  // --- output check: each returned tree re-evaluates to its reported lnl --
  double reeval_rel_max = 0.0;
  for (std::size_t j = 0; j < kDatasets; ++j) {
    lh::LikelihoodEngine engine(pas[j], ec);
    tree::Tree t =
        tree::Tree::from_newick_string(first[j]->newick, pas[j].names());
    engine.set_tree(&t);
    const double lnl = first[j]->log_likelihood;
    const double rel = std::abs(engine.log_likelihood() - lnl) / std::abs(lnl);
    reeval_rel_max = std::max(reeval_rel_max, rel);
    if (!(rel <= kReevalRel)) {
      out.failed += times.runs(j);
      out.fail("dataset " + std::to_string(j) + ": tree re-evaluates " +
               std::to_string(rel) + " away from its lnl");
    }
  }
  out.failed = std::min(out.failed, out.attempted);
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
  TimedExecutor timed(*exec, spans);
  std::uint64_t candidates = 0;
  const std::uint32_t root = spans->open("analysis", 0);
  for (std::size_t j = 0; j < kDatasets; ++j) {
    timed.set_group(j + 1);
    ScopedSpan task_span(spans, "task", j + 1);
    lh::LikelihoodEngine engine(pas[j], ec);
    engine.set_executor(&timed);
    ScopedSpan search_span(spans, "search.run_search", j + 1);
    const search::SearchResult sr =
        search::run_search(pas[j], engine, so, task.seed);
    candidates += sr.candidate_scores;
    if (!same_bits(sr.log_likelihood, first[j]->log_likelihood))
      out.fail("traced inference lnl differs from the untraced one");
  }
  spans->close(root);
  const double traced_wall = spans->spans()[root - 1].seconds() / kDatasets;
  add_kernel_metrics(out, timed);
  add_obs_metrics(out);
  out.set("kernel.wall_share", timed.total_wall_s() / (traced_wall * kDatasets),
          "ratio");
  out.set("search_engine.self_s", spans->self_by_name().at("search.run_search"),
          "s");
  out.set("search.candidate_scores", static_cast<double>(candidates), "count");
  out.set("trace.overhead_s", traced_wall - analysis_wall, "s");
  return out;
}

}  // namespace rxc::perfbench
