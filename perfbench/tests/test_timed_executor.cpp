// The forwarding executor must be invisible: a wrapped run gives bitwise
// the same likelihoods, kernel counters and (on the simulated Cell) the
// same offload trace as an unwrapped run of a fresh executor.

#include <gtest/gtest.h>

#include <cstring>

#include "core/spe_executor.h"
#include "search/analysis.h"
#include "seq/seqgen.h"
#include "timed_executor.h"

namespace rxc::perfbench {
namespace {

seq::PatternAlignment small_alignment() {
  seq::SimOptions sim;
  sim.ntaxa = 9;
  sim.nsites = 240;
  sim.seed = 11;
  return seq::PatternAlignment::compress(
      seq::simulate_alignment(sim).alignment);
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_counters_equal(const lh::KernelCounters& a,
                           const lh::KernelCounters& b) {
  EXPECT_EQ(a.newview_calls, b.newview_calls);
  EXPECT_EQ(a.newview_patterns, b.newview_patterns);
  EXPECT_EQ(a.evaluate_calls, b.evaluate_calls);
  EXPECT_EQ(a.sumtable_calls, b.sumtable_calls);
  EXPECT_EQ(a.nr_calls, b.nr_calls);
  EXPECT_EQ(a.edge_gradient_calls, b.edge_gradient_calls);
  EXPECT_EQ(a.pmatrix_builds, b.pmatrix_builds);
  EXPECT_EQ(a.exp_calls, b.exp_calls);
  EXPECT_EQ(a.scale_events, b.scale_events);
}

struct Case {
  lh::RateMode mode;
  bool gradient_smoothing;
  search::TaskKind kind;
};

class TimedExecutorTest : public ::testing::TestWithParam<Case> {};

lh::EngineConfig engine_for(const Case& c) {
  lh::EngineConfig ec;
  ec.mode = c.mode;
  ec.categories = c.mode == lh::RateMode::kGamma ? 4 : 8;
  return ec;
}

search::SearchOptions search_for(const Case& c) {
  search::SearchOptions so;
  so.max_rounds = 2;
  so.gradient_smoothing = c.gradient_smoothing;
  return so;
}

TEST_P(TimedExecutorTest, HostWrappedRunIsBitwiseIdentical) {
  const Case c = GetParam();
  const seq::PatternAlignment pa = small_alignment();
  const search::AnalysisTask task{c.kind, 3};
  const lh::EngineConfig ec = engine_for(c);
  const search::SearchOptions so = search_for(c);
  lh::HostExecutor plain;
  const search::TaskResult a = search::run_task(pa, ec, so, task, &plain);

  lh::HostExecutor inner;
  TimedExecutor timed(inner);
  const search::TaskResult b = search::run_task(pa, ec, so, task, &timed);

  EXPECT_TRUE(bits_equal(a.log_likelihood, b.log_likelihood));
  EXPECT_EQ(a.newick, b.newick);
  expect_counters_equal(a.counters, b.counters);
  expect_counters_equal(timed.counters(), inner.counters());
  EXPECT_GT(timed.stats(CallKind::kEvaluate).calls, 0u);
  EXPECT_GT(timed.total_wall_s(), 0.0);
}

TEST_P(TimedExecutorTest, CellWrappedRunIsBitwiseIdentical) {
  const Case c = GetParam();
  const seq::PatternAlignment pa = small_alignment();
  const search::AnalysisTask task{c.kind, 5};
  lh::ExecutorSpec spec = core::cell_executor_spec(core::Stage::kOffloadAll);
  spec.cell().host_threads = 2;

  const lh::EngineConfig ec = engine_for(c);
  const search::SearchOptions so = search_for(c);

  const auto plain = lh::make_executor(spec);
  core::as_cell_executor(*plain).begin_task();
  const search::TaskResult a = search::run_task(pa, ec, so, task, plain.get());
  const core::TaskTrace ta = core::as_cell_executor(*plain).take_trace();

  const auto inner = lh::make_executor(spec);
  TimedExecutor timed(*inner);
  core::as_cell_executor(*inner).begin_task();
  const search::TaskResult b = search::run_task(pa, ec, so, task, &timed);
  const core::TaskTrace tb = core::as_cell_executor(*inner).take_trace();

  EXPECT_TRUE(bits_equal(a.log_likelihood, b.log_likelihood));
  expect_counters_equal(a.counters, b.counters);
  // Compound brackets and batch entry points reach the inner executor:
  // the offload trace (which records signaled vs compound segments and
  // batch placement) is identical.
  ASSERT_EQ(ta.segments.size(), tb.segments.size());
  for (std::size_t i = 0; i < ta.segments.size(); ++i) {
    const core::TraceSegment& sa = ta.segments[i];
    const core::TraceSegment& sb = tb.segments[i];
    EXPECT_EQ(sa.kind, sb.kind);
    EXPECT_EQ(sa.signaled, sb.signaled);
    EXPECT_TRUE(bits_equal(sa.ppe_cycles, sb.ppe_cycles));
    EXPECT_TRUE(bits_equal(sa.spe_cycles, sb.spe_cycles));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, TimedExecutorTest,
    ::testing::Values(
        Case{lh::RateMode::kCat, false, search::TaskKind::kInference},
        Case{lh::RateMode::kCat, true, search::TaskKind::kBootstrap},
        Case{lh::RateMode::kGamma, false, search::TaskKind::kBootstrap},
        Case{lh::RateMode::kGamma, true, search::TaskKind::kInference}));

/// Inner executor that records which entry points the wrapper reached.
class RecordingExecutor final : public lh::KernelExecutor {
 public:
  int newview_batches = 0, preorder_batches = 0, gradient_batches = 0;
  int compounds_begun = 0, compounds_ended = 0, resets = 0;

  void newview(const lh::NewviewTask&) override { ++counters_.newview_calls; }
  void newview_batch(const lh::NewviewTask*, std::size_t count) override {
    ++newview_batches;
    counters_.newview_calls += count;
  }
  void preorder_batch(const lh::NewviewTask*, std::size_t count) override {
    ++preorder_batches;
    counters_.newview_calls += count;
  }
  double evaluate(const lh::EvaluateTask&) override {
    ++counters_.evaluate_calls;
    return -1.5;
  }
  void sumtable(const lh::SumtableTask&) override {
    ++counters_.sumtable_calls;
  }
  lh::NrResult nr_derivatives(const lh::NrTask&) override {
    ++counters_.nr_calls;
    return {};
  }
  lh::NrResult edge_gradient(const lh::EdgeGradientTask&) override {
    ++counters_.edge_gradient_calls;
    return {};
  }
  void edge_gradient_batch(const lh::EdgeGradientTask*, std::size_t count,
                           lh::NrResult*) override {
    ++gradient_batches;
    counters_.edge_gradient_calls += count;
  }
  void begin_compound() override { ++compounds_begun; }
  void end_compound() override { ++compounds_ended; }
  void reset_counters() override {
    ++resets;
    counters_ = {};
  }
};

TEST(TimedExecutor, ForwardsEveryEntryPointAndMirrorsCounters) {
  RecordingExecutor inner;
  TimedExecutor timed(inner);
  lh::NewviewTask nv[3];
  lh::EdgeGradientTask eg[2];
  lh::NrResult results[2];

  timed.newview(nv[0]);
  EXPECT_EQ(timed.counters().newview_calls, 1u);
  timed.newview_batch(nv, 3);
  timed.preorder_batch(nv, 2);
  EXPECT_EQ(inner.newview_batches, 1);
  EXPECT_EQ(inner.preorder_batches, 1);
  EXPECT_EQ(timed.counters().newview_calls, 6u);
  EXPECT_EQ(timed.evaluate(lh::EvaluateTask{}), -1.5);
  timed.begin_compound();
  timed.sumtable(lh::SumtableTask{});
  timed.nr_derivatives(lh::NrTask{});
  timed.end_compound();
  EXPECT_EQ(inner.compounds_begun, 1);
  EXPECT_EQ(inner.compounds_ended, 1);
  timed.edge_gradient(eg[0]);
  timed.edge_gradient_batch(eg, 2, results);
  EXPECT_EQ(inner.gradient_batches, 1);
  expect_counters_equal(timed.counters(), inner.counters());

  EXPECT_EQ(timed.stats(CallKind::kNewview).calls, 1u);
  EXPECT_EQ(timed.stats(CallKind::kNewviewBatch).calls, 1u);
  EXPECT_EQ(timed.stats(CallKind::kPreorderBatch).calls, 1u);
  EXPECT_EQ(timed.stats(CallKind::kEvaluate).calls, 1u);
  EXPECT_EQ(timed.stats(CallKind::kSumtable).calls, 1u);
  EXPECT_EQ(timed.stats(CallKind::kNrDerivatives).calls, 1u);
  EXPECT_EQ(timed.stats(CallKind::kEdgeGradient).calls, 1u);
  EXPECT_EQ(timed.stats(CallKind::kEdgeGradientBatch).calls, 1u);

  timed.reset_counters();
  EXPECT_EQ(inner.resets, 1);
  expect_counters_equal(timed.counters(), lh::KernelCounters{});
}

TEST(TimedExecutor, RecordsOneSpanPerCallUnderTheOpenSpan) {
  const seq::PatternAlignment pa = small_alignment();
  lh::HostExecutor inner;
  SpanRecorder spans;
  TimedExecutor timed(inner, &spans);
  timed.set_group(7);
  const std::uint32_t root = spans.open("task", 7);
  search::run_task(pa, {}, {}, {search::TaskKind::kInference, 2}, &timed);
  spans.close(root);

  std::uint64_t calls = 0;
  for (int k = 0; k < kCallKinds; ++k)
    calls += timed.stats(static_cast<CallKind>(k)).calls;
  ASSERT_EQ(spans.spans().size(), calls + 1);
  for (const Span& s : spans.spans()) {
    EXPECT_EQ(s.group, 7u);
    if (s.id != root) {
      EXPECT_EQ(s.parent, root);
    }
  }
  double self_sum = 0.0;
  for (double v : spans.self_seconds()) self_sum += v;
  EXPECT_NEAR(self_sum, spans.spans()[root - 1].seconds(), 1e-9);
}

}  // namespace
}  // namespace rxc::perfbench
