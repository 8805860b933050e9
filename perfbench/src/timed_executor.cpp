#include "timed_executor.h"

#include <string>

namespace rxc::perfbench {

const char* call_kind_name(CallKind kind) {
  switch (kind) {
    case CallKind::kNewview: return "newview";
    case CallKind::kNewviewBatch: return "newview_batch";
    case CallKind::kPreorderBatch: return "preorder_batch";
    case CallKind::kEvaluate: return "evaluate";
    case CallKind::kSumtable: return "sumtable";
    case CallKind::kNrDerivatives: return "nr_derivatives";
    case CallKind::kEdgeGradient: return "edge_gradient";
    case CallKind::kEdgeGradientBatch: return "edge_gradient_batch";
  }
  return "?";
}

namespace {

/// Bytes of one partial strip entry set for one pattern: 4 states per rate
/// category held (one under CAT, ncat under GAMMA).
double pattern_bytes(const lh::TaskContext& ctx) {
  const int cats = ctx.mode == lh::RateMode::kGamma ? ctx.ncat : 1;
  return 4.0 * cats * sizeof(double);
}

/// Bytes one side of a kernel reads: a partial strip or a tip code row.
double side_bytes(const lh::TaskContext& ctx, std::size_t np, bool partial) {
  return static_cast<double>(np) *
         (partial ? pattern_bytes(ctx) : sizeof(seq::DnaCode));
}

double newview_bytes(const lh::NewviewTask& t) {
  return side_bytes(t.ctx, t.np, static_cast<bool>(t.partial1)) +
         side_bytes(t.ctx, t.np, static_cast<bool>(t.partial2)) +
         side_bytes(t.ctx, t.np, true);
}

double newview_bytes(const lh::NewviewTask* tasks, std::size_t count) {
  double sum = 0.0;
  for (std::size_t i = 0; i < count; ++i) sum += newview_bytes(tasks[i]);
  return sum;
}

double edge_gradient_bytes(const lh::EdgeGradientTask& t) {
  return side_bytes(t.ctx, t.np, static_cast<bool>(t.partial1)) +
         side_bytes(t.ctx, t.np, true);
}

}  // namespace

TimedExecutor::TimedExecutor(lh::KernelExecutor& inner, SpanRecorder* spans)
    : inner_(inner), spans_(spans) {
  counters_ = inner_.counters();
}

template <class F>
decltype(auto) TimedExecutor::timed(CallKind kind, double bytes, F&& call) {
  CallStats& st = stats_[static_cast<int>(kind)];
  ++st.calls;
  st.computed_bytes += bytes;
  struct Finish {
    TimedExecutor& self;
    CallStats& st;
    std::uint32_t span;
    Clock::time_point t0;
    ~Finish() {
      st.wall_s +=
          std::chrono::duration<double>(Clock::now() - t0).count();
      if (self.spans_) self.spans_->close(span);
      self.counters_ = self.inner_.counters();
    }
  };
  static const auto span_names = [] {
    std::array<std::string, kCallKinds> names;
    for (int k = 0; k < kCallKinds; ++k)
      names[k] = std::string("kernel.") + call_kind_name(CallKind(k));
    return names;
  }();
  const std::uint32_t span =
      spans_ ? spans_->open(span_names[static_cast<int>(kind)], group_) : 0;
  Finish finish{*this, st, span, Clock::now()};
  return call();
}

void TimedExecutor::newview(const lh::NewviewTask& task) {
  timed(CallKind::kNewview, newview_bytes(task),
        [&] { inner_.newview(task); });
}

void TimedExecutor::newview_batch(const lh::NewviewTask* tasks,
                                  std::size_t count) {
  timed(CallKind::kNewviewBatch, newview_bytes(tasks, count),
        [&] { inner_.newview_batch(tasks, count); });
}

void TimedExecutor::preorder_batch(const lh::NewviewTask* tasks,
                                   std::size_t count) {
  timed(CallKind::kPreorderBatch, newview_bytes(tasks, count),
        [&] { inner_.preorder_batch(tasks, count); });
}

double TimedExecutor::evaluate(const lh::EvaluateTask& task) {
  const double bytes =
      side_bytes(task.ctx, task.np, static_cast<bool>(task.partial1)) +
      side_bytes(task.ctx, task.np, true);
  return timed(CallKind::kEvaluate, bytes,
               [&] { return inner_.evaluate(task); });
}

void TimedExecutor::sumtable(const lh::SumtableTask& task) {
  const double bytes =
      side_bytes(task.ctx, task.np, static_cast<bool>(task.partial1)) +
      2 * side_bytes(task.ctx, task.np, true);
  timed(CallKind::kSumtable, bytes, [&] { inner_.sumtable(task); });
}

lh::NrResult TimedExecutor::nr_derivatives(const lh::NrTask& task) {
  return timed(CallKind::kNrDerivatives, side_bytes(task.ctx, task.np, true),
               [&] { return inner_.nr_derivatives(task); });
}

lh::NrResult TimedExecutor::edge_gradient(const lh::EdgeGradientTask& task) {
  return timed(CallKind::kEdgeGradient, edge_gradient_bytes(task),
               [&] { return inner_.edge_gradient(task); });
}

void TimedExecutor::edge_gradient_batch(const lh::EdgeGradientTask* tasks,
                                        std::size_t count,
                                        lh::NrResult* results) {
  double bytes = 0.0;
  for (std::size_t i = 0; i < count; ++i)
    bytes += edge_gradient_bytes(tasks[i]);
  timed(CallKind::kEdgeGradientBatch, bytes,
        [&] { inner_.edge_gradient_batch(tasks, count, results); });
}

void TimedExecutor::begin_compound() { inner_.begin_compound(); }

void TimedExecutor::end_compound() {
  inner_.end_compound();
  counters_ = inner_.counters();
}

void TimedExecutor::reset_counters() {
  inner_.reset_counters();
  counters_ = inner_.counters();
}

double TimedExecutor::total_wall_s() const {
  double sum = 0.0;
  for (const CallStats& st : stats_) sum += st.wall_s;
  return sum;
}

}  // namespace rxc::perfbench
