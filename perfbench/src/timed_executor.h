#pragma once
/// \file timed_executor.h
/// Forwarding lh::KernelExecutor that clocks every call into the executor
/// it wraps, per kind, and optionally records one span per call.
///
/// Every virtual call — including the batch entry points and the compound
/// brackets — is forwarded to the SAME virtual on the inner executor, so a
/// wrapped run takes exactly the inner backend's path (batching, offload
/// scheduling, numerics) and produces bitwise-equal results and counters.
/// KernelExecutor::counters() is non-virtual, so the wrapper mirrors the
/// inner counters after each call.

#include <array>
#include <cstdint>

#include "likelihood/executor.h"
#include "spans.h"

namespace rxc::perfbench {

enum class CallKind : int {
  kNewview,
  kNewviewBatch,
  kPreorderBatch,
  kEvaluate,
  kSumtable,
  kNrDerivatives,
  kEdgeGradient,
  kEdgeGradientBatch,
};
inline constexpr int kCallKinds = 8;

/// Stable metric name ("newview", "newview_batch", ...).
const char* call_kind_name(CallKind kind);

struct CallStats {
  std::uint64_t calls = 0;
  double wall_s = 0.0;
  /// Partial-likelihood bytes the calls read and wrote, computed from the
  /// tasks' pattern counts and the partial stride (not measured traffic).
  double computed_bytes = 0.0;
};

class TimedExecutor final : public lh::KernelExecutor {
 public:
  /// `inner` must outlive this.  With `spans` set every call is recorded as
  /// a "kernel.<kind>" span under the innermost open span, with `group`.
  explicit TimedExecutor(lh::KernelExecutor& inner,
                         SpanRecorder* spans = nullptr);

  void set_group(std::uint64_t group) { group_ = group; }

  void newview(const lh::NewviewTask& task) override;
  void newview_batch(const lh::NewviewTask* tasks, std::size_t count) override;
  void preorder_batch(const lh::NewviewTask* tasks,
                      std::size_t count) override;
  double evaluate(const lh::EvaluateTask& task) override;
  void sumtable(const lh::SumtableTask& task) override;
  lh::NrResult nr_derivatives(const lh::NrTask& task) override;
  lh::NrResult edge_gradient(const lh::EdgeGradientTask& task) override;
  void edge_gradient_batch(const lh::EdgeGradientTask* tasks,
                           std::size_t count, lh::NrResult* results) override;
  void begin_compound() override;
  void end_compound() override;
  void reset_counters() override;

  const CallStats& stats(CallKind kind) const {
    return stats_[static_cast<int>(kind)];
  }
  /// Wall seconds over every kind.
  double total_wall_s() const;

 private:
  template <class F>
  decltype(auto) timed(CallKind kind, double bytes, F&& call);

  lh::KernelExecutor& inner_;
  SpanRecorder* spans_;
  std::uint64_t group_ = 0;
  std::array<CallStats, kCallKinds> stats_{};
};

}  // namespace rxc::perfbench
