#pragma once
/// \file spans.h
/// In-memory span recorder for the benchmark's traced runs.
///
/// A span is one timed call into a layer: name, start, end, the span that
/// caused it (0 = a root) and a group id shared by every span of one task or
/// served job.  Spans stay in memory and are written out once, at the end
/// of the run.  A span's self time is its duration minus the part of it that
/// its children cover, so the self times of one tree sum to its root's
/// duration.
///
/// Single-threaded: the benchmark records spans only from the thread that
/// drives the layer calls (serve spans are assembled from timestamps after
/// the server has joined).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rxc::perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint32_t id = 0;      ///< 1-based; ids are dense and increasing
  std::uint32_t parent = 0;  ///< 0 for a root
  std::uint32_t name = 0;    ///< index into SpanRecorder::names()
  std::uint64_t group = 0;   ///< task / job id
  Clock::time_point start;
  Clock::time_point end;

  double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Opens a span as a child of the innermost open span.  Returns its id.
  std::uint32_t open(std::string_view name, std::uint64_t group);
  /// Closes the innermost open span, which must be `id`.
  void close(std::uint32_t id);
  /// Records an already finished span with an explicit parent.
  std::uint32_t add(std::string_view name, std::uint32_t parent,
                    std::uint64_t group, Clock::time_point start,
                    Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  const std::string& name_of(const Span& s) const { return names_[s.name]; }

  /// Self time (seconds) of every span, indexed like spans().
  std::vector<double> self_seconds() const;
  /// Self time summed per span name.
  std::map<std::string, double> self_by_name() const;

  /// {"names": [...], "spans": [[id, parent, name, group, start_ns,
  /// end_ns], ...]} with times relative to the recorder's construction.
  std::string to_json() const;

 private:
  std::uint32_t intern(std::string_view name);

  Clock::time_point epoch_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> name_ids_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< stack of open span ids
};

/// RAII span on an optional recorder (no-op when `rec` is null).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string_view name, std::uint64_t group)
      : rec_(rec), id_(rec ? rec->open(name, group) : 0) {}
  ~ScopedSpan() {
    if (rec_) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::uint32_t id_;
};

}  // namespace rxc::perfbench
