#include "spans.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "support/error.h"

namespace rxc::perfbench {

std::uint32_t SpanRecorder::intern(std::string_view name) {
  if (auto it = name_ids_.find(name); it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

std::uint32_t SpanRecorder::open(std::string_view name, std::uint64_t group) {
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.name = intern(name);
  s.group = group;
  s.start = Clock::now();
  s.end = s.start;
  spans_.push_back(s);
  open_.push_back(s.id);
  return s.id;
}

void SpanRecorder::close(std::uint32_t id) {
  RXC_REQUIRE(!open_.empty() && open_.back() == id,
              "SpanRecorder: spans must close innermost first");
  open_.pop_back();
  spans_[id - 1].end = Clock::now();
}

std::uint32_t SpanRecorder::add(std::string_view name, std::uint32_t parent,
                                std::uint64_t group, Clock::time_point start,
                                Clock::time_point end) {
  RXC_REQUIRE(parent <= spans_.size(), "SpanRecorder: unknown parent span");
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.name = intern(name);
  s.group = group;
  s.start = start;
  s.end = end;
  spans_.push_back(s);
  return s.id;
}

std::vector<double> SpanRecorder::self_seconds() const {
  std::vector<std::vector<std::uint32_t>> children(spans_.size() + 1);
  for (const Span& s : spans_) children[s.parent].push_back(s.id);
  std::vector<double> self(spans_.size());
  for (const Span& s : spans_) {
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    for (std::uint32_t c : children[s.id]) {
      const Span& k = spans_[c - 1];
      const auto lo = std::max(k.start, s.start);
      const auto hi = std::min(k.end, s.end);
      if (lo < hi) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    Clock::duration covered{0};
    Clock::time_point reach = s.start;
    for (const auto& [lo, hi] : iv) {
      const auto from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[s.id - 1] =
        std::chrono::duration<double>((s.end - s.start) - covered).count();
  }
  return self;
}

std::map<std::string, double> SpanRecorder::self_by_name() const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[name_of(s)] += self[s.id - 1];
  return out;
}

std::string SpanRecorder::to_json() const {
  std::ostringstream os;
  os << "{\"names\": [";
  for (std::size_t i = 0; i < names_.size(); ++i)
    os << (i ? ", " : "") << '"' << names_[i] << '"';
  os << "],\n\"spans\": [";
  auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << '[' << s.id << ',' << s.parent << ','
       << s.name << ',' << s.group << ',' << ns(s.start) << ',' << ns(s.end)
       << ']';
  }
  os << "]}\n";
  return os.str();
}

}  // namespace rxc::perfbench
