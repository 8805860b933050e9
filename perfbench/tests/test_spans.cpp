#include <gtest/gtest.h>

#include <thread>

#include "spans.h"
#include "stats.h"

namespace rxc::perfbench {
namespace {

TEST(SpanRecorder, SelfTimesOfATreeSumToItsRoot) {
  SpanRecorder rec;
  const std::uint32_t root = rec.open("analysis", 0);
  for (int i = 0; i < 3; ++i) {
    const auto group = static_cast<std::uint64_t>(i + 1);
    ScopedSpan task(&rec, "task", group);
    ScopedSpan kernel(&rec, "kernel.newview", group);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  rec.close(root);

  const std::vector<double> self = rec.self_seconds();
  double sum = 0.0;
  for (double v : self) sum += v;
  EXPECT_NEAR(sum, rec.spans()[root - 1].seconds(), 1e-9);
  for (const Span& s : rec.spans()) {
    if (s.id == root) continue;
    ASSERT_GE(s.parent, 1u);
    EXPECT_LT(s.parent, s.id);  // parents are recorded first
  }
  EXPECT_GT(rec.self_by_name().at("kernel.newview"), 500e-6);
}

TEST(SpanRecorder, OverlappingChildrenAreCountedOnce) {
  SpanRecorder rec;
  const auto t0 = Clock::now();
  const auto at = [&](int us) { return t0 + std::chrono::microseconds(us); };
  const std::uint32_t root = rec.add("job", 0, 1, at(0), at(100));
  rec.add("a", root, 1, at(10), at(60));
  rec.add("b", root, 1, at(40), at(90));
  rec.add("outside", root, 1, at(95), at(150));  // clipped to the parent
  EXPECT_NEAR(rec.self_seconds()[root - 1], 15e-6, 1e-12);
}

TEST(SpanRecorder, ClosingOutOfOrderThrows) {
  SpanRecorder rec;
  const std::uint32_t a = rec.open("a", 0);
  rec.open("b", 0);
  EXPECT_THROW(rec.close(a), std::exception);
}

TEST(Stats, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.9), 9.0);
}

}  // namespace
}  // namespace rxc::perfbench
