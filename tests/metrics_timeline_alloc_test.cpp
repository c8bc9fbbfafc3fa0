// Heap-allocation gate for the metrics timeline. It replaces the global
// operator new to count allocations, so it is an executable of its own:
// every other test binary keeps the library's allocator.
//
// The snapshotter samples a live session's registry every simulated
// second. Once the timeline holds the registry's layout (names, kinds and
// histogram bounds, stored once), a sample is one row of doubles: one
// allocation, plus the rows vector's amortized growth.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "dash/video.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace mpdash {
namespace {

TEST(MetricsTimelineAlloc, RecordingASessionRegistryAllocatesOneRowPerSample) {
  // A real session fills the registry: counters, gauges and histograms.
  Telemetry telemetry;
  {
    Scenario scenario(
        constant_scenario(DataRate::mbps(6.0), DataRate::mbps(4.0)));
    SessionConfig cfg;
    cfg.scheme = Scheme::kMpDashRate;
    const Video video("Alloc", seconds(4.0), 10,
                      {DataRate::mbps(0.58), DataRate::mbps(1.01),
                       DataRate::mbps(1.47), DataRate::mbps(2.41),
                       DataRate::mbps(3.94)},
                      0.12, 7);
    ASSERT_TRUE(run_streaming_session(scenario, video, cfg,
                                      {.telemetry = &telemetry})
                    .completed);
  }
  const MetricsRegistry& registry = telemetry.metrics();
  std::size_t histograms = 0;
  for (const MetricValue& v : registry.snapshot(kTimeZero).values) {
    if (v.kind == MetricKind::kHistogram) ++histograms;
  }
  ASSERT_GT(registry.size(), 40u);
  ASSERT_GT(histograms, 0u);

  MetricsTimeline timeline;
  timeline.record(registry, kTimeZero);  // warm-up: stores the layout
  constexpr int kSamples = 1000;
  const std::size_t before = g_allocations;
  for (int i = 1; i <= kSamples; ++i) {
    timeline.record(registry, TimePoint(seconds(i)));
  }
  const std::size_t allocations = g_allocations - before;

  EXPECT_LE(static_cast<double>(allocations) / kSamples, 1.1)
      << allocations << " allocations for " << kSamples << " samples";
  ASSERT_EQ(timeline.size(), static_cast<std::size_t>(kSamples) + 1);
  EXPECT_EQ(timeline.at(kSamples), TimePoint(seconds(kSamples)));
  EXPECT_EQ(timeline.value(kSamples, "player.chunks"), 10.0);
}

}  // namespace
}  // namespace mpdash
