#pragma once
// Per-layer drivers: each one feeds a single layer's public class a
// workload of a stated shape, runs one untimed warm-up round, then times
// several rounds and reports the median cost per call together with the
// number of calls one round makes, so every ratio carries its base.

#include <cstdint>
#include <vector>

#include "telemetry/trace_sink.h"

namespace perfbench {

struct DriverResult {
  std::uint64_t calls = 0;   // calls per timed round
  double ns_per_call = 0.0;  // median over timed rounds
  bool ok = true;            // the driver's own output check held
};

// EventLoop: schedule / cancel / run with a third of all schedules
// cancelled (an RTO-style timer re-armed on every other event), `pending`
// live events in the queue. Calls = executed events.
DriverResult sim_driver(int pending, std::uint64_t seed);

// Standalone Link on its own EventLoop, fed through Link::send in batches
// of 256 MSS packets and drained after each batch. flows == 1 runs the
// FIFO discipline; flows > 1 runs DRR fair queueing with a delivery
// handler per flow. Calls = delivered packets.
DriverResult link_driver(int flows, std::uint64_t seed);

// DeadlineScheduler::update on a two-path control whose transfer advances
// one MSS per call, restarting the transfer when it completes.
DriverResult core_driver();

// HoltWinters::add_sample + predict over a lognormal throughput series.
DriverResult predict_driver(std::uint64_t seed);

// HttpStreamParser::consume over one chunk response (head plus a 1 MB
// virtual body) delivered in MSS-sized slices. Calls = responses.
DriverResult http_driver();

// build_span_model + attribute_misses over one chaos run's span-model
// records. Calls = analysed runs; `spans` receives the model's span count.
DriverResult analysis_driver(const std::vector<mpdash::TraceRecord>& records,
                             std::uint64_t* spans);

}  // namespace perfbench
