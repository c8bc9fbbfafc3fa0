#include "drivers.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "analysis/spans.h"
#include "core/deadline_scheduler.h"
#include "http/message.h"
#include "http/parser.h"
#include "link/link.h"
#include "predict/holt_winters.h"
#include "sim/event_loop.h"
#include "util/rng.h"

namespace perfbench {

using namespace mpdash;

namespace {

constexpr int kTimedRounds = 5;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Runs `round` once untimed, then kTimedRounds times; each call returns
// the number of calls it made. Reports the median ns per call.
DriverResult time_rounds(const std::function<std::uint64_t()>& round) {
  DriverResult out;
  out.calls = round();
  std::vector<double> ns;
  for (int i = 0; i < kTimedRounds; ++i) {
    const double t0 = now_s();
    const std::uint64_t calls = round();
    const double dt = now_s() - t0;
    if (calls != out.calls) out.ok = false;
    ns.push_back(calls > 0 ? dt * 1e9 / static_cast<double>(calls) : 0.0);
  }
  std::sort(ns.begin(), ns.end());
  out.ns_per_call = ns[ns.size() / 2];
  return out;
}

// --- sim -----------------------------------------------------------------

// pending/2 actors; each event schedules its actor's successor and, on
// every other event, re-arms the actor's far-future timer (cancel +
// schedule). Per executed event: 1.5 schedules, 0.5 cancels.
class SimWorkload {
 public:
  SimWorkload(int pending, std::uint64_t seed, std::uint64_t events)
      : rng_(seed), budget_(events) {
    const int actors = std::max(1, pending / 2);
    timers_.resize(static_cast<std::size_t>(actors));
    rearm_.assign(static_cast<std::size_t>(actors), false);
    for (int i = 0; i < actors; ++i) {
      schedule_next(i);
      timers_[static_cast<std::size_t>(i)] =
          loop_.schedule_in(milliseconds(200), [] {});
    }
  }

  std::uint64_t run() {
    loop_.run();
    return loop_.executed_events();
  }

 private:
  void schedule_next(int i) {
    const Duration d = nanoseconds(rng_.uniform_int(500'000, 1'500'000));
    loop_.schedule_in(d, [this, i] { act(i); });
  }

  void act(int i) {
    if (++fired_ >= budget_) return;  // drain: nothing new is scheduled
    schedule_next(i);
    const std::size_t k = static_cast<std::size_t>(i);
    rearm_[k] = !rearm_[k];
    if (rearm_[k]) {
      loop_.cancel(timers_[k]);
      timers_[k] = loop_.schedule_in(milliseconds(200), [] {});
    }
  }

  EventLoop loop_;
  Rng rng_;
  std::uint64_t budget_;
  std::uint64_t fired_ = 0;
  std::vector<EventId> timers_;
  std::vector<bool> rearm_;
};

// --- core ----------------------------------------------------------------

class TwoPathControl final : public MultipathControl {
 public:
  std::vector<ControlledPath> paths() const override {
    return {{0, 0.0}, {1, 1.0}};
  }
  void set_path_enabled(int id, bool e) override {
    enabled_[static_cast<std::size_t>(id)] = e;
  }
  bool path_enabled(int id) const override {
    return enabled_[static_cast<std::size_t>(id)];
  }
  Bytes transferred_bytes() const override { return transferred; }
  DataRate path_throughput(int id) const override {
    return DataRate::mbps(id == 0 ? 3.0 : 4.0);
  }

  Bytes transferred = 0;

 private:
  bool enabled_[2] = {true, true};
};

}  // namespace

DriverResult sim_driver(int pending, std::uint64_t seed) {
  return time_rounds([pending, seed] {
    SimWorkload w(pending, seed, 200'000);
    return w.run();
  });
}

DriverResult link_driver(int flows, std::uint64_t seed) {
  constexpr int kBatch = 256;
  constexpr int kBatches = 200;
  Packet proto;
  proto.kind = PacketKind::kData;
  proto.path_id = 0;
  proto.wire_size = kMaxSegmentSize + kPacketHeaderBytes;
  proto.payload_len = kMaxSegmentSize;
  proto.segments.push_back(
      SegmentRef{nullptr, 0, static_cast<std::size_t>(kMaxSegmentSize), 0});
  bool all_delivered = true;
  DriverResult out = time_rounds([&] {
    EventLoop loop;
    LinkConfig lc;
    lc.id = 0;
    lc.name = "bench";
    lc.rate = BandwidthTrace::constant(DataRate::mbps(20.0));
    lc.queue_capacity = static_cast<Bytes>(kBatch) * proto.wire_size * 2;
    lc.discipline =
        flows > 1 ? QueueDiscipline::kFairQueue : QueueDiscipline::kFifo;
    Link link(loop, lc);
    std::uint64_t delivered = 0;
    if (flows > 1) {
      for (int f = 0; f < flows; ++f) {
        link.set_flow_deliver(f, [&delivered](Packet) { ++delivered; });
      }
    } else {
      link.set_deliver_handler([&delivered](Packet) { ++delivered; });
    }
    Rng rng(seed);
    std::uint64_t sent = 0;
    for (int b = 0; b < kBatches; ++b) {
      for (int i = 0; i < kBatch; ++i) {
        Packet p = proto;
        p.id = loop.allocate_id();
        p.flow = flows > 1 ? static_cast<int>(rng.uniform_int(0, flows - 1))
                           : 0;
        link.send(std::move(p));
        ++sent;
      }
      loop.run();
    }
    if (delivered != sent) all_delivered = false;
    return delivered;
  });
  out.ok = out.ok && all_delivered;
  return out;
}

DriverResult core_driver() {
  constexpr int kCalls = 1'000'000;
  return time_rounds([] {
    TwoPathControl control;
    DeadlineScheduler sched(control);
    std::int64_t t = 0;
    sched.begin(kTimeZero, megabytes(2), seconds(4.0));
    for (int i = 0; i < kCalls; ++i) {
      control.transferred += kMaxSegmentSize;
      sched.update(TimePoint(nanoseconds(t += 50'000)));
      if (!sched.active()) {
        control.transferred = 0;
        sched.begin(TimePoint(nanoseconds(t)), megabytes(2), seconds(4.0));
      }
    }
    return static_cast<std::uint64_t>(kCalls);
  });
}

DriverResult predict_driver(std::uint64_t seed) {
  constexpr int kCalls = 1'000'000;
  std::vector<DataRate> samples;
  samples.reserve(kCalls);
  Rng rng(seed);
  for (int i = 0; i < kCalls; ++i) {
    samples.push_back(
        DataRate::bits_per_second(rng.lognormal_mean_sd(4e6, 1.5e6)));
  }
  double sink = 0.0;
  DriverResult out = time_rounds([&] {
    HoltWinters hw;
    for (const DataRate& s : samples) {
      hw.add_sample(s);
      sink += hw.predict().bps();
    }
    return static_cast<std::uint64_t>(samples.size());
  });
  out.ok = out.ok && sink > 0.0;
  return out;
}

DriverResult http_driver() {
  constexpr int kResponses = 200;
  HttpResponse resp;
  resp.headers.push_back({"Content-Type", "video/mp4"});
  resp.body_len = megabytes(1);
  const WireData wire = resp.to_wire();
  const Bytes len = wire_length(wire);
  std::vector<WireData> slices;
  for (Bytes off = 0; off < len; off += kMaxSegmentSize) {
    slices.push_back(
        wire_slice(wire, off, std::min(kMaxSegmentSize, len - off)));
  }
  bool parsed_all = true;
  DriverResult out = time_rounds([&] {
    std::uint64_t complete = 0;
    Bytes body = 0;
    HttpStreamParser::Callbacks cb;
    cb.on_response_head = [](const HttpResponse&) {};
    cb.on_body = [&body](Bytes n, const std::string&) { body += n; };
    cb.on_message_complete = [&complete] { ++complete; };
    HttpStreamParser parser(HttpStreamParser::Mode::kResponses, std::move(cb));
    for (int r = 0; r < kResponses; ++r) {
      for (const WireData& s : slices) parser.consume(s);
    }
    if (!parser.ok() || body != resp.body_len * kResponses) parsed_all = false;
    return complete;
  });
  out.ok = out.ok && parsed_all && out.calls == kResponses;
  return out;
}

DriverResult analysis_driver(const std::vector<TraceRecord>& records,
                             std::uint64_t* spans) {
  constexpr int kRuns = 10;
  std::uint64_t model_spans = 0;
  DriverResult out = time_rounds([&] {
    for (int i = 0; i < kRuns; ++i) {
      SpanModel model = build_span_model(records);
      attribute_misses(&model, 0);
      model_spans = model.spans.size();
    }
    return static_cast<std::uint64_t>(kRuns);
  });
  *spans = model_spans;
  out.ok = out.ok && model_spans > 0;
  return out;
}

}  // namespace perfbench
