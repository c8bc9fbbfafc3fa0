#include "speed_probe.h"

#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>

// Older C libraries name the target thread of a SIGEV_THREAD_ID timer
// only through the union member.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace perfbench {

namespace {

// Kernel time at the reference speed, a little under its time on a quiet
// 4-core 2.1 GHz Xeon VM; it only sets the scale of scaled times.
constexpr double kReferenceKernelS = 0.00025;
constexpr int kSignal = SIGPROF;
// Samples one pass can hold: about 27 minutes at kPeriodS. The handler
// leaves the last slot to end_pass().
constexpr int kMaxSamples = 1 << 15;
// Kernel runs behind each probe taken outside the handler (pass start and
// end); their median is the probe's kernel time.
constexpr int kProbeRuns = 5;

double now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// The fixed kernel has two halves that load the core differently, and its
// time is the geometric mean of theirs. Both work in static arrays only,
// so they allocate nothing and are safe to run in a signal handler.
//
// The event half: an event-queue loop over a binary heap and a live-event
// table, a third of all schedules cancelled, about 0.4 ms; cache-resident.
// Event ids never exceed kSlots, so table slots never collide.
constexpr int kPending = 512;
constexpr int kSteps = 3'000;
constexpr std::size_t kSlots = 1u << 13;
static_assert(kPending + 2 * kSteps < static_cast<int>(kSlots));

struct Entry {
  std::uint64_t at;
  std::uint64_t id;
  bool operator>(const Entry& o) const {
    return at != o.at ? at > o.at : id > o.id;
  }
};
Entry g_heap[kPending + 2 * kSteps];
std::uint64_t g_live[kSlots];

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

double event_kernel_s() {
  std::fill(std::begin(g_live), std::end(g_live), 0);
  std::size_t size = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t next_id = 1, now = 0, fired = 0;
  auto schedule = [&](std::uint64_t delay) {
    const std::uint64_t id = next_id++;
    g_heap[size++] = {now + delay, id};
    std::push_heap(g_heap, g_heap + size, std::greater<>{});
    g_live[id] = id;
    return id;
  };
  const double t0 = now_s();
  for (int i = 0; i < kPending; ++i) schedule(xorshift(x) % 1'000'000);
  for (int step = 0; step < kSteps; ++step) {
    std::pop_heap(g_heap, g_heap + size, std::greater<>{});
    const Entry e = g_heap[--size];
    if (g_live[e.id] == e.id) {
      g_live[e.id] = 0;
      now = e.at;
      ++fired;
    }
    schedule(xorshift(x) % 1'000'000);
    if (step % 2 == 0) g_live[schedule(xorshift(x) % 1'000'000)] = 0;
  }
  const double dt = now_s() - t0;
  // `fired` depends on every step, so the loop cannot be elided.
  return fired > 0 ? dt : 2.0 * dt;
}

// The memory half: read-modify-writes at random places of a table larger
// than a core's private caches, about 0.2 ms; it moves with contention
// for the shared cache and memory. The table is resident from the probe's
// construction on (SpeedProbe::kTableMb).
constexpr std::size_t kTableWords = 1u << 20;
constexpr int kTouches = 16'000;
static_assert(kTableWords * sizeof(std::uint64_t) ==
              static_cast<std::size_t>(SpeedProbe::kTableMb * (1 << 20)));
std::uint64_t g_table[kTableWords];

double memory_kernel_s() {
  std::uint64_t x = 0x2545f4914f6cdd1dull, sum = 0;
  const double t0 = now_s();
  for (int i = 0; i < kTouches; ++i) {
    std::uint64_t& v = g_table[xorshift(x) & (kTableWords - 1)];
    sum += v;
    v += sum | 1;
  }
  const double dt = now_s() - t0;
  return sum > 0 ? dt : 2.0 * dt;
}

double kernel_s() { return std::sqrt(event_kernel_s() * memory_kernel_s()); }

// The current pass's samples. The handler runs on the measuring thread
// itself, so a signal fence orders its writes before the count it bumps.
struct Sample {
  double start_s;   // when the probe started
  double end_s;     // when it ended
  double kernel_s;  // its kernel time
};
Sample g_samples[kMaxSamples];
std::atomic<int> g_count{0};
static_assert(std::atomic<int>::is_always_lock_free);

void record(const Sample& s) {
  const int n = g_count.load(std::memory_order_relaxed);
  g_samples[n] = s;
  std::atomic_signal_fence(std::memory_order_release);
  g_count.store(n + 1, std::memory_order_relaxed);
}

void on_timer(int) {
  const int saved_errno = errno;
  if (g_count.load(std::memory_order_relaxed) < kMaxSamples - 1) {
    const double start = now_s();
    const double k = kernel_s();
    record({start, now_s(), k});
  }
  errno = saved_errno;
}

// One probe outside the handler: the median of kProbeRuns kernel runs.
void probe_now() {
  double runs[kProbeRuns];
  const double start = now_s();
  for (double& r : runs) r = kernel_s();
  std::sort(std::begin(runs), std::end(runs));
  record({start, now_s(), runs[kProbeRuns / 2]});
}

timer_t g_timer;
struct sigaction g_old_action;

void set_timer(double period_s) {
  itimerspec spec{};
  const auto whole = static_cast<time_t>(period_s);
  spec.it_interval.tv_sec = whole;
  spec.it_interval.tv_nsec =
      static_cast<long>((period_s - static_cast<double>(whole)) * 1e9);
  spec.it_value = spec.it_interval;
  if (timer_settime(g_timer, 0, &spec, nullptr) != 0) {
    std::perror("perfbench: timer_settime");
    std::exit(1);
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

SpeedProbe::SpeedProbe() {
  std::fill(std::begin(g_table), std::end(g_table), 1);
  struct sigaction action{};
  action.sa_handler = on_timer;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigevent event{};
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = kSignal;
  event.sigev_notify_thread_id = static_cast<pid_t>(syscall(SYS_gettid));
  if (sigaction(kSignal, &action, &g_old_action) != 0 ||
      timer_create(CLOCK_MONOTONIC, &event, &g_timer) != 0) {
    std::perror("perfbench: speed probe timer");
    std::exit(1);
  }
}

SpeedProbe::~SpeedProbe() {
  timer_delete(g_timer);
  sigaction(kSignal, &g_old_action, nullptr);
}

void SpeedProbe::begin_pass() {
  g_count.store(0, std::memory_order_relaxed);
  probe_now();
  set_timer(kPeriodS);
}

PassTime SpeedProbe::end_pass() {
  // A signal already raised is handled before timer_settime returns.
  set_timer(0.0);
  probe_now();
  const int n = g_count.load(std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_acquire);
  std::vector<double> kernel(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) kernel[i] = g_samples[i].kernel_s;
  kernel_s_.insert(kernel_s_.end(), kernel.begin(), kernel.end());
  PassTime t;
  for (int i = 1; i < n; ++i) {
    const double work = g_samples[i].start_s - g_samples[i - 1].end_s;
    const auto lo = kernel.begin() + std::max(0, i - 2);
    const auto hi = kernel.begin() + std::min(n, i + 2);
    t.raw_s += work;
    t.scaled_s += work * kReferenceKernelS / median({lo, hi});
  }
  return t;
}

double SpeedProbe::speed() const {
  return kReferenceKernelS / median(kernel_s_);
}

}  // namespace perfbench
