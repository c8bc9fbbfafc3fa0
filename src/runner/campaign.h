#pragma once
// Campaign: a deterministic fan-out of independent experiment runs over a
// thread pool. This is the execution layer behind the field-study benches
// and every future scenario-grid sweep.
//
// Determinism contract (proved by tests/runner_test.cpp):
//   * Each RunSpec owns everything mutable — a derived seed, a private
//     Telemetry context, and a result slot workers write exclusively.
//     Run bodies may read shared immutable inputs only.
//   * Seeds derive from (campaign seed, run key), never from position, so
//     inserting or removing a run cannot reseed its neighbors.
//   * Results land in add-order slots; aggregation happens after the pool
//     drains. Output is therefore bitwise identical for any job count.
//   * A throwing run marks its own RunReport failed and leaves the other
//     runs untouched (its result slot keeps the default-constructed R).

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runner/progress.h"
#include "runner/thread_pool.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"

namespace mpdash {

// Stable per-run seed: splitmix64 finalization over an FNV-1a hash of the
// key, mixed with the campaign seed. Depends only on the two inputs.
std::uint64_t derive_run_seed(std::uint64_t campaign_seed,
                              std::string_view key);

// Everything a run body may touch besides its captured immutable inputs.
struct RunContext {
  int index = 0;         // position in the campaign (result-slot id)
  std::string key;       // stable identity, e.g. "Hotel Hi/festive/rate"
  std::uint64_t seed = 0;
  Telemetry& telemetry;  // private to this run; never shared with workers

  Rng rng() const { return Rng(seed); }
};

struct RunReport {
  std::string key;
  std::uint64_t seed = 0;
  bool ok = false;
  std::string error;    // exception message when !ok
  double wall_s = 0.0;  // worker wall-clock for this run
};

struct CampaignStats {
  int jobs = 1;
  int runs = 0;
  int failures = 0;
  double wall_s = 0.0;          // whole-campaign wall clock
  double run_wall_sum_s = 0.0;  // sum of per-run times ≈ serial estimate
  double speedup() const {
    return wall_s > 0.0 ? run_wall_sum_s / wall_s : 0.0;
  }
};

template <typename R>
struct CampaignResult {
  std::vector<R> results;          // add-order, index-aligned with reports
  std::vector<RunReport> reports;  // one per run, failures captured here
  CampaignStats stats;

  bool all_ok() const { return stats.failures == 0; }
  // Aborts aggregation when any run failed (benches call this: a missing
  // cell would silently skew every CDF built from the grid).
  void require_all_ok() const {
    if (all_ok()) return;
    std::string msg = std::to_string(stats.failures) + " of " +
                      std::to_string(stats.runs) + " runs failed:";
    for (const RunReport& r : reports) {
      if (!r.ok) msg += "\n  " + r.key + ": " + r.error;
    }
    throw std::runtime_error(msg);
  }
};

struct CampaignOptions {
  // 0 → resolve_jobs(): MPDASH_JOBS env or hardware cores. The pool gets
  // at most one worker per run, and CampaignStats::jobs reports that count.
  int jobs = 0;
  std::FILE* progress = stderr;  // nullptr silences progress and failures
};

template <typename R>
class Campaign {
 public:
  using Body = std::function<R(RunContext&)>;

  explicit Campaign(std::string name, std::uint64_t seed = 0x6d70646173686ull)
      : name_(std::move(name)), seed_(seed) {}

  // Adds a run; returns its index. `key` should be unique and stable — it
  // is the seed-derivation input and the label in reports.
  int add(std::string key, Body body) {
    const int index = static_cast<int>(specs_.size());
    specs_.push_back(Spec{derive_run_seed(seed_, key), std::move(key),
                          std::move(body)});
    return index;
  }

  std::size_t size() const { return specs_.size(); }
  const std::string& name() const { return name_; }

  CampaignResult<R> run(const CampaignOptions& opts = {}) const {
    // Never more workers than runs: `--jobs 5000` over 33 runs starts 33.
    const int jobs = std::min(resolve_jobs(opts.jobs),
                              std::max(1, static_cast<int>(specs_.size())));
    CampaignResult<R> out;
    out.results.resize(specs_.size());
    out.reports.resize(specs_.size());
    out.stats.jobs = jobs;
    out.stats.runs = static_cast<int>(specs_.size());

    ProgressReporter progress(name_, out.stats.runs, opts.progress);
    const double t0 = monotonic_seconds();
    auto run_one = [&](int i) {
      const Spec& spec = specs_[static_cast<std::size_t>(i)];
      RunReport& rep = out.reports[static_cast<std::size_t>(i)];
      rep.key = spec.key;
      rep.seed = spec.seed;
      Telemetry telemetry;
      RunContext ctx{i, spec.key, spec.seed, telemetry};
      const double r0 = monotonic_seconds();
      try {
        out.results[static_cast<std::size_t>(i)] = spec.body(ctx);
        rep.ok = true;
      } catch (const std::exception& e) {
        rep.error = e.what();
      } catch (...) {
        rep.error = "unknown exception";
      }
      rep.wall_s = monotonic_seconds() - r0;
      progress.completed(rep.key, rep.ok, rep.error);
    };

    if (jobs <= 1) {
      for (int i = 0; i < out.stats.runs; ++i) run_one(i);
    } else {
      ThreadPool pool(jobs);
      for (int i = 0; i < out.stats.runs; ++i) {
        pool.submit([&run_one, i] { run_one(i); });
      }
      pool.wait_idle();
    }

    out.stats.wall_s = monotonic_seconds() - t0;
    for (const RunReport& r : out.reports) {
      out.stats.run_wall_sum_s += r.wall_s;
      out.stats.failures += r.ok ? 0 : 1;
    }
    return out;
  }

 private:
  struct Spec {
    std::uint64_t seed;
    std::string key;
    Body body;
  };

  std::string name_;
  std::uint64_t seed_;
  std::vector<Spec> specs_;
};

}  // namespace mpdash
