#pragma once
// Fixed-size worker pool draining a FIFO task queue — the execution
// engine behind Campaign (see campaign.h). Tasks are opaque closures;
// determinism is the *caller's* responsibility and is achieved by making
// every task write only to its own pre-allocated slot (see DESIGN.md
// "Parallel campaign execution").

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace mpdash {

class ThreadPool {
 public:
  // Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);
  // Drains the queue, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Tasks must not throw (Campaign wraps run bodies in
  // a catch-all before they reach the pool).
  void submit(std::function<void()> task);

  // Blocks until the queue is empty and every worker is idle. New tasks
  // may be submitted afterwards (the pool stays alive until destruction).
  void wait_idle();

  int size() const { return static_cast<int>(workers_.size()); }

 private:
  void worker();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_task_;  // queue non-empty or stopping
  std::condition_variable cv_idle_;  // queue empty and nobody active
  int active_ = 0;
  bool stop_ = false;
};

// Worker-count resolution for --jobs style flags: `requested` > 0 wins;
// otherwise the MPDASH_JOBS environment variable; otherwise
// std::thread::hardware_concurrency() (>= 1).
int resolve_jobs(int requested);

// Parses a --jobs value: a whole integer >= 0, where 0 leaves the count to
// resolve_jobs. False for anything else ("abc", "3x", "-5", "").
bool parse_jobs_value(std::string_view text, int* jobs);

}  // namespace mpdash
