#include "runner/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace mpdash {

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) workers_.emplace_back([this] { worker(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("MPDASH_JOBS")) {
    int n = 0;
    if (!parse_jobs_value(env, &n)) {
      throw std::invalid_argument(std::string("bad MPDASH_JOBS value '") +
                                  env + "' (want an integer >= 0)");
    }
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

bool parse_jobs_value(std::string_view text, int* jobs) {
  int n = 0;
  const char* end = text.data() + text.size();
  const auto res = std::from_chars(text.data(), end, n);
  if (res.ec != std::errc() || res.ptr != end || n < 0) return false;
  *jobs = n;
  return true;
}

}  // namespace mpdash
