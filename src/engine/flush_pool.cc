#include "engine/flush_pool.h"

#include <atomic>

#include "engine/engine_shard.h"

namespace backsort {

void FlushPool::Start(size_t workers) {
  std::unique_lock<std::mutex> lock(mu_);
  stop_ = false;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void FlushPool::Submit(EngineShard* shard) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(shard);
  }
  cv_.notify_one();
}

void FlushPool::Stop() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

size_t FlushPool::queue_depth() const {
  std::unique_lock<std::mutex> lock(mu_);
  return queue_.size();
}

void FlushPool::WorkerLoop() {
  for (;;) {
    EngineShard* shard = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and queue drained
      shard = queue_.front();
      queue_.pop_front();
    }
    shard->ExecuteOneFlush();
  }
}

void RunTaskGroup(size_t workers, size_t tasks,
                  const std::function<void(size_t worker, size_t task)>& fn) {
  if (workers <= 1) {
    for (size_t i = 0; i < tasks; ++i) fn(0, i);
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> group;
  group.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    group.emplace_back([&, w] {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < tasks;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(w, i);
      }
    });
  }
  for (std::thread& t : group) t.join();
}

}  // namespace backsort
