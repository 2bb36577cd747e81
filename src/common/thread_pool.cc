#include "src/common/thread_pool.h"

#include <stdexcept>
#include <utility>

namespace resest {

const char* TaskPriorityName(TaskPriority p) {
  switch (p) {
    case TaskPriority::kUrgent:
      return "urgent";
    case TaskPriority::kNormal:
      return "normal";
    case TaskPriority::kBulk:
      return "bulk";
  }
  return "unknown";
}

bool ParseTaskPriority(const std::string& name, TaskPriority* out) {
  for (size_t i = 0; i < kNumTaskPriorities; ++i) {
    const TaskPriority p = static_cast<TaskPriority>(static_cast<int>(i));
    if (name == TaskPriorityName(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  try {
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this]() { WorkerLoop(); });
    }
  } catch (...) {
    // A failed spawn (thread exhaustion) must release the workers already
    // parked on the condition variable, or destroying joinable threads
    // calls std::terminate instead of propagating the exception.
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_available_.notify_all();
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

bool ThreadPool::AllLanesEmptyLocked() const {
  for (const auto& lane : lanes_) {
    if (!lane.empty()) return false;
  }
  return true;
}

void ThreadPool::Enqueue(TaskPriority priority, std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      throw std::runtime_error("ThreadPool: Submit after shutdown");
    }
    const size_t p = static_cast<size_t>(priority);
    lanes_[p].push_back(std::move(task));
    queued_[p].store(lanes_[p].size(), std::memory_order_relaxed);
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_idle_.wait(lock,
                 [this]() { return AllLanesEmptyLocked() && active_ == 0; });
}

size_t ThreadPool::QueueDepth() const {
  size_t depth = 0;
  for (const auto& queued : queued_) {
    depth += queued.load(std::memory_order_relaxed);
  }
  return depth;
}

size_t ThreadPool::QueueDepth(TaskPriority priority) const {
  return queued_[static_cast<size_t>(priority)].load(
      std::memory_order_relaxed);
}

bool ThreadPool::HigherLaneQueued(TaskPriority priority) const {
  for (size_t p = 0; p < static_cast<size_t>(priority); ++p) {
    if (queued_[p].load(std::memory_order_relaxed) > 0) return true;
  }
  return false;
}

void ThreadPool::WorkerLoop() {
  // One mu_ acquisition per task: retiring a task and picking the next share
  // it. Tasks that yield by re-submitting themselves make the pool mutex
  // hot; a second acquisition per task measurably slowed urgent answers.
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_available_.wait(
        lock, [this]() { return shutdown_ || !AllLanesEmptyLocked(); });
    // Drain every lane before exiting so ~ThreadPool never drops work.
    size_t p = 0;
    while (p < kNumTaskPriorities && lanes_[p].empty()) ++p;
    if (p == kNumTaskPriorities) return;
    std::function<void()> task = std::move(lanes_[p].front());
    lanes_[p].pop_front();
    queued_[p].store(lanes_[p].size(), std::memory_order_relaxed);
    ++active_;
    lock.unlock();
    task();
    task = nullptr;  // Destroy its captures outside the lock.
    lock.lock();
    --active_;
    if (AllLanesEmptyLocked() && active_ == 0) all_idle_.notify_all();
  }
}

}  // namespace resest
