// A fixed-size worker pool with a lock-based, priority-laned task queue.
// Shared by the serving layer (batched estimation fan-out) and parallel
// model training (ResourceEstimator::Train), which is why it lives in
// src/common/ rather than src/serving/.
#ifndef RESEST_COMMON_THREAD_POOL_H_
#define RESEST_COMMON_THREAD_POOL_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace resest {

/// Scheduling lane of a submitted task. Lanes are strictly ordered: a
/// worker never starts a kNormal task while a kUrgent task is queued, and
/// never starts a kBulk task while anything else is queued. Within a lane,
/// tasks run FIFO. The serving layer maps request priorities onto these
/// lanes (admission probes ride kUrgent over kBulk re-optimization scans).
enum class TaskPriority : int {
  kUrgent = 0,  ///< Small latency-critical work (admission probes).
  kNormal = 1,  ///< Default; everything that predates lanes lands here.
  kBulk = 2,    ///< Large background scans that must never delay the rest.
};
inline constexpr size_t kNumTaskPriorities = 3;
const char* TaskPriorityName(TaskPriority p);

/// Inverse of TaskPriorityName ("urgent"/"normal"/"bulk"). True (and sets
/// *out) iff `name` matches a lane.
bool ParseTaskPriority(const std::string& name, TaskPriority* out);

/// Fixed-size pool of worker threads draining prioritized FIFO task lanes.
///
/// Tasks are `std::function<void()>`; `Submit` wraps a callable and returns
/// a future for its result. The destructor drains every lane (every task
/// submitted before destruction runs) and joins all workers. All public
/// methods are thread-safe.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a callable on the kNormal lane; returns a future for its
  /// result. Submitting after shutdown has begun throws std::runtime_error.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<decltype(fn())> {
    return Submit(TaskPriority::kNormal, std::forward<Fn>(fn));
  }

  /// Enqueues a callable on the given lane. Strict lane ordering: the task
  /// starts only when no higher-priority task is queued.
  template <typename Fn>
  auto Submit(TaskPriority priority, Fn&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    Enqueue(priority, [task]() { (*task)(); });
    return result;
  }

  /// Blocks until every lane is empty and no task is running.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Tasks currently queued across all lanes (excludes running tasks).
  size_t QueueDepth() const;
  /// Tasks currently queued on one lane; for tests/metrics.
  size_t QueueDepth(TaskPriority priority) const;

  /// True while a lane strictly above `priority` has a queued (not yet
  /// started) task. One relaxed atomic read per lane, no lock: a long-running
  /// task polls it at its own safe points and, when it is true, re-submits
  /// the rest of its work on its own lane and returns, so strict lane order
  /// hands the worker to the waiting task — whichever subsystem or tenant
  /// it belongs to. A stale answer only delays or wastes one such yield.
  bool HigherLaneQueued(TaskPriority priority) const;

 private:
  void Enqueue(TaskPriority priority, std::function<void()> task);
  void WorkerLoop();
  bool AllLanesEmptyLocked() const;

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  /// Index = TaskPriority; lower index drains first, FIFO within a lane.
  std::array<std::deque<std::function<void()>>, kNumTaskPriorities> lanes_;
  /// Mirror of each lane's size, written under mu_ whenever the lane changes
  /// and read without it (QueueDepth, HigherLaneQueued).
  std::array<std::atomic<size_t>, kNumTaskPriorities> queued_{};
  std::vector<std::thread> workers_;
  size_t active_ = 0;       ///< Tasks currently executing.
  bool shutdown_ = false;   ///< Set once by the destructor.
};

}  // namespace resest

#endif  // RESEST_COMMON_THREAD_POOL_H_
