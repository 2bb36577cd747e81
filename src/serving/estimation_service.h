// The prediction-serving front end (paper Figure 5): a thread-safe service
// answering single and batched resource-estimate requests from the active
// model in a ModelRegistry, fanning batches out across a ThreadPool.
//
// Results are returned in request order and are bit-identical to calling
// ResourceEstimator::EstimateQuery serially: each request's estimate is an
// independent computation against an immutable estimator snapshot, so the
// floating-point evaluation order within a request never changes. The
// cross-request estimate cache preserves this bit-for-bit — a hit returns
// the exact double a miss would have computed (see estimate_cache.h).
//
// Scheduling: every batch carries a TaskPriority and an optional deadline
// (SubmitOptions). Chunks are fanned out on the pool lane matching the
// batch's priority, and the service's own chunk scheduler serves runnable
// batches highest-priority-first with FIFO order within a priority — so
// small urgent batches (admission probes) overtake queued bulk scans at
// chunk granularity instead of waiting for them to drain. Deadlines are
// best-effort expiry, not cancellation: a chunk that has not started when
// its batch's deadline passes completes with kDeadlineExceeded without
// executing, while a started chunk always runs to completion and returns
// the normal bit-identical value.
#ifndef RESEST_SERVING_ESTIMATION_SERVICE_H_
#define RESEST_SERVING_ESTIMATION_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/arena.h"
#include "src/common/thread_pool.h"
#include "src/serving/estimate_cache.h"
#include "src/serving/estimate_status.h"
#include "src/serving/model_registry.h"

namespace resest {

/// One estimation request. Two payload kinds share the struct (the unified
/// request API — in-process and wire clients submit through the same batch
/// pipeline, with the same caching, scheduling and stats):
///
///  - Plan-based (the in-process default): an annotated plan on a database,
///    for a resource; the estimate sums over the plan's operators. `plan`
///    and `database` must outlive the call (for Submit* flavors: until the
///    future is ready / the callback has run).
///  - Operator-based (what the HTTP front end maps wire requests onto, see
///    src/server/): `has_features` set, one operator type plus an
///    already-extracted feature vector; `plan`/`database` are ignored. The
///    result is bit-identical to
///    ResourceEstimator::EstimateFromFeatures(op, features, resource), and
///    is memoized in the same slot-version-keyed estimate cache as the
///    per-operator terms of plan-based requests.
struct EstimateRequest {
  const Plan* plan = nullptr;
  const Database* database = nullptr;
  Resource resource = Resource::kCpu;
  /// Operator-based payload; only read when has_features is set.
  OpType op = OpType::kTableScan;
  FeatureVector features{};
  bool has_features = false;

  static EstimateRequest ForOperator(OpType op, const FeatureVector& features,
                                     Resource resource) {
    EstimateRequest r;
    r.resource = resource;
    r.op = op;
    r.features = features;
    r.has_features = true;
    return r;
  }
};

struct EstimateResult {
  EstimateStatus status = EstimateStatus::kOk;
  double value = 0.0;
  uint64_t model_version = 0;  ///< Version that served the request.

  bool ok() const { return status == EstimateStatus::kOk; }
};

/// Per-submission scheduling knobs for EstimateBatch/SubmitBatch/
/// SubmitEstimate. Default-constructed options reproduce the pre-lane
/// behavior exactly: kNormal priority, no deadline.
struct SubmitOptions {
  TaskPriority priority = TaskPriority::kNormal;
  /// Best-effort expiry point (steady clock). Chunks not yet started when
  /// the deadline passes return kDeadlineExceeded without executing;
  /// started chunks always finish with their normal value. The default
  /// (time_point::max()) means "no deadline".
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Tenant binding (multi-tenant serving, src/serving/tenant_manager.h).
  /// Empty means the default tenant. The TenantManager routes each request
  /// to its tenant's own service/cache/logs; the tag travels with the
  /// submission so shared pipeline stages — the BatchCoalescer in
  /// particular — never merge work across tenants even when one instance
  /// is (mis)shared between them.
  std::string tenant;

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }
};

struct ServiceOptions {
  std::string model_name = "default";
  size_t max_batch_size = 4096;  ///< Larger batches are rejected whole.
  /// Requests per pool task when fanning out a batch. 0 (the default) means
  /// adaptive: the batch is split into ~3 chunks per pool worker — enough
  /// slack for work stealing and chunk-granular preemption — then clamped
  /// to a per-lane cap (urgent 8, normal 64, bulk 256; see
  /// EffectiveChunkSize). Small chunks balance load and keep urgent
  /// latency low; large chunks amortize the claim/countdown round-trip and
  /// widen the cross-request dedup + compiled-forest sweeps, which is where
  /// the batched throughput comes from (measured: fixed chunk_size=8 left
  /// the batched uncached path ~30% *slower* than serial; adaptive sizing
  /// plus chunk-level grouping turned it into the 3x+ win BENCH_serving.json
  /// tracks). A non-zero value pins every batch's chunk size verbatim.
  size_t chunk_size = 0;
  /// Collapse identical requests inside a batch before fan-out: requests
  /// naming the same (plan, database, resource) — pointer identity — or a
  /// bitwise-equal operator payload are estimated once, and every duplicate
  /// receives a copy of the representative's result when the batch
  /// completes. Estimation is a pure function of (snapshot, request), so a
  /// duplicate could never observe a different double: bit-identity is free.
  /// Optimization sessions re-estimate the same plan many times per batch
  /// (the workload the estimate cache exists for), and dedup gives the
  /// uncached path the same collapse at pointer-compare cost; chunk sizing
  /// applies to the deduplicated work list. Off = every request is
  /// estimated independently (pre-dedup behavior).
  bool dedup_identical_requests = true;
  /// Cross-request (model_version, op, resource, features) estimate cache.
  bool enable_cache = true;
  size_t cache_capacity = 64 * 1024;  ///< Entries, across all shards.
  size_t cache_shards = 16;
  /// Observability/test seam: invoked on the executing thread each time a
  /// chunk is claimed — after the deadline check, before any request runs
  /// (`expired` tells which way it went). Must not call back into the
  /// service. Null (the default) costs nothing.
  std::function<void(TaskPriority priority, bool expired)> chunk_claim_hook;
};

/// Largest chunk an adaptively sized urgent batch is split into (the
/// urgent lane cap of EffectiveChunkSize). One chunk is the unit a single
/// thread runs without a preemption point, so it is also the largest urgent
/// batch EstimateInline is meant for: the HTTP front end answers urgent
/// requests of at most this many rows on its I/O thread.
inline constexpr size_t kUrgentChunkRows = 8;

/// Latency histogram: bucket `i` counts batches that completed in under
/// 2^i microseconds (the last bucket also absorbs anything slower). Coarse
/// by design — enough for a p99 trend line, cheap enough for the hot path.
inline constexpr size_t kServiceLatencyBuckets = 20;

/// Per-priority accounting of the batched pipeline (Estimate(), the
/// synchronous single-request path, bypasses the scheduler and is counted
/// only in the aggregate ServiceStats fields). Latency is measured per
/// batch, submission to completion; single-request Submits are one-request
/// batches, so their batch latency is the request latency.
struct PriorityLaneStats {
  uint64_t batches = 0;   ///< Batches finished at this priority.
  uint64_t requests = 0;  ///< Requests completed OK.
  uint64_t expired = 0;   ///< Requests expired by their deadline.
  double total_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  std::array<uint64_t, kServiceLatencyBuckets> latency_histogram{};

  double MeanLatencyMs() const {
    return batches == 0 ? 0.0 : total_latency_ms / static_cast<double>(batches);
  }
  /// Upper bound (ms) of the histogram bucket containing the p-th
  /// percentile batch (p in [0, 1]); 0 when no batch finished yet.
  double ApproxLatencyPercentileMs(double p) const;
};

/// Aggregate counters; values are monotonically increasing except
/// cache_entries (a point-in-time size).
struct ServiceStats {
  uint64_t requests = 0;          ///< Individual estimates served OK.
  uint64_t batches = 0;           ///< Batch calls accepted.
  uint64_t rejected_batches = 0;  ///< Batch calls rejected as oversized.
  uint64_t errors = 0;  ///< Non-OK requests other than deadline expiry.
  uint64_t deadline_expired = 0;  ///< Requests expired by their deadline.
  // Operator-estimate cache counters (all zero when the cache is disabled).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  size_t cache_entries = 0;
  /// Indexed by TaskPriority; see PriorityLaneStats.
  std::array<PriorityLaneStats, kNumTaskPriorities> priorities{};

  double CacheHitRate() const {
    return resest::CacheHitRate(cache_hits, cache_misses);
  }
  const PriorityLaneStats& ForPriority(TaskPriority p) const {
    return priorities[static_cast<size_t>(p)];
  }
};

/// Invoked exactly once per submitted batch, with one result per request in
/// request order. Runs on whichever thread completes the batch's last chunk
/// (a pool worker, or the submitter for degenerate/rejected batches).
/// Callbacks must not throw; an escaping exception is swallowed so batch
/// completion and service shutdown can never be derailed by a callback.
using BatchCallback = std::function<void(std::vector<EstimateResult>)>;
/// Single-request flavor of BatchCallback; same delivery guarantees.
using EstimateCallback = std::function<void(EstimateResult)>;

/// Thread-safe estimation front end. All methods may be called concurrently;
/// the registry and pool must outlive the service. The destructor blocks
/// until every submitted batch has completed (callbacks delivered, futures
/// ready), so in-flight work never touches a dead service.
///
/// Reentrancy: all entry points, including the blocking EstimateBatch, are
/// safe to call from tasks running on the service's own pool. Batches are
/// completion-driven (an atomic chunk countdown, finished by whichever
/// thread drains the last chunk), and a blocking caller helps execute its
/// own chunks instead of parking on workers — so even a saturated or
/// single-threaded pool cannot deadlock a nested call.
///
/// Priority: pool helper tasks are chunk drainers that serve the
/// highest-priority runnable batch at or above the lane they were seeded
/// on (FIFO within a priority), switching batches at chunk boundaries — a
/// bulk scan in progress delays an urgent probe by at most one chunk per
/// busy worker, while an urgent-lane pool slot never executes bulk work
/// (which would starve other normal-lane pool users). Blocking callers
/// only ever drain their own batch, so a blocking urgent caller never
/// executes bulk work either.
class EstimationService {
 public:
  EstimationService(const ModelRegistry* registry, ThreadPool* pool,
                    ServiceOptions options = {});
  ~EstimationService();

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  /// Estimates one plan on the calling thread (no pool hop).
  EstimateResult Estimate(const EstimateRequest& request) const;

  /// Estimates a batch, fanned out across the pool in chunks; blocks until
  /// every result is ready. The whole batch is served from one model
  /// snapshot, so all results carry the same model_version even if a
  /// publish races the call. Returns one result per request, in request
  /// order. Empty input returns an empty vector; oversized input returns
  /// kBatchTooLarge for every request; a batch whose deadline has already
  /// passed returns kDeadlineExceeded for every request without executing.
  /// Default submit options reproduce the pre-lane behavior: kNormal
  /// priority, no deadline (same for the Submit* entry points below).
  std::vector<EstimateResult> EstimateBatch(
      const std::vector<EstimateRequest>& requests,
      const SubmitOptions& submit_options = {}) const;

  /// Non-blocking batch submission: returns immediately with a future that
  /// becomes ready when the last chunk completes. Same semantics as
  /// EstimateBatch otherwise. The service copies `requests`; the pointed-to
  /// plans and databases must outlive completion.
  std::future<std::vector<EstimateResult>> SubmitBatch(
      std::vector<EstimateRequest> requests,
      const SubmitOptions& submit_options = {}) const;

  /// Callback flavor: `done` is invoked exactly once, possibly before this
  /// call returns (degenerate batches complete on the submitting thread).
  void SubmitBatch(std::vector<EstimateRequest> requests, BatchCallback done,
                   const SubmitOptions& submit_options = {}) const;

  /// Runs a batch to completion on the calling thread, as one chunk: no
  /// pool helpers, no scheduler queue, no cross-thread wake-up. Same
  /// admission, deadline, caching, dedup and stats as EstimateBatch, and
  /// bit-identical results. Meant for small latency-critical batches
  /// (urgent probes of at most kUrgentChunkRows rows answered on an I/O
  /// thread); a large batch would hold the caller for its whole duration.
  std::vector<EstimateResult> EstimateInline(
      std::vector<EstimateRequest> requests,
      const SubmitOptions& submit_options = {}) const;

  /// Non-blocking single-request submission (one pool hop).
  std::future<EstimateResult> SubmitEstimate(
      const EstimateRequest& request,
      const SubmitOptions& submit_options = {}) const;
  void SubmitEstimate(const EstimateRequest& request, EstimateCallback done,
                      const SubmitOptions& submit_options = {}) const;

  /// Per-pipeline estimates for one plan (scheduling granularity). An empty
  /// vector signals failure (no active model, or null plan/database) —
  /// served plans always have at least one pipeline. Not memoized.
  std::vector<double> EstimatePipelines(const EstimateRequest& request) const;

  /// Scopes the cache work of an upcoming (or just-performed) hot-swap to a
  /// delta publish: `version` is the newly published registry version and
  /// `ops` the (op, resource) slots it refitted. The refitted slots' now-
  /// dead entries are evicted immediately, and when the service first
  /// serves `version` it skips the full Clear it would otherwise perform —
  /// entries for untouched operators survive the swap and keep hitting
  /// (their keys carry per-slot versions, which a delta leaves unchanged;
  /// see ModelSnapshot::SlotVersion). Correctness never depends on this
  /// call: slot-version keying alone guarantees stale entries cannot hit —
  /// invalidation scope only decides how much live cache a swap preserves.
  /// Call it right after ModelRegistry::PublishDelta, before traffic is
  /// served from the new version (a request racing the call may still
  /// trigger the conservative full Clear).
  void InvalidateOperators(uint64_t version,
                           const std::vector<ModelSlotId>& ops);

  /// The chunk size a batch of `batch_size` requests at `priority` will be
  /// split with: options().chunk_size when non-zero, otherwise the adaptive
  /// policy (~3 chunks per pool worker, clamped to a per-lane cap — urgent
  /// batches take small chunks so they can be preempted and finished
  /// quickly, bulk batches large ones to maximize sweep width). Exposed so
  /// benches and dashboards can report the effective value next to
  /// throughput numbers.
  size_t EffectiveChunkSize(size_t batch_size, TaskPriority priority) const;

  ServiceStats stats() const;
  /// Full cache statistics including the per-shard breakdown (ServiceStats
  /// carries only the totals) — how an operator spots a skewed feature
  /// distribution hammering one shard of the live serving cache. All-zero
  /// with an empty `shards` vector when the cache is disabled.
  EstimateCacheStats cache_stats() const;
  const ServiceOptions& options() const { return options_; }

 private:
  struct BatchState;

  EstimateResult EstimateWith(const ModelSnapshot& snapshot,
                              const EstimateRequest& request) const;
  /// The grouped compiled-forest fast path for `count` consecutive requests
  /// (one scheduler chunk — the unit one thread serves). Every operator of
  /// every request in the chunk that misses the cache (all of them when the
  /// cache is disabled) is grouped by (operator type, resource), deduplicated
  /// bitwise (self-similar plans and repeated probes collapse to one
  /// prediction), and predicted in one batched sweep per group; each
  /// request's estimate is then summed in the canonical pre-order traversal
  /// order. Bit-identical to serial EstimateWith per request: batched
  /// predictions equal their scalar counterparts byte for byte, cache hits
  /// return memoized doubles, and each request's summation order is
  /// unchanged — only *which requests share a sweep* differs, and
  /// predictions are row-independent. All scratch (term values, extracted
  /// features, miss records, dedup tables, packing matrices) comes from
  /// `scratch`; the caller Reset()s it between chunks, so the steady-state
  /// chunk performs zero heap allocations. `snapshot` must be valid.
  void EstimateChunk(const ModelSnapshot& snapshot,
                     const EstimateRequest* requests, size_t count,
                     EstimateResult* results, Arena* scratch) const;
  /// Drops stale cache space when the active model version changes.
  void NoteServedVersion(uint64_t version) const;

  /// Builds a batch state; `results` pre-filled for degenerate batches
  /// (empty, oversized, expired-at-submit, no model).
  std::shared_ptr<BatchState> MakeBatch(std::vector<EstimateRequest> requests,
                                        const SubmitOptions& submit_options)
      const;
  /// Registers a runnable batch with the chunk scheduler and seeds pool
  /// helpers on its priority lane, or completes a degenerate batch inline.
  /// Never blocks.
  void LaunchBatch(const std::shared_ptr<BatchState>& state) const;
  /// Claims and runs one chunk of `state` (expiring it instead when the
  /// batch deadline has passed); finishes the batch when it was the last.
  /// Returns false once the batch's chunk cursor is exhausted.
  bool RunOneChunk(const std::shared_ptr<BatchState>& state) const;
  /// Drains all remaining chunks of one batch; used by blocking callers
  /// (who must only ever execute their own batch) and shutdown fallback.
  void RunChunks(const std::shared_ptr<BatchState>& state) const;
  /// Pool helper body: repeatedly serve the highest-priority runnable
  /// batch at priority >= lane_floor, one chunk at a time, until none has
  /// unclaimed chunks. The floor is the pool lane the helper was seeded
  /// on: a helper occupying an urgent pool slot must not drain bulk work
  /// there (it would starve other subsystems' normal-lane pool tasks);
  /// lower-lane helpers serve higher-priority batches freely — that is the
  /// chunk-granular preemption.
  void HelperLoop(TaskPriority lane_floor) const;
  /// Highest-priority batch with unclaimed chunks at priority >=
  /// lane_floor (FIFO within a priority), or null. Pops exhausted batches
  /// as it scans.
  std::shared_ptr<BatchState> PickRunnable(TaskPriority lane_floor) const;
  /// True when some runnable batch outranks `priority`; a cheap relaxed
  /// read so helpers stay on their current batch lock-free until there is
  /// a reason to switch.
  bool HigherPriorityRunnable(TaskPriority priority) const;
  /// Removes a completed batch from its scheduler lane.
  void UnscheduleBatch(const BatchState* state) const;
  /// Publishes results (promise or callback) and tallies per-request and
  /// per-priority stats. Called exactly once per batch, by whichever
  /// thread drains last.
  void FinishBatch(BatchState* state) const;

  /// In-flight accounting for pool helper tasks (each holds `this`); the
  /// destructor waits for the count to reach zero.
  void AcquireInflight() const;
  void ReleaseInflight() const;

  const ModelRegistry* registry_;
  ThreadPool* pool_;
  ServiceOptions options_;
  /// Pool threads per hardware thread, rounded up (>= 1); read once, since
  /// hardware_concurrency() reads sysfs on every call.
  size_t oversubscription_ = 1;
  mutable std::unique_ptr<EstimateCache> cache_;  ///< Null when disabled.

  mutable std::atomic<uint64_t> requests_{0};
  mutable std::atomic<uint64_t> batches_{0};
  mutable std::atomic<uint64_t> rejected_batches_{0};
  mutable std::atomic<uint64_t> errors_{0};
  mutable std::atomic<uint64_t> deadline_expired_{0};
  mutable std::atomic<uint64_t> served_version_{0};

  /// Versions whose swap was scoped by InvalidateOperators: serving one of
  /// these for the first time skips the full cache Clear (the delta's dead
  /// entries were already evicted). Bounded; stale marks are pruned as the
  /// served version advances past them.
  mutable std::mutex scoped_mu_;
  mutable std::vector<uint64_t> scoped_versions_;

  /// Per-priority accounting, aggregated into ServiceStats::priorities.
  struct LaneCounters {
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> expired{0};
    std::atomic<uint64_t> latency_total_us{0};
    std::atomic<uint64_t> latency_max_us{0};
    std::array<std::atomic<uint64_t>, kServiceLatencyBuckets> histogram{};
  };
  mutable std::array<LaneCounters, kNumTaskPriorities> lane_counters_;

  /// Chunk scheduler: runnable (non-degenerate, unexhausted) batches per
  /// priority, FIFO within a lane. Helpers always serve the front of the
  /// lowest-indexed non-empty lane at or above their floor.
  mutable std::mutex sched_mu_;
  mutable std::array<std::deque<std::shared_ptr<BatchState>>,
                     kNumTaskPriorities>
      runnable_;
  /// Mirror of each lane's deque size, readable without sched_mu_ — lets a
  /// helper poll "did higher-priority work arrive?" per chunk without
  /// serializing all chunk claims on the scheduler mutex.
  mutable std::array<std::atomic<size_t>, kNumTaskPriorities>
      runnable_count_{};

  mutable std::mutex inflight_mu_;
  mutable std::condition_variable inflight_idle_;
  /// Outstanding pool helper tasks (not batches: one batch holds up to
  /// min(num_chunks, pool threads) slots until its helpers exit).
  mutable size_t inflight_ = 0;
};

}  // namespace resest

#endif  // RESEST_SERVING_ESTIMATION_SERVICE_H_
