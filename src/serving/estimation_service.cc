#include "src/serving/estimation_service.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <thread>
#include <utility>

#include "src/core/estimator.h"

namespace resest {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedMicros(Clock::time_point start) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::now() - start);
  return us.count() < 0 ? 0 : static_cast<uint64_t>(us.count());
}

/// Per-thread chunk scratch (see Arena's lifetime rules): every thread that
/// executes chunks — pool workers, blocking submitters draining their own
/// batch, Estimate() callers — gets one warmed arena, Reset() at the start
/// of each chunk. After warm-up, chunk execution never touches the heap.
Arena& ChunkArena() {
  thread_local Arena arena(256 * 1024);
  return arena;
}

/// Histogram bucket for a latency: smallest i with latency_us < 2^i,
/// clamped to the last (open-ended) bucket.
size_t LatencyBucket(uint64_t latency_us) {
  size_t bucket = 0;
  while (bucket + 1 < kServiceLatencyBuckets &&
         latency_us >= (uint64_t{1} << bucket)) {
    ++bucket;
  }
  return bucket;
}

}  // namespace

double PriorityLaneStats::ApproxLatencyPercentileMs(double p) const {
  uint64_t total = 0;
  for (uint64_t count : latency_histogram) total += count;
  if (total == 0) return 0.0;
  p = std::min(1.0, std::max(0.0, p));
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(p * static_cast<double>(total) + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < kServiceLatencyBuckets; ++i) {
    seen += latency_histogram[i];
    if (seen >= target) {
      return static_cast<double>(uint64_t{1} << i) / 1000.0;
    }
  }
  return static_cast<double>(uint64_t{1} << (kServiceLatencyBuckets - 1)) /
         1000.0;
}

/// Shared state of one submitted batch. Owned jointly (shared_ptr) by its
/// pool helper tasks and, for blocking calls, the submitting frame; the
/// last chunk's owner completes it. Requests are
/// copied in so the state is self-contained after the submitting call
/// returns.
struct EstimationService::BatchState {
  std::vector<EstimateRequest> requests;
  std::vector<EstimateResult> results;
  ModelSnapshot snapshot;
  /// Batch-level identity dedup (ServiceOptions::dedup_identical_requests):
  /// when the batch contains duplicates, `reps` lists the first occurrence
  /// of each distinct request in request order and chunks cover `reps`
  /// instead of `requests`; dup_of[i] is the representative whose result
  /// request i copies in FinishBatch (dup_of[i] <= i, so the source is
  /// final by then). Both stay empty when every request is distinct —
  /// chunks then index `requests` directly, with no indirection cost.
  std::vector<uint32_t> reps;
  std::vector<uint32_t> dup_of;
  /// Chunked work items: reps.size() under dedup, requests.size() otherwise.
  size_t work_items = 0;
  size_t chunk_size = 1;
  size_t num_chunks = 0;
  /// Completed at creation (empty, rejected, expired, or no model): no
  /// chunks run.
  bool degenerate = false;
  /// Passed the admission checks (non-empty, within max_batch_size); only
  /// admitted batches count toward per-priority lane stats.
  bool admitted = false;

  TaskPriority priority = TaskPriority::kNormal;
  bool has_deadline = false;
  Clock::time_point deadline = Clock::time_point::max();
  Clock::time_point start;  ///< Submission time, for lane latency stats.

  std::atomic<size_t> next_chunk{0};   ///< Work-stealing chunk cursor.
  std::atomic<size_t> chunks_left{0};  ///< Countdown to completion.

  std::promise<std::vector<EstimateResult>> promise;
  bool has_promise = false;
  BatchCallback callback;
};

EstimationService::EstimationService(const ModelRegistry* registry,
                                     ThreadPool* pool, ServiceOptions options)
    : registry_(registry), pool_(pool), options_(std::move(options)) {
  const size_t workers = std::max<size_t>(1, pool_->num_threads());
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  oversubscription_ = (workers + hw - 1) / hw;
  if (options_.enable_cache) {
    EstimateCacheOptions cache_options;
    cache_options.capacity = options_.cache_capacity;
    cache_options.shards = options_.cache_shards;
    cache_ = std::make_unique<EstimateCache>(cache_options);
  }
}

EstimationService::~EstimationService() {
  // Every helper task holds `this`; wait for all of them so no in-flight
  // batch outlives the service (futures are ready and callbacks delivered
  // strictly before a task releases its in-flight slot).
  std::unique_lock<std::mutex> lock(inflight_mu_);
  inflight_idle_.wait(lock, [this]() { return inflight_ == 0; });
}

void EstimationService::AcquireInflight() const {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  ++inflight_;
}

void EstimationService::ReleaseInflight() const {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  if (--inflight_ == 0) inflight_idle_.notify_all();
}

void EstimationService::NoteServedVersion(uint64_t version) const {
  // Slot-version-keyed entries from an older model can never be hit again
  // after a hot-swap; clearing on the first request served from the new
  // version reclaims their space at once instead of waiting for LRU
  // pressure. Only a version *increase* acts: an in-flight batch still
  // serving the old snapshot (or a rollback via Activate) must not wipe
  // fresh entries — ping-ponging Clears would effectively disable the
  // cache, while stale entries are merely capacity pressure the LRU bound
  // already handles. A swap registered as a delta (InvalidateOperators)
  // skips the Clear entirely: the only dead entries it created — the
  // refitted slots' — were evicted at registration, and every other
  // operator's entries are still live under their unchanged slot versions.
  uint64_t prev = served_version_.load(std::memory_order_relaxed);
  while (prev < version) {
    if (served_version_.compare_exchange_weak(prev, version,
                                              std::memory_order_relaxed)) {
      if (prev == 0) return;
      bool scoped = false;
      {
        std::lock_guard<std::mutex> lock(scoped_mu_);
        for (auto it = scoped_versions_.begin();
             it != scoped_versions_.end();) {
          if (*it == version) scoped = true;
          it = *it <= version ? scoped_versions_.erase(it) : std::next(it);
        }
      }
      if (!scoped) cache_->Clear();
      return;
    }
  }
}

void EstimationService::InvalidateOperators(
    uint64_t version, const std::vector<ModelSlotId>& ops) {
  if (cache_ == nullptr) return;
  cache_->EvictOperators(ops);
  std::lock_guard<std::mutex> lock(scoped_mu_);
  if (version <= served_version_.load(std::memory_order_relaxed)) {
    // The swap was already observed (a request raced this call and took the
    // conservative full Clear); a stale mark would wrongly scope some
    // *future* unrelated swap to this delta.
    return;
  }
  scoped_versions_.push_back(version);
  if (scoped_versions_.size() > 8) {
    scoped_versions_.erase(scoped_versions_.begin());
  }
}

void EstimationService::EstimateChunk(const ModelSnapshot& snapshot,
                                      const EstimateRequest* requests,
                                      size_t count, EstimateResult* results,
                                      Arena* scratch) const {
  const ResourceEstimator& estimator = *snapshot.estimator;
  const FeatureMode mode = estimator.mode();
  if (cache_ != nullptr) NoteServedVersion(snapshot.version);

  // Each request's estimate is an ordered sum of per-operator terms (one
  // term for operator payloads). Pass 1 counts them so every scratch array
  // is allocated exactly once.
  size_t* term_offset = scratch->AllocateArray<size_t>(count + 1);
  size_t total_terms = 0;
  for (size_t i = 0; i < count; ++i) {
    term_offset[i] = total_terms;
    const EstimateRequest& req = requests[i];
    results[i] = EstimateResult{};
    results[i].model_version = snapshot.version;
    if (req.has_features) {
      ++total_terms;
    } else if (req.plan == nullptr || req.database == nullptr) {
      results[i].status = EstimateStatus::kInvalidRequest;
    } else {
      ForEachPlanOperator(*req.plan, [&total_terms](const PlanNode&,
                                                    const PlanNode*) {
        ++total_terms;
      });
    }
  }
  term_offset[count] = total_terms;

  double* values = scratch->AllocateArray<double>(total_terms);
  struct Miss {
    const FeatureVector* features;  ///< Request payload or `extracted` slot.
    uint32_t term;                  ///< Index into `values`.
    uint32_t slot;                  ///< op * kNumResources + resource.
  };
  Miss* misses = scratch->AllocateArray<Miss>(total_terms);
  FeatureVector* extracted = scratch->AllocateArray<FeatureVector>(total_terms);
  size_t num_misses = 0;

  // Pass 2: resolve every term to a fallback constant (untrained slot), a
  // cache hit (the exact double the original miss computed), or a miss
  // record for the grouped sweeps below. Keys carry the *slot* version —
  // the version at which this (op, resource) model last changed — not the
  // estimator version: a delta publish leaves untouched slots' versions
  // (and thus their live cache entries) intact, while refitted slots miss
  // exactly once and repopulate under the new version.
  size_t term = 0;
  for (size_t i = 0; i < count; ++i) {
    const EstimateRequest& req = requests[i];
    if (results[i].status != EstimateStatus::kOk) continue;
    const Resource resource = req.resource;
    // Resolves one term whose (op, resource) slot has a trained model.
    const auto resolve = [&](OpType op, const FeatureVector* features) {
      if (cache_ != nullptr) {
        EstimateCache::Key key;
        key.model_version = snapshot.SlotVersion(op, resource);
        key.op = op;
        key.resource = resource;
        key.features = *features;
        double value = 0.0;
        if (cache_->Lookup(key, &value)) {
          values[term++] = value;
          return;
        }
      }
      Miss& m = misses[num_misses++];
      m.features = features;
      m.term = static_cast<uint32_t>(term);
      m.slot = static_cast<uint32_t>(op) * kNumResources +
               static_cast<uint32_t>(resource);
      values[term++] = 0.0;
    };
    if (req.has_features) {
      if (estimator.ModelsFor(req.op, resource) == nullptr) {
        // Untrained slots estimate to a feature-free constant — hashing,
        // caching or batching them would only cost time, so take the
        // constant directly, exactly as the uncached path does.
        values[term++] = estimator.FallbackMean(req.op, resource);
      } else {
        resolve(req.op, &req.features);
      }
    } else {
      ForEachPlanOperator(
          *req.plan, [&](const PlanNode& node, const PlanNode* parent) {
            if (estimator.ModelsFor(node.type, resource) == nullptr) {
              values[term++] = estimator.FallbackMean(node.type, resource);
              return;
            }
            extracted[term] =
                ExtractFeatures(node, parent, *req.database, mode);
            resolve(node.type, &extracted[term]);
          });
    }
  }

  // Counting sort of the misses by (op, resource) slot — stable, so the
  // first miss of each distinct feature vector defines its cache entry.
  uint32_t* slot_offset = scratch->AllocateArray<uint32_t>(kNumModelSlots + 1);
  for (size_t s = 0; s <= kNumModelSlots; ++s) slot_offset[s] = 0;
  for (size_t m = 0; m < num_misses; ++m) ++slot_offset[misses[m].slot + 1];
  for (size_t s = 1; s <= kNumModelSlots; ++s) {
    slot_offset[s] += slot_offset[s - 1];
  }
  uint32_t* grouped = scratch->AllocateArray<uint32_t>(num_misses);
  {
    uint32_t* cursor = scratch->AllocateArray<uint32_t>(kNumModelSlots);
    for (size_t s = 0; s < kNumModelSlots; ++s) cursor[s] = slot_offset[s];
    for (size_t m = 0; m < num_misses; ++m) {
      grouped[cursor[misses[m].slot]++] = static_cast<uint32_t>(m);
    }
  }

  // One batched sweep per (op, resource) group, over the group's *distinct*
  // feature vectors: chunks repeat operators heavily (self-similar plans,
  // repeated probes), and bitwise-identical rows are — by the bit-identity
  // contract — guaranteed the same double, so each is predicted and
  // cache-inserted once. Dedup is an open-addressing table keyed by the
  // bitwise feature hash.
  constexpr uint32_t kEmpty = 0xffffffffu;
  for (size_t s = 0; s < kNumModelSlots; ++s) {
    const size_t begin = slot_offset[s], end = slot_offset[s + 1];
    if (begin == end) continue;
    const size_t group_size = end - begin;
    size_t cap = 4;
    while (cap < 2 * group_size) cap <<= 1;
    uint32_t* table = scratch->AllocateArray<uint32_t>(cap);
    for (size_t b = 0; b < cap; ++b) table[b] = kEmpty;
    const FeatureVector** rows =
        scratch->AllocateArray<const FeatureVector*>(group_size);
    uint32_t* defining_miss = scratch->AllocateArray<uint32_t>(group_size);
    uint32_t* row_of = scratch->AllocateArray<uint32_t>(group_size);
    uint32_t num_rows = 0;
    for (size_t p = begin; p < end; ++p) {
      const Miss& m = misses[grouped[p]];
      size_t b = HashFeatureVector(*m.features) & (cap - 1);
      while (true) {
        const uint32_t u = table[b];
        if (u == kEmpty) {
          table[b] = num_rows;
          rows[num_rows] = m.features;
          defining_miss[num_rows] = grouped[p];
          row_of[p - begin] = num_rows;
          ++num_rows;
          break;
        }
        if (FeatureVectorHashEqual(*rows[u], *m.features)) {
          row_of[p - begin] = u;
          break;
        }
        b = (b + 1) & (cap - 1);
      }
    }
    const OpType op = static_cast<OpType>(s / kNumResources);
    const Resource resource = static_cast<Resource>(s % kNumResources);
    double* sweep_out = scratch->AllocateArray<double>(num_rows);
    estimator.EstimateBatchFromFeatures(op, rows, num_rows, resource,
                                        sweep_out, scratch);
    for (size_t p = begin; p < end; ++p) {
      values[misses[grouped[p]].term] = sweep_out[row_of[p - begin]];
    }
    if (cache_ != nullptr) {
      for (uint32_t u = 0; u < num_rows; ++u) {
        EstimateCache::Key key;
        key.model_version = snapshot.SlotVersion(op, resource);
        key.op = op;
        key.resource = resource;
        key.features = *misses[defining_miss[u]].features;
        cache_->Insert(key, sweep_out[u]);
      }
    }
  }

  // Pass 3: each request sums its terms in the canonical pre-order — the
  // same order and the same doubles the serial path produces.
  for (size_t i = 0; i < count; ++i) {
    if (results[i].status != EstimateStatus::kOk) continue;
    double total = 0.0;
    for (size_t t = term_offset[i]; t < term_offset[i + 1]; ++t) {
      total += values[t];
    }
    results[i].value = total;
  }
}

EstimateResult EstimationService::EstimateWith(
    const ModelSnapshot& snapshot, const EstimateRequest& request) const {
  EstimateResult result;
  if (!snapshot) {
    result.status = EstimateStatus::kModelNotFound;
    return result;
  }
  Arena& arena = ChunkArena();
  arena.Reset();
  EstimateChunk(snapshot, &request, 1, &result, &arena);
  return result;
}

EstimateResult EstimationService::Estimate(
    const EstimateRequest& request) const {
  const EstimateResult result =
      EstimateWith(registry_->Get(options_.model_name), request);
  if (result.ok()) {
    requests_.fetch_add(1, std::memory_order_relaxed);
  } else {
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

std::shared_ptr<EstimationService::BatchState> EstimationService::MakeBatch(
    std::vector<EstimateRequest> requests,
    const SubmitOptions& submit_options) const {
  auto state = std::make_shared<BatchState>();
  state->requests = std::move(requests);
  state->priority = submit_options.priority;
  state->has_deadline = submit_options.has_deadline();
  state->deadline = submit_options.deadline;
  state->start = Clock::now();
  const size_t n = state->requests.size();
  state->results.resize(n);
  if (n == 0) {
    state->degenerate = true;
    return state;
  }
  if (n > options_.max_batch_size) {
    rejected_batches_.fetch_add(1, std::memory_order_relaxed);
    for (auto& r : state->results) r.status = EstimateStatus::kBatchTooLarge;
    state->degenerate = true;
    return state;
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  state->admitted = true;

  // One snapshot for the whole batch: a concurrent Publish never splits a
  // batch across model versions. Fetched before the expiry check (a
  // registry read, not execution) so expired-at-submit results carry the
  // same model_version a per-chunk expiry would.
  state->snapshot = registry_->Get(options_.model_name);

  // A batch submitted past its own deadline expires whole — expiry wins
  // over a missing model: nothing executes, no cache traffic.
  if (state->has_deadline && state->start > state->deadline) {
    for (auto& r : state->results) {
      r.status = EstimateStatus::kDeadlineExceeded;
      r.model_version = state->snapshot.version;
    }
    state->degenerate = true;
    return state;
  }

  if (!state->snapshot) {
    for (auto& r : state->results) r.status = EstimateStatus::kModelNotFound;
    state->degenerate = true;
    return state;
  }

  // Identity dedup: collapse requests that are the same computation. A
  // request is a pure function of (snapshot, plan, database, resource) —
  // or of (op, features, resource) for operator payloads — so duplicates
  // within one batch (an optimizer re-costing the same plan per candidate,
  // a probe repeated across a batch) are one unit of work, not many. Keys
  // are pointer identity for plan requests (no plan traversal, no feature
  // hashing at admission time) and the bitwise feature hash for operator
  // payloads. Chunk sizing below runs over the deduplicated work list;
  // FinishBatch copies each representative's result to its duplicates.
  if (options_.dedup_identical_requests && n > 1) {
    const auto hash_of = [](const EstimateRequest& r) -> size_t {
      size_t h;
      if (r.has_features) {
        h = HashFeatureVector(r.features);
        h ^= (static_cast<size_t>(r.op) << 1) | 1u;
      } else {
        h = reinterpret_cast<uintptr_t>(r.plan) >> 4;
        h = h * 0x9e3779b97f4a7c15ull +
            (reinterpret_cast<uintptr_t>(r.database) >> 4);
      }
      h = h * 0x9e3779b97f4a7c15ull + static_cast<size_t>(r.resource);
      h ^= h >> 29;
      return h;
    };
    const auto same = [](const EstimateRequest& a, const EstimateRequest& b) {
      if (a.resource != b.resource || a.has_features != b.has_features) {
        return false;
      }
      if (a.has_features) {
        return a.op == b.op && FeatureVectorHashEqual(a.features, b.features);
      }
      return a.plan == b.plan && a.database == b.database;
    };
    constexpr uint32_t kEmpty = 0xffffffffu;
    size_t cap = 4;
    while (cap < 2 * n) cap <<= 1;
    std::vector<uint32_t> table(cap, kEmpty);
    state->dup_of.resize(n);
    state->reps.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const EstimateRequest& req = state->requests[i];
      size_t b = hash_of(req) & (cap - 1);
      while (true) {
        const uint32_t u = table[b];
        if (u == kEmpty) {
          table[b] = static_cast<uint32_t>(i);
          state->dup_of[i] = static_cast<uint32_t>(i);
          state->reps.push_back(static_cast<uint32_t>(i));
          break;
        }
        if (same(state->requests[u], req)) {
          state->dup_of[i] = u;
          break;
        }
        b = (b + 1) & (cap - 1);
      }
    }
    if (state->reps.size() == n) {
      // All distinct: drop the indirection so chunks read `requests`
      // contiguously (the common case for non-repeating streams).
      state->reps.clear();
      state->reps.shrink_to_fit();
      state->dup_of.clear();
      state->dup_of.shrink_to_fit();
    }
  }
  state->work_items = state->reps.empty() ? n : state->reps.size();

  state->chunk_size = EffectiveChunkSize(state->work_items, state->priority);
  state->num_chunks =
      (state->work_items + state->chunk_size - 1) / state->chunk_size;
  state->chunks_left.store(state->num_chunks, std::memory_order_relaxed);
  return state;
}

size_t EstimationService::EffectiveChunkSize(size_t batch_size,
                                             TaskPriority priority) const {
  if (options_.chunk_size != 0) return options_.chunk_size;
  if (batch_size == 0) return 1;
  // ~3 chunks per worker: enough granularity for stealing and for urgent
  // batches to preempt at chunk boundaries, while keeping the per-chunk
  // claim/countdown overhead amortized over many requests.
  const size_t workers = std::max<size_t>(1, pool_->num_threads());
  size_t chunk = (batch_size + 3 * workers - 1) / (3 * workers);
  // Lane caps: an urgent batch wants small chunks (its latency is bounded
  // by its largest chunk, and other lanes preempt between chunks); a bulk
  // batch wants wide chunks (maximum dedup + sweep width, and it is the
  // work being preempted, not doing the preempting). Measured on the
  // serving bench: normal-lane 64 is past the knee of the claim-overhead
  // curve while still splitting a 2k-request batch 30+ ways.
  size_t cap = 64;
  if (priority == TaskPriority::kUrgent) {
    cap = kUrgentChunkRows;
  } else if (priority == TaskPriority::kBulk) {
    cap = 256;
  }
  // Oversubscription correction: chunk boundaries are the preemption points,
  // and their wall-clock cadence is what bounds urgent latency under load.
  // When the pool runs more threads than the host has cores, every chunk's
  // wall time is stretched by the timeslice factor (N threads sharing one
  // core make one chunk take ~N times longer to reach its boundary), so a
  // bulk cap tuned for a dedicated core leaves urgent probes stranded for
  // tens of milliseconds on a small host. Shrink the non-urgent caps by the
  // oversubscription factor — a no-op when the pool fits the hardware — with
  // a floor that keeps the dedup/sweep width past the knee where batching
  // stops paying.
  if (priority != TaskPriority::kUrgent && oversubscription_ > 1) {
    cap = std::max<size_t>(32, cap / oversubscription_);
  }
  return std::max<size_t>(1, std::min(chunk, cap));
}

bool EstimationService::RunOneChunk(
    const std::shared_ptr<BatchState>& state) const {
  BatchState& batch = *state;
  const size_t chunk = batch.next_chunk.fetch_add(1, std::memory_order_relaxed);
  if (chunk >= batch.num_chunks) return false;
  const size_t begin = chunk * batch.chunk_size;
  const size_t end = std::min(begin + batch.chunk_size, batch.work_items);
  // Chunks cover the deduplicated work list when the batch had duplicates
  // (BatchState::reps); request_at maps a work index to the request it
  // represents. Duplicates receive their copies in FinishBatch.
  const bool dedup = !batch.reps.empty();
  const auto request_at = [&](size_t i) -> size_t {
    return dedup ? batch.reps[i] : i;
  };
  // Best-effort deadline: decided once, when the chunk starts. A chunk that
  // begins before the deadline always runs to completion (results stay
  // bit-identical for every request that completes); one that would begin
  // after it expires without executing.
  const bool expired = batch.has_deadline && Clock::now() > batch.deadline;
  if (options_.chunk_claim_hook) {
    options_.chunk_claim_hook(batch.priority, expired);
  }
  if (expired) {
    for (size_t i = begin; i < end; ++i) {
      EstimateResult& r = batch.results[request_at(i)];
      r = EstimateResult{};
      r.status = EstimateStatus::kDeadlineExceeded;
      r.model_version = batch.snapshot.version;
    }
  } else {
    Arena& arena = ChunkArena();
    arena.Reset();
    const size_t chunk_count = end - begin;
    // EstimateChunk wants contiguous requests/results; under dedup the
    // representatives are scattered, so pack them into arena scratch (a
    // few hundred bytes per request, reclaimed by the next Reset) and
    // scatter the results back.
    const EstimateRequest* chunk_requests;
    EstimateResult* chunk_results;
    if (dedup) {
      EstimateRequest* packed =
          arena.AllocateArray<EstimateRequest>(chunk_count);
      for (size_t i = 0; i < chunk_count; ++i) {
        std::memcpy(&packed[i], &batch.requests[request_at(begin + i)],
                    sizeof(EstimateRequest));
      }
      chunk_requests = packed;
      chunk_results = arena.AllocateArray<EstimateResult>(chunk_count);
    } else {
      chunk_requests = batch.requests.data() + begin;
      chunk_results = batch.results.data() + begin;
    }
    try {
      EstimateChunk(batch.snapshot, chunk_requests, chunk_count, chunk_results,
                    &arena);
      if (dedup) {
        for (size_t i = 0; i < chunk_count; ++i) {
          batch.results[request_at(begin + i)] = chunk_results[i];
        }
      }
    } catch (...) {
      // Estimation only throws on resource exhaustion (allocation), and the
      // grouped chunk's scratch is the biggest allocation on the path —
      // retry each request alone before giving up on it. Surfacing failures
      // per-request keeps the promise and callback flavors identical, and
      // the countdown still reaches zero so completion is delivered exactly
      // once. (Reset() below frees the packed copies too, so the retries
      // read the originals straight from the batch.)
      for (size_t i = begin; i < end; ++i) {
        EstimateResult& r = batch.results[request_at(i)];
        try {
          arena.Reset();
          EstimateChunk(batch.snapshot, &batch.requests[request_at(i)], 1, &r,
                        &arena);
        } catch (...) {
          r = EstimateResult{};
          r.status = EstimateStatus::kInternalError;
          r.model_version = batch.snapshot.version;
        }
      }
    }
  }
  // acq_rel: the final decrement observes every other chunk's writes, so
  // the finisher publishes fully-written results.
  if (batch.chunks_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    FinishBatch(&batch);
  }
  return true;
}

void EstimationService::RunChunks(
    const std::shared_ptr<BatchState>& state) const {
  while (RunOneChunk(state)) {
  }
}

bool EstimationService::SubmitHelper(
    const std::shared_ptr<BatchState>& state) const {
  try {
    pool_->Submit(state->priority,
                  [this, state]() mutable { HelperLoop(std::move(state)); });
    return true;
  } catch (...) {
    return false;  // Pool shutting down.
  }
}

void EstimationService::HelperLoop(std::shared_ptr<BatchState> state) const {
  // The yield check is one relaxed read per chunk and sees every pool
  // user's queued work, not just this service's. A re-queue the pool
  // refuses (shutdown) just keeps draining here.
  while (RunOneChunk(state)) {
    if (pool_->HigherLaneQueued(state->priority) &&
        state->next_chunk.load(std::memory_order_relaxed) <
            state->num_chunks &&
        SubmitHelper(state)) {
      return;
    }
  }
  // Drop the batch (and any callback it holds) while the service is still
  // alive: the destructor may return as soon as the slot is released.
  state.reset();
  ReleaseInflight();
}

void EstimationService::FinishBatch(BatchState* state) const {
  // Deliver the identity-dedup duplicates: every request copies its
  // representative's result (value, status and version alike — an expired
  // or failed representative expires or fails its duplicates too).
  // dup_of[i] <= i, so each source slot is final before it is read.
  if (!state->dup_of.empty()) {
    for (size_t i = 0; i < state->results.size(); ++i) {
      const uint32_t rep = state->dup_of[i];
      if (rep != i) state->results[i] = state->results[rep];
    }
  }
  uint64_t ok = 0, expired = 0, failed = 0;
  for (const auto& r : state->results) {
    if (r.ok()) {
      ++ok;
    } else if (r.status == EstimateStatus::kDeadlineExceeded) {
      ++expired;
    } else {
      ++failed;
    }
  }
  requests_.fetch_add(ok, std::memory_order_relaxed);
  errors_.fetch_add(failed, std::memory_order_relaxed);
  deadline_expired_.fetch_add(expired, std::memory_order_relaxed);
  if (state->admitted) {
    LaneCounters& lane = lane_counters_[static_cast<size_t>(state->priority)];
    lane.batches.fetch_add(1, std::memory_order_relaxed);
    lane.requests.fetch_add(ok, std::memory_order_relaxed);
    lane.expired.fetch_add(expired, std::memory_order_relaxed);
    const uint64_t us = ElapsedMicros(state->start);
    lane.latency_total_us.fetch_add(us, std::memory_order_relaxed);
    uint64_t prev_max = lane.latency_max_us.load(std::memory_order_relaxed);
    while (prev_max < us &&
           !lane.latency_max_us.compare_exchange_weak(
               prev_max, us, std::memory_order_relaxed)) {
    }
    lane.histogram[LatencyBucket(us)].fetch_add(1, std::memory_order_relaxed);
  }
  if (state->has_promise) {
    state->promise.set_value(std::move(state->results));
  } else if (state->callback) {
    try {
      state->callback(std::move(state->results));
    } catch (...) {
      // Swallow: a throwing callback must not prevent the helper task from
      // releasing its in-flight slot (the destructor waits on that count).
    }
  }
}

void EstimationService::LaunchBatch(
    const std::shared_ptr<BatchState>& state) const {
  if (state->degenerate) {
    FinishBatch(state.get());
    return;
  }
  // Seed one helper per available worker (never more than there are
  // chunks) on the batch's pool lane. Every batch's completion rests on its
  // own helpers (and, for blocking calls, its submitter), so a stalled or
  // saturated pool only reduces parallelism, never correctness.
  const size_t helpers = std::min(state->num_chunks, pool_->num_threads());
  for (size_t i = 0; i < helpers; ++i) {
    AcquireInflight();
    if (!SubmitHelper(state)) {
      // Pool shutting down: run this batch's remaining chunks on this
      // thread so the batch still completes (the pool contract is that the
      // service outlives it, but degrade gracefully rather than dropping
      // work).
      ReleaseInflight();
      RunChunks(state);
      return;
    }
  }
}

std::vector<EstimateResult> EstimationService::EstimateBatch(
    const std::vector<EstimateRequest>& requests,
    const SubmitOptions& submit_options) const {
  auto state = MakeBatch(requests, submit_options);
  state->has_promise = true;
  auto future = state->promise.get_future();
  LaunchBatch(state);
  // Help drain our own chunks — and only our own: a caller running on a
  // pool worker finishes the whole batch itself if no other worker is free
  // (which is what makes nested blocking calls deadlock-free), and a
  // blocking urgent caller never burns its thread on queued bulk work.
  if (!state->degenerate) RunChunks(state);
  return future.get();
}

std::future<std::vector<EstimateResult>> EstimationService::SubmitBatch(
    std::vector<EstimateRequest> requests,
    const SubmitOptions& submit_options) const {
  auto state = MakeBatch(std::move(requests), submit_options);
  state->has_promise = true;
  auto future = state->promise.get_future();
  LaunchBatch(state);
  return future;
}

void EstimationService::SubmitBatch(std::vector<EstimateRequest> requests,
                                    BatchCallback done,
                                    const SubmitOptions& submit_options) const {
  auto state = MakeBatch(std::move(requests), submit_options);
  state->callback = std::move(done);
  LaunchBatch(state);
}

std::vector<EstimateResult> EstimationService::EstimateInline(
    std::vector<EstimateRequest> requests,
    const SubmitOptions& submit_options) const {
  auto state = MakeBatch(std::move(requests), submit_options);
  if (state->degenerate) {
    FinishBatch(state.get());
  } else {
    // One chunk: nothing else can run it, so splitting would only repeat
    // the per-chunk setup and narrow the sweep.
    state->chunk_size = state->work_items;
    state->num_chunks = 1;
    state->chunks_left.store(1, std::memory_order_relaxed);
    RunOneChunk(state);
  }
  // No promise or callback: FinishBatch left the results in place.
  return std::move(state->results);
}

std::future<EstimateResult> EstimationService::SubmitEstimate(
    const EstimateRequest& request,
    const SubmitOptions& submit_options) const {
  auto result = std::make_shared<std::promise<EstimateResult>>();
  std::future<EstimateResult> future = result->get_future();
  SubmitBatch(std::vector<EstimateRequest>{request},
              [result](std::vector<EstimateResult> results) {
                result->set_value(std::move(results.front()));
              },
              submit_options);
  return future;
}

void EstimationService::SubmitEstimate(const EstimateRequest& request,
                                       EstimateCallback done,
                                       const SubmitOptions& submit_options)
    const {
  SubmitBatch(std::vector<EstimateRequest>{request},
              [done = std::move(done)](std::vector<EstimateResult> results) {
                done(std::move(results.front()));
              },
              submit_options);
}

std::vector<double> EstimationService::EstimatePipelines(
    const EstimateRequest& request) const {
  const ModelSnapshot snapshot = registry_->Get(options_.model_name);
  if (!snapshot || request.plan == nullptr || request.database == nullptr) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  return snapshot.estimator->EstimatePipelines(*request.plan, *request.database,
                                               request.resource);
}

ServiceStats EstimationService::stats() const {
  ServiceStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.rejected_batches = rejected_batches_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  for (size_t p = 0; p < kNumTaskPriorities; ++p) {
    const LaneCounters& src = lane_counters_[p];
    PriorityLaneStats& dst = s.priorities[p];
    dst.batches = src.batches.load(std::memory_order_relaxed);
    dst.requests = src.requests.load(std::memory_order_relaxed);
    dst.expired = src.expired.load(std::memory_order_relaxed);
    dst.total_latency_ms =
        static_cast<double>(
            src.latency_total_us.load(std::memory_order_relaxed)) /
        1000.0;
    dst.max_latency_ms =
        static_cast<double>(
            src.latency_max_us.load(std::memory_order_relaxed)) /
        1000.0;
    for (size_t b = 0; b < kServiceLatencyBuckets; ++b) {
      dst.latency_histogram[b] =
          src.histogram[b].load(std::memory_order_relaxed);
    }
  }
  if (cache_) {
    const EstimateCacheStats cache_stats = cache_->stats();
    s.cache_hits = cache_stats.hits;
    s.cache_misses = cache_stats.misses;
    s.cache_evictions = cache_stats.evictions;
    s.cache_entries = cache_stats.entries;
  }
  return s;
}

EstimateCacheStats EstimationService::cache_stats() const {
  return cache_ ? cache_->stats() : EstimateCacheStats{};
}

}  // namespace resest
