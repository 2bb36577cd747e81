// Sharded, bounded, version-keyed memoization of per-operator estimates.
//
// The paper's deployment sits inside a query optimizer, where the same
// (operator, feature-vector) pair recurs across thousands of candidate
// plans in one optimization session. Model inference is deterministic, so
// the service memoizes it across requests under the key
//   (model_version, operator type, resource, feature vector)
// Keying by model version makes invalidation automatic: a ModelRegistry
// hot-swap changes the version, every stale entry stops matching, and the
// per-shard LRU bound reclaims the dead entries under insertion pressure.
//
// Entries hold the exact double produced by
// ResourceEstimator::EstimateFromFeatures, so a hit is bit-identical to
// recomputing. Feature-vector equality is bitwise (see
// FeatureVectorHashEqual): a spurious mismatch costs one miss, while a
// value-based match could alias distinct inputs.
//
// Layout: each shard is flat and allocation-free in the steady state. A
// slab (vector) of entries holds every key, value and full 64-bit hash,
// threaded by uint32 index links onto the LRU list and onto one membership
// list per (op, resource) slot; freed entries are reused through a free
// list. An open-addressing index (linear probing, backward-shift deletion)
// maps hashes to slab positions; each index slot carries the low 32 hash
// bits, which are both the probe tag and the home bucket, so probing and
// shifting never touch the slab. Memory follows the entries, not the
// bound: the index doubles on demand, and the slab reserves the bound's
// address space once but its pages become resident only as entries are
// written, so a mostly idle cache (say a quiet tenant's) costs memory for
// the entries it holds, not its capacity.
//
// All methods are thread-safe; shards are independently locked so readers
// of different shards never contend.
#ifndef RESEST_SERVING_ESTIMATE_CACHE_H_
#define RESEST_SERVING_ESTIMATE_CACHE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/core/features.h"
#include "src/engine/plan.h"

namespace resest {

struct EstimateCacheOptions {
  size_t capacity = 64 * 1024;  ///< Total entries across all shards.
  size_t shards = 16;           ///< Clamped to at least 1.
};

/// Hit fraction of a (hits, misses) counter pair; 0 when nothing was
/// counted. Shared by EstimateCacheStats and ServiceStats.
inline double CacheHitRate(uint64_t hits, uint64_t misses) {
  const uint64_t total = hits + misses;
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

/// One shard's slice of the counters. Feature vectors are spread over
/// shards by hash, so a shard whose traffic dwarfs the others flags a
/// skewed feature distribution (a few hot operator keys) that the LRU
/// bound of that single shard then thrashes on.
struct EstimateCacheShardStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;  ///< Entries dropped by the shard's LRU bound.
  uint64_t invalidated = 0;  ///< Entries dropped by scoped EvictOperators.
  /// Entries EvictOperators examined while holding the shard mutex. The
  /// per-slot index makes this equal `invalidated` (only matching entries
  /// are ever visited); a regression back to a full LRU scan shows up as
  /// visited >> invalidated, which tests/estimate_cache_test.cc pins.
  uint64_t invalidate_visited = 0;
  size_t entries = 0;      ///< Current size (point-in-time, not monotonic).

  double HitRate() const { return CacheHitRate(hits, misses); }
};

/// Monotonic counters plus the current entry count, totalled across
/// shards; `shards` holds the per-shard breakdown in shard order.
struct EstimateCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;  ///< Entries dropped by the LRU bound.
  uint64_t invalidated = 0;  ///< Entries dropped by scoped EvictOperators.
  uint64_t invalidate_visited = 0;  ///< Entries examined by EvictOperators.
  size_t entries = 0;      ///< Current size (point-in-time, not monotonic).
  std::vector<EstimateCacheShardStats> shards;

  double HitRate() const { return CacheHitRate(hits, misses); }
};

/// Thread-safe sharded LRU map from (model_version, op, resource, features)
/// to a memoized per-operator estimate.
class EstimateCache {
 public:
  struct Key {
    uint64_t model_version = 0;
    OpType op = OpType::kTableScan;
    Resource resource = Resource::kCpu;
    FeatureVector features{};
  };

  explicit EstimateCache(EstimateCacheOptions options = {});

  /// True (and *value set) on a hit; promotes the entry to most-recent.
  bool Lookup(const Key& key, double* value);

  /// Inserts or refreshes an entry, evicting the shard's least-recently-used
  /// entry when the shard is at its bound.
  void Insert(const Key& key, double value);

  /// Drops every entry (counters are retained). Used when the service
  /// observes a *full* model hot-swap: version keying already guarantees
  /// stale entries never hit, Clear just reclaims their space immediately.
  void Clear();

  /// Scoped invalidation for a delta publish: drops only entries whose
  /// (op, resource) is in `ops`, across all versions — the refitted slots'
  /// old entries are the only ones a delta makes dead, so every other
  /// operator's entries survive (and keep hitting, since their slot-version
  /// keys are unchanged across the swap). Counters are retained; dropped
  /// entries count under `invalidated`, not `evictions`.
  ///
  /// Cost: O(matching entries) per shard, via the per-slot membership index
  /// — the shard mutex is held only long enough to unlink the refitted
  /// slots' own entries, so a wide delta refit cannot stall concurrent
  /// urgent Lookups behind a full LRU scan.
  void EvictOperators(const std::vector<ModelSlotId>& ops);

  EstimateCacheStats stats() const;
  size_t capacity() const { return shard_capacity_ * shards_.size(); }

 private:
  /// Reads the hash and layout so tests can build colliding probe runs.
  friend class EstimateCacheTestPeer;

  static constexpr uint32_t kNil = 0xffffffffu;

  /// One cached estimate in a shard's slab. `hash` is kept so removal finds
  /// the entry's index slot without rehashing the key.
  struct Entry {
    Key key;
    double value = 0.0;
    uint64_t hash = 0;
    uint32_t lru_prev = kNil;   ///< Towards the most recently used entry.
    uint32_t lru_next = kNil;   ///< Towards the LRU tail; free-list link.
    uint32_t slot_prev = kNil;  ///< Same-(op, resource) membership list.
    uint32_t slot_next = kNil;
  };

  /// One open-addressing index slot: `tag` is the low 32 bits of the key
  /// hash (probe filter and home bucket), `entry` a slab position or kNil.
  struct IndexSlot {
    uint32_t tag = 0;
    uint32_t entry = kNil;
  };

 public:
  /// Resident bytes one entry costs at capacity: its slab entry plus its
  /// share of the index, which stays at most half full (power-of-two
  /// rounding can add up to two more slots). The conversion factor behind
  /// --tenant-cache-mb.
  static constexpr size_t kBytesPerEntry =
      sizeof(Entry) + 2 * sizeof(IndexSlot);

 private:
  static uint64_t HashKey(const Key& k);
  static bool KeysEqual(const Key& a, const Key& b);
  static size_t SlotIndex(OpType op, Resource resource) {
    return static_cast<size_t>(op) * static_cast<size_t>(kNumResources) +
           static_cast<size_t>(resource);
  }

  struct Shard {
    std::mutex mu;
    std::vector<Entry> slab;
    std::vector<IndexSlot> index;  ///< Power-of-two size, or empty.
    uint32_t lru_head = kNil;      ///< Most recently used.
    uint32_t lru_tail = kNil;      ///< Least recently used: the next victim.
    uint32_t free_head = kNil;     ///< Slab entries released by erasure.
    size_t size = 0;
    /// Heads of the per-(op, resource) membership lists — the
    /// EvictOperators index.
    std::array<uint32_t, kNumModelSlots> slot_head;
    // Counters live with the shard (guarded by `mu`, which Lookup/Insert
    // already hold) so stats can report the per-shard traffic breakdown.
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t invalidated = 0;
    uint64_t invalidate_visited = 0;

    Shard() { slot_head.fill(kNil); }
  };

  Shard& ShardOf(uint64_t hash) const {
    return *shards_[(hash >> 32) % shards_.size()];
  }
  /// Slab position of `key` (whose hash is `hash`), or kNil.
  static uint32_t FindLocked(const Shard& shard, uint64_t hash,
                             const Key& key);
  /// Links a new entry for (key, value) at the front of the LRU and of its
  /// slot list and indexes it; the shard has room for it.
  void AddLocked(Shard& shard, uint64_t hash, const Key& key,
                 double value) const;
  /// Unlinks entry `e` from the index, its slot list and the LRU, and puts
  /// it on the free list. Caller holds the shard mutex and accounts for it.
  static void EraseLocked(Shard& shard, uint32_t e);
  static void UnlinkLru(Shard& shard, uint32_t e);
  static void PushFrontLru(Shard& shard, uint32_t e);
  /// Moves entry `e` to the most-recently-used end of the LRU.
  static void PromoteLocked(Shard& shard, uint32_t e);
  /// Doubles the index (at least 16 slots) and reinserts every tag.
  static void GrowIndex(Shard& shard);

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_capacity_;
};

}  // namespace resest

#endif  // RESEST_SERVING_ESTIMATE_CACHE_H_
