// Tests for the cross-request operator-estimate cache: the EstimateCache
// container itself (counters, LRU eviction, version-keyed entries) and its
// integration into EstimationService (bit-identical hits, invalidation when
// a publish hot-swaps the model mid-stream).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <list>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/thread_pool.h"
#include "src/serving/estimate_cache.h"
#include "src/serving/estimation_service.h"
#include "src/serving/model_registry.h"
#include "src/workload/runner.h"
#include "src/workload/schemas.h"
#include "src/workload/tpch_queries.h"

namespace resest {

class EstimateCacheTestPeer {
 public:
  static uint64_t Hash(const EstimateCache::Key& key) {
    return EstimateCache::HashKey(key);
  }
  static size_t IndexSlots(const EstimateCache& cache) {
    return cache.shards_[0]->index.size();
  }
  static size_t SlabEntries(const EstimateCache& cache) {
    return cache.shards_[0]->slab.size();
  }
};

namespace {

// ---------------------------------------------------------------------------
// FeatureVector hashing / equality (the cache's key primitives)
// ---------------------------------------------------------------------------

TEST(FeatureVectorHashTest, EqualVectorsHashEqual) {
  FeatureVector a{};
  a.fill(0.0);
  a[0] = 1.5;
  a[3] = -2.25;
  FeatureVector b = a;
  EXPECT_TRUE(FeatureVectorHashEqual(a, b));
  EXPECT_EQ(HashFeatureVector(a), HashFeatureVector(b));
}

TEST(FeatureVectorHashTest, DifferentVectorsHashDifferently) {
  FeatureVector a{};
  a.fill(0.0);
  FeatureVector b = a;
  b[5] = 1.0;
  EXPECT_FALSE(FeatureVectorHashEqual(a, b));
  EXPECT_NE(HashFeatureVector(a), HashFeatureVector(b));
}

TEST(FeatureVectorHashTest, BitwiseSemanticsForZeroAndNan) {
  FeatureVector pos{};
  pos.fill(0.0);
  FeatureVector neg = pos;
  neg[0] = -0.0;
  // -0.0 == +0.0 under operator==, but the bitwise notion keeps equality
  // consistent with the bit-pattern hash: they are distinct keys.
  EXPECT_FALSE(FeatureVectorHashEqual(pos, neg));
  EXPECT_NE(HashFeatureVector(pos), HashFeatureVector(neg));
  // NaN never compares == to itself, but identical NaN bits are one key.
  FeatureVector nan_a{};
  nan_a.fill(0.0);
  nan_a[1] = std::nan("");
  FeatureVector nan_b = nan_a;
  EXPECT_TRUE(FeatureVectorHashEqual(nan_a, nan_b));
  EXPECT_EQ(HashFeatureVector(nan_a), HashFeatureVector(nan_b));
}

// ---------------------------------------------------------------------------
// EstimateCache container semantics
// ---------------------------------------------------------------------------

EstimateCache::Key MakeKey(uint64_t version, double distinguishing_value) {
  EstimateCache::Key key;
  key.model_version = version;
  key.op = OpType::kHashJoin;
  key.resource = Resource::kCpu;
  key.features.fill(0.0);
  key.features[0] = distinguishing_value;
  return key;
}

TEST(EstimateCacheTest, MissInsertHitCounters) {
  EstimateCache cache;
  double value = 0.0;
  EXPECT_FALSE(cache.Lookup(MakeKey(1, 10.0), &value));
  cache.Insert(MakeKey(1, 10.0), 42.5);
  ASSERT_TRUE(cache.Lookup(MakeKey(1, 10.0), &value));
  EXPECT_EQ(value, 42.5);

  const EstimateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(EstimateCacheTest, VersionIsPartOfTheKey) {
  EstimateCache cache;
  cache.Insert(MakeKey(1, 10.0), 1.0);
  double value = 0.0;
  // Same (op, resource, features) under a new model version: a miss.
  EXPECT_FALSE(cache.Lookup(MakeKey(2, 10.0), &value));
  cache.Insert(MakeKey(2, 10.0), 2.0);
  ASSERT_TRUE(cache.Lookup(MakeKey(1, 10.0), &value));
  EXPECT_EQ(value, 1.0);
  ASSERT_TRUE(cache.Lookup(MakeKey(2, 10.0), &value));
  EXPECT_EQ(value, 2.0);
}

TEST(EstimateCacheTest, EvictsLeastRecentlyUsedUnderBound) {
  EstimateCacheOptions options;
  options.capacity = 3;
  options.shards = 1;  // single shard so the bound is exact
  EstimateCache cache(options);
  cache.Insert(MakeKey(1, 1.0), 1.0);
  cache.Insert(MakeKey(1, 2.0), 2.0);
  cache.Insert(MakeKey(1, 3.0), 3.0);

  double value = 0.0;
  ASSERT_TRUE(cache.Lookup(MakeKey(1, 1.0), &value));  // promote key 1

  cache.Insert(MakeKey(1, 4.0), 4.0);  // bound exceeded: evict LRU (key 2)
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_TRUE(cache.Lookup(MakeKey(1, 1.0), &value));
  EXPECT_FALSE(cache.Lookup(MakeKey(1, 2.0), &value));
  EXPECT_TRUE(cache.Lookup(MakeKey(1, 3.0), &value));
  EXPECT_TRUE(cache.Lookup(MakeKey(1, 4.0), &value));
}

TEST(EstimateCacheTest, SingleShardBreakdownMatchesAggregate) {
  EstimateCacheOptions options;
  options.shards = 1;
  EstimateCache cache(options);
  double value = 0.0;
  cache.Lookup(MakeKey(1, 1.0), &value);  // miss
  cache.Insert(MakeKey(1, 1.0), 1.0);
  cache.Lookup(MakeKey(1, 1.0), &value);  // hit

  const EstimateCacheStats stats = cache.stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].hits, stats.hits);
  EXPECT_EQ(stats.shards[0].misses, stats.misses);
  EXPECT_EQ(stats.shards[0].insertions, stats.insertions);
  EXPECT_EQ(stats.shards[0].evictions, stats.evictions);
  EXPECT_EQ(stats.shards[0].entries, stats.entries);
  EXPECT_DOUBLE_EQ(stats.shards[0].HitRate(), stats.HitRate());
}

TEST(EstimateCacheTest, PerShardCountersSumToAggregate) {
  EstimateCacheOptions options;
  options.shards = 4;
  EstimateCache cache(options);
  double value = 0.0;
  for (int i = 0; i < 64; ++i) {
    const auto key = MakeKey(1, static_cast<double>(i));
    cache.Lookup(key, &value);  // miss
    cache.Insert(key, static_cast<double>(i));
    cache.Lookup(key, &value);  // hit
  }

  const EstimateCacheStats stats = cache.stats();
  ASSERT_EQ(stats.shards.size(), 4u);
  uint64_t hits = 0, misses = 0, insertions = 0, evictions = 0;
  size_t entries = 0, populated_shards = 0;
  for (const EstimateCacheShardStats& shard : stats.shards) {
    hits += shard.hits;
    misses += shard.misses;
    insertions += shard.insertions;
    evictions += shard.evictions;
    entries += shard.entries;
    if (shard.entries > 0) ++populated_shards;
  }
  EXPECT_EQ(hits, stats.hits);
  EXPECT_EQ(misses, stats.misses);
  EXPECT_EQ(insertions, stats.insertions);
  EXPECT_EQ(evictions, stats.evictions);
  EXPECT_EQ(entries, stats.entries);
  // 64 distinct feature vectors hash across shards: more than one shard
  // sees traffic (the point of the breakdown is spotting when they don't).
  EXPECT_GT(populated_shards, 1u);
}

TEST(EstimateCacheTest, SkewedKeyTrafficLandsOnOneShard) {
  EstimateCacheOptions options;
  options.shards = 8;
  EstimateCache cache(options);
  // A single hot key — the skewed-feature-distribution scenario the
  // per-shard counters exist to expose.
  cache.Insert(MakeKey(1, 42.0), 7.0);
  double value = 0.0;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cache.Lookup(MakeKey(1, 42.0), &value));
  }

  const EstimateCacheStats stats = cache.stats();
  ASSERT_EQ(stats.shards.size(), 8u);
  size_t shards_with_hits = 0;
  uint64_t max_shard_hits = 0;
  for (const EstimateCacheShardStats& shard : stats.shards) {
    if (shard.hits > 0) ++shards_with_hits;
    max_shard_hits = std::max(max_shard_hits, shard.hits);
  }
  EXPECT_EQ(shards_with_hits, 1u);
  EXPECT_EQ(max_shard_hits, 100u);
  EXPECT_EQ(stats.hits, 100u);
}

EstimateCache::Key MakeSlotKey(OpType op, Resource resource, double value) {
  EstimateCache::Key key;
  key.model_version = 1;
  key.op = op;
  key.resource = resource;
  key.features.fill(0.0);
  key.features[0] = value;
  return key;
}

TEST(EstimateCacheTest, EvictOperatorsDropsOnlyMatchingSlots) {
  EstimateCacheOptions options;
  options.shards = 4;
  EstimateCache cache(options);
  // A mixed population across three slots; the kSort/kCpu slot also gets
  // entries under two versions (scoped eviction must drop all versions of
  // a refitted slot — every one of them is dead after the refit).
  for (int i = 0; i < 16; ++i) {
    cache.Insert(MakeSlotKey(OpType::kSort, Resource::kCpu, i), 1.0);
    cache.Insert(MakeSlotKey(OpType::kSort, Resource::kIo, i), 2.0);
    cache.Insert(MakeSlotKey(OpType::kHashJoin, Resource::kCpu, i), 3.0);
  }
  auto old_version = MakeSlotKey(OpType::kSort, Resource::kCpu, 99.0);
  old_version.model_version = 7;
  cache.Insert(old_version, 4.0);
  ASSERT_EQ(cache.stats().entries, 49u);

  cache.EvictOperators({{OpType::kSort, Resource::kCpu}});

  const EstimateCacheStats stats = cache.stats();
  // Exactly the 17 kSort/kCpu entries dropped, accounted as scoped
  // invalidations — LRU eviction counters untouched.
  EXPECT_EQ(stats.entries, 32u);
  EXPECT_EQ(stats.invalidated, 17u);
  EXPECT_EQ(stats.evictions, 0u);
  uint64_t shard_invalidated = 0;
  size_t shard_entries = 0;
  for (const EstimateCacheShardStats& shard : stats.shards) {
    shard_invalidated += shard.invalidated;
    shard_entries += shard.entries;
  }
  EXPECT_EQ(shard_invalidated, stats.invalidated);
  EXPECT_EQ(shard_entries, stats.entries);

  // The untouched slots still hit; the refitted slot misses.
  double value = 0.0;
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(
        cache.Lookup(MakeSlotKey(OpType::kSort, Resource::kCpu, i), &value));
    ASSERT_TRUE(
        cache.Lookup(MakeSlotKey(OpType::kSort, Resource::kIo, i), &value));
    EXPECT_EQ(value, 2.0);
    ASSERT_TRUE(cache.Lookup(MakeSlotKey(OpType::kHashJoin, Resource::kCpu, i),
                             &value));
    EXPECT_EQ(value, 3.0);
  }
  EXPECT_FALSE(cache.Lookup(old_version, &value));

  // An empty scope is a no-op.
  cache.EvictOperators({});
  EXPECT_EQ(cache.stats().entries, 32u);
  EXPECT_EQ(cache.stats().invalidated, 17u);
}

TEST(EstimateCacheTest, EvictOperatorsVisitsOnlyMatchingEntries) {
  // The regression this pins: EvictOperators used to walk the entire LRU of
  // every shard under the shard mutex — O(entries x ops) with all lookups
  // blocked — even when the refitted slots held a handful of entries. The
  // per-slot index must touch exactly the matching entries, so a wide
  // population of innocent bystanders costs nothing.
  EstimateCacheOptions options;
  options.capacity = 64 * 1024;
  options.shards = 4;
  EstimateCache cache(options);
  constexpr int kBystanders = 20000;
  for (int i = 0; i < kBystanders; ++i) {
    cache.Insert(MakeSlotKey(OpType::kHashJoin, Resource::kCpu, i), 1.0);
  }
  for (int i = 0; i < 8; ++i) {
    cache.Insert(MakeSlotKey(OpType::kSort, Resource::kIo, i), 2.0);
  }

  // A wide delta: every slot except the bystanders' is refitted.
  std::vector<ModelSlotId> wide;
  for (int op = 0; op < kNumOpTypes; ++op) {
    for (int r = 0; r < kNumResources; ++r) {
      if (static_cast<OpType>(op) == OpType::kHashJoin &&
          static_cast<Resource>(r) == Resource::kCpu) {
        continue;
      }
      wide.emplace_back(static_cast<OpType>(op), static_cast<Resource>(r));
    }
  }
  cache.EvictOperators(wide);

  const EstimateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.invalidated, 8u);
  // The bound: only matching entries were examined under the shard mutex.
  EXPECT_EQ(stats.invalidate_visited, stats.invalidated);
  EXPECT_EQ(stats.entries, static_cast<size_t>(kBystanders));
  double value = 0.0;
  ASSERT_TRUE(cache.Lookup(MakeSlotKey(OpType::kHashJoin, Resource::kCpu, 17),
                           &value));
  EXPECT_EQ(value, 1.0);
}

TEST(EstimateCacheTest, LookupsStayLiveDuringRepeatedWideEviction) {
  // Concurrent lookups against a well-populated cache while another thread
  // hammers wide EvictOperators sweeps: lookups must stay correct and the
  // eviction work must stay proportional to what it drops (visited ==
  // invalidated), not to the cache population it scans past.
  EstimateCacheOptions options;
  options.capacity = 64 * 1024;
  options.shards = 4;
  EstimateCache cache(options);
  constexpr int kHotKeys = 4096;
  for (int i = 0; i < kHotKeys; ++i) {
    cache.Insert(MakeSlotKey(OpType::kHashJoin, Resource::kCpu, i), 1.0);
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> swept_once{false};
  std::atomic<int> wrong{0};
  std::thread reader([&]() {
    // The reader's lookups are all that keeps the evictor going, so without
    // this handshake a fast enough reader finishes before the first sweep
    // and the test asserts nothing about concurrent eviction.
    while (!swept_once.load()) std::this_thread::yield();
    double value = 0.0;
    for (int round = 0; round < 200; ++round) {
      for (int i = 0; i < kHotKeys; i += 64) {
        if (!cache.Lookup(MakeSlotKey(OpType::kHashJoin, Resource::kCpu, i),
                          &value) ||
            value != 1.0) {
          wrong.fetch_add(1);
        }
      }
    }
    stop.store(true);
  });
  std::thread evictor([&]() {
    // Refit churn on slots the reader never touches, plus fresh insertions
    // so the swept slots are never empty.
    const std::vector<ModelSlotId> swept = {
        {OpType::kSort, Resource::kCpu},
        {OpType::kSort, Resource::kIo},
        {OpType::kTableScan, Resource::kCpu},
    };
    int serial = 0;
    while (!stop.load()) {
      for (const auto& [op, resource] : swept) {
        cache.Insert(MakeSlotKey(op, resource, ++serial), 3.0);
      }
      cache.EvictOperators(swept);
      swept_once.store(true);
    }
  });
  reader.join();
  evictor.join();

  EXPECT_EQ(wrong.load(), 0);
  const EstimateCacheStats stats = cache.stats();
  EXPECT_GT(stats.invalidated, 0u);
  EXPECT_EQ(stats.invalidate_visited, stats.invalidated);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(200 * (kHotKeys / 64)));
}

TEST(EstimateCacheTest, ClearDropsEntriesKeepsCounters) {
  EstimateCache cache;
  cache.Insert(MakeKey(1, 1.0), 1.0);
  double value = 0.0;
  ASSERT_TRUE(cache.Lookup(MakeKey(1, 1.0), &value));
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);  // monotonic counters survive Clear
  EXPECT_FALSE(cache.Lookup(MakeKey(1, 1.0), &value));
}

// ---------------------------------------------------------------------------
// Model-based check against a reference LRU (std::list + std::map)
// ---------------------------------------------------------------------------

// (version, op, resource, features[0], features[1] is -0.0) — features[1]
// is +0.0 or -0.0, so bitwise key equality is exercised too.
using RefKey = std::tuple<uint64_t, OpType, Resource, double, bool>;

EstimateCache::Key ToCacheKey(const RefKey& k) {
  EstimateCache::Key key;
  key.model_version = std::get<0>(k);
  key.op = std::get<1>(k);
  key.resource = std::get<2>(k);
  key.features.fill(0.0);
  key.features[0] = std::get<3>(k);
  key.features[1] = std::get<4>(k) ? -0.0 : 0.0;
  return key;
}

/// The textbook LRU the flat shard must agree with, step for step.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  bool Lookup(const RefKey& key, double* value) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses;
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    *value = it->second.value;
    ++hits;
    return true;
  }

  /// True (and *victim set) when the insertion evicted an entry.
  bool Insert(const RefKey& key, double value, RefKey* victim) {
    const auto it = map_.find(key);
    if (it != map_.end()) {
      it->second.value = value;
      lru_.splice(lru_.begin(), lru_, it->second.pos);
      return false;
    }
    lru_.push_front(key);
    map_.emplace(key, Slot{value, lru_.begin()});
    ++insertions;
    if (map_.size() <= capacity_) return false;
    *victim = lru_.back();
    map_.erase(lru_.back());
    lru_.pop_back();
    ++evictions;
    return true;
  }

  void EvictOperators(const std::vector<ModelSlotId>& ops) {
    for (auto it = lru_.begin(); it != lru_.end();) {
      const ModelSlotId slot{std::get<1>(*it), std::get<2>(*it)};
      if (std::find(ops.begin(), ops.end(), slot) == ops.end()) {
        ++it;
        continue;
      }
      map_.erase(*it);
      it = lru_.erase(it);
      ++invalidated;
    }
  }

  void Clear() {
    map_.clear();
    lru_.clear();
  }

  size_t entries() const { return map_.size(); }

  uint64_t hits = 0, misses = 0, insertions = 0, evictions = 0;
  uint64_t invalidated = 0;

 private:
  struct Slot {
    double value;
    std::list<RefKey>::iterator pos;
  };
  size_t capacity_;
  std::list<RefKey> lru_;  ///< Front = most recently used.
  std::map<RefKey, Slot> map_;
};

TEST(EstimateCacheModelTest, RandomOperationsMatchReferenceLru) {
  constexpr size_t kCapacity = 12;
  EstimateCacheOptions options;
  options.capacity = kCapacity;
  options.shards = 1;
  EstimateCache cache(options);
  ReferenceLru ref(kCapacity);

  std::vector<ModelSlotId> slots;
  for (OpType op : {OpType::kSort, OpType::kHashJoin, OpType::kFilter}) {
    for (Resource r : {Resource::kCpu, Resource::kIo}) {
      slots.emplace_back(op, r);
    }
  }
  std::vector<RefKey> pool;  // 96 keys over 12 entries: constant eviction
  for (uint64_t version : {1u, 2u}) {
    for (const auto& [op, resource] : slots) {
      for (int f = 0; f < 4; ++f) {
        for (bool neg_zero : {false, true}) {
          pool.emplace_back(version, op, resource, f, neg_zero);
        }
      }
    }
  }

  const auto expect_same_counters = [&]() {
    const EstimateCacheStats stats = cache.stats();
    ASSERT_EQ(stats.entries, ref.entries());
    ASSERT_EQ(stats.hits, ref.hits);
    ASSERT_EQ(stats.misses, ref.misses);
    ASSERT_EQ(stats.insertions, ref.insertions);
    ASSERT_EQ(stats.evictions, ref.evictions);
    ASSERT_EQ(stats.invalidated, ref.invalidated);
    ASSERT_EQ(stats.invalidate_visited, stats.invalidated);
  };
  const auto lookup_both = [&](const RefKey& key) {
    double got = -1.0, want = -2.0;
    const bool hit = cache.Lookup(ToCacheKey(key), &got);
    ASSERT_EQ(hit, ref.Lookup(key, &want));
    if (hit) {
      ASSERT_EQ(got, want);
    }
  };

  std::mt19937_64 rng(20240611);
  std::uniform_real_distribution<double> value_of(0.0, 1e6);
  for (int step = 0; step < 6000; ++step) {
    SCOPED_TRACE(step);
    const RefKey& key = pool[rng() % pool.size()];
    const int op = static_cast<int>(rng() % 100);
    if (op < 45) {
      const double value = value_of(rng);
      cache.Insert(ToCacheKey(key), value);
      RefKey victim;
      if (ref.Insert(key, value, &victim)) {
        // The cache must have dropped the same LRU victim. A miss does not
        // reorder either LRU, so probing for it is side-effect free.
        double unused = 0.0;
        ASSERT_FALSE(cache.Lookup(ToCacheKey(victim), &unused));
        ASSERT_FALSE(ref.Lookup(victim, &unused));
      }
    } else if (op < 90) {
      ASSERT_NO_FATAL_FAILURE(lookup_both(key));
    } else if (op < 98) {
      std::vector<ModelSlotId> scope;
      for (const ModelSlotId& slot : slots) {
        if (rng() % 3 == 0) scope.push_back(slot);
      }
      cache.EvictOperators(scope);
      ref.EvictOperators(scope);
    } else {
      cache.Clear();
      ref.Clear();
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_counters());
    if (step % 50 == 49) {
      // Full sweep: the two hold exactly the same keys and values. Hits
      // promote in both, so the sweep keeps their LRU orders in step.
      for (const RefKey& probe : pool) {
        ASSERT_NO_FATAL_FAILURE(lookup_both(probe));
      }
      ASSERT_NO_FATAL_FAILURE(expect_same_counters());
    }
  }
  EXPECT_GT(ref.evictions, 400u);
  EXPECT_GT(ref.invalidated, 100u);
}

TEST(EstimateCacheModelTest, EraseInsideProbeRunKeepsDisplacedKeysReachable) {
  // Capacity 8 in one shard keeps the index at 16 slots, so home bucket =
  // low 4 hash bits. Each key gets its own (op, resource) slot so that
  // EvictOperators erases exactly one chosen key.
  EstimateCacheOptions options;
  options.capacity = 8;
  options.shards = 1;
  EstimateCache cache(options);
  constexpr uint64_t kMask = 15;
  int next_slot = 0;
  // The first key of its own slot whose home bucket is `home`.
  const auto key_with_home = [&](uint64_t home) {
    const OpType op = static_cast<OpType>(next_slot / kNumResources);
    const Resource resource = static_cast<Resource>(next_slot % kNumResources);
    ++next_slot;
    for (int v = 0;; ++v) {
      const EstimateCache::Key key = MakeSlotKey(op, resource, v);
      if ((EstimateCacheTestPeer::Hash(key) & kMask) == home) return key;
    }
  };
  const auto erase = [&](const EstimateCache::Key& key) {
    cache.EvictOperators({{key.op, key.resource}});
  };
  const auto expect_hit = [&](const EstimateCache::Key& key, double want) {
    double value = 0.0;
    ASSERT_TRUE(cache.Lookup(key, &value));
    EXPECT_EQ(value, want);
  };

  // One run 5..9: a(5) b(5) c(6) d(5) e(7), inserted in that order.
  const EstimateCache::Key a = key_with_home(5);
  const EstimateCache::Key b = key_with_home(5);
  const EstimateCache::Key c = key_with_home(6);
  const EstimateCache::Key d = key_with_home(5);
  const EstimateCache::Key e = key_with_home(7);
  // One run that wraps: p(15) q(15) r(0) s(15) fill 15, 0, 1, 2.
  const EstimateCache::Key p = key_with_home(15);
  const EstimateCache::Key q = key_with_home(15);
  const EstimateCache::Key r = key_with_home(0);
  const EstimateCache::Key s = key_with_home(15);
  int value = 0;
  for (const auto* key : {&a, &b, &c, &d, &e, &p, &q, &r}) {
    cache.Insert(*key, ++value);
  }
  ASSERT_EQ(EstimateCacheTestPeer::IndexSlots(cache), 16u);

  // Erasing b (slot 6) must shift c, d and e back one slot each.
  erase(b);
  ASSERT_NO_FATAL_FAILURE(expect_hit(a, 1));
  ASSERT_NO_FATAL_FAILURE(expect_hit(c, 3));
  ASSERT_NO_FATAL_FAILURE(expect_hit(d, 4));
  ASSERT_NO_FATAL_FAILURE(expect_hit(e, 5));
  double unused = 0.0;
  EXPECT_FALSE(cache.Lookup(b, &unused));

  // The freed slab entry is reused: no growth for the next insertion.
  cache.Insert(s, 9);
  EXPECT_EQ(EstimateCacheTestPeer::SlabEntries(cache), 8u);
  // Erasing the head of the wrapped run (p, slot 15) shifts q, r and s
  // across the wrap.
  erase(p);
  ASSERT_NO_FATAL_FAILURE(expect_hit(q, 7));
  ASSERT_NO_FATAL_FAILURE(expect_hit(r, 8));
  ASSERT_NO_FATAL_FAILURE(expect_hit(s, 9));
  ASSERT_NO_FATAL_FAILURE(expect_hit(a, 1));
  EXPECT_FALSE(cache.Lookup(p, &unused));
  EXPECT_EQ(cache.stats().entries, 7u);
  EXPECT_EQ(cache.stats().invalidated, 2u);
}

// ---------------------------------------------------------------------------
// Service integration: one small trained model pair (the second model is
// deliberately different so a hot-swap visibly changes estimates).
// ---------------------------------------------------------------------------

class ServiceCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = GenerateDatabase(TpchSchema(), 0.5, 1.0, 42).release();
    Rng rng(7);
    auto queries = GenerateTpchWorkload(50, &rng, db_);
    workload_ = new std::vector<ExecutedQuery>(RunWorkload(db_, queries));
    TrainOptions options;
    options.mart.num_trees = 30;
    model_a_ = new ResourceEstimator(
        ResourceEstimator::Train(*workload_, options));
    options.mart.num_trees = 12;  // different model => different estimates
    model_b_ = new ResourceEstimator(
        ResourceEstimator::Train(*workload_, options));
  }
  static void TearDownTestSuite() {
    delete model_b_;
    model_b_ = nullptr;
    delete model_a_;
    model_a_ = nullptr;
    delete workload_;
    workload_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static std::shared_ptr<const ResourceEstimator> Shared(
      const ResourceEstimator* est) {
    return std::shared_ptr<const ResourceEstimator>(est, [](const auto*) {});
  }

  static std::vector<EstimateRequest> Requests(Resource resource) {
    std::vector<EstimateRequest> requests;
    for (const auto& eq : *workload_) {
      requests.push_back({&eq.plan, eq.database, resource});
    }
    return requests;
  }

  static Database* db_;
  static std::vector<ExecutedQuery>* workload_;
  static ResourceEstimator* model_a_;
  static ResourceEstimator* model_b_;
};

Database* ServiceCacheTest::db_ = nullptr;
std::vector<ExecutedQuery>* ServiceCacheTest::workload_ = nullptr;
ResourceEstimator* ServiceCacheTest::model_a_ = nullptr;
ResourceEstimator* ServiceCacheTest::model_b_ = nullptr;

TEST_F(ServiceCacheTest, HitsAreBitIdenticalToMissesAndSerial) {
  ModelRegistry registry;
  registry.Publish("default", Shared(model_a_));
  ThreadPool pool(4);
  EstimationService service(&registry, &pool);

  const auto requests = Requests(Resource::kCpu);
  const auto cold = service.EstimateBatch(requests);  // all misses
  const ServiceStats after_cold = service.stats();
  EXPECT_GT(after_cold.cache_misses, 0u);

  const auto warm = service.EstimateBatch(requests);  // all hits
  const ServiceStats after_warm = service.stats();
  EXPECT_GT(after_warm.cache_hits, after_cold.cache_hits);
  // The repeat pass is served entirely from the cache: no new misses.
  EXPECT_EQ(after_warm.cache_misses, after_cold.cache_misses);

  ASSERT_EQ(cold.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(cold[i].ok());
    ASSERT_TRUE(warm[i].ok());
    const double serial = model_a_->EstimateQuery(
        *requests[i].plan, *requests[i].database, Resource::kCpu);
    EXPECT_EQ(cold[i].value, serial) << "cold request " << i;
    EXPECT_EQ(warm[i].value, serial) << "warm request " << i;
  }
}

TEST_F(ServiceCacheTest, DisabledCacheMatchesEnabledCache) {
  ModelRegistry registry;
  registry.Publish("default", Shared(model_a_));
  ThreadPool pool(4);
  ServiceOptions no_cache;
  no_cache.enable_cache = false;
  EstimationService cached(&registry, &pool);
  EstimationService uncached(&registry, &pool, no_cache);

  const auto requests = Requests(Resource::kIo);
  const auto with = cached.EstimateBatch(requests);
  const auto without = uncached.EstimateBatch(requests);
  ASSERT_EQ(with.size(), without.size());
  for (size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i].value, without[i].value);
  }
  EXPECT_EQ(uncached.stats().cache_hits, 0u);
  EXPECT_EQ(uncached.stats().cache_misses, 0u);
}

TEST_F(ServiceCacheTest, EvictionUnderTinyBoundStaysCorrect) {
  ModelRegistry registry;
  registry.Publish("default", Shared(model_a_));
  ThreadPool pool(2);
  ServiceOptions options;
  options.cache_capacity = 8;  // far fewer slots than distinct operators
  options.cache_shards = 1;
  EstimationService service(&registry, &pool, options);

  const auto requests = Requests(Resource::kCpu);
  service.EstimateBatch(requests);
  service.EstimateBatch(requests);
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_LE(stats.cache_entries, 8u);

  // Thrashing changes performance, never values.
  const auto results = service.EstimateBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(results[i].value,
              model_a_->EstimateQuery(*requests[i].plan, *requests[i].database,
                                      Resource::kCpu));
  }
}

TEST_F(ServiceCacheTest, PublishInvalidatesMidStream) {
  ModelRegistry registry;
  const uint64_t v1 = registry.Publish("default", Shared(model_a_));
  ThreadPool pool(4);
  EstimationService service(&registry, &pool);

  const auto requests = Requests(Resource::kCpu);
  const auto before = service.EstimateBatch(requests);
  ASSERT_TRUE(before[0].ok());
  EXPECT_EQ(before[0].model_version, v1);

  // Hot-swap mid-stream: same requests must now be served by model B —
  // version-keyed entries from model A can never satisfy them.
  const uint64_t v2 = registry.Publish("default", Shared(model_b_));
  const ServiceStats at_swap = service.stats();
  const auto after = service.EstimateBatch(requests);
  const ServiceStats post = service.stats();
  EXPECT_GT(post.cache_misses, at_swap.cache_misses);

  bool any_changed = false;
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(after[i].ok());
    EXPECT_EQ(after[i].model_version, v2);
    const double serial_b = model_b_->EstimateQuery(
        *requests[i].plan, *requests[i].database, Resource::kCpu);
    EXPECT_EQ(after[i].value, serial_b) << "request " << i;
    if (after[i].value != before[i].value) any_changed = true;
  }
  // The two models genuinely differ, so a stale cache would be visible.
  EXPECT_TRUE(any_changed);

  // Roll back to model A: still correct (fresh misses, then A's values).
  ASSERT_TRUE(registry.Activate("default", v1));
  const auto rolled_back = service.EstimateBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(rolled_back[i].ok());
    EXPECT_EQ(rolled_back[i].value, before[i].value);
  }
}

TEST_F(ServiceCacheTest, PerShardBreakdownReachableThroughTheService) {
  ModelRegistry registry;
  registry.Publish("default", Shared(model_a_));
  ThreadPool pool(2);
  ServiceOptions options;
  options.cache_shards = 4;
  EstimationService service(&registry, &pool, options);

  service.EstimateBatch(Requests(Resource::kCpu));
  service.EstimateBatch(Requests(Resource::kCpu));

  // The live serving cache's shard breakdown (skew detection) must be
  // visible to operators, not just to unit tests holding a bare cache.
  const EstimateCacheStats cache_stats = service.cache_stats();
  ASSERT_EQ(cache_stats.shards.size(), 4u);
  uint64_t shard_hits = 0, shard_misses = 0;
  size_t shard_entries = 0;
  for (const EstimateCacheShardStats& shard : cache_stats.shards) {
    shard_hits += shard.hits;
    shard_misses += shard.misses;
    shard_entries += shard.entries;
  }
  EXPECT_EQ(shard_hits, cache_stats.hits);
  EXPECT_EQ(shard_misses, cache_stats.misses);
  EXPECT_EQ(shard_entries, cache_stats.entries);
  EXPECT_GT(cache_stats.hits, 0u);

  // And it agrees with the scalar totals ServiceStats reports.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, cache_stats.hits);
  EXPECT_EQ(stats.cache_misses, cache_stats.misses);
  EXPECT_EQ(stats.cache_entries, cache_stats.entries);

  // Disabled cache: empty breakdown, not a crash.
  ServiceOptions no_cache;
  no_cache.enable_cache = false;
  EstimationService uncached(&registry, &pool, no_cache);
  EXPECT_TRUE(uncached.cache_stats().shards.empty());
  EXPECT_EQ(uncached.cache_stats().hits, 0u);
}

TEST_F(ServiceCacheTest, ConcurrentBatchesSharingTheCacheStayCorrect) {
  ModelRegistry registry;
  registry.Publish("default", Shared(model_a_));
  ThreadPool pool(4);
  EstimationService service(&registry, &pool);

  const auto requests = Requests(Resource::kCpu);
  std::vector<double> serial(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    serial[i] = model_a_->EstimateQuery(*requests[i].plan,
                                        *requests[i].database, Resource::kCpu);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&]() {
      for (int round = 0; round < 3; ++round) {
        const auto results = service.EstimateBatch(requests);
        for (size_t i = 0; i < results.size(); ++i) {
          if (!results[i].ok() || results[i].value != serial[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(service.stats().cache_hits, 0u);
}

}  // namespace
}  // namespace resest
