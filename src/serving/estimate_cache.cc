#include "src/serving/estimate_cache.h"

#include <algorithm>

namespace resest {

namespace {

// uint32 slab links and 32-bit home buckets bound a shard's index at 2^32
// slots; at most half full, that is 2^31 entries. Far beyond any memory
// budget (2^30 entries is ~256 GiB), so the clamp only guards the types.
constexpr size_t kMaxShardCapacity = size_t{1} << 30;

}  // namespace

EstimateCache::EstimateCache(EstimateCacheOptions options) {
  const size_t num_shards = std::max<size_t>(1, options.shards);
  const size_t capacity = std::max<size_t>(num_shards, options.capacity);
  shard_capacity_ =
      std::min(kMaxShardCapacity, (capacity + num_shards - 1) / num_shards);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

uint64_t EstimateCache::HashKey(const Key& k) {
  // The feature hash is already avalanched; fold in the rest of the key and
  // avalanche again so the shard (high bits) and home bucket (low bits)
  // both depend on every key field.
  uint64_t h = HashFeatureVector(k.features);
  h ^= k.model_version * 0x9e3779b97f4a7c15ull;
  h ^= (static_cast<uint64_t>(k.op) << 8 |
        static_cast<uint64_t>(k.resource)) *
       0xc2b2ae3d27d4eb4full;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

bool EstimateCache::KeysEqual(const Key& a, const Key& b) {
  return a.model_version == b.model_version && a.op == b.op &&
         a.resource == b.resource &&
         FeatureVectorHashEqual(a.features, b.features);
}

uint32_t EstimateCache::FindLocked(const Shard& shard, uint64_t hash,
                                   const Key& key) {
  if (shard.index.empty()) return kNil;
  const size_t mask = shard.index.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(hash);
  for (size_t b = tag & mask;; b = (b + 1) & mask) {
    const IndexSlot& slot = shard.index[b];
    if (slot.entry == kNil) return kNil;
    if (slot.tag == tag && KeysEqual(shard.slab[slot.entry].key, key)) {
      return slot.entry;
    }
  }
}

void EstimateCache::UnlinkLru(Shard& shard, uint32_t e) {
  Entry& entry = shard.slab[e];
  if (entry.lru_prev == kNil) {
    shard.lru_head = entry.lru_next;
  } else {
    shard.slab[entry.lru_prev].lru_next = entry.lru_next;
  }
  if (entry.lru_next == kNil) {
    shard.lru_tail = entry.lru_prev;
  } else {
    shard.slab[entry.lru_next].lru_prev = entry.lru_prev;
  }
}

void EstimateCache::PushFrontLru(Shard& shard, uint32_t e) {
  Entry& entry = shard.slab[e];
  entry.lru_prev = kNil;
  entry.lru_next = shard.lru_head;
  if (shard.lru_head == kNil) {
    shard.lru_tail = e;
  } else {
    shard.slab[shard.lru_head].lru_prev = e;
  }
  shard.lru_head = e;
}

void EstimateCache::PromoteLocked(Shard& shard, uint32_t e) {
  if (shard.lru_head == e) return;
  UnlinkLru(shard, e);
  PushFrontLru(shard, e);
}

void EstimateCache::GrowIndex(Shard& shard) {
  std::vector<IndexSlot> old(std::max<size_t>(16, 2 * shard.index.size()));
  old.swap(shard.index);
  const size_t mask = shard.index.size() - 1;
  for (const IndexSlot& slot : old) {
    if (slot.entry == kNil) continue;
    size_t b = slot.tag & mask;
    while (shard.index[b].entry != kNil) b = (b + 1) & mask;
    shard.index[b] = slot;
  }
}

void EstimateCache::AddLocked(Shard& shard, uint64_t hash, const Key& key,
                              double value) const {
  if (2 * (shard.size + 1) > shard.index.size()) GrowIndex(shard);
  uint32_t e = shard.free_head;
  if (e != kNil) {
    shard.free_head = shard.slab[e].lru_next;
    shard.slab[e] = Entry{key, value, hash};
  } else {
    // Reserve the bound once, unconstructed: pages turn resident only as
    // entries are written, and no outgrown block is ever freed. (Doubling
    // left the freed blocks resident in the allocator's per-thread arenas,
    // which raised and scattered wire-cold's peak RSS.) With no hole to
    // reuse, size == slab.size() < shard_capacity_, so this never
    // reallocates.
    if (shard.slab.capacity() == 0) shard.slab.reserve(shard_capacity_);
    e = static_cast<uint32_t>(shard.slab.size());
    shard.slab.push_back(Entry{key, value, hash});
  }
  Entry& entry = shard.slab[e];
  PushFrontLru(shard, e);
  uint32_t& head = shard.slot_head[SlotIndex(key.op, key.resource)];
  entry.slot_next = head;
  if (head != kNil) shard.slab[head].slot_prev = e;
  head = e;

  const size_t mask = shard.index.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(hash);
  size_t b = tag & mask;
  while (shard.index[b].entry != kNil) b = (b + 1) & mask;
  shard.index[b] = IndexSlot{tag, e};
  ++shard.size;
}

void EstimateCache::EraseLocked(Shard& shard, uint32_t e) {
  Entry& entry = shard.slab[e];

  // Backward-shift deletion: walk the probe run past the hole and move back
  // every slot whose home bucket does not lie cyclically in (hole, slot],
  // so later probes never stop early at the hole.
  const size_t mask = shard.index.size() - 1;
  size_t hole = static_cast<uint32_t>(entry.hash) & mask;
  while (shard.index[hole].entry != e) hole = (hole + 1) & mask;
  for (size_t b = (hole + 1) & mask; shard.index[b].entry != kNil;
       b = (b + 1) & mask) {
    const size_t home = shard.index[b].tag & mask;
    if (((b - home) & mask) >= ((b - hole) & mask)) {
      shard.index[hole] = shard.index[b];
      hole = b;
    }
  }
  shard.index[hole] = IndexSlot{};

  if (entry.slot_prev == kNil) {
    shard.slot_head[SlotIndex(entry.key.op, entry.key.resource)] =
        entry.slot_next;
  } else {
    shard.slab[entry.slot_prev].slot_next = entry.slot_next;
  }
  if (entry.slot_next != kNil) {
    shard.slab[entry.slot_next].slot_prev = entry.slot_prev;
  }
  UnlinkLru(shard, e);
  entry.lru_next = shard.free_head;
  shard.free_head = e;
  --shard.size;
}

bool EstimateCache::Lookup(const Key& key, double* value) {
  const uint64_t hash = HashKey(key);
  Shard& shard = ShardOf(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t e = FindLocked(shard, hash, key);
  if (e == kNil) {
    ++shard.misses;
    return false;
  }
  PromoteLocked(shard, e);
  *value = shard.slab[e].value;
  ++shard.hits;
  return true;
}

void EstimateCache::Insert(const Key& key, double value) {
  const uint64_t hash = HashKey(key);
  Shard& shard = ShardOf(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t e = FindLocked(shard, hash, key);
  if (e != kNil) {
    // Estimation is deterministic, so a refresh carries the same value;
    // still update in case two models ever race, and promote to front.
    shard.slab[e].value = value;
    PromoteLocked(shard, e);
    return;
  }
  // Evicting the LRU tail before linking the new entry leaves the same
  // survivors as inserting first (the new entry is never the tail) and
  // lets the new entry reuse the victim's slab slot.
  if (shard.size >= shard_capacity_) {
    EraseLocked(shard, shard.lru_tail);
    ++shard.evictions;
  }
  AddLocked(shard, hash, key, value);
  ++shard.insertions;
}

void EstimateCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->slab.clear();
    std::fill(shard->index.begin(), shard->index.end(), IndexSlot{});
    shard->slot_head.fill(kNil);
    shard->lru_head = shard->lru_tail = shard->free_head = kNil;
    shard->size = 0;
  }
}

void EstimateCache::EvictOperators(const std::vector<ModelSlotId>& ops) {
  if (ops.empty()) return;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [op, resource] : ops) {
      const uint32_t& head = shard->slot_head[SlotIndex(op, resource)];
      while (head != kNil) {
        ++shard->invalidate_visited;
        EraseLocked(*shard, head);
        ++shard->invalidated;
      }
    }
  }
}

EstimateCacheStats EstimateCache::stats() const {
  EstimateCacheStats s;
  s.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    EstimateCacheShardStats slice;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      slice.hits = shard->hits;
      slice.misses = shard->misses;
      slice.insertions = shard->insertions;
      slice.evictions = shard->evictions;
      slice.invalidated = shard->invalidated;
      slice.invalidate_visited = shard->invalidate_visited;
      slice.entries = shard->size;
    }
    s.hits += slice.hits;
    s.misses += slice.misses;
    s.insertions += slice.insertions;
    s.evictions += slice.evictions;
    s.invalidated += slice.invalidated;
    s.invalidate_visited += slice.invalidate_visited;
    s.entries += slice.entries;
    s.shards.push_back(slice);
  }
  return s;
}

}  // namespace resest
