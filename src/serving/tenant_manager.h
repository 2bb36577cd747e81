// Multi-tenant serving: one estimation universe per tenant, behind one
// server process (ROADMAP's "many small tenants, skewed traffic, isolation
// guarantees" item). A TenantManager owns, per tenant:
//
//  - a ModelRegistry slot-space: the tenant's models are published under
//    "<model>@<tenant>" (the default tenant keeps the bare name), and
//    registry versions are globally monotonic across names — so two
//    tenants' slot-version cache keys can never collide, and one tenant's
//    refit publish cannot invalidate another tenant's cache entries;
//  - an EstimationService with its own partitioned EstimateCache region
//    (independent capacity, eviction and per-shard stats): a tenant
//    flooding its cache evicts only its own entries;
//  - a BatchCoalescer (optional): cross-request micro-batches merge only
//    within the tenant;
//  - a WAL-backed observation-log directory (`<data-dir>/<tenant>/`; the
//    default tenant keeps the legacy `<data-dir>` root so single-tenant
//    deployments recover unchanged) with its own LogBounds cap and
//    RefitPolicy, via a per-tenant IncrementalTrainer.
//
// The shared pieces are the ThreadPool (priority lanes arbitrate CPU
// across tenants at chunk granularity) and the ModelRegistry map itself.
//
// Heartbeat: Heartbeat() is designed to hang off the HTTP server's event-
// loop sweep (HttpServerOptions::on_sweep). It self-rate-limits to
// heartbeat_interval_ms and aggregates per-tenant qps, cache pressure,
// observation-log bytes and per-lane latency into TenantStats snapshots —
// exported as resest_tenant_*{tenant="..."} metric families and on
// GET /v1/tenants, so a supervisor can watch skew and rebalance capacity.
#ifndef RESEST_SERVING_TENANT_MANAGER_H_
#define RESEST_SERVING_TENANT_MANAGER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/serving/batch_coalescer.h"
#include "src/serving/estimation_service.h"
#include "src/serving/model_registry.h"
#include "src/training/incremental_trainer.h"

namespace resest {

/// The tenant every request without an explicit id belongs to.
inline constexpr char kDefaultTenant[] = "default";

/// Tenant ids become directory and metric-label names, so they are kept
/// boring: 1..64 chars, first alphanumeric, rest alphanumeric or '.', '_',
/// '-' (never '/', '@' or anything needing escapes).
inline constexpr size_t kMaxTenantIdLength = 64;
bool IsValidTenantId(const std::string& id);

/// Template applied to every tenant the manager creates.
struct TenantOptions {
  /// Per-tenant service template; model_name is the *base* name (tenant t
  /// serves "<model_name>@<t>", the default tenant serves it verbatim) and
  /// cache_capacity/cache_shards size each tenant's own cache region.
  ServiceOptions service;
  /// Durable observation logs root; empty = no trainers (estimate-only
  /// tenants). Tenant t logs under "<data_dir>/<t>" (default tenant: the
  /// root itself, matching single-tenant deployments).
  std::string data_dir;
  TrainOptions train;
  RefitPolicy refit_policy;
  LogBounds log_bounds;
  /// Observation-log memory cap override for *named* tenants
  /// (--tenant-obslog-cap-mb); 0 = named tenants use log_bounds unchanged.
  /// The default tenant always uses log_bounds (single-tenant compat).
  size_t named_obslog_cap_bytes = 0;
  /// Heartbeat self-rate-limit; Heartbeat() calls inside the interval are
  /// no-ops.
  uint32_t heartbeat_interval_ms = 1000;
};

/// One tenant's aggregated load/pressure snapshot, refreshed by the
/// heartbeat sweep. Counters are lifetime; qps is over the last heartbeat
/// window (an idle tenant ages back to 0 within one interval).
struct TenantStats {
  std::string tenant;
  std::string model_name;
  uint64_t model_version = 0;
  uint64_t requests = 0;  ///< Estimates served OK.
  uint64_t batches = 0;
  uint64_t deadline_expired = 0;
  double qps = 0.0;
  // Cache region.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  size_t cache_entries = 0;
  size_t cache_capacity = 0;
  double cache_hit_rate = 0.0;
  double cache_pressure = 0.0;  ///< entries / capacity, in [0, 1].
  // Observation logs (zero when the tenant has no trainer).
  bool durable = false;
  uint64_t obslog_bytes = 0;
  uint64_t obslog_pending_rows = 0;
  uint64_t wal_records = 0;
  // Per-lane batch latency (lifetime histograms; index = TaskPriority).
  std::array<double, kNumTaskPriorities> lane_p99_ms{};
  std::array<double, kNumTaskPriorities> lane_mean_ms{};
  uint64_t heartbeats = 0;  ///< Sweep ticks this snapshot has seen.
};

class TenantManager {
 public:
  /// One tenant's serving universe. `service` precedes `coalescer` so the
  /// coalescer (which holds a service pointer) is destroyed first.
  struct Tenant {
    std::string id;
    std::string model_name;
    std::unique_ptr<EstimationService> service;
    std::unique_ptr<BatchCoalescer> coalescer;
    std::unique_ptr<IncrementalTrainer> trainer; ///< Null when not durable.

    // Heartbeat bookkeeping (guarded by the manager's stats_mu_).
    uint64_t hb_last_requests = 0;
    std::chrono::steady_clock::time_point hb_last_tick{};
    TenantStats snapshot;
  };

  /// `registry` and `pool` are shared across tenants and must outlive the
  /// manager. No tenants exist yet — AddTenant() each one (including
  /// kDefaultTenant) at startup.
  TenantManager(ModelRegistry* registry, ThreadPool* pool,
                TenantOptions options);

  /// Creates tenant `id` (idempotent: an existing tenant is returned as
  /// is). Null on an invalid id or on WAL-open failure, with the reason in
  /// *error. `recovery` (optional) receives the tenant's WAL replay stats.
  /// Not safe to race with serving traffic — register tenants at startup.
  Tenant* AddTenant(const std::string& id, std::string* error = nullptr,
                    RecoveryStats* recovery = nullptr);

  /// The tenant named `id` ("" resolves to the default tenant); null when
  /// unknown — the wire layer answers 404, never auto-creates.
  Tenant* Resolve(const std::string& id);
  const Tenant* Resolve(const std::string& id) const;

  /// Registered tenant ids, registration order (default first by
  /// convention).
  std::vector<std::string> TenantIds() const;
  size_t tenant_count() const { return tenants_.size(); }

  /// Publishes `estimator` under every tenant's model name (each gets its
  /// own globally unique version -> disjoint slot-version key spaces) and
  /// attaches each durable tenant's trainer to its published baseline.
  /// Returns the default tenant's version, 0 if it has none.
  uint64_t PublishToAll(std::shared_ptr<const ResourceEstimator> estimator);

  /// RefitAndPublish every durable tenant against its own model name and
  /// service (one tenant's publish invalidates only its own cache). Returns
  /// how many tenants actually published a delta.
  size_t RefitTenants();

  /// Drain hook: Checkpoint + seal every durable tenant's WAL. False if
  /// any tenant failed (all are still attempted).
  bool DrainAll();

  /// The heartbeat/aging sweep body (hang it off
  /// HttpServerOptions::on_sweep). Thread-safe, self-rate-limited to
  /// heartbeat_interval_ms; refreshes every tenant's TenantStats.
  void Heartbeat();

  /// TenantStats snapshots, one per tenant. Forces an initial tick so the
  /// first scrape never sees empty snapshots; between heartbeats the data
  /// is at most one interval stale.
  std::vector<TenantStats> stats() const;

  const TenantOptions& options() const { return options_; }

 private:
  void TickLocked(std::chrono::steady_clock::time_point now) const;

  ModelRegistry* const registry_;
  ThreadPool* const pool_;
  const TenantOptions options_;

  /// Registration-ordered; pointers handed out stay valid for the
  /// manager's lifetime (unique_ptr storage).
  std::vector<std::unique_ptr<Tenant>> tenants_;

  mutable std::mutex stats_mu_;
  mutable std::chrono::steady_clock::time_point last_heartbeat_{};
  mutable bool ever_ticked_ = false;
};

}  // namespace resest

#endif  // RESEST_SERVING_TENANT_MANAGER_H_
