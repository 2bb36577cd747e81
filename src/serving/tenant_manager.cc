#include "src/serving/tenant_manager.h"

#include <algorithm>
#include <utility>

namespace resest {
namespace {

bool IsTenantIdChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

}  // namespace

bool IsValidTenantId(const std::string& id) {
  if (id.empty() || id.size() > kMaxTenantIdLength) return false;
  // First char alphanumeric: rules out "." / ".." / "-rf"-style names
  // before they ever become a directory or a metric label.
  const char first = id.front();
  const bool first_ok = (first >= 'a' && first <= 'z') ||
                        (first >= 'A' && first <= 'Z') ||
                        (first >= '0' && first <= '9');
  if (!first_ok) return false;
  for (const char c : id) {
    if (!IsTenantIdChar(c)) return false;
  }
  return true;
}

TenantManager::TenantManager(ModelRegistry* registry, ThreadPool* pool,
                             TenantOptions options)
    : registry_(registry), pool_(pool), options_(std::move(options)) {}

TenantManager::Tenant* TenantManager::AddTenant(const std::string& id,
                                                std::string* error,
                                                RecoveryStats* recovery) {
  if (!IsValidTenantId(id)) {
    if (error != nullptr) *error = "invalid tenant id \"" + id + "\"";
    return nullptr;
  }
  if (Tenant* existing = Resolve(id)) return existing;

  auto tenant = std::make_unique<Tenant>();
  tenant->id = id;
  tenant->model_name = id == kDefaultTenant
                           ? options_.service.model_name
                           : options_.service.model_name + "@" + id;

  ServiceOptions service_options = options_.service;
  service_options.model_name = tenant->model_name;
  tenant->service = std::make_unique<EstimationService>(registry_, pool_,
                                                        service_options);
  tenant->coalescer = std::make_unique<BatchCoalescer>(tenant->service.get());
  if (!options_.data_dir.empty()) {
    // The default tenant logs at the data-dir root — byte-compatible with
    // the single-tenant layout, so a pre-tenancy server's WAL recovers
    // unchanged. Named tenants get their own subdirectory.
    const std::string dir = id == kDefaultTenant
                                ? options_.data_dir
                                : options_.data_dir + "/" + id;
    LogBounds bounds = options_.log_bounds;
    if (id != kDefaultTenant && options_.named_obslog_cap_bytes != 0) {
      bounds.memory_cap_bytes = options_.named_obslog_cap_bytes;
    }
    tenant->trainer = std::make_unique<IncrementalTrainer>(
        options_.train, options_.refit_policy, pool_, bounds);
    if (!tenant->trainer->EnableDurability(dir, tenant->model_name, {},
                                           recovery)) {
      if (error != nullptr) {
        *error = "failed to open observation WAL in " + dir;
      }
      return nullptr;
    }
  }
  tenants_.push_back(std::move(tenant));
  return tenants_.back().get();
}

TenantManager::Tenant* TenantManager::Resolve(const std::string& id) {
  const std::string& key = id.empty() ? std::string(kDefaultTenant) : id;
  for (auto& tenant : tenants_) {
    if (tenant->id == key) return tenant.get();
  }
  return nullptr;
}

const TenantManager::Tenant* TenantManager::Resolve(
    const std::string& id) const {
  return const_cast<TenantManager*>(this)->Resolve(id);
}

std::vector<std::string> TenantManager::TenantIds() const {
  std::vector<std::string> ids;
  ids.reserve(tenants_.size());
  for (const auto& tenant : tenants_) ids.push_back(tenant->id);
  return ids;
}

uint64_t TenantManager::PublishToAll(
    std::shared_ptr<const ResourceEstimator> estimator) {
  uint64_t default_version = 0;
  for (auto& tenant : tenants_) {
    const uint64_t version =
        registry_->Publish(tenant->model_name, estimator);
    if (tenant->id == kDefaultTenant) default_version = version;
    if (tenant->trainer != nullptr) {
      // The published model is the refit baseline; rows recovered from the
      // tenant's WAL are already in its logs and feed the next refit.
      tenant->trainer->Attach(registry_->Get(tenant->model_name).estimator,
                              version);
    }
  }
  return default_version;
}

size_t TenantManager::RefitTenants() {
  size_t published = 0;
  for (auto& tenant : tenants_) {
    if (tenant->trainer == nullptr) continue;
    const auto result = tenant->trainer->RefitAndPublish(
        registry_, tenant->model_name, tenant->service.get());
    if (result) ++published;
  }
  return published;
}

bool TenantManager::DrainAll() {
  bool ok = true;
  for (auto& tenant : tenants_) {
    if (tenant->trainer == nullptr) continue;
    if (!tenant->trainer->Checkpoint(*registry_, tenant->model_name,
                                     tenant->id == kDefaultTenant
                                         ? options_.data_dir
                                         : options_.data_dir + "/" +
                                               tenant->id)) {
      ok = false;
    }
    if (!tenant->trainer->DrainWal()) ok = false;
  }
  return ok;
}

void TenantManager::Heartbeat() {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (ever_ticked_ &&
      now - last_heartbeat_ <
          std::chrono::milliseconds(options_.heartbeat_interval_ms)) {
    return;
  }
  TickLocked(now);
}

std::vector<TenantStats> TenantManager::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (!ever_ticked_) TickLocked(std::chrono::steady_clock::now());
  std::vector<TenantStats> out;
  out.reserve(tenants_.size());
  for (const auto& tenant : tenants_) out.push_back(tenant->snapshot);
  return out;
}

void TenantManager::TickLocked(
    std::chrono::steady_clock::time_point now) const {
  for (const auto& tenant_ptr : tenants_) {
    Tenant& tenant = *tenant_ptr;
    const ServiceStats service = tenant.service->stats();
    TenantStats& s = tenant.snapshot;
    s.tenant = tenant.id;
    s.model_name = tenant.model_name;
    s.model_version = registry_->Get(tenant.model_name).version;
    s.requests = service.requests;
    s.batches = service.batches;
    s.deadline_expired = service.deadline_expired;
    // qps over the window since the tenant's previous tick; an idle tenant
    // ages to 0 after one interval, a brand-new one starts there.
    if (tenant.hb_last_tick.time_since_epoch().count() != 0) {
      const double dt =
          std::chrono::duration<double>(now - tenant.hb_last_tick).count();
      s.qps = dt > 0.0 ? static_cast<double>(service.requests -
                                             tenant.hb_last_requests) /
                             dt
                       : 0.0;
    } else {
      s.qps = 0.0;
    }
    tenant.hb_last_requests = service.requests;
    tenant.hb_last_tick = now;

    s.cache_hits = service.cache_hits;
    s.cache_misses = service.cache_misses;
    s.cache_evictions = service.cache_evictions;
    s.cache_entries = service.cache_entries;
    s.cache_capacity = tenant.service->options().enable_cache
                           ? tenant.service->options().cache_capacity
                           : 0;
    s.cache_hit_rate = service.CacheHitRate();
    s.cache_pressure =
        s.cache_capacity == 0
            ? 0.0
            : std::min(1.0, static_cast<double>(s.cache_entries) /
                                static_cast<double>(s.cache_capacity));
    if (tenant.trainer != nullptr) {
      const DurabilityStats d = tenant.trainer->durability_stats();
      s.durable = d.durable;
      s.obslog_bytes = d.memory_bytes;
      s.obslog_pending_rows = tenant.trainer->TotalPendingRows();
      s.wal_records = d.wal.records_appended;
    }
    for (size_t p = 0; p < kNumTaskPriorities; ++p) {
      const PriorityLaneStats& lane = service.priorities[p];
      s.lane_p99_ms[p] = lane.ApproxLatencyPercentileMs(0.99);
      s.lane_mean_ms[p] = lane.MeanLatencyMs();
    }
    ++s.heartbeats;
  }
  last_heartbeat_ = now;
  ever_ticked_ = true;
}

}  // namespace resest
