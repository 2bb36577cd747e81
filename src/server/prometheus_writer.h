// Prometheus text exposition (version 0.0.4) for GET /metrics: a small
// generic writer for counter/gauge/histogram families, plus the renderer
// that lays the service's ServiceStats / EstimateCacheStats / ModelSnapshot
// out as metric families. Socket-free so tests can pin the exact exposition
// without a server.
#ifndef RESEST_SERVER_PROMETHEUS_WRITER_H_
#define RESEST_SERVER_PROMETHEUS_WRITER_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/serving/batch_coalescer.h"
#include "src/serving/estimation_service.h"
#include "src/serving/tenant_manager.h"
#include "src/training/incremental_trainer.h"

namespace resest {

/// Label set of one sample, in emission order.
using PrometheusLabels = std::vector<std::pair<std::string, std::string>>;

/// Accumulates one exposition document. Usage per family: BeginFamily once
/// (writes # HELP / # TYPE), then one Sample per label combination.
/// Histograms are emitted via the dedicated Histogram() helper, which
/// writes the cumulative _bucket series plus _sum and _count.
class PrometheusWriter {
 public:
  void BeginFamily(const std::string& name, const std::string& help,
                   const char* type);

  void Sample(const std::string& name, const PrometheusLabels& labels,
              double value);
  void Sample(const std::string& name, const PrometheusLabels& labels,
              uint64_t value);

  /// Emits one histogram series under `name` (family must have been begun
  /// with type "histogram"). `bucket_counts[i]` is the count of
  /// observations with value < upper_bounds[i] — non-cumulative, matching
  /// PriorityLaneStats::latency_histogram; cumulation and the +Inf bucket
  /// are handled here. `sum` is in the metric's unit.
  void Histogram(const std::string& name, const PrometheusLabels& labels,
                 const std::vector<double>& upper_bounds,
                 const std::vector<uint64_t>& bucket_counts, double sum,
                 uint64_t count);

  const std::string& text() const { return text_; }

 private:
  void SampleLine(const std::string& name, const PrometheusLabels& labels,
                  const std::string& value);

  std::string text_;
};

/// Everything GET /metrics exposes, gathered by the frontend in one pass.
struct ServerMetricsSnapshot {
  ServiceStats service;
  EstimateCacheStats cache;
  std::string model_name;
  uint64_t model_version = 0;  ///< 0 = no active model.
  /// (op name, resource name, slot version) for every model slot; empty
  /// when no model is active.
  std::vector<std::tuple<std::string, std::string, uint64_t>> slot_versions;
  uint64_t http_requests_served = 0;
  size_t http_active_connections = 0;
  uint64_t http_connections_accepted = 0;
  uint64_t http_keepalive_requests = 0;
  /// Estimate submission counters and row histogram; emitted only when the
  /// server runs with a coalescer attached (has_coalescer).
  bool has_coalescer = false;
  CoalescerStats coalescer;
  /// WAL/recovery/observation-log durability counters; emitted only when
  /// the server runs a durable trainer (has_durability).
  bool has_durability = false;
  DurabilityStats durability;
  /// Per-tenant load/pressure snapshots (the heartbeat sweep's output),
  /// emitted as resest_tenant_*{tenant="..."} families. Single-tenant
  /// frontends synthesize one "default" entry so the families are always
  /// present.
  std::vector<TenantStats> tenants;
};

/// Renders the full exposition document for GET /metrics.
std::string RenderServiceMetrics(const ServerMetricsSnapshot& snapshot);

}  // namespace resest

#endif  // RESEST_SERVER_PROMETHEUS_WRITER_H_
