// The serving stack hosted in-process for the traced run, wired the way
// src/server/resest_server_main.cc wires it: a shared ThreadPool and
// ModelRegistry, a TenantManager (per-tenant service, cache region,
// coalescer and, with a data dir, WAL-backed trainer), a ServingFrontend
// routed through the manager, and an HttpServer whose async handler wraps
// ServingFrontend::HandleAsync. The wrapper records one span per request:
// handler entry to the moment the frontend hands back the response.
#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/util.h"
#include "src/server/http_server.h"
#include "src/server/serving_frontend.h"
#include "src/serving/tenant_manager.h"

namespace perfbench {

/// Request classes the handler spans are kept apart by.
enum SpanClass { kSpanMain = 0, kSpanUrgent = 1, kSpanObserve = 2 };

/// Summed handler spans per class, recorded while tracing is on.
struct HandlerSpans {
  std::array<std::atomic<uint64_t>, 3> count{};
  std::array<std::atomic<uint64_t>, 3> ns{};
  double MeanUs(SpanClass c) const {
    const uint64_t n = count[c].load();
    return n == 0 ? 0.0 : 1e-3 * static_cast<double>(ns[c].load()) /
                              static_cast<double>(n);
  }
};

/// Counters sampled at a mark of the traced window.
struct StackSample {
  std::vector<resest::ServiceStats> service;         ///< Per tenant.
  std::vector<resest::EstimateCacheStats> cache;     ///< Per tenant.
  std::vector<resest::CoalescerStats> coalescer;     ///< Per tenant.
  std::vector<resest::DurabilityStats> durability;   ///< Per tenant.
  uint64_t http_requests = 0;
  std::map<pid_t, ThreadCounters> threads;
  uint64_t span_count[3] = {0, 0, 0};
  uint64_t span_ns[3] = {0, 0, 0};
};

class InProcessStack {
 public:
  InProcessStack() = default;
  ~InProcessStack();
  InProcessStack(const InProcessStack&) = delete;
  InProcessStack& operator=(const InProcessStack&) = delete;

  /// Builds and starts the stack serving `model` under every tenant.
  /// `data_dir` empty = no trainers.
  bool Start(std::shared_ptr<const resest::ResourceEstimator> model,
             const std::vector<std::string>& tenants,
             const std::string& data_dir, std::string* error);
  void Stop();

  uint16_t port() const { return server_->port(); }
  resest::TenantManager& tenants() { return *tenants_; }
  resest::ModelRegistry& registry() { return *registry_; }
  resest::ThreadPool& pool() { return *pool_; }
  /// Tenant by id ("" = default).
  resest::TenantManager::Tenant& tenant(const std::string& id) {
    return *tenants_->Resolve(id);
  }
  void set_tracing(bool on) { tracing_.store(on); }
  StackSample Sample() const;
  const HandlerSpans& spans() const { return spans_; }

 private:
  std::unique_ptr<resest::ThreadPool> pool_;
  std::unique_ptr<resest::ModelRegistry> registry_;
  std::unique_ptr<resest::TenantManager> tenants_;
  std::unique_ptr<resest::ServingFrontend> frontend_;
  std::unique_ptr<resest::HttpServer> server_;
  HandlerSpans spans_;
  std::atomic<bool> tracing_{false};
};

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
