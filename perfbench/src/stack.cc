#include "perfbench/src/stack.h"

namespace perfbench {

InProcessStack::~InProcessStack() { Stop(); }

bool InProcessStack::Start(std::shared_ptr<const resest::ResourceEstimator> model,
                           const std::vector<std::string>& tenants,
                           const std::string& data_dir, std::string* error) {
  const size_t threads = static_cast<size_t>(AvailableCpus());
  pool_ = std::make_unique<resest::ThreadPool>(threads);
  registry_ = std::make_unique<resest::ModelRegistry>();
  resest::TenantOptions options;
  options.data_dir = data_dir;
  options.train.mart.num_trees = model->options().mart.num_trees;
  options.train.train_threads = threads;
  tenants_ = std::make_unique<resest::TenantManager>(registry_.get(),
                                                     pool_.get(), options);
  if (tenants_->AddTenant(resest::kDefaultTenant, error) == nullptr) return false;
  for (const std::string& id : tenants) {
    if (tenants_->AddTenant(id, error) == nullptr) return false;
  }
  if (tenants_->PublishToAll(std::move(model)) == 0) {
    *error = "publish failed";
    return false;
  }
  resest::TenantManager::Tenant* fallback = tenants_->Resolve("");
  frontend_ = std::make_unique<resest::ServingFrontend>(
      fallback->service.get(), registry_.get(), fallback->model_name);
  frontend_->set_tenant_manager(tenants_.get());

  resest::HttpServerOptions server_options;
  server_options.port = 0;
  resest::TenantManager* manager = tenants_.get();
  server_options.on_sweep = [manager]() { manager->Heartbeat(); };
  const resest::ServingFrontend* frontend = frontend_.get();
  HandlerSpans* spans = &spans_;
  const std::atomic<bool>* tracing = &tracing_;
  server_ = std::make_unique<resest::HttpServer>(
      [frontend, spans, tracing](const resest::HttpRequest& request,
                                 resest::HttpResponseSender respond) {
        if (!tracing->load(std::memory_order_relaxed)) {
          frontend->HandleAsync(request, std::move(respond));
          return;
        }
        static const std::string kUrgentPrefix = "{\"priority\":\"urgent\"";
        const SpanClass cls =
            request.target == "/v1/observe" ? kSpanObserve
            : request.body.compare(0, kUrgentPrefix.size(), kUrgentPrefix) == 0
                ? kSpanUrgent
                : kSpanMain;
        const auto entry = Clock::now();
        frontend->HandleAsync(
            request, [spans, cls, entry, respond](resest::HttpResponse response) {
              const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  Clock::now() - entry)
                                  .count();
              spans->count[cls].fetch_add(1, std::memory_order_relaxed);
              spans->ns[cls].fetch_add(static_cast<uint64_t>(ns),
                                       std::memory_order_relaxed);
              respond(std::move(response));
            });
      },
      server_options);
  frontend_->set_http_server(server_.get());
  return server_->Start(error);
}

void InProcessStack::Stop() {
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  frontend_.reset();
  tenants_.reset();
  registry_.reset();
  pool_.reset();
}

StackSample InProcessStack::Sample() const {
  StackSample s;
  for (const std::string& id : tenants_->TenantIds()) {
    const resest::TenantManager::Tenant* t = tenants_->Resolve(id);
    s.service.push_back(t->service->stats());
    s.cache.push_back(t->service->cache_stats());
    s.coalescer.push_back(t->coalescer != nullptr ? t->coalescer->stats()
                                                  : resest::CoalescerStats{});
    s.durability.push_back(t->trainer != nullptr
                               ? t->trainer->durability_stats()
                               : resest::DurabilityStats{});
  }
  s.http_requests = server_->requests_served();
  s.threads = SnapshotThreads();
  for (int c = 0; c < 3; ++c) {
    s.span_count[c] = spans_.count[c].load();
    s.span_ns[c] = spans_.ns[c].load();
  }
  return s;
}

}  // namespace perfbench
