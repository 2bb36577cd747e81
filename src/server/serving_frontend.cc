#include "src/server/serving_frontend.h"

#include <utility>
#include <vector>

#include "src/server/json.h"
#include "src/server/prometheus_writer.h"
#include "src/server/wire_api.h"

namespace resest {
namespace {

HttpResponse JsonResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

void AppendLaneJson(const TenantStats& t, std::string* out) {
  out->append("\"lanes\":{");
  for (size_t p = 0; p < kNumTaskPriorities; ++p) {
    if (p > 0) out->push_back(',');
    AppendJsonString(TaskPriorityName(static_cast<TaskPriority>(p)), out);
    out->append(":{\"mean_ms\":");
    AppendJsonNumber(t.lane_mean_ms[p], out);
    out->append(",\"p99_ms\":");
    AppendJsonNumber(t.lane_p99_ms[p], out);
    out->push_back('}');
  }
  out->push_back('}');
}

}  // namespace

ServingFrontend::ServingFrontend(const EstimationService* service,
                                 const ModelRegistry* registry,
                                 std::string model_name)
    : service_(service),
      registry_(registry),
      model_name_(std::move(model_name)) {}

HttpResponse ServingFrontend::Handle(const HttpRequest& request) const {
  if (request.target == "/v1/estimate") {
    if (request.method != "POST") {
      return JsonResponse(405, FormatWireError("use POST"));
    }
    return HandleEstimate(request);
  }
  if (request.target == "/v1/observe") {
    if (request.method != "POST") {
      return JsonResponse(405, FormatWireError("use POST"));
    }
    return HandleObserve(request);
  }
  if (request.target == "/v1/tenants") {
    if (request.method != "GET") {
      return JsonResponse(405, FormatWireError("use GET"));
    }
    return HandleTenants();
  }
  if (request.target == "/healthz") {
    if (request.method != "GET") {
      return JsonResponse(405, FormatWireError("use GET"));
    }
    return HandleHealthz(request);
  }
  if (request.target == "/metrics") {
    if (request.method != "GET") {
      return JsonResponse(405, FormatWireError("use GET"));
    }
    return HandleMetrics();
  }
  return JsonResponse(404, FormatWireError("no such endpoint: " +
                                           request.target));
}

bool ServingFrontend::RouteTenant(const HttpRequest& request,
                                  const std::string& body_tenant,
                                  RoutedTenant* out,
                                  HttpResponse* error_response) const {
  const std::string* header = request.FindHeader("X-Resest-Tenant");
  std::string id = body_tenant;
  if (header != nullptr && !header->empty()) {
    if (!id.empty() && id != *header) {
      *error_response = JsonResponse(
          400, FormatWireError("tenant mismatch: header \"" + *header +
                               "\" vs body \"" + id + "\""));
      return false;
    }
    if (id.empty()) id = *header;
  }
  if (id.empty()) id = kDefaultTenant;
  if (!IsValidTenantId(id)) {
    *error_response =
        JsonResponse(400, FormatWireError("invalid tenant id \"" + id + "\""));
    return false;
  }
  if (tenants_ != nullptr) {
    TenantManager::Tenant* tenant = tenants_->Resolve(id);
    if (tenant == nullptr) {
      *error_response =
          JsonResponse(404, FormatWireError("unknown tenant \"" + id + "\""));
      return false;
    }
    out->id = tenant->id;
    out->model_name = tenant->model_name;
    out->service = tenant->service.get();
    out->coalescer = tenant->coalescer.get();
    out->trainer = tenant->trainer.get();
    return true;
  }
  // Single-tenant mode: only the default tenant exists.
  if (id != kDefaultTenant) {
    *error_response =
        JsonResponse(404, FormatWireError("unknown tenant \"" + id + "\""));
    return false;
  }
  out->id = id;
  out->model_name = model_name_;
  out->service = service_;
  out->coalescer = coalescer_;
  out->trainer = trainer_;
  return true;
}

void ServingFrontend::HandleAsync(
    const HttpRequest& request,
    std::function<void(HttpResponse)> respond) const {
  if (request.target != "/v1/estimate" || request.method != "POST") {
    respond(Handle(request));
    return;
  }
  // Parse inline on the I/O thread (cheap relative to estimation — the
  // fast-path scanner decodes the hot shape in one pass); only the
  // estimation itself is deferred into the batch pipeline.
  std::vector<EstimateRequest> requests;
  SubmitOptions options;
  std::string body_tenant;
  std::string error;
  if (!ParseEstimateWireRequest(request.body, &requests, &options,
                                &body_tenant, &error)) {
    respond(JsonResponse(400, FormatWireError(error)));
    return;
  }
  RoutedTenant routed;
  HttpResponse routing_error;
  if (!RouteTenant(request, body_tenant, &routed, &routing_error)) {
    respond(std::move(routing_error));
    return;
  }
  options.tenant = routed.id;
  if (options.priority == TaskPriority::kUrgent &&
      requests.size() <= kUrgentChunkRows) {
    // A small urgent probe is one chunk of work: answering it here costs
    // less than the pool hop and the wake-pipe hop back, and it cannot be
    // queued behind busy workers.
    const std::vector<EstimateResult> results =
        routed.service->EstimateInline(std::move(requests), options);
    respond(JsonResponse(EstimateWireHttpStatus(results),
                         FormatEstimateWireResponse(results)));
    return;
  }
  auto done = [respond = std::move(respond)](
                  std::vector<EstimateResult> results) {
    respond(JsonResponse(EstimateWireHttpStatus(results),
                         FormatEstimateWireResponse(results)));
  };
  if (routed.coalescer != nullptr) {
    routed.coalescer->Submit(std::move(requests), options, std::move(done));
  } else {
    routed.service->SubmitBatch(std::move(requests), std::move(done),
                                options);
  }
}

HttpResponse ServingFrontend::HandleEstimate(
    const HttpRequest& request) const {
  std::vector<EstimateRequest> requests;
  SubmitOptions options;
  std::string body_tenant;
  std::string error;
  if (!ParseEstimateWireRequest(request.body, &requests, &options,
                                &body_tenant, &error)) {
    return JsonResponse(400, FormatWireError(error));
  }
  RoutedTenant routed;
  HttpResponse routing_error;
  if (!RouteTenant(request, body_tenant, &routed, &routing_error)) {
    return routing_error;
  }
  options.tenant = routed.id;
  const std::vector<EstimateResult> results =
      routed.service->EstimateBatch(requests, options);
  return JsonResponse(EstimateWireHttpStatus(results),
                      FormatEstimateWireResponse(results));
}

HttpResponse ServingFrontend::HandleObserve(
    const HttpRequest& request) const {
  std::vector<ObserveWireRow> rows;
  std::string body_tenant;
  std::string error;
  if (!ParseObserveWireRequest(request.body, &rows, &body_tenant, &error)) {
    return JsonResponse(400, FormatWireError(error));
  }
  RoutedTenant routed;
  HttpResponse routing_error;
  if (!RouteTenant(request, body_tenant, &routed, &routing_error)) {
    return routing_error;
  }
  if (routed.trainer == nullptr) {
    return JsonResponse(
        503, FormatWireError("observation ingestion is disabled (start the "
                             "server with --data-dir)"));
  }
  for (const ObserveWireRow& row : rows) {
    routed.trainer->Append(row.op, row.resource, row.features, row.label);
  }
  return JsonResponse(200, FormatObserveWireResponse(
                               rows.size(), routed.trainer->base_version()));
}

HttpResponse ServingFrontend::HandleHealthz(const HttpRequest& request) const {
  RoutedTenant routed;
  HttpResponse routing_error;
  if (!RouteTenant(request, /*body_tenant=*/"", &routed, &routing_error)) {
    return routing_error;
  }
  const ModelSnapshot snapshot = registry_->Get(routed.model_name);
  if (!snapshot) {
    return JsonResponse(503, FormatWireError("no active model \"" +
                                             routed.model_name + "\""));
  }
  std::string body = "{\"status\":\"ok\",\"model\":";
  AppendJsonString(routed.model_name, &body);
  body += ",\"model_version\":" + std::to_string(snapshot.version) + "}";
  return JsonResponse(200, std::move(body));
}

std::vector<TenantStats> ServingFrontend::TenantSnapshots() const {
  if (tenants_ != nullptr) return tenants_->stats();
  // Single-tenant mode: synthesize the default tenant's entry from the
  // frontend's own seams so the tenant families are always present.
  TenantStats t;
  t.tenant = kDefaultTenant;
  t.model_name = model_name_;
  t.model_version = registry_->Get(model_name_).version;
  const ServiceStats s = service_->stats();
  t.requests = s.requests;
  t.batches = s.batches;
  t.deadline_expired = s.deadline_expired;
  t.cache_hits = s.cache_hits;
  t.cache_misses = s.cache_misses;
  t.cache_evictions = s.cache_evictions;
  t.cache_entries = s.cache_entries;
  t.cache_capacity = service_->options().enable_cache
                         ? service_->options().cache_capacity
                         : 0;
  t.cache_hit_rate = s.CacheHitRate();
  t.cache_pressure =
      t.cache_capacity == 0
          ? 0.0
          : static_cast<double>(t.cache_entries) /
                static_cast<double>(t.cache_capacity);
  if (trainer_ != nullptr) {
    const DurabilityStats d = trainer_->durability_stats();
    t.durable = d.durable;
    t.obslog_bytes = d.memory_bytes;
    t.obslog_pending_rows = trainer_->TotalPendingRows();
    t.wal_records = d.wal.records_appended;
  }
  for (size_t p = 0; p < kNumTaskPriorities; ++p) {
    t.lane_p99_ms[p] = s.priorities[p].ApproxLatencyPercentileMs(0.99);
    t.lane_mean_ms[p] = s.priorities[p].MeanLatencyMs();
  }
  return {std::move(t)};
}

HttpResponse ServingFrontend::HandleTenants() const {
  const std::vector<TenantStats> tenants = TenantSnapshots();
  std::string body = "{\"tenants\":[";
  for (size_t i = 0; i < tenants.size(); ++i) {
    const TenantStats& t = tenants[i];
    if (i > 0) body.push_back(',');
    body += "{\"tenant\":";
    AppendJsonString(t.tenant, &body);
    body += ",\"model\":";
    AppendJsonString(t.model_name, &body);
    body += ",\"model_version\":" + std::to_string(t.model_version);
    body += ",\"requests\":" + std::to_string(t.requests);
    body += ",\"batches\":" + std::to_string(t.batches);
    body += ",\"deadline_expired\":" + std::to_string(t.deadline_expired);
    body += ",\"qps\":";
    AppendJsonNumber(t.qps, &body);
    body += ",\"cache\":{\"hits\":" + std::to_string(t.cache_hits);
    body += ",\"misses\":" + std::to_string(t.cache_misses);
    body += ",\"evictions\":" + std::to_string(t.cache_evictions);
    body += ",\"entries\":" + std::to_string(t.cache_entries);
    body += ",\"capacity\":" + std::to_string(t.cache_capacity);
    body += ",\"hit_rate\":";
    AppendJsonNumber(t.cache_hit_rate, &body);
    body += ",\"pressure\":";
    AppendJsonNumber(t.cache_pressure, &body);
    body += "},\"obslog\":{\"durable\":";
    body += t.durable ? "true" : "false";
    body += ",\"bytes\":" + std::to_string(t.obslog_bytes);
    body += ",\"pending_rows\":" + std::to_string(t.obslog_pending_rows);
    body += ",\"wal_records\":" + std::to_string(t.wal_records);
    body += "},";
    AppendLaneJson(t, &body);
    body += ",\"heartbeats\":" + std::to_string(t.heartbeats);
    body.push_back('}');
  }
  body += "]}";
  return JsonResponse(200, std::move(body));
}

HttpResponse ServingFrontend::HandleMetrics() const {
  ServerMetricsSnapshot snapshot;
  snapshot.service = service_->stats();
  snapshot.cache = service_->cache_stats();
  snapshot.model_name = model_name_;
  const ModelSnapshot model = registry_->Get(model_name_);
  if (model) {
    snapshot.model_version = model.version;
    snapshot.slot_versions.reserve(kNumModelSlots);
    for (int op = 0; op < kNumOpTypes; ++op) {
      for (int res = 0; res < kNumResources; ++res) {
        snapshot.slot_versions.emplace_back(
            OpTypeName(static_cast<OpType>(op)),
            ResourceName(static_cast<Resource>(res)),
            model.SlotVersion(static_cast<OpType>(op),
                              static_cast<Resource>(res)));
      }
    }
  }
  if (http_server_ != nullptr) {
    const HttpServerStats http = http_server_->stats();
    snapshot.http_requests_served = http.requests_served;
    snapshot.http_active_connections = http.open_connections;
    snapshot.http_connections_accepted = http.connections_accepted;
    snapshot.http_keepalive_requests = http.keepalive_requests;
  }
  if (coalescer_ != nullptr) {
    snapshot.has_coalescer = true;
    snapshot.coalescer = coalescer_->stats();
  } else if (tenants_ != nullptr) {
    // Multi-tenant servers keep the aggregate coalescer families alive by
    // summing over tenants is overkill; expose the default tenant's.
    const TenantManager::Tenant* def = tenants_->Resolve(kDefaultTenant);
    if (def != nullptr && def->coalescer != nullptr) {
      snapshot.has_coalescer = true;
      snapshot.coalescer = def->coalescer->stats();
    }
  }
  if (trainer_ != nullptr) {
    snapshot.has_durability = true;
    snapshot.durability = trainer_->durability_stats();
  } else if (tenants_ != nullptr) {
    const TenantManager::Tenant* def = tenants_->Resolve(kDefaultTenant);
    if (def != nullptr && def->trainer != nullptr) {
      snapshot.has_durability = true;
      snapshot.durability = def->trainer->durability_stats();
    }
  }
  snapshot.tenants = TenantSnapshots();
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = RenderServiceMetrics(snapshot);
  return response;
}

}  // namespace resest
