// JSON <-> service translation for POST /v1/estimate: parses a wire batch
// into EstimateRequests plus SubmitOptions, and formats EstimateResults
// back into the response body. Kept free of socket code so the tests can
// exercise the wire contract without a server.
//
// Request body (docs/wire_api.md has the full contract):
//
//   {
//     "priority": "urgent" | "normal" | "bulk",   // optional, default normal
//     "deadline_ms": 250,                          // optional, > 0
//     "tenant": "analytics",                       // optional, default tenant
//     "requests": [
//       {"op": "TableScan", "resource": "CPU", "features": [1e4, 8.0, ...]},
//       ...
//     ]
//   }
//
// `features` is an array of at most kNumFeatures numbers; omitted trailing
// positions are zero (matching a default-constructed FeatureVector).
// Parsing is strict: `requests` must be non-empty and unknown fields are
// rejected rather than silently ignored, so client typos fail loudly.
//
// Response body:
//
//   {
//     "model_version": 3,                          // of the first result
//     "results": [
//       {"status": "OK", "value": 123.5, "model_version": 3},
//       ...
//     ]
//   }
//
// Values are printed in shortest round-trip form (std::to_chars), so a
// client parsing them with strtod recovers bit-identical doubles — the HTTP
// surface keeps the service's bit-identity contract.
#ifndef RESEST_SERVER_WIRE_API_H_
#define RESEST_SERVER_WIRE_API_H_

#include <string>
#include <vector>

#include "src/server/json.h"
#include "src/serving/estimation_service.h"

namespace resest {

/// Parses the body of POST /v1/estimate. On success fills *requests (every
/// entry operator-based) and *options; on failure returns false with a
/// client-actionable message in *error and leaves the outputs unspecified.
/// A `deadline_ms` is converted to an absolute steady-clock deadline at
/// parse time, so queueing delay counts against it — same as an in-process
/// caller computing the deadline before submitting.
/// When `tenant` is non-null it receives the optional "tenant" field
/// (cleared when absent); routing/validation is the caller's job.
bool ParseEstimateWireBatch(const JsonValue& body,
                            std::vector<EstimateRequest>* requests,
                            SubmitOptions* options, std::string* error,
                            std::string* tenant = nullptr);

/// Parses a raw POST /v1/estimate body end to end. Semantically identical
/// to JsonValue::Parse + ParseEstimateWireBatch (including error messages,
/// with JSON syntax errors prefixed "malformed JSON: "), but the well-formed
/// hot shape — objects of priority/deadline_ms/tenant/requests with plain
/// strings and numbers — is decoded in a single allocation-light pass over
/// the text without building a JsonValue tree. Any deviation (escapes,
/// unknown keys, duplicates, type errors, syntax errors) falls back to the
/// tree parser so accept/reject behavior and diagnostics stay canonical.
bool ParseEstimateWireRequest(const std::string& body,
                              std::vector<EstimateRequest>* requests,
                              SubmitOptions* options, std::string* tenant,
                              std::string* error);

/// Formats the response body for a completed batch (one result per request,
/// in request order).
std::string FormatEstimateWireResponse(
    const std::vector<EstimateResult>& results);

/// The HTTP status for a completed batch: 200 when any result is OK (the
/// body carries per-result statuses), otherwise the mapped code of the
/// failure — which is uniform for whole-batch failures (oversized,
/// no model, expired at submit). An empty batch is 200.
int EstimateWireHttpStatus(const std::vector<EstimateResult>& results);

/// Formats the error body `{"error": "..."}` used for 4xx responses.
std::string FormatWireError(const std::string& message);

/// One observation row from POST /v1/observe — the feedback edge over HTTP.
/// Body shape (same strictness rules as /v1/estimate, including the
/// optional top-level "tenant" field):
///
///   {
///     "tenant": "analytics",                       // optional
///     "observations": [
///       {"op": "TableScan", "resource": "CPU",
///        "features": [1e4, 8.0, ...], "label": 1234.5},
///       ...
///     ]
///   }
struct ObserveWireRow {
  OpType op = OpType::kTableScan;
  Resource resource = Resource::kCpu;
  FeatureVector features{};
  double label = 0.0;
};

/// Parses the body of POST /v1/observe. On failure returns false with a
/// client-actionable message in *error; *rows is unspecified then. When
/// `tenant` is non-null it receives the optional "tenant" field (cleared
/// when absent).
bool ParseObserveWireBatch(const JsonValue& body,
                           std::vector<ObserveWireRow>* rows,
                           std::string* error,
                           std::string* tenant = nullptr);

/// Parses a raw POST /v1/observe body end to end: the /v1/observe twin of
/// ParseEstimateWireRequest. The hot shape is decoded by the same
/// single-pass scanner (its row parser takes "label" as one more key);
/// anything else falls back to JsonValue::Parse + ParseObserveWireBatch, so
/// verdicts and error messages are identical to the tree path (JSON syntax
/// errors prefixed "malformed JSON: ").
bool ParseObserveWireRequest(const std::string& body,
                             std::vector<ObserveWireRow>* rows,
                             std::string* tenant, std::string* error);

/// Formats the response body `{"accepted": N, "model_version": V}`.
std::string FormatObserveWireResponse(size_t accepted, uint64_t model_version);

}  // namespace resest

#endif  // RESEST_SERVER_WIRE_API_H_
