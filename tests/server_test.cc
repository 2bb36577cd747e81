// Tests for src/server: the JSON round-trip layer, the wire-stable status
// taxonomy, the Prometheus exposition, the HTTP server's parse/limit/drain
// contracts, and the loopback integration of resest_server's front end —
// including the core promise that estimates served over HTTP are
// bit-identical to calling EstimationService::EstimateBatch directly, and
// that SIGTERM drains the real binary with zero dropped responses.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "gtest/gtest.h"
#include "src/common/shutdown.h"
#include "src/common/thread_pool.h"
#include "src/server/http_client.h"
#include "src/server/http_server.h"
#include "src/server/json.h"
#include "src/server/prometheus_writer.h"
#include "src/server/serving_frontend.h"
#include "src/server/wire_api.h"
#include "src/serving/batch_coalescer.h"
#include "src/serving/estimation_service.h"
#include "src/serving/model_registry.h"
#include "src/storage/recovery.h"
#include "src/storage/wal.h"
#include "src/workload/runner.h"
#include "src/workload/schemas.h"
#include "src/workload/tpch_queries.h"

namespace resest {
namespace {

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

JsonValue MustParse(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(JsonValue::Parse(text, &v, &error)) << error;
  return v;
}

TEST(JsonTest, ParsesPrimitivesAndContainers) {
  const JsonValue v = MustParse(
      " {\"a\": [1, -2.5e2, true, false, null], \"b\": {\"c\": \"hi\"}} ");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items().size(), 5u);
  EXPECT_EQ(a->items()[0].as_number(), 1.0);
  EXPECT_EQ(a->items()[1].as_number(), -250.0);
  EXPECT_TRUE(a->items()[2].as_bool());
  EXPECT_FALSE(a->items()[3].as_bool());
  EXPECT_TRUE(a->items()[4].is_null());
  const JsonValue* b = v.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_object());
  EXPECT_EQ(b->Find("c")->as_string(), "hi");
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonTest, DuplicateKeysResolveToLastOccurrence) {
  const JsonValue v = MustParse("{\"k\": 1, \"k\": 2}");
  EXPECT_EQ(v.Find("k")->as_number(), 2.0);
}

TEST(JsonTest, DecodesEscapesIncludingSurrogatePairs) {
  const JsonValue v =
      MustParse("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\\ud83d\\ude00\"");
  // \u0041 = 'A', \u00e9 = é (2 UTF-8 bytes), surrogate pair = 😀 (4 bytes).
  EXPECT_EQ(v.as_string(), std::string("a\"b\\c\n\tA\xc3\xa9\xf0\x9f\x98\x80"));
}

TEST(JsonTest, RejectsMalformedInputWithPositionTaggedError) {
  JsonValue v;
  std::string error;
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "01", "1.", "\"\\x\"",
        "\"unterminated", "{\"a\":1} trailing", "[1 2]", "nan"}) {
    EXPECT_FALSE(JsonValue::Parse(bad, &v, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonTest, RejectsExcessiveNestingDepth) {
  std::string deep(kMaxJsonDepth + 1, '[');
  deep += std::string(kMaxJsonDepth + 1, ']');
  JsonValue v;
  std::string error;
  EXPECT_FALSE(JsonValue::Parse(deep, &v, &error));
  // One level under the cap parses.
  std::string ok(kMaxJsonDepth, '[');
  ok += std::string(kMaxJsonDepth, ']');
  EXPECT_TRUE(JsonValue::Parse(ok, &v, &error)) << error;
}

TEST(JsonTest, NumberFormattingRoundTripsExactBits) {
  const double values[] = {0.0,          -0.0,     1.0 / 3.0,
                           1e-308,       1.7e308,  123456.789,
                           -0.1,         2.5e-17,  3.141592653589793};
  for (double value : values) {
    std::string text;
    AppendJsonNumber(value, &text);
    const JsonValue parsed = MustParse(text);
    ASSERT_TRUE(parsed.is_number()) << text;
    const double back = parsed.as_number();
    EXPECT_EQ(std::memcmp(&value, &back, sizeof(double)), 0)
        << text << " -> " << back;
  }
  // Non-finite values are unrepresentable and become null.
  std::string text;
  AppendJsonNumber(std::numeric_limits<double>::infinity(), &text);
  EXPECT_EQ(text, "null");
}

TEST(JsonTest, StringEscapingRoundTrips) {
  const std::string original = "quote\" backslash\\ newline\n tab\t ctrl\x01";
  std::string text;
  AppendJsonString(original, &text);
  EXPECT_EQ(MustParse(text).as_string(), original);
}

// ---------------------------------------------------------------------------
// EstimateStatus wire taxonomy
// ---------------------------------------------------------------------------

static_assert(kNumEstimateStatuses == 6,
              "new EstimateStatus enumerators need name + HTTP code table "
              "entries and doc updates (docs/wire_api.md)");

TEST(EstimateStatusTest, EveryEnumeratorRoundTripsThroughItsName) {
  for (size_t i = 0; i < kNumEstimateStatuses; ++i) {
    const EstimateStatus s = static_cast<EstimateStatus>(i);
    const std::string name = EstimateStatusName(s);
    EXPECT_NE(name, "UNKNOWN") << i;
    EstimateStatus back = EstimateStatus::kNumEstimateStatuses;
    ASSERT_TRUE(ParseEstimateStatus(name, &back)) << name;
    EXPECT_EQ(back, s) << name;
  }
}

TEST(EstimateStatusTest, NamesAreUnique) {
  for (size_t i = 0; i < kNumEstimateStatuses; ++i) {
    for (size_t j = i + 1; j < kNumEstimateStatuses; ++j) {
      EXPECT_STRNE(EstimateStatusName(static_cast<EstimateStatus>(i)),
                   EstimateStatusName(static_cast<EstimateStatus>(j)));
    }
  }
}

TEST(EstimateStatusTest, HttpCodeTableIsStable) {
  EXPECT_EQ(EstimateStatusHttpCode(EstimateStatus::kOk), 200);
  EXPECT_EQ(EstimateStatusHttpCode(EstimateStatus::kModelNotFound), 503);
  EXPECT_EQ(EstimateStatusHttpCode(EstimateStatus::kInvalidRequest), 400);
  EXPECT_EQ(EstimateStatusHttpCode(EstimateStatus::kBatchTooLarge), 413);
  EXPECT_EQ(EstimateStatusHttpCode(EstimateStatus::kInternalError), 500);
  EXPECT_EQ(EstimateStatusHttpCode(EstimateStatus::kDeadlineExceeded), 504);
  // Out-of-range values degrade to 500, never to a bogus code.
  EXPECT_EQ(EstimateStatusHttpCode(EstimateStatus::kNumEstimateStatuses), 500);
}

TEST(EstimateStatusTest, RejectsUnknownNames) {
  EstimateStatus s;
  EXPECT_FALSE(ParseEstimateStatus("", &s));
  EXPECT_FALSE(ParseEstimateStatus("ok", &s));  // names are case-sensitive
  EXPECT_FALSE(ParseEstimateStatus("UNKNOWN", &s));
}

// ---------------------------------------------------------------------------
// Enum name parsers used by the wire API
// ---------------------------------------------------------------------------

TEST(WireNamesTest, OpTypeRoundTripsAndRejectsUnknown) {
  for (int i = 0; i < kNumOpTypes; ++i) {
    const OpType op = static_cast<OpType>(i);
    OpType back;
    ASSERT_TRUE(ParseOpType(OpTypeName(op), &back)) << OpTypeName(op);
    EXPECT_EQ(back, op);
  }
  OpType op;
  EXPECT_FALSE(ParseOpType("tablescan", &op));  // case-sensitive
  EXPECT_FALSE(ParseOpType("Unknown", &op));
}

TEST(WireNamesTest, ResourceParsesCaseInsensitively) {
  Resource r;
  ASSERT_TRUE(ParseResource("CPU", &r));
  EXPECT_EQ(r, Resource::kCpu);
  ASSERT_TRUE(ParseResource("cpu", &r));
  EXPECT_EQ(r, Resource::kCpu);
  ASSERT_TRUE(ParseResource("io", &r));
  EXPECT_EQ(r, Resource::kIo);
  EXPECT_FALSE(ParseResource("disk", &r));
}

TEST(WireNamesTest, TaskPriorityRoundTrips) {
  for (size_t i = 0; i < kNumTaskPriorities; ++i) {
    const TaskPriority p = static_cast<TaskPriority>(static_cast<int>(i));
    TaskPriority back;
    ASSERT_TRUE(ParseTaskPriority(TaskPriorityName(p), &back));
    EXPECT_EQ(back, p);
  }
  TaskPriority p;
  EXPECT_FALSE(ParseTaskPriority("URGENT", &p));
}

// ---------------------------------------------------------------------------
// Prometheus writer
// ---------------------------------------------------------------------------

TEST(PrometheusWriterTest, EmitsHelpTypeAndLabeledSamples) {
  PrometheusWriter w;
  w.BeginFamily("x_total", "Help text.", "counter");
  w.Sample("x_total", {}, uint64_t{7});
  w.Sample("x_total", {{"lane", "a\"b\\c\nd"}}, uint64_t{9});
  const std::string& text = w.text();
  EXPECT_NE(text.find("# HELP x_total Help text.\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE x_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("\nx_total 7\n"), std::string::npos);
  // Label values escape backslash, quote, and newline.
  EXPECT_NE(text.find("x_total{lane=\"a\\\"b\\\\c\\nd\"} 9\n"),
            std::string::npos);
}

TEST(PrometheusWriterTest, HistogramCumulatesBucketsAndAppendsInf) {
  PrometheusWriter w;
  w.BeginFamily("lat", "Latency.", "histogram");
  // Non-cumulative counts 1, 2, 0 with 5 total observations: the +Inf
  // bucket must equal the count even when the finite buckets undercount
  // (the service's last bucket absorbs overflow).
  w.Histogram("lat", {{"p", "x"}}, {0.001, 0.002, 0.004}, {1, 2, 0}, 0.25, 5);
  const std::string& text = w.text();
  EXPECT_NE(text.find("lat_bucket{p=\"x\",le=\"0.001\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_bucket{p=\"x\",le=\"0.002\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_bucket{p=\"x\",le=\"0.004\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_bucket{p=\"x\",le=\"+Inf\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_sum{p=\"x\"} 0.25\n"), std::string::npos);
  EXPECT_NE(text.find("lat_count{p=\"x\"} 5\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Wire API parse/format (socket-free)
// ---------------------------------------------------------------------------

FeatureVector TestFeatures(int salt) {
  FeatureVector features{};
  for (int f = 0; f < kNumFeatures; ++f) {
    features[static_cast<size_t>(f)] =
        1.0 + static_cast<double>(salt) * 3.7 + static_cast<double>(f) * 0.91;
  }
  return features;
}

std::string WireBatchBody(const std::vector<EstimateRequest>& requests,
                          const std::string& priority,
                          double deadline_ms = 0.0) {
  std::string body = "{";
  if (!priority.empty()) body += "\"priority\":\"" + priority + "\",";
  if (deadline_ms > 0.0) {
    body += "\"deadline_ms\":";
    AppendJsonNumber(deadline_ms, &body);
    body += ",";
  }
  body += "\"requests\":[";
  for (size_t i = 0; i < requests.size(); ++i) {
    if (i > 0) body += ',';
    body += "{\"op\":\"";
    body += OpTypeName(requests[i].op);
    body += "\",\"resource\":\"";
    body += ResourceName(requests[i].resource);
    body += "\",\"features\":[";
    for (int f = 0; f < kNumFeatures; ++f) {
      if (f > 0) body += ',';
      AppendJsonNumber(requests[i].features[static_cast<size_t>(f)], &body);
    }
    body += "]}";
  }
  body += "]}";
  return body;
}

TEST(WireApiTest, ParsesBatchWithPriorityAndDeadline) {
  std::vector<EstimateRequest> original;
  original.push_back(EstimateRequest::ForOperator(OpType::kHashJoin,
                                                  TestFeatures(1),
                                                  Resource::kIo));
  original.push_back(EstimateRequest::ForOperator(OpType::kTableScan,
                                                  TestFeatures(2),
                                                  Resource::kCpu));
  const JsonValue body =
      MustParse(WireBatchBody(original, "urgent", /*deadline_ms=*/1000.0));
  std::vector<EstimateRequest> requests;
  SubmitOptions options;
  std::string error;
  ASSERT_TRUE(ParseEstimateWireBatch(body, &requests, &options, &error))
      << error;
  EXPECT_EQ(options.priority, TaskPriority::kUrgent);
  EXPECT_TRUE(options.has_deadline());
  ASSERT_EQ(requests.size(), 2u);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(requests[i].has_features);
    EXPECT_EQ(requests[i].op, original[i].op);
    EXPECT_EQ(requests[i].resource, original[i].resource);
    EXPECT_EQ(std::memcmp(requests[i].features.data(),
                          original[i].features.data(),
                          sizeof(FeatureVector)),
              0);
  }
}

TEST(WireApiTest, DefaultsToNormalPriorityWithoutDeadline) {
  const JsonValue body = MustParse(
      "{\"requests\":[{\"op\":\"Sort\",\"resource\":\"cpu\","
      "\"features\":[1,2]}]}");
  std::vector<EstimateRequest> requests;
  SubmitOptions options;
  std::string error;
  ASSERT_TRUE(ParseEstimateWireBatch(body, &requests, &options, &error))
      << error;
  EXPECT_EQ(options.priority, TaskPriority::kNormal);
  EXPECT_FALSE(options.has_deadline());
  ASSERT_EQ(requests.size(), 1u);
  // Omitted trailing features are zero.
  EXPECT_EQ(requests[0].features[0], 1.0);
  EXPECT_EQ(requests[0].features[1], 2.0);
  EXPECT_EQ(requests[0].features[2], 0.0);
}

TEST(WireApiTest, RejectsEachMalformedField) {
  const struct {
    const char* body;
    const char* what;
  } cases[] = {
      {"[]", "not an object"},
      {"{\"requests\": 3}", "requests not array"},
      {"{\"requests\": []}", "empty requests array"},
      {"{\"dead_line_ms\": 5, \"requests\": [{\"op\":\"Sort\","
       "\"resource\":\"CPU\",\"features\":[]}]}",
       "unknown top-level field"},
      {"{\"requests\": [{\"op\":\"Sort\",\"resource\":\"CPU\","
       "\"features\":[],\"weight\":2}]}",
       "unknown request field"},
      {"{\"priority\": \"high\", \"requests\": []}", "bad priority"},
      {"{\"deadline_ms\": -1, \"requests\": []}", "negative deadline"},
      {"{\"deadline_ms\": \"soon\", \"requests\": []}", "non-number deadline"},
      {"{\"requests\": [5]}", "non-object request"},
      {"{\"requests\": [{\"resource\":\"CPU\",\"features\":[]}]}", "no op"},
      {"{\"requests\": [{\"op\":\"NoSuchOp\",\"resource\":\"CPU\","
       "\"features\":[]}]}",
       "bad op"},
      {"{\"requests\": [{\"op\":\"Sort\",\"resource\":\"RAM\","
       "\"features\":[]}]}",
       "bad resource"},
      {"{\"requests\": [{\"op\":\"Sort\",\"resource\":\"CPU\"}]}",
       "missing features"},
      {"{\"requests\": [{\"op\":\"Sort\",\"resource\":\"CPU\","
       "\"features\":[true]}]}",
       "non-number feature"},
  };
  for (const auto& c : cases) {
    std::vector<EstimateRequest> requests;
    SubmitOptions options;
    std::string error;
    ASSERT_FALSE(ParseEstimateWireBatch(MustParse(c.body), &requests, &options,
                                        &error))
        << c.what;
    EXPECT_FALSE(error.empty()) << c.what;
  }
  // Too many features (kNumFeatures + 1 entries).
  std::string long_features = "{\"requests\":[{\"op\":\"Sort\","
                              "\"resource\":\"CPU\",\"features\":[0";
  for (int i = 0; i < kNumFeatures; ++i) long_features += ",0";
  long_features += "]}]}";
  std::vector<EstimateRequest> requests;
  SubmitOptions options;
  std::string error;
  ASSERT_FALSE(ParseEstimateWireBatch(MustParse(long_features), &requests,
                                      &options, &error));
}

TEST(WireApiTest, ResponseBodyRoundTripsStatusAndExactValueBits) {
  std::vector<EstimateResult> results(3);
  results[0].status = EstimateStatus::kOk;
  results[0].value = 1.0 / 3.0;
  results[0].model_version = 4;
  results[1].status = EstimateStatus::kDeadlineExceeded;
  results[1].value = 0.0;
  results[1].model_version = 4;
  results[2].status = EstimateStatus::kOk;
  results[2].value = 2.5e-17;
  results[2].model_version = 4;

  const JsonValue body = MustParse(FormatEstimateWireResponse(results));
  EXPECT_EQ(body.Find("model_version")->as_number(), 4.0);
  const JsonValue* parsed = body.Find("results");
  ASSERT_NE(parsed, nullptr);
  ASSERT_EQ(parsed->items().size(), results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    const JsonValue& item = parsed->items()[i];
    EstimateStatus status;
    ASSERT_TRUE(
        ParseEstimateStatus(item.Find("status")->as_string(), &status));
    EXPECT_EQ(status, results[i].status);
    const double value = item.Find("value")->as_number();
    EXPECT_EQ(std::memcmp(&value, &results[i].value, sizeof(double)), 0);
    EXPECT_EQ(item.Find("model_version")->as_number(), 4.0);
  }
}

TEST(WireApiTest, BatchHttpStatusReflectsUniformFailuresOnly) {
  EXPECT_EQ(EstimateWireHttpStatus({}), 200);
  std::vector<EstimateResult> results(2);
  EXPECT_EQ(EstimateWireHttpStatus(results), 200);  // all OK
  results[0].status = EstimateStatus::kDeadlineExceeded;
  EXPECT_EQ(EstimateWireHttpStatus(results), 200);  // partial success
  results[1].status = EstimateStatus::kDeadlineExceeded;
  EXPECT_EQ(EstimateWireHttpStatus(results), 504);  // uniform failure
  for (auto& r : results) r.status = EstimateStatus::kBatchTooLarge;
  EXPECT_EQ(EstimateWireHttpStatus(results), 413);
  for (auto& r : results) r.status = EstimateStatus::kModelNotFound;
  EXPECT_EQ(EstimateWireHttpStatus(results), 503);
}

// ---------------------------------------------------------------------------
// Fast-path wire parser: ParseEstimateWireRequest promises observational
// equivalence with JsonValue::Parse + ParseEstimateWireBatch — same
// accept/reject verdict, same error text, same parsed values — whether a
// body takes the single-pass scanner or falls back to the tree.
// ---------------------------------------------------------------------------

void ExpectWireParseEquivalent(const std::string& body) {
  std::vector<EstimateRequest> fast_requests;
  SubmitOptions fast_options;
  std::string fast_tenant = "stale";
  std::string fast_error;
  const bool fast_ok = ParseEstimateWireRequest(
      body, &fast_requests, &fast_options, &fast_tenant, &fast_error);

  std::vector<EstimateRequest> tree_requests;
  SubmitOptions tree_options;
  std::string tree_tenant = "stale";
  std::string tree_error;
  bool tree_ok = false;
  JsonValue tree;
  std::string syntax_error;
  if (!JsonValue::Parse(body, &tree, &syntax_error)) {
    tree_error = "malformed JSON: " + syntax_error;
  } else {
    tree_ok = ParseEstimateWireBatch(tree, &tree_requests, &tree_options,
                                     &tree_error, &tree_tenant);
  }

  EXPECT_EQ(fast_ok, tree_ok) << body;
  if (!fast_ok || !tree_ok) {
    EXPECT_EQ(fast_error, tree_error) << body;
    return;
  }
  EXPECT_EQ(fast_tenant, tree_tenant) << body;
  EXPECT_EQ(fast_options.priority, tree_options.priority) << body;
  // Deadlines are converted to absolute time at parse time, so two parses
  // differ by the call gap; only presence is comparable.
  EXPECT_EQ(fast_options.has_deadline(), tree_options.has_deadline()) << body;
  ASSERT_EQ(fast_requests.size(), tree_requests.size()) << body;
  for (size_t i = 0; i < fast_requests.size(); ++i) {
    EXPECT_EQ(fast_requests[i].op, tree_requests[i].op) << body;
    EXPECT_EQ(fast_requests[i].resource, tree_requests[i].resource) << body;
    EXPECT_EQ(std::memcmp(fast_requests[i].features.data(),
                          tree_requests[i].features.data(),
                          sizeof(FeatureVector)),
              0)
        << body << " request " << i;
  }
}

TEST(WireApiTest, FastPathParserMatchesTreeParserOnHotShapes) {
  // The shapes clients actually send: every combination the scanner claims
  // to handle without the tree, with awkward-but-valid numbers.
  const auto requests = [](int n, int salt) {
    std::vector<EstimateRequest> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(EstimateRequest::ForOperator(
          static_cast<OpType>((i + salt) % kNumOpTypes), TestFeatures(i),
          i % 2 == 0 ? Resource::kCpu : Resource::kIo));
    }
    return out;
  };
  ExpectWireParseEquivalent(WireBatchBody(requests(1, 0), ""));
  ExpectWireParseEquivalent(WireBatchBody(requests(8, 3), "urgent"));
  ExpectWireParseEquivalent(WireBatchBody(requests(64, 5), "bulk", 250.0));
  ExpectWireParseEquivalent(
      "{\"tenant\":\"alpha\",\"requests\":[{\"op\":\"Sort\","
      "\"resource\":\"CPU\",\"features\":[1e-308,2.5e17,-0.0,3]}]}");
  ExpectWireParseEquivalent(
      " { \"priority\" : \"normal\" , \"deadline_ms\" : 1.5e3 , "
      "\"requests\" : [ { \"op\" : \"HashJoin\" , \"resource\" : \"IO\" , "
      "\"features\" : [ ] } ] } ");
  ExpectWireParseEquivalent(
      "{\"requests\":[{\"features\":[1,2],\"resource\":\"io\","
      "\"op\":\"TableScan\"}],\"tenant\":\"t-1.x_2\"}");
}

TEST(WireApiTest, FastPathParserMatchesTreeParserOnRejectsAndFallbacks) {
  const char* bodies[] = {
      // Syntax errors: identical "malformed JSON: ..." diagnostics.
      "", "{", "{\"requests\":[}", "nan", "{\"requests\":[]} trailing",
      "{\"requests\":[{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[01]}]}",
      // Wire-contract errors (tree-path diagnostics, byte for byte).
      "[]", "3", "{\"requests\": 3}", "{\"requests\": []}",
      "{\"dead_line_ms\": 5, \"requests\":"
      " [{\"op\":\"Sort\",\"resource\":\"CPU\",\"features\":[]}]}",
      "{\"priority\": \"high\", \"requests\": []}",
      "{\"priority\": 7, \"requests\": []}",
      "{\"deadline_ms\": -1, \"requests\": []}",
      "{\"deadline_ms\": \"soon\", \"requests\": []}",
      "{\"tenant\": 9, \"requests\":"
      " [{\"op\":\"Sort\",\"resource\":\"CPU\",\"features\":[]}]}",
      "{\"requests\": [5]}",
      "{\"requests\": [{\"resource\":\"CPU\",\"features\":[]}]}",
      "{\"requests\": [{\"op\":\"NoSuchOp\",\"resource\":\"CPU\","
      "\"features\":[]}]}",
      "{\"requests\": [{\"op\":\"Sort\",\"resource\":\"RAM\","
      "\"features\":[]}]}",
      "{\"requests\": [{\"op\":\"Sort\",\"resource\":\"CPU\"}]}",
      "{\"requests\": [{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[true]}]}",
      "{\"requests\": [{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[],\"weight\":2}]}",
      // Valid JSON the scanner bails on (escapes, duplicate keys, unicode):
      // must still parse identically via the tree.
      "{\"priority\":\"bulk\",\"priority\":\"urgent\",\"requests\":"
      "[{\"op\":\"Sort\",\"resource\":\"CPU\",\"features\":[1]}]}",
      "{\"tenant\":\"\\u0061lpha\",\"requests\":"
      "[{\"op\":\"Sort\",\"resource\":\"CPU\",\"features\":[1]}]}",
      "{\"requests\":[{\"op\":\"So\\u0072t\",\"resource\":\"CPU\","
      "\"features\":[1]}]}",
  };
  for (const char* body : bodies) ExpectWireParseEquivalent(body);

  // Feature overflow (kNumFeatures + 1): rejected on both paths.
  std::string long_features =
      "{\"requests\":[{\"op\":\"Sort\",\"resource\":\"CPU\",\"features\":[0";
  for (int i = 0; i < kNumFeatures; ++i) long_features += ",0";
  long_features += "]}]}";
  ExpectWireParseEquivalent(long_features);
}

// The /v1/observe twin: ParseObserveWireRequest must be observationally
// equivalent to JsonValue::Parse + ParseObserveWireBatch.
void ExpectObserveParseEquivalent(const std::string& body) {
  std::vector<ObserveWireRow> fast_rows;
  std::string fast_tenant = "stale";
  std::string fast_error;
  const bool fast_ok =
      ParseObserveWireRequest(body, &fast_rows, &fast_tenant, &fast_error);

  std::vector<ObserveWireRow> tree_rows;
  std::string tree_tenant = "stale";
  std::string tree_error;
  bool tree_ok = false;
  JsonValue tree;
  std::string syntax_error;
  if (!JsonValue::Parse(body, &tree, &syntax_error)) {
    tree_error = "malformed JSON: " + syntax_error;
  } else {
    tree_ok = ParseObserveWireBatch(tree, &tree_rows, &tree_error,
                                    &tree_tenant);
  }

  EXPECT_EQ(fast_ok, tree_ok) << body;
  if (!fast_ok || !tree_ok) {
    EXPECT_EQ(fast_error, tree_error) << body;
    return;
  }
  EXPECT_EQ(fast_tenant, tree_tenant) << body;
  ASSERT_EQ(fast_rows.size(), tree_rows.size()) << body;
  for (size_t i = 0; i < fast_rows.size(); ++i) {
    EXPECT_EQ(fast_rows[i].op, tree_rows[i].op) << body;
    EXPECT_EQ(fast_rows[i].resource, tree_rows[i].resource) << body;
    EXPECT_EQ(std::memcmp(fast_rows[i].features.data(),
                          tree_rows[i].features.data(),
                          sizeof(FeatureVector)),
              0)
        << body << " row " << i;
    EXPECT_EQ(std::memcmp(&fast_rows[i].label, &tree_rows[i].label,
                          sizeof(double)),
              0)
        << body << " row " << i;
  }
}

std::string ObserveBody(int rows, const std::string& tenant) {
  std::string body = "{";
  if (!tenant.empty()) body += "\"tenant\":\"" + tenant + "\",";
  body += "\"observations\":[";
  for (int i = 0; i < rows; ++i) {
    if (i > 0) body += ',';
    body += "{\"op\":\"";
    body += OpTypeName(static_cast<OpType>(i % kNumOpTypes));
    body += "\",\"resource\":\"";
    body += i % 2 == 0 ? "CPU" : "IO";
    body += "\",\"features\":[";
    const FeatureVector features = TestFeatures(i);
    for (int f = 0; f < kNumFeatures; ++f) {
      if (f > 0) body += ',';
      AppendJsonNumber(features[f], &body);
    }
    body += "],\"label\":";
    AppendJsonNumber(1.5 * i + 0.25, &body);
    body += '}';
  }
  body += "]}";
  return body;
}

TEST(WireApiTest, ObserveScannerMatchesTreeParserOnHotShapes) {
  ExpectObserveParseEquivalent(ObserveBody(1, ""));
  ExpectObserveParseEquivalent(ObserveBody(64, "alpha"));
  ExpectObserveParseEquivalent(
      " { \"observations\" : [ { \"label\" : -0.0 , \"op\" : \"Sort\" , "
      "\"features\" : [ ] , \"resource\" : \"io\" } ] , "
      "\"tenant\" : \"t-1.x_2\" } ");
  ExpectObserveParseEquivalent(
      "{\"observations\":[{\"op\":\"HashJoin\",\"resource\":\"CPU\","
      "\"features\":[1e-308,2.5e17,-0.0,3],\"label\":1e308}]}");
}

TEST(WireApiTest, ObserveScannerMatchesTreeParserOnRejectsAndFallbacks) {
  const char* bodies[] = {
      // Syntax errors: identical "malformed JSON: ..." diagnostics.
      "", "{", "not json", "{\"observations\":[}",
      "{\"observations\":[]} trailing",
      "{\"observations\":[{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[1],\"label\":01}]}",
      "{\"observations\":[{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[1],\"label\":}]}",
      // Wire-contract errors (tree-path diagnostics, byte for byte).
      "[]", "{}", "{\"rows\":[]}", "{\"observations\":[]}",
      "{\"observations\":3}", "{\"observations\":[5]}",
      "{\"observations\":[{}]}",
      "{\"tenant\":9,\"observations\":[{\"op\":\"Sort\","
      "\"resource\":\"CPU\",\"features\":[],\"label\":1}]}",
      // Missing, non-finite and string labels.
      "{\"observations\":[{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[1]}]}",
      "{\"observations\":[{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[1],\"label\":1e999}]}",
      "{\"observations\":[{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[1],\"label\":-1e999}]}",
      "{\"observations\":[{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[1],\"label\":\"5\"}]}",
      "{\"observations\":[{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[1],\"label\":null}]}",
      // Bad op, resource and features.
      "{\"observations\":[{\"op\":\"NoSuchOp\",\"resource\":\"CPU\","
      "\"features\":[1],\"label\":1}]}",
      "{\"observations\":[{\"op\":\"Sort\",\"resource\":\"RAM\","
      "\"features\":[1],\"label\":1}]}",
      "{\"observations\":[{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"label\":1}]}",
      "{\"observations\":[{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[true],\"label\":1}]}",
      // Unknown keys, at the top level and in a row.
      "{\"observations\":[{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[1],\"label\":1,\"extra\":1}]}",
      "{\"priority\":\"urgent\",\"observations\":[{\"op\":\"Sort\","
      "\"resource\":\"CPU\",\"features\":[1],\"label\":1}]}",
      // Valid JSON the scanner bails on (duplicate keys, escapes): must
      // still parse identically via the tree.
      "{\"observations\":[{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[1],\"label\":1,\"label\":2}]}",
      "{\"tenant\":\"a\",\"tenant\":\"b\",\"observations\":[{\"op\":"
      "\"Sort\",\"resource\":\"CPU\",\"features\":[1],\"label\":1}]}",
      "{\"observations\":[{\"op\":\"So\\u0072t\",\"resource\":\"CPU\","
      "\"features\":[1],\"label\":1}]}",
      // A later row's error is reported at its own index.
      "{\"observations\":[{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[1],\"label\":1},{\"op\":\"Sort\","
      "\"resource\":\"CPU\",\"features\":[1],\"label\":1e999}]}",
  };
  for (const char* body : bodies) ExpectObserveParseEquivalent(body);

  std::string long_features =
      "{\"observations\":[{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"label\":1,\"features\":[0";
  for (int i = 0; i < kNumFeatures; ++i) long_features += ",0";
  long_features += "]}]}";
  ExpectObserveParseEquivalent(long_features);
}

// ---------------------------------------------------------------------------
// ShutdownLatch (programmatic paths; signal delivery is covered by the
// subprocess SIGTERM test below)
// ---------------------------------------------------------------------------

TEST(ShutdownLatchTest, TriggerTripsWaitersAndResetRearms) {
  ShutdownLatch::Reset();
  EXPECT_FALSE(ShutdownLatch::Requested());
  EXPECT_FALSE(ShutdownLatch::WaitFor(std::chrono::milliseconds(10)));
  std::thread trip([]() { ShutdownLatch::Trigger(); });
  ShutdownLatch::Wait();
  trip.join();
  EXPECT_TRUE(ShutdownLatch::Requested());
  EXPECT_EQ(ShutdownLatch::Signal(), SIGTERM);
  EXPECT_TRUE(ShutdownLatch::WaitFor(std::chrono::milliseconds(0)));
  ShutdownLatch::Reset();
  EXPECT_FALSE(ShutdownLatch::Requested());
  EXPECT_EQ(ShutdownLatch::Signal(), 0);
}

// ---------------------------------------------------------------------------
// HttpServer transport contracts (trivial handlers, no service)
// ---------------------------------------------------------------------------

/// A raw loopback connection with split send/read, for tests that must
/// control exactly when bytes hit the server (drain races, malformed
/// request lines).
struct RawConn {
  int fd = -1;
  /// Bytes received past the last response read: pipelined responses can
  /// arrive together in one recv.
  std::string buffer;

  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  bool Connect(uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool SendAll(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one full HTTP response (headers + Content-Length body); returns
  /// the status code, or 0 on transport failure.
  int ReadResponse(std::string* body = nullptr) {
    size_t header_end;
    while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return 0;
      buffer.append(chunk, static_cast<size_t>(n));
    }
    int status = 0;
    std::sscanf(buffer.c_str(), "HTTP/1.1 %d", &status);
    size_t content_length = 0;
    const size_t cl = buffer.find("Content-Length:");
    if (cl != std::string::npos && cl < header_end) {
      content_length = static_cast<size_t>(
          std::strtoull(buffer.c_str() + cl + 15, nullptr, 10));
    }
    while (buffer.size() < header_end + 4 + content_length) {
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return 0;
      buffer.append(chunk, static_cast<size_t>(n));
    }
    if (body != nullptr) {
      *body = buffer.substr(header_end + 4, content_length);
    }
    buffer.erase(0, header_end + 4 + content_length);
    return status;
  }
};

HttpServerOptions FastPollOptions() {
  HttpServerOptions options;
  options.poll_interval_ms = 5;  // keep drain/idle latency low in tests
  return options;
}

TEST(HttpServerTest, ServesKeepAliveRequestsAndEchoesBodies) {
  ThreadPool pool(2);
  HttpServer server(
      &pool,
      [](const HttpRequest& request) {
        HttpResponse response;
        response.body = request.method + " " + request.target + " q=" +
                        request.query + " body=" + request.body;
        return response;
      },
      FastPollOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  HttpClientResponse response;
  ASSERT_TRUE(client.Get("/a/b?x=1", &response, &error)) << error;
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "GET /a/b q=x=1 body=");
  // Second request on the same kept-alive connection.
  ASSERT_TRUE(client.Post("/echo", "payload", &response, &error)) << error;
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "POST /echo q= body=payload");
  EXPECT_EQ(server.requests_served(), 2u);
  server.Stop();
}

TEST(HttpServerTest, RejectsOversizedBodyWithoutInvokingHandler) {
  ThreadPool pool(2);
  std::atomic<int> handler_calls{0};
  HttpServerOptions options = FastPollOptions();
  options.max_body_bytes = 64;
  HttpServer server(
      &pool,
      [&handler_calls](const HttpRequest&) {
        handler_calls.fetch_add(1);
        return HttpResponse{};
      },
      options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  HttpClientResponse response;
  ASSERT_TRUE(client.Post("/x", std::string(65, 'a'), &response, &error))
      << error;
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(handler_calls.load(), 0);
  // At the limit passes through.
  ASSERT_TRUE(client.Post("/x", std::string(64, 'a'), &response, &error))
      << error;
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(handler_calls.load(), 1);
  server.Stop();
}

TEST(HttpServerTest, RejectsMalformedRequestLineAndTransferEncoding) {
  ThreadPool pool(2);
  HttpServer server(
      &pool, [](const HttpRequest&) { return HttpResponse{}; },
      FastPollOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    ASSERT_TRUE(conn.SendAll("NONSENSE\r\n\r\n"));
    EXPECT_EQ(conn.ReadResponse(), 400);
  }
  {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    ASSERT_TRUE(conn.SendAll(
        "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"));
    EXPECT_EQ(conn.ReadResponse(), 400);
  }
  server.Stop();
}

TEST(HttpServerTest, StopAnswersInFlightRequestBeforeReturning) {
  ThreadPool pool(4);
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::atomic<bool> entered_once{false};
  HttpServer server(
      &pool,
      [&entered, &entered_once, release_future](const HttpRequest&) {
        if (!entered_once.exchange(true)) entered.set_value();
        release_future.wait();
        HttpResponse response;
        response.body = "done";
        return response;
      },
      FastPollOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  HttpClientResponse response;
  std::string client_error;
  bool ok = false;
  const uint16_t port = server.port();
  std::thread client_thread([&]() {
    HttpClient client;
    ok = client.Connect("127.0.0.1", port, &client_error) &&
         client.Get("/slow", &response, &client_error);
  });
  entered.get_future().wait();  // request is in the handler

  std::thread stopper([&server]() { server.Stop(); });
  // Stop() must not complete while the handler is still running; give it a
  // moment to (wrongly) finish early, then release the handler.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(server.active_connections(), 1u);
  release.set_value();
  stopper.join();
  client_thread.join();
  ASSERT_TRUE(ok) << client_error;
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "done");
  EXPECT_EQ(server.active_connections(), 0u);
}

TEST(HttpServerTest, StopServesBytesDeliveredBeforeDrainBegan) {
  ThreadPool pool(2);
  HttpServer server(
      &pool,
      [](const HttpRequest&) {
        HttpResponse response;
        response.body = "late";
        return response;
      },
      FastPollOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  // Wait until the connection task exists so Stop() cannot close the
  // listener before the accept.
  while (server.active_connections() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(conn.SendAll("GET /pending HTTP/1.1\r\nHost: x\r\n\r\n"));
  server.Stop();  // bytes are at the socket: must be answered, not dropped
  std::string body;
  EXPECT_EQ(conn.ReadResponse(&body), 200);
  EXPECT_EQ(body, "late");
}

// ---------------------------------------------------------------------------
// Serving front end integration: one trained model shared by the suite.
// ---------------------------------------------------------------------------

/// Parks every chunk claimed at a non-urgent priority until Open(): installed
/// as a service's chunk_claim_hook, it saturates the pool deterministically.
/// Urgent chunks pass, so a request answered on the calling thread is never
/// held by the gate. Must outlive the service it is hooked into.
class ChunkGate {
 public:
  std::function<void(TaskPriority, bool)> Hook() {
    return [this](TaskPriority priority, bool) {
      if (priority != TaskPriority::kUrgent) Park();
    };
  }
  /// Waits (bounded) until `n` threads are parked.
  bool WaitParked(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [&]() { return parked_ >= n; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  void Park() {
    std::unique_lock<std::mutex> lock(mu_);
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&]() { return open_; });
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  int parked_ = 0;
};

/// Opens a ChunkGate when it leaves scope. Declared after everything that
/// waits for in-flight batches, it keeps a failed assertion from leaving
/// workers parked while those objects are torn down.
struct GateOpener {
  ChunkGate* gate;
  ~GateOpener() { gate->Open(); }
};

class ServerFrontendTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = GenerateDatabase(TpchSchema(), 0.4, 1.0, 42).release();
    Rng rng(7);
    auto queries = GenerateTpchWorkload(50, &rng, db_);
    auto workload = RunWorkload(db_, queries);
    TrainOptions options;
    options.mart.num_trees = 30;  // small models keep the suite fast
    estimator_ = new ResourceEstimator(
        ResourceEstimator::Train(workload, options));
    model_path_ = new std::string(::testing::TempDir() +
                                  "resest_server_test.model");
    ASSERT_TRUE(estimator_->SaveToFile(*model_path_));
  }
  static void TearDownTestSuite() {
    std::remove(model_path_->c_str());
    delete model_path_;
    model_path_ = nullptr;
    delete estimator_;
    estimator_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  void SetUp() override {
    pool_ = std::make_unique<ThreadPool>(4);
    registry_ = std::make_unique<ModelRegistry>();
    // Non-owning alias: the suite owns the estimator.
    registry_->Publish("default",
                       std::shared_ptr<const ResourceEstimator>(
                           estimator_, [](const auto*) {}));
    service_ = std::make_unique<EstimationService>(registry_.get(),
                                                   pool_.get());
    frontend_ = std::make_unique<ServingFrontend>(service_.get(),
                                                  registry_.get(), "default");
  }

  void TearDown() override {
    frontend_.reset();
    service_.reset();
    registry_.reset();
    pool_.reset();
  }

  static std::vector<EstimateRequest> OperatorRequests(int count, int salt) {
    std::vector<EstimateRequest> requests;
    for (int i = 0; i < count; ++i) {
      requests.push_back(EstimateRequest::ForOperator(
          static_cast<OpType>((i + salt) % kNumOpTypes),
          TestFeatures(i + salt),
          i % 2 == 0 ? Resource::kCpu : Resource::kIo));
    }
    return requests;
  }

  static HttpRequest Post(const std::string& target, std::string body) {
    HttpRequest request;
    request.method = "POST";
    request.target = target;
    request.body = std::move(body);
    return request;
  }

  static HttpRequest Get(const std::string& target) {
    HttpRequest request;
    request.method = "GET";
    request.target = target;
    return request;
  }

  /// Extracts the double values of a /v1/estimate response body, asserting
  /// every result has the given status.
  static std::vector<double> ResponseValues(const std::string& body,
                                            EstimateStatus expected_status) {
    const JsonValue parsed = MustParse(body);
    std::vector<double> values;
    const JsonValue* results = parsed.Find("results");
    EXPECT_NE(results, nullptr) << body;
    if (results == nullptr) return values;
    for (const JsonValue& item : results->items()) {
      EstimateStatus status;
      EXPECT_TRUE(
          ParseEstimateStatus(item.Find("status")->as_string(), &status));
      EXPECT_EQ(status, expected_status);
      values.push_back(item.Find("value")->as_number());
    }
    return values;
  }

  /// Shared body for the concurrent-loopback bit-identity test, run against
  /// both poller backends: concurrent keep-alive clients with mixed
  /// priorities (plus one deadline-carrying stream, and a small urgent
  /// stream, which is answered on the I/O loop without entering the
  /// coalescer) through the async server must produce responses
  /// byte-identical to the synchronous solo path.
  void RunConcurrentLoopback(bool use_poll) {
    BatchCoalescer coalescer(service_.get());
    frontend_->set_coalescer(&coalescer);
    HttpServerOptions options = FastPollOptions();
    options.use_poll = use_poll;
    HttpServer server(
        [this](const HttpRequest& r, HttpResponseSender respond) {
          frontend_->HandleAsync(r, std::move(respond));
        },
        options);
    frontend_->set_http_server(&server);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;

    // Stream 0 (6 urgent rows) fits one urgent chunk and is answered
    // inline; stream 4 (10 urgent rows) does not and takes the pool.
    const char* priorities[] = {"urgent", "normal", "bulk", "normal",
                                "urgent"};
    std::vector<std::string> bodies;
    std::vector<std::string> expected;
    for (int c = 0; c < 5; ++c) {
      const std::string body =
          WireBatchBody(OperatorRequests(6 + c, c * 13), priorities[c],
                        /*deadline_ms=*/c == 3 ? 5000.0 : 0.0);
      expected.push_back(frontend_->Handle(Post("/v1/estimate", body)).body);
      bodies.push_back(body);
    }

    constexpr int kRounds = 5;
    std::vector<std::thread> clients;
    std::atomic<int> failures{0};
    for (size_t c = 0; c < bodies.size(); ++c) {
      clients.emplace_back([&, c]() {
        HttpClient client;
        std::string cerror;
        if (!client.Connect("127.0.0.1", server.port(), &cerror)) {
          failures.fetch_add(kRounds);
          return;
        }
        for (int round = 0; round < kRounds; ++round) {
          HttpClientResponse response;
          if (!client.Post("/v1/estimate", bodies[c], &response, &cerror) ||
              response.status != 200 || response.body != expected[c]) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0);

    const CoalescerStats stats = coalescer.stats();
    // Every stream but the inline urgent one reached the coalescer, and
    // each request went on as its own batch without waiting.
    EXPECT_EQ(stats.submissions + stats.passthrough,
              static_cast<uint64_t>(bodies.size() - 1) * kRounds);
    EXPECT_EQ(stats.passthrough, static_cast<uint64_t>(kRounds));
    EXPECT_EQ(stats.batches, stats.submissions);
    EXPECT_EQ(stats.total_wait_us, 0.0);
    // The large urgent stream took the pool's urgent lane; the small one
    // was answered inline. The urgent lane ran one batch per urgent
    // request plus the two solo-path batches behind `expected`.
    EXPECT_EQ(stats.flush_urgent, static_cast<uint64_t>(kRounds));
    EXPECT_EQ(service_->stats().ForPriority(TaskPriority::kUrgent).batches,
              static_cast<uint64_t>(2 * kRounds + 2));

    // The scrape exposes the connection counters and submission families.
    HttpClient scraper;
    ASSERT_TRUE(scraper.Connect("127.0.0.1", server.port(), &error)) << error;
    HttpClientResponse metrics;
    ASSERT_TRUE(scraper.Get("/metrics", &metrics, &error)) << error;
    ASSERT_EQ(metrics.status, 200);
    for (const char* family :
         {"resest_http_connections_accepted_total",
          "resest_http_keepalive_requests_total",
          "resest_coalesce_submissions_total",
          "resest_coalesce_passthrough_total",
          "resest_coalesce_batch_rows_bucket"}) {
      EXPECT_NE(metrics.body.find(family), std::string::npos) << family;
    }

    server.Stop();
    EXPECT_EQ(server.active_connections(), 0u);
    frontend_->set_coalescer(nullptr);
  }

  static Database* db_;
  static ResourceEstimator* estimator_;
  static std::string* model_path_;

  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ModelRegistry> registry_;
  std::unique_ptr<EstimationService> service_;
  std::unique_ptr<ServingFrontend> frontend_;
};

Database* ServerFrontendTest::db_ = nullptr;
ResourceEstimator* ServerFrontendTest::estimator_ = nullptr;
std::string* ServerFrontendTest::model_path_ = nullptr;

TEST_F(ServerFrontendTest, OperatorRequestsMatchDirectEstimatorBitForBit) {
  // The unified request API: feature-based requests through the batch
  // pipeline equal ResourceEstimator::EstimateFromFeatures exactly, and the
  // second pass is served by the estimate cache with identical bits.
  const auto requests = OperatorRequests(24, 3);
  for (int pass = 0; pass < 2; ++pass) {
    const auto results = service_->EstimateBatch(requests);
    ASSERT_EQ(results.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(results[i].ok());
      const double direct = estimator_->EstimateFromFeatures(
          requests[i].op, requests[i].features, requests[i].resource);
      EXPECT_EQ(std::memcmp(&results[i].value, &direct, sizeof(double)), 0)
          << "pass " << pass << " request " << i;
    }
  }
  EXPECT_GT(service_->stats().cache_hits, 0u);
}

TEST_F(ServerFrontendTest, EstimateEndpointIsBitIdenticalToDirectCall) {
  const auto requests = OperatorRequests(16, 11);
  const auto direct = service_->EstimateBatch(requests);

  const HttpResponse response = frontend_->Handle(
      Post("/v1/estimate", WireBatchBody(requests, "normal")));
  ASSERT_EQ(response.status, 200) << response.body;
  const std::vector<double> values =
      ResponseValues(response.body, EstimateStatus::kOk);
  ASSERT_EQ(values.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(std::memcmp(&values[i], &direct[i].value, sizeof(double)), 0)
        << "request " << i;
  }
}

TEST_F(ServerFrontendTest, ExpiredDeadlineMapsTo504) {
  const auto requests = OperatorRequests(8, 2);
  // A deadline this tight always passes before submission; the batch is
  // expired whole, which is a uniform failure -> its mapped HTTP code.
  const HttpResponse response = frontend_->Handle(Post(
      "/v1/estimate", WireBatchBody(requests, "bulk", /*deadline_ms=*/1e-4)));
  EXPECT_EQ(response.status, 504) << response.body;
  ResponseValues(response.body, EstimateStatus::kDeadlineExceeded);
  EXPECT_EQ(service_->stats().deadline_expired, requests.size());
}

TEST_F(ServerFrontendTest, MalformedJsonIs400AndNeverTouchesTheService) {
  for (const char* bad :
       {"{not json", "", "[1,2,3]", "{\"requests\": \"nope\"}",
        "{\"requests\": [{\"op\": \"Sort\"}]}"}) {
    const HttpResponse response =
        frontend_->Handle(Post("/v1/estimate", bad));
    EXPECT_EQ(response.status, 400) << bad;
    EXPECT_NE(response.body.find("error"), std::string::npos);
  }
  const ServiceStats stats = service_->stats();
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.requests, 0u);
}

TEST_F(ServerFrontendTest, UnknownRoutesAndMethodsAreRejected) {
  EXPECT_EQ(frontend_->Handle(Get("/nope")).status, 404);
  EXPECT_EQ(frontend_->Handle(Get("/v1/estimate")).status, 405);
  EXPECT_EQ(frontend_->Handle(Post("/healthz", "")).status, 405);
  EXPECT_EQ(frontend_->Handle(Post("/metrics", "")).status, 405);
}

TEST_F(ServerFrontendTest, HealthzReportsActiveModelOr503) {
  const HttpResponse healthy = frontend_->Handle(Get("/healthz"));
  EXPECT_EQ(healthy.status, 200);
  const JsonValue body = MustParse(healthy.body);
  EXPECT_EQ(body.Find("status")->as_string(), "ok");
  EXPECT_GE(body.Find("model_version")->as_number(), 1.0);

  ModelRegistry empty;
  ServingFrontend no_model(service_.get(), &empty, "default");
  EXPECT_EQ(no_model.Handle(Get("/healthz")).status, 503);
}

TEST_F(ServerFrontendTest, NoActiveModelMapsEstimateTo503) {
  ModelRegistry empty;
  EstimationService service(&empty, pool_.get());
  ServingFrontend frontend(&service, &empty, "default");
  const HttpResponse response = frontend.Handle(
      Post("/v1/estimate", WireBatchBody(OperatorRequests(2, 0), "")));
  EXPECT_EQ(response.status, 503) << response.body;
  ResponseValues(response.body, EstimateStatus::kModelNotFound);
}

TEST_F(ServerFrontendTest, MetricsExposeLaneCacheAndModelSeries) {
  // Move some counters first: an urgent batch (with cache hits on the
  // second pass) and a bulk batch.
  const auto requests = OperatorRequests(12, 5);
  SubmitOptions urgent;
  urgent.priority = TaskPriority::kUrgent;
  service_->EstimateBatch(requests, urgent);
  service_->EstimateBatch(requests, urgent);
  SubmitOptions bulk;
  bulk.priority = TaskPriority::kBulk;
  service_->EstimateBatch(OperatorRequests(4, 9), bulk);

  const HttpResponse response = frontend_->Handle(Get("/metrics"));
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.content_type.find("text/plain"), std::string::npos);
  const std::string& text = response.body;

  EXPECT_NE(text.find("resest_lane_batches_total{priority=\"urgent\"} 2\n"),
            std::string::npos)
      << text.substr(0, 2000);
  EXPECT_NE(text.find("resest_lane_batches_total{priority=\"bulk\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("resest_lane_requests_total{priority=\"urgent\"} 24\n"),
            std::string::npos);
  // Histogram series carry cumulative buckets and +Inf per lane.
  EXPECT_NE(text.find("# TYPE resest_batch_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "resest_batch_latency_seconds_bucket{priority=\"urgent\",le=\"+Inf\"} 2\n"),
      std::string::npos);
  EXPECT_NE(text.find("resest_batch_latency_seconds_count{priority=\"urgent\"} 2\n"),
            std::string::npos);
  // Cache totals moved (second urgent pass hit), and shards are broken out.
  EXPECT_NE(text.find("resest_cache_hits_total"), std::string::npos);
  EXPECT_NE(text.find("resest_cache_shard_hits_total{shard=\"0\"}"),
            std::string::npos);
  // Model and slot versions.
  EXPECT_NE(text.find("resest_model_version{model=\"default\"} 1\n"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "resest_model_slot_version{model=\"default\",op=\"TableScan\",resource=\"CPU\"} 1\n"),
      std::string::npos);

  // The scrape itself is parseable enough to find a nonzero hit counter
  // (leading newline skips the # HELP line).
  const size_t at = text.find("\nresest_cache_hits_total ");
  ASSERT_NE(at, std::string::npos);
  EXPECT_GT(std::atof(text.c_str() + at + 25), 0.0);
}

TEST_F(ServerFrontendTest, LoopbackMixedPrioritiesBitIdenticalAndScraped) {
  HttpServer server(
      pool_.get(),
      [this](const HttpRequest& r) { return frontend_->Handle(r); },
      FastPollOptions());
  frontend_->set_http_server(&server);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  const char* priorities[] = {"urgent", "normal", "bulk"};
  for (int p = 0; p < 3; ++p) {
    const auto requests = OperatorRequests(10, p * 17);
    const auto direct = service_->EstimateBatch(requests);
    HttpClientResponse response;
    ASSERT_TRUE(client.Post("/v1/estimate",
                            WireBatchBody(requests, priorities[p]), &response,
                            &error))
        << error;
    ASSERT_EQ(response.status, 200) << response.body;
    const std::vector<double> values =
        ResponseValues(response.body, EstimateStatus::kOk);
    ASSERT_EQ(values.size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(std::memcmp(&values[i], &direct[i].value, sizeof(double)), 0)
          << priorities[p] << " request " << i;
    }
  }

  // The scrape over HTTP shows every lane moved and the server's own
  // counters (3 estimates + this scrape in flight).
  HttpClientResponse metrics;
  ASSERT_TRUE(client.Get("/metrics", &metrics, &error)) << error;
  ASSERT_EQ(metrics.status, 200);
  for (const char* priority : priorities) {
    const std::string needle = std::string("resest_lane_batches_total{priority=\"") +
                               priority + "\"}";
    const size_t at = metrics.body.find(needle);
    ASSERT_NE(at, std::string::npos) << needle;
    EXPECT_GT(std::atof(metrics.body.c_str() + at + needle.size()), 0.0)
        << needle;
  }
  EXPECT_NE(metrics.body.find("resest_http_requests_total 3\n"),
            std::string::npos);

  server.Stop();
  // Drain accounting: everything answered, nothing open.
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_EQ(server.requests_served(), 4u);
}

TEST_F(ServerFrontendTest, OversizedBodyOverHttpIs400AndServiceUntouched) {
  HttpServerOptions options = FastPollOptions();
  options.max_body_bytes = 1024;
  HttpServer server(
      pool_.get(),
      [this](const HttpRequest& r) { return frontend_->Handle(r); }, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // A real estimate body that simply exceeds the configured cap.
  const std::string big = WireBatchBody(OperatorRequests(64, 1), "normal");
  ASSERT_GT(big.size(), options.max_body_bytes);
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  HttpClientResponse response;
  ASSERT_TRUE(client.Post("/v1/estimate", big, &response, &error)) << error;
  EXPECT_EQ(response.status, 400);
  const ServiceStats stats = service_->stats();
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.requests, 0u);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Event-driven server with concurrent clients.
// ---------------------------------------------------------------------------

TEST_F(ServerFrontendTest, ConcurrentResponsesBitIdenticalToSoloEpoll) {
  RunConcurrentLoopback(/*use_poll=*/false);
}

TEST_F(ServerFrontendTest, ConcurrentResponsesBitIdenticalToSoloPoll) {
  RunConcurrentLoopback(/*use_poll=*/true);
}

TEST_F(ServerFrontendTest, UrgentRequestDoesNotWaitBehindBusyWorkers) {
  // Every pool worker is parked inside a bulk chunk. A bulk request posted
  // now still goes to the service at once and waits there for a worker;
  // an urgent request posted meanwhile must be answered at once rather
  // than queue behind the bulk work.
  ChunkGate gate;
  ThreadPool pool(2);
  ServiceOptions sopts;
  sopts.chunk_claim_hook = gate.Hook();
  EstimationService service(registry_.get(), &pool, sopts);
  ServingFrontend frontend(&service, registry_.get(), "default");
  BatchCoalescer coalescer(&service);
  frontend.set_coalescer(&coalescer);
  HttpServer server(
      [&frontend](const HttpRequest& r, HttpResponseSender respond) {
        frontend.HandleAsync(r, std::move(respond));
      },
      FastPollOptions());
  GateOpener opener{&gate};
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  SubmitOptions bulk;
  bulk.priority = TaskPriority::kBulk;
  std::vector<std::future<void>> saturating;
  for (int w = 0; w < 2; ++w) {
    auto done = std::make_shared<std::promise<void>>();
    saturating.push_back(done->get_future());
    coalescer.Submit(
        OperatorRequests(4, 40 + w), bulk,
        [done](std::vector<EstimateResult>) { done->set_value(); });
  }
  ASSERT_TRUE(gate.WaitParked(2));

  const std::string bulk_body = WireBatchBody(OperatorRequests(7, 3), "bulk");
  const std::string bulk_expected =
      frontend_->Handle(Post("/v1/estimate", bulk_body)).body;
  const std::string urgent_body =
      WireBatchBody(OperatorRequests(5, 21), "urgent");
  const std::string urgent_expected =
      frontend_->Handle(Post("/v1/estimate", urgent_body)).body;

  std::thread bulk_client([&]() {
    HttpClient client;
    std::string cerror;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &cerror)) << cerror;
    HttpClientResponse response;
    ASSERT_TRUE(client.Post("/v1/estimate", bulk_body, &response, &cerror))
        << cerror;
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, bulk_expected);
  });
  // Wait until the bulk request reached the coalescer: it was sent on as
  // its own batch although no worker is free.
  for (int spin = 0; spin < 2000 && coalescer.stats().submissions < 3;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(coalescer.stats().submissions, 3u);
  EXPECT_EQ(coalescer.stats().batches, 3u) << "a submission was held";

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  const auto start = std::chrono::steady_clock::now();
  HttpClientResponse response;
  ASSERT_TRUE(client.Post("/v1/estimate", urgent_body, &response, &error))
      << error;
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, urgent_expected);
  EXPECT_LT(elapsed_ms, 500.0) << "urgent waited behind the bulk lane";
  // Answered on the I/O loop: it never entered the coalescer.
  EXPECT_EQ(coalescer.stats().submissions, 3u);
  EXPECT_EQ(service.stats().ForPriority(TaskPriority::kUrgent).batches, 1u);

  gate.Open();
  bulk_client.join();
  for (auto& f : saturating) f.get();
  EXPECT_EQ(coalescer.stats().total_wait_us, 0.0);

  // An urgent request too large to answer inline goes to the pool's
  // urgent lane, still without waiting in the coalescer.
  const std::string large_urgent =
      WireBatchBody(OperatorRequests(kUrgentChunkRows + 4, 8), "urgent");
  ASSERT_TRUE(client.Post("/v1/estimate", large_urgent, &response, &error))
      << error;
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body,
            frontend_->Handle(Post("/v1/estimate", large_urgent)).body);
  EXPECT_EQ(coalescer.stats().flush_urgent, 1u);
  EXPECT_EQ(service.stats().ForPriority(TaskPriority::kUrgent).batches, 2u);
  server.Stop();
}

TEST_F(ServerFrontendTest, MalformedRequestIsolatedFromConcurrentRequests) {
  // Wire-parse rejection happens on the I/O thread before the coalescer:
  // a malformed request answered 400 beside concurrent valid requests must
  // never reach the service or change their answers.
  BatchCoalescer coalescer(service_.get());
  frontend_->set_coalescer(&coalescer);
  HttpServer server(
      [this](const HttpRequest& r, HttpResponseSender respond) {
        frontend_->HandleAsync(r, std::move(respond));
      },
      FastPollOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const std::string valid = WireBatchBody(OperatorRequests(5, 2), "normal");
  const std::string expected =
      frontend_->Handle(Post("/v1/estimate", valid)).body;
  const std::string malformed =
      "{\"requests\":[{\"op\":\"NotAnOp\",\"resource\":\"CPU\","
      "\"features\":[1.0]}]}";

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c]() {
      HttpClient client;
      std::string cerror;
      if (!client.Connect("127.0.0.1", server.port(), &cerror)) {
        failures.fetch_add(1);
        return;
      }
      HttpClientResponse response;
      const std::string& body = c == 1 ? malformed : valid;
      if (!client.Post("/v1/estimate", body, &response, &cerror)) {
        failures.fetch_add(1);
        return;
      }
      if (c == 1) {
        if (response.status != 400) failures.fetch_add(1);
      } else if (response.status != 200 || response.body != expected) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Only the two valid submissions ever reached the coalescer.
  const CoalescerStats stats = coalescer.stats();
  EXPECT_EQ(stats.submissions + stats.passthrough, 2u);
  server.Stop();
  frontend_->set_coalescer(nullptr);
}

TEST_F(ServerFrontendTest, PipelinedKeepAliveRequestsAnswerInOrder) {
  // Three requests pipelined in one write on one connection: the server
  // must answer all three, in order, each byte-identical to the solo path
  // (responses can never interleave — strictly one request in flight per
  // connection).
  BatchCoalescer coalescer(service_.get());
  frontend_->set_coalescer(&coalescer);
  HttpServer server(
      [this](const HttpRequest& r, HttpResponseSender respond) {
        frontend_->HandleAsync(r, std::move(respond));
      },
      FastPollOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::vector<std::string> expected;
  std::string wire;
  for (int i = 0; i < 3; ++i) {
    const std::string body =
        WireBatchBody(OperatorRequests(4 + i, i * 7), "normal");
    expected.push_back(frontend_->Handle(Post("/v1/estimate", body)).body);
    wire += "POST /v1/estimate HTTP/1.1\r\nHost: x\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body;
  }

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  ASSERT_TRUE(conn.SendAll(wire));
  for (int i = 0; i < 3; ++i) {
    std::string body;
    EXPECT_EQ(conn.ReadResponse(&body), 200) << "response " << i;
    EXPECT_EQ(body, expected[i]) << "response " << i;
  }

  const HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_served, 3u);
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.keepalive_requests, 2u);
  server.Stop();
  frontend_->set_coalescer(nullptr);
}

// ---------------------------------------------------------------------------
// The coalescer forwards every submission at once, as its own batch.
// ---------------------------------------------------------------------------

/// Collects one coalescer submission's results.
struct CoalescedCall {
  std::vector<EstimateRequest> rows;
  std::promise<std::vector<EstimateResult>> promise;
  std::future<std::vector<EstimateResult>> future = promise.get_future();
};

std::shared_ptr<CoalescedCall> SubmitThrough(
    BatchCoalescer* coalescer, std::vector<EstimateRequest> rows,
    TaskPriority priority, bool with_deadline = false) {
  auto call = std::make_shared<CoalescedCall>();
  call->rows = rows;
  SubmitOptions options;
  options.priority = priority;
  if (with_deadline) {
    options.deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
  }
  coalescer->Submit(std::move(rows), options,
                    [call](std::vector<EstimateResult> results) {
                      call->promise.set_value(std::move(results));
                    });
  return call;
}

TEST_F(ServerFrontendTest, CoalescerForwardsEverySubmissionAtOnce) {
  // Even with every pool worker parked, nothing is held: each submission
  // is sent to the service as its own batch before Submit returns, and
  // each caller gets exactly its rows, bit-identical to the solo path.
  ChunkGate gate;
  ThreadPool pool(2);
  ServiceOptions sopts;
  sopts.chunk_claim_hook = gate.Hook();
  EstimationService service(registry_.get(), &pool, sopts);
  BatchCoalescer coalescer(&service);
  GateOpener opener{&gate};

  std::vector<std::shared_ptr<CoalescedCall>> calls;
  calls.push_back(
      SubmitThrough(&coalescer, OperatorRequests(4, 1), TaskPriority::kNormal));
  calls.push_back(
      SubmitThrough(&coalescer, OperatorRequests(4, 2), TaskPriority::kNormal));
  ASSERT_TRUE(gate.WaitParked(2));
  calls.push_back(
      SubmitThrough(&coalescer, OperatorRequests(3, 3), TaskPriority::kNormal));
  calls.push_back(
      SubmitThrough(&coalescer, OperatorRequests(5, 4), TaskPriority::kBulk));
  calls.push_back(SubmitThrough(&coalescer, OperatorRequests(2, 5),
                                TaskPriority::kNormal, /*with_deadline=*/true));
  const CoalescerStats stats = coalescer.stats();
  EXPECT_EQ(stats.submissions, 4u);
  EXPECT_EQ(stats.passthrough, 1u);
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_EQ(stats.coalesced_rows, 4u + 4u + 3u + 5u);
  EXPECT_EQ(stats.batch_rows_histogram[2], 1u);  // 3 rows: [2, 4)
  EXPECT_EQ(stats.batch_rows_histogram[3], 3u);  // 4, 4, 5 rows: [4, 8)
  EXPECT_EQ(stats.MeanRowsPerBatch(), 4.0);
  EXPECT_EQ(stats.total_wait_us, 0.0);
  // The service admitted all five while every worker is still parked.
  EXPECT_EQ(service.stats().batches, 5u);
  for (auto& call : calls) {
    EXPECT_EQ(call->future.wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout);
  }

  gate.Open();
  for (auto& call : calls) {
    ASSERT_EQ(call->future.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    const auto results = call->future.get();
    const auto solo = service_->EstimateBatch(call->rows);
    ASSERT_EQ(results.size(), solo.size());
    for (size_t r = 0; r < solo.size(); ++r) {
      ASSERT_TRUE(results[r].ok());
      EXPECT_EQ(std::memcmp(&results[r].value, &solo[r].value,
                            sizeof(double)),
                0)
          << "row " << r;
    }
  }
}

TEST_F(ServerFrontendTest, CoalescerConcurrentSubmittersEachAnsweredOnce) {
  // A TSan target: concurrent submitters on every lane, two tenants and a
  // deadline stream over a two-worker pool. Every callback fires exactly
  // once with the right values, and the counters add up.
  ThreadPool pool(2);
  EstimationService service(registry_.get(), &pool);
  constexpr int kThreads = 6;
  constexpr int kPerThread = 200;
  constexpr int kTotal = kThreads * kPerThread;
  std::vector<std::atomic<int>> calls(kTotal);
  std::atomic<int> completed{0};
  std::atomic<int> wrong{0};
  {
    BatchCoalescer coalescer(&service);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t]() {
        for (int i = 0; i < kPerThread; ++i) {
          const int id = t * kPerThread + i;
          auto rows = OperatorRequests(1 + (id % 6), id);
          SubmitOptions options;
          options.priority = static_cast<TaskPriority>(id % 3);
          options.tenant = (id / 3) % 2 == 0 ? "a" : "b";
          if (id % 11 == 0) {
            options.deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(60);
          }
          coalescer.Submit(
              rows, options,
              [&, id, rows](std::vector<EstimateResult> results) {
                calls[id].fetch_add(1);
                bool ok = results.size() == rows.size();
                for (size_t r = 0; ok && r < rows.size(); ++r) {
                  const double direct = estimator_->EstimateFromFeatures(
                      rows[r].op, rows[r].features, rows[r].resource);
                  ok = results[r].ok() &&
                       std::memcmp(&results[r].value, &direct,
                                   sizeof(double)) == 0;
                }
                if (!ok) wrong.fetch_add(1);
                completed.fetch_add(1);
              });
        }
      });
    }
    for (auto& t : submitters) t.join();
    for (int spin = 0; spin < 30000 && completed.load() < kTotal; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(completed.load(), kTotal);

    const CoalescerStats stats = coalescer.stats();
    EXPECT_EQ(stats.submissions + stats.passthrough,
              static_cast<uint64_t>(kTotal));
    EXPECT_EQ(stats.passthrough, static_cast<uint64_t>((kTotal + 10) / 11));
    EXPECT_EQ(stats.batches, stats.submissions);
  }
  EXPECT_EQ(wrong.load(), 0);
  for (int id = 0; id < kTotal; ++id) {
    EXPECT_EQ(calls[id].load(), 1) << "submission " << id;
  }
}

TEST_F(ServerFrontendTest, SmallUrgentRequestAnsweredInlineWhileWorkersParked) {
  ChunkGate gate;
  ThreadPool pool(2);
  ServiceOptions sopts;
  sopts.chunk_claim_hook = gate.Hook();
  EstimationService service(registry_.get(), &pool, sopts);
  ServingFrontend frontend(&service, registry_.get(), "default");
  GateOpener opener{&gate};

  // Park both workers inside a normal batch.
  auto parked = service.SubmitBatch(OperatorRequests(12, 1));
  ASSERT_TRUE(gate.WaitParked(2));

  // kUrgentChunkRows rows, with and without a deadline: answered before
  // HandleAsync returns, bit-identical to the solo path, as one chunk.
  for (const double deadline_ms : {0.0, 5000.0}) {
    const std::string body = WireBatchBody(
        OperatorRequests(kUrgentChunkRows, 5), "urgent", deadline_ms);
    const std::string expected =
        frontend_->Handle(Post("/v1/estimate", body)).body;
    bool answered = false;
    HttpResponse got;
    frontend.HandleAsync(Post("/v1/estimate", body),
                         [&](HttpResponse response) {
                           answered = true;
                           got = std::move(response);
                         });
    ASSERT_TRUE(answered) << "deadline_ms " << deadline_ms;
    EXPECT_EQ(got.status, 200);
    EXPECT_EQ(got.body, expected);
  }
  EXPECT_EQ(service.stats().ForPriority(TaskPriority::kUrgent).batches, 2u);

  // One row more takes the pool, so it waits for a free worker.
  const std::string large = WireBatchBody(
      OperatorRequests(kUrgentChunkRows + 1, 6), "urgent");
  auto large_response = std::make_shared<std::promise<HttpResponse>>();
  auto large_future = large_response->get_future();
  frontend.HandleAsync(Post("/v1/estimate", large),
                       [large_response](HttpResponse response) {
                         large_response->set_value(std::move(response));
                       });
  EXPECT_EQ(large_future.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);

  gate.Open();
  ASSERT_EQ(large_future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  const HttpResponse response = large_future.get();
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, frontend_->Handle(Post("/v1/estimate", large)).body);
  EXPECT_EQ(parked.get().size(), 12u);
  EXPECT_EQ(service.stats().ForPriority(TaskPriority::kUrgent).batches, 3u);
}

TEST_F(ServerFrontendTest, EstimateInlineMatchesEstimateBatch) {
  // EstimateInline is EstimateBatch run on the caller as one chunk: same
  // values, statuses and degenerate-batch handling.
  SubmitOptions urgent;
  urgent.priority = TaskPriority::kUrgent;
  for (const int n : {1, 3, 8, 40}) {
    auto requests = OperatorRequests(n, n);
    requests.push_back(requests.front());  // a duplicate for dedup
    const auto batch = service_->EstimateBatch(requests, urgent);
    const auto inline_results = service_->EstimateInline(requests, urgent);
    ASSERT_EQ(inline_results.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(inline_results[i].status, batch[i].status);
      EXPECT_EQ(std::memcmp(&inline_results[i].value, &batch[i].value,
                            sizeof(double)),
                0);
      EXPECT_EQ(inline_results[i].model_version, batch[i].model_version);
    }
  }
  EXPECT_TRUE(service_->EstimateInline({}, urgent).empty());
  SubmitOptions expired = urgent;
  expired.deadline = std::chrono::steady_clock::now();
  const auto late = service_->EstimateInline(OperatorRequests(2, 0), expired);
  ASSERT_EQ(late.size(), 2u);
  EXPECT_EQ(late[0].status, EstimateStatus::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// /v1/observe: ingestion endpoint wiring.
// ---------------------------------------------------------------------------

TEST_F(ServerFrontendTest, ObserveWithoutTrainerIs503) {
  const HttpResponse response = frontend_->Handle(Post(
      "/v1/observe",
      "{\"observations\":[{\"op\":\"TableScan\",\"resource\":\"CPU\","
      "\"features\":[1],\"label\":2.0}]}"));
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("--data-dir"), std::string::npos)
      << response.body;
}

TEST_F(ServerFrontendTest, ObserveAppendsRowsAndRejectsMalformedBatches) {
  IncrementalTrainer trainer(TrainOptions{});
  {
    std::vector<ExecutedQuery> empty;
    trainer.SeedAndTrain(empty);
  }
  frontend_->set_trainer(&trainer);

  const HttpResponse ok = frontend_->Handle(Post(
      "/v1/observe",
      "{\"observations\":["
      "{\"op\":\"TableScan\",\"resource\":\"CPU\",\"features\":[1,2],"
      "\"label\":3.5},"
      "{\"op\":\"Sort\",\"resource\":\"IO\",\"features\":[4],\"label\":0.5}"
      "]}"));
  ASSERT_EQ(ok.status, 200) << ok.body;
  EXPECT_NE(ok.body.find("\"accepted\":2"), std::string::npos) << ok.body;
  EXPECT_NE(ok.body.find("\"model_version\""), std::string::npos) << ok.body;
  EXPECT_EQ(trainer.LogStats(OpType::kTableScan, Resource::kCpu).rows, 1u);
  EXPECT_EQ(trainer.LogStats(OpType::kSort, Resource::kIo).rows, 1u);

  // Strict parsing: unknown fields, bad op names and an empty batch are
  // all 400s that append nothing.
  for (const char* bad : {
           "{\"observations\":[{\"op\":\"TableScan\",\"resource\":\"CPU\","
           "\"features\":[1],\"label\":1,\"extra\":1}]}",
           "{\"observations\":[{\"op\":\"NoSuchOp\",\"resource\":\"CPU\","
           "\"features\":[1],\"label\":1}]}",
           "{\"observations\":[]}",
           "{\"rows\":[]}",
           "not json",
       }) {
    const HttpResponse response = frontend_->Handle(Post("/v1/observe", bad));
    EXPECT_EQ(response.status, 400) << bad << " -> " << response.body;
  }
  EXPECT_EQ(trainer.TotalPendingRows(), 2u);
}

// ---------------------------------------------------------------------------
// The real binary: SIGTERM drains with zero dropped responses, exit 0.
// ---------------------------------------------------------------------------

TEST_F(ServerFrontendTest, SigtermDrainsRealServerWithZeroDroppedResponses) {
  const char* bin = std::getenv("RESEST_SERVER_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "RESEST_SERVER_BIN not set (ctest sets it)";
  }

  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    const std::string model_flag = "--model=" + *model_path_;
    ::execl(bin, bin, "--port=0", "--threads=2", model_flag.c_str(),
            "--model-name=default", static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(out_pipe[1]);

  // The first stdout line announces the bound ephemeral port.
  FILE* out = ::fdopen(out_pipe[0], "r");
  ASSERT_NE(out, nullptr);
  char line[256] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), out), nullptr);
  unsigned port = 0;
  ASSERT_EQ(std::sscanf(line, "resest_server listening on 127.0.0.1:%u",
                        &port),
            1)
      << line;
  ASSERT_GT(port, 0u);

  // Establish a served connection first (the healthz answer proves the
  // connection is accepted and its handler task running), then deliver a
  // full estimate request and only afterwards SIGTERM: bytes at the socket
  // pre-signal must be answered before the drain completes.
  RawConn conn;
  ASSERT_TRUE(conn.Connect(static_cast<uint16_t>(port)));
  ASSERT_TRUE(conn.SendAll("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
  EXPECT_EQ(conn.ReadResponse(), 200);

  const auto requests = OperatorRequests(32, 7);
  const std::string body = WireBatchBody(requests, "urgent");
  const std::string post = "POST /v1/estimate HTTP/1.1\r\nHost: x\r\n"
                           "Content-Type: application/json\r\n"
                           "Content-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" + body;
  ASSERT_TRUE(conn.SendAll(post));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);

  // The in-flight estimate completes despite the signal...
  std::string response_body;
  EXPECT_EQ(conn.ReadResponse(&response_body), 200);
  ResponseValues(response_body, EstimateStatus::kOk);

  // ...the process drains and reports it served everything...
  uint64_t http_requests = 0;
  while (std::fgets(line, sizeof(line), out) != nullptr) {
    unsigned long long served = 0;
    if (std::sscanf(line, "resest_server: drained; served %llu http requests",
                    &served) == 1) {
      http_requests = served;
    }
  }
  EXPECT_EQ(http_requests, 2u);  // healthz + the in-flight estimate
  std::fclose(out);

  // ...and exits 0.
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST_F(ServerFrontendTest, SigtermDrainsUnderConcurrentKeepAliveClients) {
  const char* bin = std::getenv("RESEST_SERVER_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "RESEST_SERVER_BIN not set (ctest sets it)";
  }

  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    const std::string model_flag = "--model=" + *model_path_;
    ::execl(bin, bin, "--port=0", "--threads=2", model_flag.c_str(),
            "--model-name=default", static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(out_pipe[1]);

  FILE* out = ::fdopen(out_pipe[0], "r");
  ASSERT_NE(out, nullptr);
  char line[256] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), out), nullptr);
  unsigned port = 0;
  ASSERT_EQ(
      std::sscanf(line, "resest_server listening on 127.0.0.1:%u", &port), 1)
      << line;
  ASSERT_GT(port, 0u);

  // Continuous keep-alive load from several clients, SIGTERM mid-flight.
  // The drain contract: every response a client receives is complete and
  // bit-identical to the solo path, and the server's drain line accounts
  // for exactly the responses the clients got — nothing dropped, nothing
  // phantom.
  constexpr int kClients = 3;
  std::vector<std::string> bodies;
  std::vector<std::string> expected;
  const char* priorities[] = {"urgent", "normal", "bulk"};
  for (int c = 0; c < kClients; ++c) {
    const std::string body =
        WireBatchBody(OperatorRequests(5 + c, c * 11), priorities[c]);
    expected.push_back(frontend_->Handle(Post("/v1/estimate", body)).body);
    bodies.push_back(body);
  }
  std::atomic<uint64_t> ok_responses{0};
  std::atomic<int> bad_responses{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      HttpClient client;
      std::string cerror;
      if (!client.Connect("127.0.0.1", static_cast<uint16_t>(port),
                          &cerror)) {
        return;
      }
      for (;;) {
        HttpClientResponse response;
        if (!client.Post("/v1/estimate", bodies[static_cast<size_t>(c)],
                         &response, &cerror)) {
          return;  // drained: listener closed, reconnect refused
        }
        if (response.status == 200 &&
            response.body == expected[static_cast<size_t>(c)]) {
          ok_responses.fetch_add(1);
        } else {
          bad_responses.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  for (auto& t : clients) t.join();

  uint64_t served = 0;
  bool saw_drain_line = false;
  while (std::fgets(line, sizeof(line), out) != nullptr) {
    unsigned long long n = 0;
    if (std::sscanf(line, "resest_server: drained; served %llu http requests",
                    &n) == 1) {
      served = n;
      saw_drain_line = true;
    }
  }
  std::fclose(out);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);

  EXPECT_EQ(bad_responses.load(), 0);
  EXPECT_GT(ok_responses.load(), 0u) << "no load reached the server";
  ASSERT_TRUE(saw_drain_line);
  EXPECT_EQ(served, ok_responses.load());
}

// ---------------------------------------------------------------------------
// Tenant routing through the frontend: header/body selection, conflict and
// unknown-tenant rejection, the /v1/tenants admin view, and per-tenant
// metric families.
// ---------------------------------------------------------------------------

TEST_F(ServerFrontendTest, TenantRoutingSelectsConflictsAndRejects) {
  TenantOptions tenant_options;
  tenant_options.service.model_name = "default";
  TenantManager manager(registry_.get(), pool_.get(), tenant_options);
  std::string terror;
  ASSERT_NE(manager.AddTenant(kDefaultTenant, &terror), nullptr) << terror;
  ASSERT_NE(manager.AddTenant("alpha", &terror), nullptr) << terror;
  ASSERT_NE(manager.AddTenant("beta", &terror), nullptr) << terror;
  manager.PublishToAll(std::shared_ptr<const ResourceEstimator>(
      estimator_, [](const auto*) {}));
  frontend_->set_tenant_manager(&manager);

  const std::string body = WireBatchBody(OperatorRequests(4, 2), "normal");

  // Header-selected tenant serves from alpha's universe (its own model
  // version and its own cache region).
  HttpRequest header_request = Post("/v1/estimate", body);
  header_request.headers.emplace_back("X-Resest-Tenant", "alpha");
  const HttpResponse alpha1 = frontend_->Handle(header_request);
  ASSERT_EQ(alpha1.status, 200) << alpha1.body;
  const uint64_t alpha_version = registry_->Get("default@alpha").version;
  EXPECT_NE(alpha1.body.find("\"model_version\":" +
                             std::to_string(alpha_version)),
            std::string::npos)
      << alpha1.body;

  // Body-selected tenant: same contract via the "tenant" field.
  std::string beta_body = "{\"tenant\":\"beta\"," + body.substr(1);
  const HttpResponse beta1 = frontend_->Handle(Post("/v1/estimate",
                                                    beta_body));
  ASSERT_EQ(beta1.status, 200) << beta1.body;
  EXPECT_NE(beta1.body.find("\"model_version\":" +
                            std::to_string(
                                registry_->Get("default@beta").version)),
            std::string::npos)
      << beta1.body;

  // Header and body must agree when both are present.
  HttpRequest conflict = Post("/v1/estimate", beta_body);
  conflict.headers.emplace_back("X-Resest-Tenant", "alpha");
  const HttpResponse conflicted = frontend_->Handle(conflict);
  EXPECT_EQ(conflicted.status, 400);
  EXPECT_NE(conflicted.body.find("tenant mismatch"), std::string::npos)
      << conflicted.body;
  // Agreeing header + body is fine.
  HttpRequest agreeing = Post("/v1/estimate", beta_body);
  agreeing.headers.emplace_back("X-Resest-Tenant", "beta");
  EXPECT_EQ(frontend_->Handle(agreeing).status, 200);

  // Unknown tenants 404 (never auto-created); invalid ids 400.
  HttpRequest unknown = Post("/v1/estimate", body);
  unknown.headers.emplace_back("X-Resest-Tenant", "gamma");
  const HttpResponse missing = frontend_->Handle(unknown);
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("unknown tenant"), std::string::npos);
  HttpRequest invalid = Post("/v1/estimate", body);
  invalid.headers.emplace_back("X-Resest-Tenant", "/etc/passwd");
  EXPECT_EQ(frontend_->Handle(invalid).status, 400);

  // Tenant-scoped healthz reports the tenant's model name.
  HttpRequest health = Get("/healthz");
  health.headers.emplace_back("X-Resest-Tenant", "alpha");
  const HttpResponse health_response = frontend_->Handle(health);
  ASSERT_EQ(health_response.status, 200);
  EXPECT_NE(health_response.body.find("default@alpha"), std::string::npos)
      << health_response.body;

  // The admin view lists every tenant; alpha shows the traffic above.
  const HttpResponse tenants = frontend_->Handle(Get("/v1/tenants"));
  ASSERT_EQ(tenants.status, 200);
  for (const char* needle :
       {"\"tenant\":\"default\"", "\"tenant\":\"alpha\"",
        "\"tenant\":\"beta\"", "\"cache\":{", "\"obslog\":{",
        "\"lanes\":{"}) {
    EXPECT_NE(tenants.body.find(needle), std::string::npos) << needle;
  }

  // Metrics expose one sample per tenant in each resest_tenant_* family.
  const HttpResponse metrics = frontend_->Handle(Get("/metrics"));
  ASSERT_EQ(metrics.status, 200);
  for (const char* needle :
       {"resest_tenant_requests_total{tenant=\"default\"}",
        "resest_tenant_requests_total{tenant=\"alpha\"}",
        "resest_tenant_requests_total{tenant=\"beta\"}",
        "resest_tenant_cache_pressure{tenant=\"alpha\"}",
        "resest_tenant_model_version{tenant=\"beta\",model="
        "\"default@beta\"}"}) {
    EXPECT_NE(metrics.body.find(needle), std::string::npos) << needle;
  }

  // Requests routed to alpha never touched the frontend's single-tenant
  // service (the default tenant in the manager is a different instance).
  EXPECT_EQ(service_->stats().requests, 0u);
  frontend_->set_tenant_manager(nullptr);
}

TEST_F(ServerFrontendTest, SingleTenantModeRejectsNamedTenants) {
  // Without a TenantManager only the default tenant exists; naming any
  // other tenant is a 404, and naming the default works.
  const std::string body = WireBatchBody(OperatorRequests(2, 1), "normal");
  HttpRequest named = Post("/v1/estimate", body);
  named.headers.emplace_back("X-Resest-Tenant", "alpha");
  EXPECT_EQ(frontend_->Handle(named).status, 404);
  HttpRequest defaulted = Post("/v1/estimate", body);
  defaulted.headers.emplace_back("X-Resest-Tenant", kDefaultTenant);
  EXPECT_EQ(frontend_->Handle(defaulted).status, 200);
  // /v1/tenants still answers with the synthesized default entry.
  const HttpResponse tenants = frontend_->Handle(Get("/v1/tenants"));
  ASSERT_EQ(tenants.status, 200);
  EXPECT_NE(tenants.body.find("\"tenant\":\"default\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Durable drain: SIGTERM checkpoints and seals the WAL — every observation
// accepted over /v1/observe before the signal survives on disk.
// ---------------------------------------------------------------------------

TEST_F(ServerFrontendTest, SigtermDrainSealsWalWithZeroLostObservations) {
  const char* bin = std::getenv("RESEST_SERVER_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "RESEST_SERVER_BIN not set (ctest sets it)";
  }
  const auto data_dir =
      std::filesystem::temp_directory_path() / "resest_server_drain_wal";
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);

  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    const std::string model_flag = "--model=" + *model_path_;
    const std::string data_flag = "--data-dir=" + data_dir.string();
    ::execl(bin, bin, "--port=0", "--threads=2", model_flag.c_str(),
            "--model-name=default", data_flag.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(out_pipe[1]);

  // With --data-dir the server prints its recovery summary before the
  // listening line — scan stdout for the port announcement.
  FILE* out = ::fdopen(out_pipe[0], "r");
  ASSERT_NE(out, nullptr);
  char line[256] = {0};
  unsigned port = 0;
  while (std::fgets(line, sizeof(line), out) != nullptr) {
    if (std::sscanf(line, "resest_server listening on 127.0.0.1:%u", &port) ==
        1) {
      break;
    }
  }
  ASSERT_GT(port, 0u);

  // POST a deterministic batch; every accepted row must survive the drain.
  constexpr int kRows = 37;
  std::string body = "{\"observations\":[";
  for (int i = 0; i < kRows; ++i) {
    if (i > 0) body += ",";
    const OpType op = static_cast<OpType>(i % kNumOpTypes);
    const Resource resource = static_cast<Resource>(i % kNumResources);
    body += std::string("{\"op\":\"") + OpTypeName(op) + "\",\"resource\":\"" +
            ResourceName(resource) + "\",\"features\":[" + std::to_string(i) +
            ",2.5],\"label\":" + std::to_string(i * 0.25) + "}";
  }
  body += "]}";

  HttpClient client;
  std::string error;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", static_cast<uint16_t>(port), &error))
      << error;
  HttpClientResponse response;
  ASSERT_TRUE(client.Post("/v1/observe", body, &response, &error)) << error;
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\"accepted\":37"), std::string::npos)
      << response.body;

  // SIGTERM only after the 200: the rows were accepted pre-signal.
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  bool wal_line = false;
  while (std::fgets(line, sizeof(line), out) != nullptr) {
    if (std::strncmp(line, "resest_server: wal", 18) == 0) wal_line = true;
  }
  EXPECT_TRUE(wal_line) << "drain did not report the WAL seal";
  std::fclose(out);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // Replay the data dir: a clean log holding every observation, in order.
  RecoveryStats stats;
  std::vector<WalObservation> rows;
  ASSERT_TRUE(ReplayObservationLog(
      data_dir.string(), "default",
      [&](const WalRecord& record) {
        if (record.type == WalRecordType::kObservation) {
          rows.push_back(record.observation);
        }
      },
      &stats));
  EXPECT_TRUE(stats.clean()) << stats.detail;
  ASSERT_EQ(rows.size(), static_cast<size_t>(kRows));
  for (int i = 0; i < kRows; ++i) {
    EXPECT_EQ(rows[i].op, static_cast<OpType>(i % kNumOpTypes)) << i;
    EXPECT_EQ(rows[i].resource, static_cast<Resource>(i % kNumResources)) << i;
    EXPECT_EQ(rows[i].features[0], static_cast<double>(i)) << i;
    EXPECT_EQ(rows[i].label, i * 0.25) << i;
  }
  std::filesystem::remove_all(data_dir);
}

}  // namespace
}  // namespace resest
