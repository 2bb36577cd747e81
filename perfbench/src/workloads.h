// The three workloads and the metric names the benchmark reports.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/inputs.h"
#include "perfbench/src/load.h"
#include "perfbench/src/util.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string server_binary;  ///< resest_server, for the HTTP workloads.
  std::string workdir;        ///< Scratch directory owned by this run.
  std::string git_sha;
  std::string source_digest;
};

/// End-to-end metrics (printed by the untraced run), in BENCHMARK.json
/// order.
const std::vector<std::string>& EndToEndMetrics();
/// Per-layer metrics (printed by the traced run).
const std::vector<std::string>& PerLayerMetrics();

/// Traffic shape of one HTTP workload.
struct HttpWorkload {
  std::string name;
  std::vector<std::string> tenants;  ///< Named tenants besides default.
  std::string main_tenant;
  std::string main_priority;
  size_t main_rows = 64;
  std::string probe_tenant;
  double probe_rate = 100.0;
  /// Connections the probes and the feedback share; the main clients take
  /// the rest of nproc (at least one).
  int side_connections = kSideConnections;
  std::string observe_tenant;
  double observe_rate = 20.0;  ///< Feedback batches per second.
};
/// Null for a workload that is not served over HTTP.
const HttpWorkload* FindHttpWorkload(const std::string& name);

/// The inputs every workload shares.
struct CommonInputs {
  Corpus training;
  Corpus held_out;
  Corpus feedback;
  std::vector<OpRow> training_rows;
  std::vector<OpRow> scalable_rows;  ///< RowStream base of the HTTP mains.
  std::vector<OpRow> feedback_rows;
};
CommonInputs MakeCommonInputs();

/// The paper's Section 7.1 metrics of `estimator` on the held-out corpus,
/// CPU and I/O estimates pooled.
struct Accuracy {
  double l1 = 0.0;
  double ratio_gt2 = 0.0;
};
Accuracy ScoreHeldOut(const resest::ResourceEstimator& estimator,
                      const Corpus& held_out);

/// Set-ups per run; setup_s is their median, so that a slow start of the
/// host (the first run after an idle spell takes longer over its first few
/// set-ups) does not set it.
inline constexpr int kSetups = 9;

/// In-process callers besides the probe generator and the feedback
/// thread: nproc - 2, at least 1.
int MainClients();

/// The workload's HTTP traffic against `port`, over the nominal window.
HttpMix MixOf(const HttpWorkload& w, const Args& args, const CommonInputs& in,
              const ProbeSet& probes, uint16_t port);

int RunHttpWorkload(const Args& args, const HttpWorkload& w);
int TraceHttpWorkload(const Args& args, const HttpWorkload& w);
int RunOptimizerHot(const Args& args);
int TraceOptimizerHot(const Args& args);

/// Prints the report and returns the exit code: 0 only when every check
/// passed and every contract metric was measured.
int Finish(const Args& args, const Report& report, const Verdict& verdict,
           bool extra_ok);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
