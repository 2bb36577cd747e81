// Per-layer measurements of the traced run that do not need the HTTP
// front end: the service-scheduler replay (queue wait per lane, service
// time per row, chunk size, taken from the public chunk_claim_hook) and
// the isolated layer costs on the workload's own inputs.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/inputs.h"
#include "perfbench/src/load.h"
#include "perfbench/src/util.h"
#include "src/common/thread_pool.h"
#include "src/serving/model_registry.h"

namespace perfbench {

/// One submission stream of the replay.
struct ReplayStream {
  std::string model_name;
  /// The k-th batch (operator rows or a plan session); the same k gives
  /// the same batch.
  std::function<std::vector<resest::EstimateRequest>(uint64_t k)> batch;
  resest::TaskPriority priority = resest::TaskPriority::kNormal;
};

struct ReplayResult {
  double main_wait_p50_us = 0.0;
  double main_wait_p99_us = 0.0;
  double main_wait_mean_us = 0.0;
  double urgent_wait_p50_us = 0.0;
  double urgent_wait_p99_us = 0.0;
  double service_us_per_row = 0.0;  ///< First claim to completion, main.
  double chunk_size = 0.0;          ///< Mean effective chunk size, main.
  uint64_t unmatched_claims = 0;    ///< Hook calls the FIFO could not place.
  Verdict verdict;
};

/// Replays the workload's submissions straight into fresh
/// EstimationServices on `pool` (one per model name): `callers` closed-loop
/// threads submit `main` batches while the calling thread sends `probes`
/// open-loop at `probe_rate` (urgent, with a deadline) to `probe_model`.
/// Queue wait = submit to the batch's first chunk claim, matched per lane
/// in FIFO order with the chunk counts EffectiveChunkSize predicts.
/// Operator answers are checked against `oracle` (by the model's active
/// version); plan answers against `check_plan` when given.
ReplayResult ReplayService(
    const resest::ModelRegistry& registry, resest::ThreadPool* pool,
    const ReplayStream& main, const std::string& probe_model,
    const ProbeSet& probes, double probe_rate, int callers, double seconds,
    uint64_t seed, const Oracle& oracle,
    const std::function<bool(const std::vector<resest::EstimateRequest>&,
                             const std::vector<resest::EstimateResult>&)>&
        check_plan);

/// Batch k of `per_batch` operator rows of a row stream.
std::vector<resest::EstimateRequest> RowBatch(const RowStream& rows,
                                              size_t per_batch, uint64_t k);

/// Runs `pass` (which returns the units it processed) until at least
/// `min_s` elapsed, three times; the median of the per-unit costs in ns.
template <typename Fn>
double NsPerUnit(Fn&& pass, double min_s = 0.05) {
  std::vector<double> costs;
  for (int rep = 0; rep < 3; ++rep) {
    double units = 0.0;
    const auto start = Clock::now();
    do {
      units += pass();
    } while (SecondsBetween(start, Clock::now()) < min_s);
    costs.push_back(1e9 * SecondsBetween(start, Clock::now()) /
                    std::max(1.0, units));
  }
  return Median(costs);
}

/// Isolated layer costs, each the median of three timed passes.
struct MicroInputs {
  const resest::ResourceEstimator* model = nullptr;
  std::vector<OpRow> rows;         ///< The workload's estimate rows.
  std::vector<OpRow> observe_rows; ///< The workload's feedback rows.
  const std::vector<resest::ExecutedQuery>* plans = nullptr;
  size_t wire_rows = 64;           ///< Rows per wire body.
};
void MeasureMicro(const MicroInputs& in, Report* report);

/// Forest kernel throughput on the rows the model's compiled forests see.
void MeasureForest(const resest::ResourceEstimator& model,
                   const std::vector<OpRow>& rows, Report* report);

/// IncrementalTrainer costs: WAL-backed Append per row, and the CPU time
/// of one refit of the slots `observe_rows` cross after seeding the
/// trainer with `training`.
void MeasureTrainer(const std::vector<resest::ExecutedQuery>& training,
                    const std::vector<OpRow>& observe_rows,
                    const std::string& wal_dir, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
