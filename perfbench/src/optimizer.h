// The in-process optimizer deployment behind optimizer-hot: the serving
// stack, the traffic mix and its checking.
#ifndef PERFBENCH_OPTIMIZER_H_
#define PERFBENCH_OPTIMIZER_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "perfbench/src/load.h"
#include "perfbench/src/workloads.h"
#include "src/common/thread_pool.h"
#include "src/serving/estimation_service.h"
#include "src/serving/model_registry.h"
#include "src/training/incremental_trainer.h"

namespace perfbench {

/// EstimateQuery of every pool item (plan index * 2 + resource) per model
/// version.
class PlanOracle {
 public:
  void Add(uint64_t version, const resest::ResourceEstimator& estimator,
           const Corpus& pool);
  std::shared_ptr<const std::vector<double>> Get(uint64_t version) const;

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const std::vector<double>>> tables_;
};

struct OptimizerInputs {
  explicit OptimizerInputs(uint64_t seed);
  CommonInputs common;
  Corpus pool;
  SessionSet sessions;
  std::vector<std::vector<resest::ExecutedQuery>> feedback_batches;
};

/// Urgent probes per second beside the optimizer's sessions.
inline constexpr double kSideProbeRate = 500.0;

/// Refit policy of the optimizer's trainer: a feedback batch crosses it on
/// the operators it covers.
resest::RefitPolicy OptimizerRefitPolicy();

/// Pool, registry, trainer (seeded with the training corpus, baseline
/// published as "default") and service; Reset() tears down in reverse.
struct OptimizerStack {
  std::unique_ptr<resest::ModelRegistry> registry;
  std::unique_ptr<resest::ThreadPool> pool;
  std::unique_ptr<resest::IncrementalTrainer> trainer;
  std::unique_ptr<resest::EstimationService> service;
  uint64_t base_version = 0;
  void Reset();
};
/// Builds the stack; returns the set-up time (to the first answer).
double SetUpOptimizerStack(const CommonInputs& in, OptimizerStack* stack);

struct OptimizerMix {
  uint64_t seed = 0;
  int callers = 1;
  const resest::EstimationService* service = nullptr;
  const SessionSet* sessions = nullptr;
  const PlanOracle* plan_oracle = nullptr;
  const ProbeSet* probes = nullptr;
  double probe_rate = 100.0;
  int probe_deadline_ms = 10;
  double warmup_s = 1.0;
  double measure_s = 10.0;
  std::vector<double> fixed_points;
  std::function<void(size_t)> at_fixed_point;
  std::vector<double> marks;
  std::function<void(double)> at_mark;
};

struct CallerLog {
  uint64_t batches = 0;
  uint64_t failed = 0;
  std::map<size_t, uint64_t> sessions_run;
  /// Batches answered by a version whose oracle table was not built yet.
  std::vector<std::pair<size_t, std::vector<resest::EstimateResult>>> pending;
  std::vector<Sample> samples;
  pid_t tid = 0;
};

struct OptimizerRun {
  std::vector<CallerLog> callers;
  ProbeLog probes;
  pid_t main_tid = 0;
  pid_t feedback_tid = 0;
  Clock::time_point window_start;
};

OptimizerRun RunOptimizerMix(const OptimizerMix& mix);
Verdict VerifyOptimizerRun(const OptimizerMix& mix, const OptimizerRun& run,
                           const Oracle& oracle);
/// Operator terms of each pool item (plan index * 2 + resource).
std::vector<std::vector<OpRow>> PoolItemTerms(const Corpus& pool);
void TallyOptimizerRun(const OptimizerMix& mix, const OptimizerRun& run,
                       const std::vector<std::vector<OpRow>>& item_terms,
                       const Envelope& envelope, WorkTally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_OPTIMIZER_H_
