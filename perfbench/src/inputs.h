// Workload inputs. Everything here is a pure function of its arguments:
// the corpora the model is trained and scored on are fixed (so the
// accuracy metrics change only when the code does), and everything a
// workload sends is drawn from the workload seed.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/estimator.h"
#include "src/serving/estimation_service.h"
#include "src/workload/runner.h"

namespace perfbench {

using resest::FeatureVector;
using resest::OpType;
using resest::Resource;

/// Executed queries plus the databases they point into.
struct Corpus {
  std::vector<std::unique_ptr<resest::Database>> databases;
  std::vector<resest::ExecutedQuery> queries;
};

/// Training corpus: TPC-H at scale factors 1, 2 and 4 plus TPC-DS at 2.
Corpus TrainingCorpus();
/// Held-out accuracy corpus: TPC-H at scale factor 8, larger than any
/// training scale factor (the paper's data-size generalization test).
Corpus HeldOutCorpus();
/// Feedback corpus, the labelled rows every workload feeds back: TPC-H and
/// TPC-DS at scale factor 3.
Corpus FeedbackCorpus();
/// The optimizer's plan pool: TPC-H at 1, 3 and 6 and TPC-DS at 2 and 5.
Corpus PlanPool();

/// Trains the served model (the same options every workload uses).
resest::TrainOptions ModelTrainOptions(size_t threads);

/// One operator term: what a wire row carries, plus its measured usage.
struct OpRow {
  OpType op = OpType::kTableScan;
  Resource resource = Resource::kCpu;
  FeatureVector features{};
  double label = 0.0;
};

/// Every operator of every query, once per resource, in plan order.
std::vector<OpRow> OperatorRows(const std::vector<resest::ExecutedQuery>& qs);

/// The rows with a non-zero data-size feature: the ones RowStream's
/// rescaling makes distinct (an operator that saw no data stays equal to
/// itself at any scale).
std::vector<OpRow> ScalableRows(const std::vector<OpRow>& rows);

/// Per-operator feature ranges of a training set (Section 6.3 envelope).
class Envelope {
 public:
  explicit Envelope(const std::vector<OpRow>& training_rows);
  /// True when any feature lies outside the training range of its operator.
  bool Outside(const OpRow& row) const;

 private:
  std::array<FeatureVector, resest::kNumOpTypes> lo_{};
  std::array<FeatureVector, resest::kNumOpTypes> hi_{};
  std::array<bool, resest::kNumOpTypes> seen_{};
};

/// Stateless mixing hash (splitmix64 finalizer).
uint64_t Mix(uint64_t x);
/// Bitwise hash of an operator term; equal terms hash equal.
uint64_t TermHash(const OpRow& row);

/// Infinite stream of operator rows: row i is a seeded draw from `base`
/// with its data-size features rescaled by a factor in [0.5, 20], drawn
/// log-uniformly — so rows are distinct and part of the stream lies
/// outside the training envelope. Without `rescale`, rows are plain draws
/// from `base` and repeat.
class RowStream {
 public:
  RowStream(const std::vector<OpRow>* base, uint64_t seed, uint64_t stream,
            bool rescale = true)
      : base_(base),
        key_(Mix(seed * 0x9e3779b97f4a7c15ull + stream)),
        rescale_(rescale) {}
  OpRow Row(uint64_t index) const;

 private:
  const std::vector<OpRow>* base_;
  uint64_t key_;
  bool rescale_;
};

/// Small urgent admission probes: 1-4 distinct rows from a fixed pool of
/// unscaled training operators.
struct ProbeSet {
  std::vector<OpRow> pool;
  std::vector<std::vector<uint32_t>> probes;  ///< Indices into pool.
};
ProbeSet MakeProbes(const std::vector<OpRow>& base, uint64_t seed,
                    size_t count);

/// Poisson arrival offsets (seconds from start) at `rate` per second.
std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double seconds);

/// Optimization sessions: each a batch of plan requests drawn with Zipf
/// skew from the (plan, resource) items of a pool. The popularity ranking
/// is fixed; `seed` drives the draws.
struct SessionSet {
  std::vector<std::vector<resest::EstimateRequest>> sessions;
  /// Per session, the pool item of each request (plan index * 2 + resource).
  std::vector<std::vector<uint32_t>> items;
};
SessionSet MakeSessions(const Corpus& pool, uint64_t seed, size_t sessions,
                        size_t per_session, double zipf_s);

/// Wire bodies (docs/wire_api.md). Features are written in shortest
/// round-trip form up to the last non-zero one.
void AppendEstimateBody(const OpRow* const* rows, size_t n,
                        const char* priority, int deadline_ms,
                        const std::string& tenant, std::string* out);
void AppendObserveBody(const OpRow* const* rows, size_t n,
                       const std::string& tenant, std::string* out);

/// Per-row outcome of an estimate.
inline constexpr uint8_t kRowOk = 0;
inline constexpr uint8_t kRowExpired = 1;  ///< DEADLINE_EXCEEDED.
inline constexpr uint8_t kRowFailed = 2;   ///< Any other failure.

/// Reads the results of a /v1/estimate body into the arrays (one slot per
/// row). False when the body does not hold exactly `n` results.
bool ParseEstimateResponse(const std::string& body, size_t n, double* values,
                           uint64_t* versions, uint8_t* status);
/// The "accepted" count of a /v1/observe response; -1 when absent.
long ParseAccepted(const std::string& body);

/// Workload-property metrics over a stream of operator terms.
struct WorkProperties {
  double repeat_share = 0.0;       ///< Terms equal to an earlier term.
  double extrapolated_share = 0.0; ///< Terms outside the training envelope.
  double working_set_ratio = 0.0;  ///< Distinct terms / cache capacity.
};
class WorkTally {
 public:
  void Add(const OpRow& row, const Envelope& envelope);
  WorkProperties Finish(size_t cache_capacity);

 private:
  std::vector<uint64_t> hashes_;
  uint64_t outside_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
