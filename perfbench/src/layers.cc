#include "perfbench/src/layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <thread>

#include "src/common/serial.h"
#include "src/core/combined_model.h"
#include "src/ml/mart.h"
#include "src/server/json.h"
#include "src/server/wire_api.h"
#include "src/serving/estimate_cache.h"
#include "src/serving/estimation_service.h"
#include "src/training/incremental_trainer.h"

namespace perfbench {

using resest::EstimateRequest;
using resest::EstimateResult;
using resest::TaskPriority;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Matches chunk-claim hook calls to submitted batches: within a lane the
/// scheduler serves batches FIFO, and each batch is claimed exactly
/// `chunks` times, so the first claim of the batch at the front of the
/// lane's queue ends its queue wait.
class LaneTracker {
 public:
  void Push(TaskPriority lane, Clock::time_point submit, size_t chunks,
            std::shared_ptr<std::atomic<int64_t>> first_claim) {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[static_cast<size_t>(lane)].push_back(
        {submit, chunks, 0, std::move(first_claim)});
  }
  void OnClaim(TaskPriority lane) {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    auto& q = queues_[static_cast<size_t>(lane)];
    if (q.empty()) {
      ++unmatched_;
      return;
    }
    Pending& front = q.front();
    if (front.claimed == 0) {
      waits_us_[static_cast<size_t>(lane)].push_back(
          1e3 * MsBetween(front.submit, now));
      front.first_claim->store(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now.time_since_epoch())
              .count());
    }
    if (++front.claimed == front.chunks) q.pop_front();
  }
  std::vector<double> Waits(TaskPriority lane) const {
    std::lock_guard<std::mutex> lock(mu_);
    return waits_us_[static_cast<size_t>(lane)];
  }
  uint64_t unmatched() const {
    std::lock_guard<std::mutex> lock(mu_);
    return unmatched_;
  }

 private:
  struct Pending {
    Clock::time_point submit;
    size_t chunks;
    size_t claimed;
    std::shared_ptr<std::atomic<int64_t>> first_claim;
  };
  mutable std::mutex mu_;
  std::array<std::deque<Pending>, resest::kNumTaskPriorities> queues_;
  std::array<std::vector<double>, resest::kNumTaskPriorities> waits_us_;
  uint64_t unmatched_ = 0;
};

/// Work items after the service's in-batch dedup (pointer identity for
/// plans, bitwise payload equality for operator rows).
size_t DistinctWork(const std::vector<EstimateRequest>& requests) {
  std::vector<uint64_t> keys;
  for (const EstimateRequest& r : requests) {
    if (r.has_features) {
      OpRow row;
      row.op = r.op;
      row.resource = r.resource;
      row.features = r.features;
      keys.push_back(TermHash(row));
    } else {
      keys.push_back(Mix(reinterpret_cast<uintptr_t>(r.plan) * 4 +
                         static_cast<uint64_t>(r.resource)) ^
                     Mix(reinterpret_cast<uintptr_t>(r.database)));
    }
  }
  std::sort(keys.begin(), keys.end());
  return static_cast<size_t>(std::unique(keys.begin(), keys.end()) -
                             keys.begin());
}

/// One service with the tracker wired into its chunk_claim_hook.
struct TrackedService {
  LaneTracker tracker;
  std::unique_ptr<resest::EstimationService> service;
  std::mutex submit_mu;  ///< Keeps tracker order equal to submit order.

  TrackedService(const resest::ModelRegistry& registry, resest::ThreadPool* pool,
                 const std::string& model_name) {
    resest::ServiceOptions options;
    options.model_name = model_name;
    LaneTracker* t = &tracker;
    options.chunk_claim_hook = [t](TaskPriority p, bool) { t->OnClaim(p); };
    service = std::make_unique<resest::EstimationService>(&registry, pool,
                                                          options);
  }

  /// SubmitBatch after registering the batch with the tracker: the future
  /// flavor, or with a BatchCallback as `done`, the callback flavor.
  template <typename... Done>
  auto Submit(const std::vector<EstimateRequest>& requests,
              const resest::SubmitOptions& options,
              std::shared_ptr<std::atomic<int64_t>> first_claim, size_t* chunk,
              Done... done) {
    const size_t work = DistinctWork(requests);
    *chunk = service->EffectiveChunkSize(work, options.priority);
    const size_t chunks = (work + *chunk - 1) / *chunk;
    std::lock_guard<std::mutex> lock(submit_mu);
    tracker.Push(options.priority, Clock::now(), chunks, std::move(first_claim));
    return service->SubmitBatch(requests, std::move(done)..., options);
  }
};

bool OperatorAnswersMatch(const Oracle& oracle,
                          const std::vector<EstimateRequest>& requests,
                          const std::vector<EstimateResult>& results) {
  if (results.size() != requests.size()) return false;
  for (size_t i = 0; i < results.size(); ++i) {
    const resest::ResourceEstimator* e = oracle.Get(results[i].model_version);
    if (!results[i].ok() || e == nullptr ||
        !SameBits(results[i].value,
                  e->EstimateFromFeatures(requests[i].op, requests[i].features,
                                          requests[i].resource))) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<EstimateRequest> RowBatch(const RowStream& rows, size_t per_batch,
                                      uint64_t k) {
  std::vector<EstimateRequest> batch;
  for (uint64_t i = k * per_batch; i < (k + 1) * per_batch; ++i) {
    const OpRow row = rows.Row(i);
    batch.push_back(
        EstimateRequest::ForOperator(row.op, row.features, row.resource));
  }
  return batch;
}

ReplayResult ReplayService(
    const resest::ModelRegistry& registry, resest::ThreadPool* pool,
    const ReplayStream& main, const std::string& probe_model,
    const ProbeSet& probes, double probe_rate, int callers, double seconds,
    uint64_t seed, const Oracle& oracle,
    const std::function<bool(const std::vector<EstimateRequest>&,
                             const std::vector<EstimateResult>&)>& check_plan) {
  TrackedService main_service(registry, pool, main.model_name);
  std::unique_ptr<TrackedService> own_probe_service;
  if (probe_model != main.model_name) {
    own_probe_service =
        std::make_unique<TrackedService>(registry, pool, probe_model);
  }
  TrackedService& probe_service =
      own_probe_service ? *own_probe_service : main_service;

  struct CallerTotals {
    double service_us = 0.0;
    double rows = 0.0;
    double chunk_sum = 0.0;
    uint64_t batches = 0;
    uint64_t failed = 0;
    std::vector<std::pair<uint64_t, std::vector<EstimateResult>>> answers;
  };
  std::vector<CallerTotals> totals(static_cast<size_t>(callers));
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c]() {
      CallerTotals& t = totals[static_cast<size_t>(c)];
      resest::SubmitOptions options;
      options.priority = main.priority;
      for (uint64_t k = static_cast<uint64_t>(c); !stop.load(); k += callers) {
        const std::vector<EstimateRequest> batch = main.batch(k);
        auto first_claim = std::make_shared<std::atomic<int64_t>>(0);
        size_t chunk = 0;
        std::vector<EstimateResult> results =
            main_service.Submit(batch, options, first_claim, &chunk).get();
        const int64_t done = NowNs();
        if (first_claim->load() > 0) {
          t.service_us += 1e-3 * static_cast<double>(done - first_claim->load());
          t.rows += static_cast<double>(batch.size());
        }
        t.chunk_sum += static_cast<double>(chunk);
        ++t.batches;
        t.answers.emplace_back(k, std::move(results));
      }
    });
  }
  // Urgent probes, open loop, on this thread.
  ProbeSchedule schedule;
  schedule.probes = &probes;
  schedule.seed = seed ^ 0x7e91a;
  schedule.rate = probe_rate;
  schedule.warmup_s = 0.0;
  schedule.measure_s = seconds;
  ProbeLog probe_log;
  ServiceProbes transport(
      [&](std::vector<EstimateRequest> batch, const resest::SubmitOptions& options,
          resest::BatchCallback done) {
        size_t chunk = 0;
        probe_service.Submit(batch, options,
                             std::make_shared<std::atomic<int64_t>>(0), &chunk,
                             std::move(done));
      },
      schedule.deadline_ms);
  const auto start = Clock::now();
  RunProbes(schedule, start, start, &transport, &probe_log);
  Verdict verdict = VerifyProbes(probes, probe_log, oracle);
  stop.store(true);
  for (std::thread& t : threads) t.join();

  ReplayResult r;
  double service_us = 0.0, rows = 0.0, chunk_sum = 0.0, batches = 0.0;
  for (const CallerTotals& t : totals) {
    service_us += t.service_us;
    rows += t.rows;
    chunk_sum += t.chunk_sum;
    batches += static_cast<double>(t.batches);
    verdict.attempted += t.batches;
    for (const auto& [k, results] : t.answers) {
      const std::vector<EstimateRequest> batch = main.batch(k);
      const bool ok = batch.front().has_features
                          ? OperatorAnswersMatch(oracle, batch, results)
                          : check_plan(batch, results);
      if (!ok) ++verdict.failed;
    }
  }
  const std::vector<double> main_waits = main_service.tracker.Waits(main.priority);
  const std::vector<double> urgent_waits =
      probe_service.tracker.Waits(TaskPriority::kUrgent);
  r.main_wait_p50_us = Percentile(main_waits, 0.50);
  r.main_wait_p99_us = Percentile(main_waits, 0.99);
  r.main_wait_mean_us = Mean(main_waits);
  r.urgent_wait_p50_us = Percentile(urgent_waits, 0.50);
  r.urgent_wait_p99_us = Percentile(urgent_waits, 0.99);
  r.service_us_per_row = rows > 0.0 ? service_us / rows : 0.0;
  r.chunk_size = batches > 0.0 ? chunk_sum / batches : 0.0;
  r.unmatched_claims = main_service.tracker.unmatched() +
                       (own_probe_service ? own_probe_service->tracker.unmatched()
                                          : 0);
  r.verdict = verdict;
  return r;
}

namespace {

std::vector<std::string> WireBodies(const std::vector<OpRow>& rows,
                                    size_t per_body, bool observe) {
  std::vector<std::string> bodies;
  for (size_t i = 0; i + per_body <= rows.size() && bodies.size() < 64;
       i += per_body) {
    std::vector<const OpRow*> ptrs;
    for (size_t j = i; j < i + per_body; ++j) ptrs.push_back(&rows[j]);
    std::string body;
    if (observe) {
      AppendObserveBody(ptrs.data(), ptrs.size(), "", &body);
    } else {
      AppendEstimateBody(ptrs.data(), ptrs.size(), "normal", 0, "", &body);
    }
    bodies.push_back(std::move(body));
  }
  return bodies;
}

}  // namespace

void MeasureMicro(const MicroInputs& in, Report* report) {
  volatile double sink = 0.0;
  // Wire parse and format on the workload's bodies.
  const std::vector<std::string> bodies = WireBodies(in.rows, in.wire_rows, false);
  report->Add("wire.parse_ns_per_row", NsPerUnit([&]() {
                std::vector<EstimateRequest> requests;
                resest::SubmitOptions options;
                std::string tenant, error;
                double rows = 0.0;
                for (const std::string& body : bodies) {
                  resest::ParseEstimateWireRequest(body, &requests, &options,
                                                   &tenant, &error);
                  rows += static_cast<double>(requests.size());
                }
                return rows;
              }),
              "ns");
  std::vector<std::vector<EstimateResult>> answers;
  for (size_t i = 0; i + in.wire_rows <= in.rows.size() && answers.size() < 64;
       i += in.wire_rows) {
    std::vector<EstimateResult> results;
    for (size_t j = i; j < i + in.wire_rows; ++j) {
      EstimateResult r;
      r.value = in.model->EstimateFromFeatures(in.rows[j].op, in.rows[j].features,
                                               in.rows[j].resource);
      r.model_version = 1;
      results.push_back(r);
    }
    answers.push_back(std::move(results));
  }
  report->Add("wire.format_ns_per_row", NsPerUnit([&]() {
                double rows = 0.0;
                for (const auto& results : answers) {
                  sink = sink + static_cast<double>(
                                    resest::FormatEstimateWireResponse(results)
                                        .size());
                  rows += static_cast<double>(results.size());
                }
                return rows;
              }),
              "ns");
  const std::vector<std::string> observe_bodies =
      WireBodies(in.observe_rows, 64, true);
  report->Add("wire.observe_parse_ns_per_row", NsPerUnit([&]() {
                double rows = 0.0;
                for (const std::string& body : observe_bodies) {
                  resest::JsonValue doc;
                  std::string error, tenant;
                  std::vector<resest::ObserveWireRow> parsed;
                  resest::JsonValue::Parse(body, &doc, &error);
                  resest::ParseObserveWireBatch(doc, &parsed, &error, &tenant);
                  rows += static_cast<double>(parsed.size());
                }
                return rows;
              }),
              "ns");

  // Estimate cache on the workload's keys.
  std::vector<resest::EstimateCache::Key> keys;
  for (const OpRow& row : in.rows) {
    if (keys.size() >= 96 * 1024) break;
    resest::EstimateCache::Key k;
    k.model_version = 1;
    k.op = row.op;
    k.resource = row.resource;
    k.features = row.features;
    keys.push_back(k);
  }
  std::vector<double> insert_ns, hit_ns, miss_ns;
  for (int rep = 0; rep < 3; ++rep) {
    resest::EstimateCache cache;
    auto t0 = Clock::now();
    for (const auto& k : keys) cache.Insert(k, 1.0);
    insert_ns.push_back(1e9 * SecondsBetween(t0, Clock::now()) /
                        static_cast<double>(keys.size()));
    const size_t present = std::min(keys.size(), cache.capacity() / 2);
    double v = 0.0;
    t0 = Clock::now();
    for (size_t i = keys.size() - present; i < keys.size(); ++i) {
      cache.Lookup(keys[i], &v);
    }
    hit_ns.push_back(1e9 * SecondsBetween(t0, Clock::now()) /
                     static_cast<double>(present));
    t0 = Clock::now();
    for (size_t i = keys.size() - present; i < keys.size(); ++i) {
      resest::EstimateCache::Key k = keys[i];
      k.model_version = 2;
      cache.Lookup(k, &v);
    }
    miss_ns.push_back(1e9 * SecondsBetween(t0, Clock::now()) /
                      static_cast<double>(present));
  }
  report->Add("cache.insert_ns", Median(insert_ns), "ns");
  report->Add("cache.lookup_ns_hit", Median(hit_ns), "ns");
  report->Add("cache.lookup_ns_miss", Median(miss_ns), "ns");

  // Estimator: feature extraction over plans, batched keyed estimation.
  report->Add("estimator.features_ns_per_op", NsPerUnit([&]() {
                double ops = 0.0;
                for (const resest::ExecutedQuery& q : *in.plans) {
                  resest::VisitPlanOperators(
                      q.plan, [&](const resest::PlanNode& node,
                                  const resest::PlanNode* parent) {
                        sink = sink + resest::ExtractFeatures(
                                          node, parent, *q.database,
                                          resest::FeatureMode::kExact)[0];
                        ops += 1.0;
                      });
                }
                return ops;
              }),
              "ns");
  std::map<std::pair<int, int>, std::vector<const FeatureVector*>> groups;
  for (size_t i = 0; i < in.rows.size() && i < 16384; ++i) {
    groups[{static_cast<int>(in.rows[i].op), static_cast<int>(in.rows[i].resource)}]
        .push_back(&in.rows[i].features);
  }
  std::vector<double> out(16384);
  report->Add("estimator.batch_ns_per_row", NsPerUnit([&]() {
                double rows = 0.0;
                for (const auto& [key, ptrs] : groups) {
                  in.model->EstimateBatchFromFeatures(
                      static_cast<OpType>(key.first), ptrs.data(), ptrs.size(),
                      static_cast<Resource>(key.second), out.data());
                  rows += static_cast<double>(ptrs.size());
                }
                return rows;
              }),
              "ns");
  MeasureForest(*in.model, in.rows, report);
}

void MeasureForest(const resest::ResourceEstimator& model,
                   const std::vector<OpRow>& rows, Report* report) {
  // Group rows by the combined model Section 6.3 selects for them, and
  // build each model's input matrix the way CombinedModel does (dependent
  // features divided by the scale features, then projected onto the input
  // features). The Mart is reached through the model's serialized form.
  struct Group {
    resest::Mart mart;
    bool normalize = false;
    std::vector<double> matrix;
    size_t width = 0;
    size_t rows = 0;
  };
  std::map<const resest::CombinedModel*, Group> groups;
  for (size_t i = 0; i < rows.size() && i < 16384; ++i) {
    const resest::OperatorModelSet* set = model.ModelsFor(rows[i].op, rows[i].resource);
    if (set == nullptr || set->empty()) continue;
    const resest::CombinedModel* cm = set->Select(rows[i].features);
    auto it = groups.find(cm);
    if (it == groups.end()) {
      std::vector<uint8_t> bytes;
      resest::ByteWriter w(&bytes);
      cm->SerializeTo(&w);
      resest::ByteReader r(bytes);
      int32_t op = 0, resource = 0, joint_fn = 0;
      uint8_t norm = 0, joint = 0;
      std::vector<int32_t> feats, fns, inputs;
      std::vector<double> low, high;
      double train_error = 0.0;
      std::vector<uint8_t> mart_bytes;
      Group g;
      if (!r.Pod(&op) || !r.Pod(&resource) || !r.Pod(&norm) ||
          !r.PodVector(&feats) || !r.PodVector(&fns) || !r.Pod(&joint) ||
          !r.Pod(&joint_fn) || !r.PodVector(&inputs) || !r.PodVector(&low) ||
          !r.PodVector(&high) || !r.F64(&train_error) || !r.Bytes(&mart_bytes) ||
          !g.mart.Deserialize(mart_bytes)) {
        continue;
      }
      g.width = cm->input_features().size();
      g.normalize = norm != 0;
      it = groups.emplace(cm, std::move(g)).first;
    }
    Group& g = it->second;
    if (g.width == 0) continue;
    FeatureVector v = rows[i].features;
    if (g.normalize) {
      for (resest::FeatureId f : cm->spec().features) {
        const double denom =
            std::max(1.0, rows[i].features[static_cast<size_t>(f)]);
        for (resest::FeatureId dep : resest::Dependents(f)) {
          v[static_cast<size_t>(dep)] /= denom;
        }
      }
    }
    for (resest::FeatureId f : cm->input_features()) {
      g.matrix.push_back(v[static_cast<size_t>(f)]);
    }
    ++g.rows;
  }
  std::vector<double> out(16384);
  const auto rows_per_s = [&](int kernel) {
    const double ns = NsPerUnit([&]() {
      double n = 0.0;
      for (const auto& [cm, g] : groups) {
        if (g.rows == 0) continue;
        const resest::CompiledForest& forest = g.mart.compiled();
        if (kernel < 0) {
          forest.PredictBatch(g.matrix.data(), g.rows, g.width, out.data());
        } else {
          forest.PredictBatchWith(static_cast<resest::ForestKernel>(kernel),
                                  g.matrix.data(), g.rows, g.width, out.data());
        }
        n += static_cast<double>(g.rows);
      }
      return n;
    });
    return 1e9 / ns;
  };
  report->Add("forest.rows_per_s", rows_per_s(-1), "1/s");
  report->Add("forest.rows_per_s.scalar",
              rows_per_s(static_cast<int>(resest::ForestKernel::kScalar)), "1/s");
  report->Add("forest.rows_per_s.avx2",
              rows_per_s(static_cast<int>(resest::ForestKernel::kAvx2)), "1/s");
  report->Add("forest.rows_per_s.avx512",
              rows_per_s(static_cast<int>(resest::ForestKernel::kAvx512)), "1/s");
}

}  // namespace perfbench

namespace perfbench {

void MeasureTrainer(const std::vector<resest::ExecutedQuery>& training,
                    const std::vector<OpRow>& observe_rows,
                    const std::string& wal_dir, Report* report) {
  const int nproc = AvailableCpus();
  // WAL-backed appends, the /v1/observe ingest path below the wire.
  {
    resest::IncrementalTrainer trainer(ModelTrainOptions(nproc));
    if (trainer.EnableDurability(wal_dir, "perfbench")) {
      constexpr size_t kRows = 20000;
      const auto start = Clock::now();
      for (size_t i = 0; i < kRows; ++i) {
        const OpRow& row = observe_rows[i % observe_rows.size()];
        trainer.Append(row.op, row.resource, row.features, row.label);
      }
      report->Add("trainer.append_us_per_row",
                  1e6 * SecondsBetween(start, Clock::now()) / kRows, "us");
      const resest::WalStats wal = trainer.durability_stats().wal;
      report->Add("trainer.append_wal_bytes_per_row",
                  static_cast<double>(wal.bytes_appended) / kRows, "B");
      report->Add("trainer.append_wal_fsyncs_per_1k_rows",
                  1e3 * static_cast<double>(wal.fsyncs) / kRows, "count");
    }
  }
  // One refit of the slots the feedback rows cross, on an idle pool: its
  // CPU time is the process's, since nothing else runs.
  resest::ThreadPool pool(static_cast<size_t>(nproc));
  resest::IncrementalTrainer trainer(ModelTrainOptions(nproc), {}, &pool);
  trainer.SeedAndTrain(training);
  for (const OpRow& row : observe_rows) {
    trainer.Append(row.op, row.resource, row.features, row.label);
  }
  rusage before{}, after{};
  getrusage(RUSAGE_SELF, &before);
  trainer.RefitAffected();
  getrusage(RUSAGE_SELF, &after);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  report->Add("trainer.refit_cpu_s",
              seconds(after.ru_utime) - seconds(before.ru_utime) +
                  seconds(after.ru_stime) - seconds(before.ru_stime),
              "s");
}

}  // namespace perfbench
