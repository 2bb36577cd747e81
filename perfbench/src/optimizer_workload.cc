// optimizer-hot: the paper's optimizer deployment, in-process. Caller
// threads estimate optimization sessions (plan batches drawn with Zipf skew
// from a fixed pool) through EstimationService::EstimateBatch while a
// feedback thread folds fixed feedback batches into an IncrementalTrainer
// and delta-publishes refits at fixed points, and the calling thread sends
// open-loop urgent operator probes.
#include "perfbench/src/optimizer.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

namespace perfbench {

using resest::EstimateRequest;
using resest::EstimateResult;

namespace {

double ThreadCpuSeconds() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

}  // namespace

void PlanOracle::Add(uint64_t version, const resest::ResourceEstimator& estimator,
                     const Corpus& pool) {
  auto table = std::make_shared<std::vector<double>>();
  for (const resest::ExecutedQuery& q : pool.queries) {
    table->push_back(estimator.EstimateQuery(q.plan, *q.database, Resource::kCpu));
    table->push_back(estimator.EstimateQuery(q.plan, *q.database, Resource::kIo));
  }
  std::lock_guard<std::mutex> lock(mu_);
  tables_[version] = std::move(table);
}

std::shared_ptr<const std::vector<double>> PlanOracle::Get(
    uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tables_.find(version);
  return it == tables_.end() ? nullptr : it->second;
}

OptimizerInputs::OptimizerInputs(uint64_t seed)
    : common(MakeCommonInputs()),
      pool(PlanPool()),
      sessions(MakeSessions(pool, seed, 2048, 32, 1.1)) {
  // Three fixed feedback batches: consecutive thirds of the feedback corpus
  // (its rows were extracted already; the queries move into the batches).
  std::vector<resest::ExecutedQuery>& all = common.feedback.queries;
  const size_t n = all.size();
  for (size_t b = 0; b < 3; ++b) {
    std::vector<resest::ExecutedQuery> batch;
    for (size_t i = b * n / 3; i < (b + 1) * n / 3; ++i) {
      batch.push_back(std::move(all[i]));
    }
    feedback_batches.push_back(std::move(batch));
  }
  all.clear();
}

resest::RefitPolicy OptimizerRefitPolicy() {
  resest::RefitPolicy policy;
  policy.min_new_rows = 8;
  return policy;
}

double SetUpOptimizerStack(const CommonInputs& in, OptimizerStack* stack) {
  const int nproc = AvailableCpus();
  const auto start = Clock::now();
  stack->pool = std::make_unique<resest::ThreadPool>(nproc);
  stack->registry = std::make_unique<resest::ModelRegistry>();
  stack->trainer = std::make_unique<resest::IncrementalTrainer>(
      ModelTrainOptions(nproc), OptimizerRefitPolicy(), stack->pool.get());
  stack->trainer->SeedAndTrain(in.training.queries);
  stack->base_version =
      stack->trainer->PublishBaseline(stack->registry.get(), "default");
  stack->service = std::make_unique<resest::EstimationService>(
      stack->registry.get(), stack->pool.get());
  // Ready once a first estimate comes back.
  const resest::ExecutedQuery& q = in.training.queries.front();
  EstimateRequest probe;
  probe.plan = &q.plan;
  probe.database = q.database;
  stack->service->EstimateBatch({probe});
  return SecondsBetween(start, Clock::now());
}

void OptimizerStack::Reset() {
  service.reset();
  trainer.reset();
  pool.reset();
  registry.reset();
}

OptimizerRun RunOptimizerMix(const OptimizerMix& mix) {
  OptimizerRun run;
  run.callers.resize(static_cast<size_t>(mix.callers));
  const auto start = Clock::now();
  run.window_start = At(start, mix.warmup_s);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> next_session{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < run.callers.size(); ++c) {
    threads.emplace_back([&, c]() {
      CallerLog& log = run.callers[c];
      log.tid = CurrentTid();
      uint64_t cached_version = 0;
      std::shared_ptr<const std::vector<double>> table;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t s = next_session.fetch_add(1) % mix.sessions->sessions.size();
        const std::vector<EstimateRequest>& session = mix.sessions->sessions[s];
        const auto sent = Clock::now();
        const std::vector<EstimateResult> results =
            mix.service->EstimateBatch(session);
        const auto done = Clock::now();
        ++log.batches;
        ++log.sessions_run[s];
        bool bad = results.size() != session.size();
        for (size_t i = 0; !bad && i < results.size(); ++i) {
          if (!results[i].ok()) {
            bad = true;
            break;
          }
          if (results[i].model_version != cached_version || table == nullptr) {
            cached_version = results[i].model_version;
            table = mix.plan_oracle->Get(cached_version);
          }
          if (table == nullptr) {
            log.pending.push_back({s, results});
            break;
          }
          if (!SameBits(results[i].value,
                        (*table)[mix.sessions->items[s][i]])) {
            bad = true;
          }
        }
        const double answered = static_cast<double>(results.size());
        if (bad) ++log.failed;
        const double at = SecondsBetween(run.window_start, done);
        if (!bad && at >= 0.0) {
          log.samples.push_back({at, MsBetween(sent, done), answered});
        }
      }
    });
  }
  threads.emplace_back([&]() {
    run.feedback_tid = CurrentTid();
    for (size_t k = 0; k < mix.fixed_points.size(); ++k) {
      const auto when = At(run.window_start, mix.fixed_points[k] * mix.measure_s);
      while (Clock::now() < when && !stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (stop.load()) break;
      if (mix.at_fixed_point) mix.at_fixed_point(k);
    }
  });

  // Open-loop urgent probes and marks on this thread.
  run.main_tid = CurrentTid();
  ServiceProbes probes(
      [&](std::vector<EstimateRequest> requests,
          const resest::SubmitOptions& options, resest::BatchCallback done) {
        mix.service->SubmitBatch(std::move(requests), std::move(done), options);
      },
      mix.probe_deadline_ms);
  RunProbes(ProbeScheduleOf(mix), start, run.window_start, &probes, &run.probes);
  stop.store(true);
  for (std::thread& t : threads) t.join();
  return run;
}

Verdict VerifyOptimizerRun(const OptimizerMix& mix, const OptimizerRun& run,
                           const Oracle& oracle) {
  Verdict v;
  for (const CallerLog& c : run.callers) {
    v.attempted += c.batches;
    v.failed += c.failed;
    // Batches answered by a version whose table was still being built.
    for (const auto& [s, results] : c.pending) {
      const auto table = mix.plan_oracle->Get(results.front().model_version);
      bool bad = table == nullptr;
      for (size_t i = 0; !bad && i < results.size(); ++i) {
        const auto t = mix.plan_oracle->Get(results[i].model_version);
        bad = t == nullptr ||
              !SameBits(results[i].value, (*t)[mix.sessions->items[s][i]]);
      }
      if (bad) ++v.failed;
    }
  }
  v.Merge(VerifyProbes(*mix.probes, run.probes, oracle));
  return v;
}

void TallyOptimizerRun(const OptimizerMix& mix, const OptimizerRun& run,
                       const std::vector<std::vector<OpRow>>& item_terms,
                       const Envelope& envelope, WorkTally* tally) {
  std::vector<uint64_t> runs(mix.sessions->sessions.size(), 0);
  for (const CallerLog& c : run.callers) {
    for (const auto& [s, n] : c.sessions_run) runs[s] += n;
  }
  for (size_t s = 0; s < runs.size(); ++s) {
    for (uint64_t r = 0; r < runs[s]; ++r) {
      for (uint32_t item : mix.sessions->items[s]) {
        for (const OpRow& term : item_terms[item]) tally->Add(term, envelope);
      }
    }
  }
  for (size_t k = 0; k < run.probes.http_status.size(); ++k) {
    for (uint32_t r : mix.probes->probes[k % mix.probes->probes.size()]) {
      tally->Add(mix.probes->pool[r], envelope);
    }
  }
}

std::vector<std::vector<OpRow>> PoolItemTerms(const Corpus& pool) {
  std::vector<std::vector<OpRow>> terms;
  for (const resest::ExecutedQuery& q : pool.queries) {
    std::vector<OpRow> cpu, io;
    resest::VisitPlanOperators(
        q.plan, [&](const resest::PlanNode& node, const resest::PlanNode* parent) {
          OpRow row;
          row.op = node.type;
          row.features = resest::ExtractFeatures(node, parent, *q.database,
                                                 resest::FeatureMode::kExact);
          row.resource = Resource::kCpu;
          cpu.push_back(row);
          row.resource = Resource::kIo;
          io.push_back(row);
        });
    terms.push_back(std::move(cpu));
    terms.push_back(std::move(io));
  }
  return terms;
}

int RunOptimizerHot(const Args& args) {
  OptimizerInputs in(args.seed);
  const ProbeSet probes =
      MakeProbes(in.common.training_rows, args.seed,
                 static_cast<size_t>(kSideProbeRate * (1.0 + args.seconds) * 1.5) + 64);

  std::vector<double> setups;
  OptimizerStack stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.Reset();
    setups.push_back(SetUpOptimizerStack(in.common, &stack));
  }

  Oracle oracle;
  PlanOracle plan_oracle;
  oracle.Add(stack.base_version, stack.trainer->base());
  plan_oracle.Add(stack.base_version, *stack.trainer->base(), in.pool);

  OptimizerMix mix;
  mix.seed = args.seed;
  mix.callers = MainClients();
  mix.service = stack.service.get();
  mix.sessions = &in.sessions;
  mix.plan_oracle = &plan_oracle;
  mix.probes = &probes;
  mix.probe_rate = kSideProbeRate;
  mix.warmup_s = 1.0;
  mix.measure_s = args.seconds;
  mix.fixed_points = {0.2, 0.45, 0.7};
  // The feedback fold is priced in the feedback thread's CPU time: on a
  // host whose CPUs the callers and the pool keep busy, its wall time would
  // mostly measure how often the thread was preempted.
  double fold_rows = 0.0, fold_cpu_s = 0.0;
  std::vector<double> refit_s;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> refit_spans;
  size_t empty_refits = 0;
  // CPU the feedback thread spends building oracles: the harness's, not
  // the stack's.
  double oracle_cpu_s = 0.0;
  mix.at_fixed_point = [&](size_t k) {
    const auto fold_start = Clock::now();
    const size_t before = stack.trainer->TotalPendingRows();
    const double fold_cpu0 = ThreadCpuSeconds();
    for (const resest::ExecutedQuery& q :
         in.feedback_batches[k % in.feedback_batches.size()]) {
      stack.trainer->Observe(q);
    }
    fold_cpu_s += ThreadCpuSeconds() - fold_cpu0;
    fold_rows += static_cast<double>(stack.trainer->TotalPendingRows() - before);
    const auto t1 = Clock::now();
    const auto refit = stack.trainer->RefitAndPublish(
        stack.registry.get(), "default", stack.service.get());
    refit_s.push_back(SecondsBetween(t1, Clock::now()));
    refit_spans.push_back({fold_start, Clock::now()});
    if (!refit) {
      ++empty_refits;
      return;
    }
    const double cpu0 = ThreadCpuSeconds();
    oracle.Add(refit.version, refit.estimator);
    plan_oracle.Add(refit.version, *refit.estimator, in.pool);
    oracle_cpu_s += ThreadCpuSeconds() - cpu0;
  };
  // The stack's CPU: every thread of this process but the probe generator
  // (this thread, which spins before each due time). The callers' threads
  // count, since EstimateBatch runs chunks on them; so do the fold and the
  // refit on the feedback thread.
  std::map<pid_t, ThreadCounters> threads_start, threads_end;
  HostTicks host_start, host_end;
  mix.at_mark = [&](double fraction) {
    (fraction == 0.0 ? threads_start : threads_end) = SnapshotThreads();
    (fraction == 0.0 ? host_start : host_end) = ReadHostTicks();
  };
  const OptimizerRun run = RunOptimizerMix(mix);
  const double peak_rss = PeakRssMb(getpid());
  const double stack_cpu_s =
      1e-9 * static_cast<double>(
                 DiffThreads(threads_start, threads_end, {run.main_tid}).run_ns) -
      oracle_cpu_s;

  const Verdict verdict = VerifyOptimizerRun(mix, run, oracle);
  std::vector<Sample> samples;
  for (const CallerLog& c : run.callers) {
    samples.insert(samples.end(), c.samples.begin(), c.samples.end());
  }
  std::vector<std::pair<double, double>> refit_offsets;
  for (const auto& [a, b] : refit_spans) {
    refit_offsets.push_back({SecondsBetween(run.window_start, a),
                             SecondsBetween(run.window_start, b)});
  }
  const double window_s = mix.measure_s;
  // The urgent tail while a refit runs, for comparison with the steady one.
  std::vector<double> refit_window_ms;
  for (size_t i = 0; i < run.probes.due_at_s.size(); ++i) {
    for (const auto& [a, b] : refit_offsets) {
      if (run.probes.due_at_s[i] >= a && run.probes.due_at_s[i] <= b) {
        refit_window_ms.push_back(run.probes.latency_from_due_ms[i]);
      }
    }
  }
  // Slices holding a refit count like any other: the refits are the
  // writes beside the sessions' reads.
  const std::vector<double> steal =
      SliceSteal(run.probes.slice_ticks, WindowSlices(window_s));
  const StreamStats main = Summarize(samples, window_s, steal);
  const ProbeStats urgent = SummarizeProbes(run.probes, window_s, steal);
  const double estimates = UnitsInWindow(samples, window_s);
  const auto final_model = stack.registry->Get("default");
  const Accuracy accuracy = ScoreHeldOut(*final_model.estimator, in.common.held_out);

  Report report;
  report.Add("setup_s", Median(setups), "s");
  report.Add("estimates_per_s", main.rate_per_s, "1/s");
  report.Add("latency_p50_ms", main.p50_ms, "ms");
  report.Add("latency_p90_ms", main.p90_ms, "ms");
  report.Add("latency_p99_ms", main.p99_ms, "ms");
  report.Add("urgent_p50_ms", urgent.p50_ms, "ms");
  report.Add("urgent_p90_ms", urgent.p90_ms, "ms");
  report.Add("urgent_p99_ms", urgent.p99_ms, "ms");
  report.Add("urgent_slo_share", urgent.slo_share, "share");
  report.Add("observe_rows_per_s", fold_rows / fold_cpu_s, "1/s");
  report.Add("cpu_ms_per_1k", 1e3 * stack_cpu_s / (estimates / 1e3), "ms/1k");
  report.Add("peak_rss_mb", peak_rss, "MiB");
  report.Add("l1_rel_error", accuracy.l1, "ratio");
  report.Add("ratio_gt2_share", accuracy.ratio_gt2, "share");
  report.Add("error_share",
             static_cast<double>(verdict.failed) /
                 static_cast<double>(std::max<uint64_t>(1, verdict.attempted)),
             "share");
  report.Add("refit_s", Mean(refit_s), "s");
  report.Add("urgent_p99_during_refit_ms", Percentile(refit_window_ms, 0.99),
             "ms");
  report.Add("refits_published",
             static_cast<double>(refit_s.size() - empty_refits), "count");
  report.Add("samples.requests", static_cast<double>(main.samples), "count");
  report.Add("samples.urgent", static_cast<double>(urgent.samples), "count");
  report.Add("gen.lag_p99_ms", urgent.lag_p99_ms, "ms");
  report.Add("host.steal_share", StealShare(host_start, host_end), "share");
  report.Add("gen.raised_priority", run.probes.raised_priority ? 1.0 : 0.0,
             "bool");
  stack.Reset();
  return Finish(args, report, verdict, empty_refits == 0);
}

}  // namespace perfbench
