// The traced runs: each workload's traffic against the serving stack hosted
// in-process (src/server/resest_server_main.cc's wiring, see stack.h), then
// the service replay and the isolated layer costs on the same inputs. The
// window's first 30% runs with the handler spans off, the rest with them
// on; the two throughputs give the tracing overhead.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "perfbench/src/layers.h"
#include "perfbench/src/optimizer.h"
#include "perfbench/src/stack.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

const std::vector<std::string>& PerLayerMetrics() {
  static const std::vector<std::string> kNames = {
      "http.io_us_per_req",
      "http.syscalls_per_req",
      "wire.parse_ns_per_row",
      "wire.format_ns_per_row",
      "wire.observe_parse_ns_per_row",
      "tenants.resolve_ns",
      "tenants.victim_hit_rate",
      "coalescer.rows_per_batch",
      "coalescer.wait_us_mean",
      "coalescer.passthrough_share",
      "coalescer.urgent_flush_share",
      "service.queue_wait_us_p50.urgent",
      "service.queue_wait_us_p99.urgent",
      "service.queue_wait_us_p50.main",
      "service.queue_wait_us_p99.main",
      "service.batch_us_per_row",
      "service.chunk_size",
      "cache.hit_rate",
      "cache.lookup_ns_hit",
      "cache.lookup_ns_miss",
      "cache.insert_ns",
      "cache.evictions_per_1k",
      "cache.invalidated_per_refit",
      "estimator.features_ns_per_op",
      "estimator.batch_ns_per_row",
      "forest.rows_per_s",
      "forest.rows_per_s.scalar",
      "forest.rows_per_s.avx2",
      "forest.rows_per_s.avx512",
      "trainer.append_us_per_row",
      "trainer.refit_cpu_s",
      "trainer.refit_s",
      "trainer.train_s",
      "wal.bytes_per_row",
      "wal.fsyncs_per_1k_rows",
      "pool.runqueue_wait_share",
      "pool.nonvoluntary_ctx_per_1k",
      "work.repeat_share",
      "work.extrapolated_share",
      "work.cache_working_set_ratio",
      "gen.lag_p99_ms",
      "trace.unaccounted_share",
      "trace.overhead_share"};
  return kNames;
}

namespace {

constexpr double kTraceFrom = 0.3;  ///< Window fraction where spans turn on.

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

size_t TenantIndex(const std::vector<std::string>& ids, const std::string& id) {
  const std::string want = id.empty() ? resest::kDefaultTenant : id;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == want) return i;
  }
  return 0;
}

/// Median Train time over three trainings; returns the last model.
std::shared_ptr<const resest::ResourceEstimator> TimedTraining(
    const Corpus& training, Report* report) {
  std::vector<double> seconds;
  std::shared_ptr<const resest::ResourceEstimator> model;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    model = std::make_shared<resest::ResourceEstimator>(
        resest::ResourceEstimator::Train(training.queries,
                                         ModelTrainOptions(AvailableCpus())));
    seconds.push_back(SecondsBetween(start, Clock::now()));
  }
  report->Add("trainer.train_s", Median(seconds), "s");
  return model;
}

/// Layer metrics read from the stack's counters between two marks.
struct StackDelta {
  const StackSample& a;
  const StackSample& b;
  uint64_t Requests(size_t t) const {
    return b.service[t].requests - a.service[t].requests;
  }
  double HitRate(size_t t) const {
    const double hits =
        static_cast<double>(b.cache[t].hits - a.cache[t].hits);
    const double misses =
        static_cast<double>(b.cache[t].misses - a.cache[t].misses);
    return Ratio(hits, hits + misses);
  }
  uint64_t Evictions(size_t t) const {
    return b.cache[t].evictions - a.cache[t].evictions;
  }
  uint64_t Estimates() const {
    uint64_t n = 0;
    for (size_t t = 0; t < a.service.size(); ++t) n += Requests(t);
    return n;
  }
  double HandlerUs(SpanClass c) const {
    return Ratio(1e-3 * static_cast<double>(b.span_ns[c] - a.span_ns[c]),
                 static_cast<double>(b.span_count[c] - a.span_count[c]));
  }
};

/// Coalescer, HTTP and thread metrics over [a, b].
void AddStackMetrics(const StackDelta& d, const std::vector<pid_t>& clients,
                     Report* report) {
  double submissions = 0, passthrough = 0, batches = 0, rows = 0, wait_us = 0,
         urgent = 0;
  for (size_t t = 0; t < d.a.coalescer.size(); ++t) {
    const resest::CoalescerStats& x = d.a.coalescer[t];
    const resest::CoalescerStats& y = d.b.coalescer[t];
    submissions += static_cast<double>(y.submissions - x.submissions);
    passthrough += static_cast<double>(y.passthrough - x.passthrough);
    batches += static_cast<double>(y.batches - x.batches);
    rows += static_cast<double>(y.coalesced_rows - x.coalesced_rows);
    wait_us += y.total_wait_us - x.total_wait_us;
    urgent += static_cast<double>(y.flush_urgent - x.flush_urgent);
  }
  report->Add("coalescer.rows_per_batch", Ratio(rows, batches), "count");
  report->Add("coalescer.wait_us_mean", Ratio(wait_us, submissions), "us");
  report->Add("coalescer.passthrough_share",
              Ratio(passthrough, submissions + passthrough), "share");
  report->Add("coalescer.urgent_flush_share", Ratio(urgent, batches), "share");
  const ThreadCounters server = DiffThreads(d.a.threads, d.b.threads, clients);
  report->Add("http.syscalls_per_req",
              Ratio(static_cast<double>(server.syscalls),
                    static_cast<double>(d.b.http_requests - d.a.http_requests)),
              "count");
}

void AddPoolMetrics(const StackDelta& d, const std::vector<pid_t>& clients,
                    Report* report) {
  const ThreadCounters server = DiffThreads(d.a.threads, d.b.threads, clients);
  report->Add("pool.runqueue_wait_share",
              Ratio(static_cast<double>(server.wait_ns),
                    static_cast<double>(server.run_ns)),
              "share");
  report->Add("pool.nonvoluntary_ctx_per_1k",
              Ratio(1e3 * static_cast<double>(server.nonvoluntary),
                    static_cast<double>(d.Estimates())),
              "count");
}

void AddReplayMetrics(const ReplayResult& r, Report* report) {
  report->Add("service.queue_wait_us_p50.urgent", r.urgent_wait_p50_us, "us");
  report->Add("service.queue_wait_us_p99.urgent", r.urgent_wait_p99_us, "us");
  report->Add("service.queue_wait_us_p50.main", r.main_wait_p50_us, "us");
  report->Add("service.queue_wait_us_p99.main", r.main_wait_p99_us, "us");
  report->Add("service.batch_us_per_row", r.service_us_per_row, "us");
  report->Add("service.chunk_size", r.chunk_size, "count");
  report->Add("service.replay_unmatched_claims",
              static_cast<double>(r.unmatched_claims), "count");
}

double MeanLatencyUs(const std::vector<Sample>& samples, double from_s,
                     double to_s) {
  double sum = 0.0, n = 0.0;
  for (const Sample& s : samples) {
    if (s.at_s < from_s || s.at_s >= to_s) continue;
    sum += 1e3 * s.latency_ms;
    n += 1.0;
  }
  return Ratio(sum, n);
}

/// Offsets (seconds after the window start) of wall-clock spans.
std::vector<std::pair<double, double>> SpanOffsets(
    Clock::time_point window_start,
    const std::vector<std::pair<Clock::time_point, Clock::time_point>>& spans) {
  std::vector<std::pair<double, double>> out;
  for (const auto& [a, b] : spans) {
    out.push_back({SecondsBetween(window_start, a), SecondsBetween(window_start, b)});
  }
  return out;
}

/// 1 - traced / untraced throughput, each the median over 0.25 s slices of
/// its part of the window that do not overlap a refit (or the 0.25 s
/// after one, while the cache refills).
double OverheadShare(const std::vector<Sample>& samples, double traced_from_s,
                     double to_s, const std::vector<std::pair<double, double>>& busy) {
  constexpr double kSlice = 0.25;
  const auto steady_rate = [&](double from, double to) {
    std::vector<double> rates;
    for (double t = from; t + kSlice <= to + 1e-9; t += kSlice) {
      bool overlaps = false;
      for (const auto& [a, b] : busy) {
        overlaps = overlaps || (t < b + kSlice && t + kSlice > a);
      }
      if (overlaps) continue;
      double units = 0.0;
      for (const Sample& s : samples) {
        if (s.at_s >= t && s.at_s < t + kSlice) units += s.units;
      }
      rates.push_back(units / kSlice);
    }
    return Median(rates);
  };
  return 1.0 - Ratio(steady_rate(traced_from_s, to_s),
                     steady_rate(0.0, traced_from_s));
}

void AddWorkMetrics(WorkTally* tally, Report* report) {
  const WorkProperties p =
      tally->Finish(resest::ServiceOptions{}.cache_capacity);
  report->Add("work.repeat_share", p.repeat_share, "share");
  report->Add("work.extrapolated_share", p.extrapolated_share, "share");
  report->Add("work.cache_working_set_ratio", p.working_set_ratio, "ratio");
}

/// The HTTP front end on a short single-client stream of `rows` (64-row
/// bodies, no rescaling) plus urgent probes: for workloads whose own
/// traffic does not cross the wire.
void WireMicroPhase(InProcessStack* stack, const std::vector<OpRow>& rows,
                    const ProbeSet& probes, uint64_t seed, const Oracle& oracle,
                    Report* report, Verdict* verdict) {
  HttpMix mix;
  mix.port = stack->port();
  mix.seed = seed;
  mix.main_clients = 1;
  mix.base = &rows;
  mix.rescale = false;
  mix.probes = &probes;
  mix.warmup_s = 0.2;
  mix.measure_s = 1.0;
  std::vector<StackSample> samples;
  mix.at_mark = [&](double) { samples.push_back(stack->Sample()); };
  stack->set_tracing(true);
  const HttpRun run = RunHttpMix(mix);
  stack->set_tracing(false);
  verdict->Merge(VerifyHttpRun(mix, run, oracle, AvailableCpus()));
  const StackDelta d{samples.front(), samples.back()};
  report->Add("http.io_us_per_req",
              MeanLatencyUs(run.clients.front().samples, 0.0, mix.measure_s) -
                  d.HandlerUs(kSpanMain),
              "us");
  AddStackMetrics(d, {run.clients.front().tid, run.main_tid}, report);
}

}  // namespace

int TraceHttpWorkload(const Args& args, const HttpWorkload& w) {
  const int nproc = AvailableCpus();
  CommonInputs in = MakeCommonInputs();
  Report report;
  const auto model = TimedTraining(in.training, &report);

  const std::string data_dir = args.workdir + "/trace-data";
  std::filesystem::remove_all(data_dir);
  InProcessStack stack;
  std::string error;
  if (!stack.Start(model, w.tenants, data_dir, &error)) {
    std::fprintf(stderr, "perfbench: stack start failed: %s\n", error.c_str());
    return 1;
  }
  const std::vector<std::string> ids = stack.tenants().TenantIds();
  Oracle oracle;
  for (const std::string& id : ids) {
    oracle.Add(stack.registry().Get(stack.tenant(id).model_name).version, model);
  }

  const ProbeSet probes = MakeProbes(
      in.training_rows, args.seed,
      static_cast<size_t>(w.probe_rate * (1.0 + args.seconds) * 1.5) + 64);
  HttpMix mix = MixOf(w, args, in, probes, stack.port());
  std::vector<StackSample> marks;
  mix.marks = {kTraceFrom};
  mix.at_mark = [&](double fraction) {
    marks.push_back(stack.Sample());
    if (fraction == kTraceFrom) stack.set_tracing(true);
  };
  // Refits under load: the optimizer's refit step (a trainer seeded with
  // the training corpus folds a fixed feedback batch, then delta-publishes
  // over the main tenant's model), so every workload prices the same
  // training work under its own contention.
  resest::TenantManager::Tenant& main_tenant = stack.tenant(w.main_tenant);
  resest::IncrementalTrainer side_trainer(ModelTrainOptions(nproc),
                                          OptimizerRefitPolicy(), &stack.pool());
  side_trainer.SeedAndTrain(in.training.queries);
  side_trainer.Attach(model,
                      stack.registry().Get(main_tenant.model_name).version);
  std::vector<double> refit_s;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> refit_spans;
  mix.fixed_points = {0.5, 0.8};
  mix.at_fixed_point = [&](size_t k) {
    const size_t n = in.feedback_rows.size();
    for (size_t i = k * n / 3; i < (k + 1) * n / 3; ++i) {
      const OpRow& row = in.feedback_rows[i];
      side_trainer.Append(row.op, row.resource, row.features, row.label);
    }
    const auto start = Clock::now();
    const auto refit = side_trainer.RefitAndPublish(
        &stack.registry(), main_tenant.model_name, main_tenant.service.get());
    const auto end = Clock::now();
    refit_s.push_back(SecondsBetween(start, end));
    refit_spans.push_back({start, end});
    if (refit) oracle.Add(refit.version, refit.estimator);
  };
  const HttpRun run = RunHttpMix(mix);
  stack.set_tracing(false);
  Verdict verdict = VerifyHttpRun(mix, run, oracle, nproc);

  // Phase A metrics: traced part of the window is [kTraceFrom, 1].
  const StackDelta traced{marks[1], marks[2]};
  const StackDelta whole{marks[0], marks[2]};
  std::vector<Sample> main_samples;
  std::vector<pid_t> clients = {run.main_tid, run.fixed_point_tid};
  for (const ClientLog& c : run.clients) {
    main_samples.insert(main_samples.end(), c.samples.begin(), c.samples.end());
    clients.push_back(c.tid);
  }
  const double from_s = kTraceFrom * args.seconds;
  const double rtt_us = MeanLatencyUs(main_samples, from_s, args.seconds);
  const double handler_us = traced.HandlerUs(kSpanMain);
  report.Add("http.io_us_per_req", rtt_us - handler_us, "us");
  AddStackMetrics(traced, clients, &report);
  AddPoolMetrics(traced, clients, &report);
  const size_t main_t = TenantIndex(ids, w.main_tenant);
  const size_t probe_t = TenantIndex(ids, w.probe_tenant);
  const size_t fed_t = TenantIndex(ids, w.observe_tenant);
  const size_t refit_t = main_t;
  report.Add("tenants.victim_hit_rate", traced.HitRate(probe_t), "share");
  report.Add("cache.hit_rate", traced.HitRate(main_t), "share");
  report.Add("cache.evictions_per_1k",
             Ratio(1e3 * static_cast<double>(traced.Evictions(main_t)),
                   static_cast<double>(traced.Requests(main_t))),
             "count");
  report.Add("cache.invalidated_per_refit",
             Ratio(static_cast<double>(whole.b.cache[refit_t].invalidated -
                                       whole.a.cache[refit_t].invalidated),
                   static_cast<double>(refit_s.size())),
             "count");
  report.Add("trainer.refit_s", Mean(refit_s), "s");
  const resest::WalStats& wal_a = traced.a.durability[fed_t].wal;
  const resest::WalStats& wal_b = traced.b.durability[fed_t].wal;
  const double wal_records =
      static_cast<double>(wal_b.records_appended - wal_a.records_appended);
  report.Add("wal.bytes_per_row",
             Ratio(static_cast<double>(wal_b.bytes_appended - wal_a.bytes_appended),
                   wal_records),
             "B");
  report.Add("wal.fsyncs_per_1k_rows",
             Ratio(1e3 * static_cast<double>(wal_b.fsyncs - wal_a.fsyncs),
                   wal_records),
             "count");
  report.Add("gen.lag_p99_ms",
             SummarizeProbes(run.probes, args.seconds,
                             std::vector<double>(WindowSlices(args.seconds), 0.0))
                 .lag_p99_ms,
             "ms");
  report.Add("trace.overhead_share",
             OverheadShare(main_samples, from_s, args.seconds,
                           SpanOffsets(run.window_start, refit_spans)),
             "share");
  WorkTally tally;
  TallyHttpRun(mix, run, Envelope(in.training_rows), &tally);
  AddWorkMetrics(&tally, &report);

  // Phase B: the service scheduler on the same submissions.
  const RowStream replay_stream(&in.scalable_rows, args.seed, 1000);
  ReplayStream main_stream;
  main_stream.model_name = stack.tenant(w.main_tenant).model_name;
  main_stream.batch = [&](uint64_t k) {
    return RowBatch(replay_stream, w.main_rows, k);
  };
  main_stream.priority = w.main_priority == "bulk" ? resest::TaskPriority::kBulk
                                                   : resest::TaskPriority::kNormal;
  const ReplayResult replay = ReplayService(
      stack.registry(), &stack.pool(), main_stream,
      stack.tenant(w.probe_tenant).model_name, probes, w.probe_rate,
      MainClients(), std::max(1.0, args.seconds / 4.0), args.seed, oracle,
      nullptr);
  AddReplayMetrics(replay, &report);
  verdict.Merge(replay.verdict);

  // Phase C: isolated layer costs.
  report.Add("tenants.resolve_ns", NsPerUnit([&]() {
               for (int i = 0; i < 1000; ++i) {
                 if (stack.tenants().Resolve(w.probe_tenant) == nullptr) return 0.0;
               }
               return 1000.0;
             }),
             "ns");
  MicroInputs micro;
  micro.model = model.get();
  for (uint64_t i = 0; i < 32768; ++i) micro.rows.push_back(replay_stream.Row(i));
  micro.observe_rows = in.feedback_rows;
  micro.plans = &in.training.queries;
  micro.wire_rows = w.main_rows;
  MeasureMicro(micro, &report);
  MeasureTrainer(in.training.queries, in.feedback_rows,
                 args.workdir + "/append-wal", &report);

  // How much of a main request the layer costs explain: HTTP I/O (client
  // RTT minus handler span), wire parse + format, tenant resolve, coalescer
  // wait, lane queue wait and service time per row.
  const double rows = static_cast<double>(w.main_rows);
  const double attributed_us =
      (rtt_us - handler_us) +
      rows * (report.Get("wire.parse_ns_per_row") +
              report.Get("wire.format_ns_per_row")) / 1e3 +
      report.Get("tenants.resolve_ns") / 1e3 +
      report.Get("coalescer.wait_us_mean") + replay.main_wait_mean_us +
      rows * replay.service_us_per_row;
  report.Add("trace.unaccounted_share",
             std::max(0.0, 1.0 - Ratio(attributed_us, rtt_us)), "share");
  stack.Stop();
  return Finish(args, report, verdict, true);
}

int TraceOptimizerHot(const Args& args) {
  OptimizerInputs in(args.seed);
  Report report;
  const auto model = TimedTraining(in.common.training, &report);
  InProcessStack stack;
  std::string error;
  if (!stack.Start(model, {}, "", &error)) {
    std::fprintf(stderr, "perfbench: stack start failed: %s\n", error.c_str());
    return 1;
  }
  resest::TenantManager::Tenant& tenant = stack.tenant("");
  // The optimizer's own trainer, seeded and published over the stack's
  // model as in the untraced run.
  resest::IncrementalTrainer trainer(ModelTrainOptions(AvailableCpus()),
                                     OptimizerRefitPolicy(), &stack.pool());
  trainer.SeedAndTrain(in.common.training.queries);
  const uint64_t base = trainer.PublishBaseline(&stack.registry(),
                                                tenant.model_name);
  Oracle oracle;
  PlanOracle plan_oracle;
  oracle.Add(stack.registry().Get(tenant.model_name).version, trainer.base());
  oracle.Add(base, trainer.base());
  plan_oracle.Add(base, *trainer.base(), in.pool);

  const ProbeSet probes = MakeProbes(
      in.common.training_rows, args.seed,
      static_cast<size_t>(kSideProbeRate * (1.0 + args.seconds) * 1.5) + 64);
  OptimizerMix mix;
  mix.seed = args.seed;
  mix.callers = MainClients();
  mix.service = tenant.service.get();
  mix.sessions = &in.sessions;
  mix.plan_oracle = &plan_oracle;
  mix.probes = &probes;
  mix.warmup_s = 1.0;
  mix.measure_s = args.seconds;
  mix.fixed_points = {0.2, 0.45, 0.7};
  std::vector<double> refit_s;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> refit_spans;
  mix.at_fixed_point = [&](size_t k) {
    trainer.ObserveAll(in.feedback_batches[k % in.feedback_batches.size()]);
    const auto start = Clock::now();
    const auto refit = trainer.RefitAndPublish(&stack.registry(),
                                               tenant.model_name,
                                               tenant.service.get());
    const auto end = Clock::now();
    refit_s.push_back(SecondsBetween(start, end));
    refit_spans.push_back({start, end});
    if (!refit) return;
    oracle.Add(refit.version, refit.estimator);
    plan_oracle.Add(refit.version, *refit.estimator, in.pool);
  };
  std::vector<StackSample> marks;
  mix.marks = {kTraceFrom};
  mix.at_mark = [&](double) { marks.push_back(stack.Sample()); };
  const OptimizerRun run = RunOptimizerMix(mix);
  Verdict verdict = VerifyOptimizerRun(mix, run, oracle);

  const StackDelta traced{marks[1], marks[2]};
  const StackDelta whole{marks[0], marks[2]};
  std::vector<Sample> samples;
  std::vector<pid_t> clients = {run.main_tid, run.feedback_tid};
  for (const CallerLog& c : run.callers) {
    samples.insert(samples.end(), c.samples.begin(), c.samples.end());
    clients.push_back(c.tid);
  }
  AddPoolMetrics(traced, clients, &report);
  report.Add("tenants.victim_hit_rate", traced.HitRate(0), "share");
  report.Add("cache.hit_rate", traced.HitRate(0), "share");
  report.Add("cache.evictions_per_1k",
             Ratio(1e3 * static_cast<double>(traced.Evictions(0)),
                   static_cast<double>(traced.Requests(0))),
             "count");
  report.Add("cache.invalidated_per_refit",
             Ratio(static_cast<double>(whole.b.cache[0].invalidated -
                                       whole.a.cache[0].invalidated),
                   static_cast<double>(refit_s.size())),
             "count");
  report.Add("trainer.refit_s", Mean(refit_s), "s");
  report.Add("gen.lag_p99_ms",
             SummarizeProbes(run.probes, args.seconds,
                             std::vector<double>(WindowSlices(args.seconds), 0.0))
                 .lag_p99_ms,
             "ms");
  const double from_s = kTraceFrom * args.seconds;
  // The optimizer's spans are the caller's own, around EstimateBatch; they
  // are recorded in both parts of the window.
  report.Add("trace.overhead_share",
             OverheadShare(samples, from_s, args.seconds,
                           SpanOffsets(run.window_start, refit_spans)),
             "share");
  const std::vector<std::vector<OpRow>> item_terms = PoolItemTerms(in.pool);
  WorkTally tally;
  TallyOptimizerRun(mix, run, item_terms, Envelope(in.common.training_rows),
                    &tally);
  AddWorkMetrics(&tally, &report);

  // The wire and HTTP layers on the sessions' operator terms.
  std::vector<OpRow> terms;
  for (const auto& item : item_terms) terms.insert(terms.end(), item.begin(), item.end());
  WireMicroPhase(&stack, terms, probes, args.seed, oracle, &report, &verdict);

  // Phase B: the sessions replayed into the scheduler.
  ReplayStream main_stream;
  main_stream.model_name = tenant.model_name;
  main_stream.batch = [&](uint64_t k) {
    return in.sessions.sessions[k % in.sessions.sessions.size()];
  };
  const auto check_plan = [&](const std::vector<resest::EstimateRequest>& batch,
                              const std::vector<resest::EstimateResult>& results) {
    if (results.size() != batch.size()) return false;
    for (size_t i = 0; i < batch.size(); ++i) {
      const auto table = plan_oracle.Get(results[i].model_version);
      if (!results[i].ok() || table == nullptr) return false;
      // Locate the pool item by plan pointer.
      size_t q = 0;
      while (q < in.pool.queries.size() && &in.pool.queries[q].plan != batch[i].plan) {
        ++q;
      }
      const size_t item = q * 2 + (batch[i].resource == Resource::kIo ? 1 : 0);
      if (q == in.pool.queries.size() || !SameBits(results[i].value, (*table)[item])) {
        return false;
      }
    }
    return true;
  };
  const ReplayResult replay = ReplayService(
      stack.registry(), &stack.pool(), main_stream, tenant.model_name, probes,
      kSideProbeRate, MainClients(), std::max(1.0, args.seconds / 4.0), args.seed,
      oracle, check_plan);
  AddReplayMetrics(replay, &report);
  verdict.Merge(replay.verdict);

  // Phase C.
  report.Add("tenants.resolve_ns", NsPerUnit([&]() {
               for (int i = 0; i < 1000; ++i) {
                 if (stack.tenants().Resolve("") == nullptr) return 0.0;
               }
               return 1000.0;
             }),
             "ns");
  MicroInputs micro;
  micro.model = trainer.base().get();
  micro.rows = terms;
  micro.observe_rows = in.common.feedback_rows;
  micro.plans = &in.pool.queries;
  MeasureMicro(micro, &report);
  MeasureTrainer(in.common.training.queries, in.common.feedback_rows,
                 args.workdir + "/append-wal", &report);
  // The optimizer trainer is not durable; its WAL metrics come from the
  // WAL-backed append measurement.
  report.Add("wal.bytes_per_row", report.Get("trainer.append_wal_bytes_per_row"),
             "B");
  report.Add("wal.fsyncs_per_1k_rows",
             report.Get("trainer.append_wal_fsyncs_per_1k_rows"), "count");

  // How much of an EstimateBatch call the scheduler replay explains: lane
  // queue wait plus service time per request.
  const double per_session = static_cast<double>(in.sessions.sessions.front().size());
  const double call_us = MeanLatencyUs(samples, from_s, args.seconds);
  report.Add("trace.unaccounted_share",
             std::max(0.0, 1.0 - Ratio(replay.main_wait_mean_us +
                                           per_session * replay.service_us_per_row,
                                       call_us)),
             "share");
  stack.Stop();
  return Finish(args, report, verdict, true);
}

}  // namespace perfbench
