// wire-cold and admission-mixed against the shipped resest_server binary.
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "perfbench/src/load.h"
#include "perfbench/src/server.h"
#include "perfbench/src/workloads.h"
#include "src/baselines/harness.h"
#include "src/common/stats.h"
#include "src/server/http_client.h"
#include "src/server/json.h"

namespace perfbench {

const std::vector<std::string>& EndToEndMetrics() {
  static const std::vector<std::string> kNames = {
      "setup_s",        "estimates_per_s", "latency_p50_ms",
      "latency_p90_ms", "urgent_p50_ms",   "urgent_slo_share",
      "observe_rows_per_s", "cpu_ms_per_1k", "peak_rss_mb",
      "l1_rel_error",   "ratio_gt2_share"};
  return kNames;
}

const HttpWorkload* FindHttpWorkload(const std::string& name) {
  static const std::vector<HttpWorkload> kWorkloads = [] {
    HttpWorkload wire;
    wire.name = "wire-cold";
    wire.main_priority = "normal";
    wire.main_rows = 64;
    wire.probe_rate = 500.0;
    wire.observe_rate = 20.0;
    HttpWorkload admission;
    admission.name = "admission-mixed";
    admission.tenants = {"svc", "bulk"};
    admission.main_tenant = "bulk";
    admission.main_priority = "bulk";
    admission.main_rows = 512;
    admission.probe_tenant = "svc";
    admission.probe_rate = 250.0;
    // Under the bulk flood a probe takes milliseconds; with three side
    // connections a due probe rarely finds them all busy.
    admission.side_connections = 3;
    admission.observe_tenant = "svc";
    admission.observe_rate = 100.0;
    return std::vector<HttpWorkload>{wire, admission};
  }();
  for (const HttpWorkload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

CommonInputs MakeCommonInputs() {
  CommonInputs in;
  in.training = TrainingCorpus();
  in.held_out = HeldOutCorpus();
  in.feedback = FeedbackCorpus();
  in.training_rows = OperatorRows(in.training.queries);
  in.scalable_rows = ScalableRows(in.training_rows);
  in.feedback_rows = OperatorRows(in.feedback.queries);
  return in;
}

Accuracy ScoreHeldOut(const resest::ResourceEstimator& estimator,
                      const Corpus& held_out) {
  std::vector<double> estimates, actuals;
  for (Resource r : {Resource::kCpu, Resource::kIo}) {
    for (const resest::ExecutedQuery& q : held_out.queries) {
      estimates.push_back(estimator.EstimateQuery(q.plan, *q.database, r));
      actuals.push_back(resest::ActualUsage(q, r));
    }
  }
  Accuracy a;
  a.l1 = resest::L1RelativeError(estimates, actuals);
  a.ratio_gt2 = resest::ComputeRatioBuckets(estimates, actuals).gt_2;
  return a;
}

int MainClients() { return std::max(1, AvailableCpus() - 2); }

HttpMix MixOf(const HttpWorkload& w, const Args& args, const CommonInputs& in,
              const ProbeSet& probes, uint16_t port) {
  HttpMix mix;
  mix.port = port;
  mix.seed = args.seed;
  mix.side_connections = w.side_connections;
  mix.main_clients = std::max(1, AvailableCpus() - w.side_connections);
  mix.main_rows = w.main_rows;
  mix.main_priority = w.main_priority;
  mix.main_tenant = w.main_tenant;
  mix.base = &in.scalable_rows;
  mix.probes = &probes;
  mix.probe_rate = w.probe_rate;
  mix.probe_tenant = w.probe_tenant;
  mix.feedback = &in.feedback_rows;
  mix.observe_tenant = w.observe_tenant;
  mix.observe_rate = w.observe_rate;
  mix.warmup_s = 1.0;
  mix.measure_s = args.seconds;
  return mix;
}

int Finish(const Args& args, const Report& report, const Verdict& verdict,
           bool extra_ok) {
  Fingerprint f = MakeFingerprint();
  f.git_sha = args.git_sha;
  f.source_digest = args.source_digest;
  f.seed = args.seed;
  f.workload = args.workload;
  f.trace = args.trace;
  const bool correct = verdict.failed == 0 && extra_ok;
  const bool complete = report.Print(
      f, args.trace ? PerLayerMetrics() : EndToEndMetrics(), correct,
      std::max<uint64_t>(1, verdict.attempted), verdict.failed);
  if (!correct) {
    std::fprintf(stderr, "perfbench: %llu of %llu operations failed the oracle\n",
                 static_cast<unsigned long long>(verdict.failed),
                 static_cast<unsigned long long>(verdict.attempted));
  }
  return correct && complete ? 0 : 1;
}

namespace {

/// GET /v1/tenants as a parsed document.
bool FetchTenants(uint16_t port, resest::JsonValue* out) {
  resest::HttpClient client;
  resest::HttpClientResponse response;
  std::string error;
  return client.Connect("127.0.0.1", port) &&
         client.Get("/v1/tenants", &response) && response.status == 200 &&
         resest::JsonValue::Parse(response.body, out, &error);
}

const resest::JsonValue* TenantEntry(const resest::JsonValue& doc,
                                     const std::string& id) {
  const resest::JsonValue* list = doc.Find("tenants");
  if (list == nullptr) return nullptr;
  for (const resest::JsonValue& t : list->items()) {
    const resest::JsonValue* name = t.Find("tenant");
    if (name != nullptr && name->as_string() == (id.empty() ? "default" : id)) {
      return &t;
    }
  }
  return nullptr;
}

/// Polls until the tenant's observation log holds `rows` pending rows (the
/// tenant snapshot refreshes once per heartbeat); false after 5 s.
bool ObservedRowsMatch(uint16_t port, const std::string& tenant, uint64_t rows) {
  const auto give_up = Clock::now() + std::chrono::seconds(5);
  uint64_t seen = 0;
  while (Clock::now() < give_up) {
    resest::JsonValue doc;
    const resest::JsonValue* t = nullptr;
    if (FetchTenants(port, &doc) && (t = TenantEntry(doc, tenant)) != nullptr) {
      const resest::JsonValue* log = t->Find("obslog");
      const resest::JsonValue* pending =
          log == nullptr ? nullptr : log->Find("pending_rows");
      seen = pending == nullptr ? 0 : static_cast<uint64_t>(pending->as_number());
      if (seen == rows) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr,
               "perfbench: tenant %s logged %llu rows, server acknowledged %llu\n",
               tenant.c_str(), static_cast<unsigned long long>(seen),
               static_cast<unsigned long long>(rows));
  return false;
}

}  // namespace

int RunHttpWorkload(const Args& args, const HttpWorkload& w) {
  const int nproc = AvailableCpus();
  CommonInputs in = MakeCommonInputs();
  const std::string model_path = args.workdir + "/model.bin";

  // Set-up, several times: train, save, spawn, first /healthz 200. The
  // last server stays up and serves the run.
  std::vector<double> setups;
  ServerProcess server;
  for (int i = 0; i < kSetups; ++i) {
    server.Stop();
    const std::string data_dir = args.workdir + "/data" + std::to_string(i);
    std::filesystem::remove_all(data_dir);
    const auto start = Clock::now();
    const resest::ResourceEstimator trained = resest::ResourceEstimator::Train(
        in.training.queries, ModelTrainOptions(nproc));
    if (!trained.SaveToFile(model_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", model_path.c_str());
      return 1;
    }
    std::vector<std::string> server_args = {
        "--port=0", "--threads=" + std::to_string(nproc),
        "--model=" + model_path, "--data-dir=" + data_dir};
    if (!w.tenants.empty()) {
      std::string list;
      for (const std::string& t : w.tenants) list += (list.empty() ? "" : ",") + t;
      server_args.push_back("--tenants=" + list);
    }
    std::string error;
    if (!server.Start(args.server_binary, server_args,
                      args.workdir + "/server.log", &error) ||
        !WaitHealthy(server.port(), 30.0)) {
      std::fprintf(stderr, "perfbench: server start failed: %s\n", error.c_str());
      return 1;
    }
    setups.push_back(SecondsBetween(start, Clock::now()));
  }

  // The oracle: the saved model as the server loaded it, under every
  // tenant's published version.
  auto served = std::make_shared<resest::ResourceEstimator>();
  if (!served->LoadFromFile(model_path)) return 1;
  Oracle oracle;
  {
    resest::JsonValue doc;
    if (!FetchTenants(server.port(), &doc)) return 1;
    for (const resest::JsonValue& t : doc.Find("tenants")->items()) {
      oracle.Add(static_cast<uint64_t>(t.Find("model_version")->as_number()),
                 served);
    }
  }

  const double total_s = 1.0 + args.seconds;
  const ProbeSet probes = MakeProbes(
      in.training_rows, args.seed,
      static_cast<size_t>(w.probe_rate * total_s * 1.5) + 64);
  HttpMix mix = MixOf(w, args, in, probes, server.port());
  double cpu_start = 0.0, cpu_end = 0.0;
  HostTicks host_start, host_end;
  const pid_t pid = server.pid();
  mix.at_mark = [&](double fraction) {
    (fraction == 0.0 ? cpu_start : cpu_end) = ProcessCpuSeconds(pid);
    (fraction == 0.0 ? host_start : host_end) = ReadHostTicks();
  };
  const HttpRun run = RunHttpMix(mix);
  const double peak_rss = PeakRssMb(pid);

  const bool observed_ok =
      ObservedRowsMatch(server.port(), w.observe_tenant, run.observe_acked);
  const int exit_code = server.Stop();
  if (exit_code != 0) {
    std::fprintf(stderr, "perfbench: server exited with %d\n", exit_code);
  }

  Verdict verdict = VerifyHttpRun(mix, run, oracle, nproc);
  std::vector<Sample> main_samples;
  for (const ClientLog& c : run.clients) {
    main_samples.insert(main_samples.end(), c.samples.begin(), c.samples.end());
  }
  const double window_s = mix.measure_s;
  const std::vector<double> steal =
      SliceSteal(run.probes.slice_ticks, WindowSlices(window_s));
  const StreamStats main = Summarize(main_samples, window_s, steal);
  const ProbeStats urgent = SummarizeProbes(run.probes, window_s, steal);
  const double estimates = UnitsInWindow(main_samples, window_s);
  const Accuracy accuracy = ScoreHeldOut(*served, in.held_out);
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
  report.Add("observe_rows_per_s",
             BusyRate(run.observe_samples, window_s, steal), "1/s");
  report.Add("cpu_ms_per_1k", 1e3 * (cpu_end - cpu_start) / (estimates / 1e3),
             "ms/1k");
  report.Add("peak_rss_mb", peak_rss, "MiB");
  report.Add("l1_rel_error", accuracy.l1, "ratio");
  report.Add("ratio_gt2_share", accuracy.ratio_gt2, "share");
  report.Add("error_share",
             static_cast<double>(verdict.failed) /
                 static_cast<double>(std::max<uint64_t>(1, verdict.attempted)),
             "share");
  report.Add("samples.requests", static_cast<double>(main.samples), "count");
  report.Add("samples.urgent", static_cast<double>(urgent.samples), "count");
  report.Add("gen.lag_p99_ms", urgent.lag_p99_ms, "ms");
  report.Add("host.steal_share", StealShare(host_start, host_end), "share");
  report.Add("gen.raised_priority", run.probes.raised_priority ? 1.0 : 0.0,
             "bool");
  return Finish(args, report, verdict, observed_ok && exit_code == 0);
}

}  // namespace perfbench
