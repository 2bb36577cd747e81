// Load generation and answer checking shared by the workloads: the window
// bookkeeping, the model-version oracle, and the HTTP traffic mix (closed-
// loop estimate clients, an open-loop urgent probe stream timed from due
// time, and a paced /v1/observe feedback stream).
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <sys/types.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/src/inputs.h"
#include "perfbench/src/util.h"

namespace perfbench {

/// Estimators by the model version that served with them. An answer naming
/// a version absent here is a failure.
class Oracle {
 public:
  void Add(uint64_t version,
           std::shared_ptr<const resest::ResourceEstimator> estimator);
  const resest::ResourceEstimator* Get(uint64_t version) const;

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const resest::ResourceEstimator>> by_version_;
};

/// Bitwise double equality (the serving contract is bit-identity).
bool SameBits(double a, double b);

/// One completed request inside the measurement window.
struct Sample {
  double at_s = 0.0;       ///< Completion, seconds after the window start.
  double latency_ms = 0.0;
  double units = 0.0;      ///< Estimates (or rows) answered OK.
};

/// The window is cut into slices of about this length, and the host's CPU
/// steal is read at every slice boundary.
inline constexpr double kSliceSeconds = 0.5;
inline size_t WindowSlices(double window_s) {
  return std::max<size_t>(1, static_cast<size_t>(window_s / kSliceSeconds + 0.5));
}

/// The share of CPU the host stole in each slice, from the readings at the
/// slice boundaries; all zero when the boundaries were not read.
std::vector<double> SliceSteal(const std::vector<HostTicks>& boundaries,
                               size_t slices);

/// On a shared host other tenants take CPU in spells, and each slice's
/// figures worsen with the CPU stolen in it. The end-to-end rates and
/// p50/p90 latencies are therefore estimated for a host that steals
/// nothing: log(figure) is taken as linear in steal, its slope is fitted
/// across the slices, and the samples are moved along it to zero steal (see
/// load.cc). On a quiet host the slope is nearly 0 and the figures are the
/// plain ones.
///
/// Throughput and latency of one request stream in the window: rate and
/// p50/p90 at zero steal (above), p99 over the whole window as measured
/// (a slice holds too few samples to fit a slope to it).
struct StreamStats {
  double rate_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  size_t samples = 0;
};
StreamStats Summarize(const std::vector<Sample>& samples, double window_s,
                      const std::vector<double>& steal);

/// Units per second of the time the requests were outstanding, at zero
/// steal.
double BusyRate(const std::vector<Sample>& samples, double window_s,
                const std::vector<double>& steal);

/// Urgent probe outcomes, timed from each probe's due time.
struct ProbeStats {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double slo_share = 0.0;  ///< Answered OK within the deadline.
  double lag_p99_ms = 0.0; ///< How late the generator sent.
  size_t samples = 0;
};

/// Per-request checking tallies.
struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Merge(const Verdict& v) {
    attempted += v.attempted;
    failed += v.failed;
  }
};

/// Connections the HTTP side streams (urgent probes and feedback) share. A
/// probe waits for an answer only when every one of them holds an
/// unanswered request.
inline constexpr int kSideConnections = 2;

/// The HTTP traffic of one workload.
struct HttpMix {
  uint16_t port = 0;
  uint64_t seed = 0;
  // Closed-loop estimate clients.
  int main_clients = 1;
  size_t main_rows = 64;
  std::string main_priority = "normal";
  std::string main_tenant;
  const std::vector<OpRow>* base = nullptr;  ///< RowStream source.
  bool rescale = true;                       ///< RowStream rescaling.
  // Side streams, over side_connections connections of their own: open-
  // loop urgent probes, and feedback paced at observe_rate batches per
  // second (none when feedback is null).
  int side_connections = kSideConnections;
  const ProbeSet* probes = nullptr;
  double probe_rate = 100.0;
  int probe_deadline_ms = 10;
  std::string probe_tenant;
  const std::vector<OpRow>* feedback = nullptr;
  double observe_rate = 20.0;
  size_t observe_rows = 64;
  std::string observe_tenant;
  // Timeline.
  double warmup_s = 1.0;
  double measure_s = 10.0;
  /// Window fractions at which a thread of its own calls at_fixed_point.
  std::vector<double> fixed_points;
  std::function<void(size_t)> at_fixed_point;
  /// Window fractions at which the probe (main) thread calls at_mark; the
  /// run itself marks 0 and 1 (window start and end).
  std::vector<double> marks;
  std::function<void(double)> at_mark;
};

struct ClientLog {
  uint64_t stream = 0;
  uint64_t requests = 0;
  std::vector<uint8_t> request_failed;  ///< Transport or HTTP failure.
  std::vector<double> values;           ///< One per row sent.
  std::vector<uint64_t> versions;
  std::vector<uint8_t> status;
  std::vector<Sample> samples;
  pid_t tid = 0;
};

/// The probes of one run, one entry per probe sent, in schedule order
/// (warm-up probes included).
struct ProbeLog {
  std::vector<double> due_at_s;  ///< Seconds after the window start.
  std::vector<double> lag_ms;    ///< How late the generator sent.
  std::vector<double> latency_from_due_ms;
  std::vector<uint8_t> within_slo;  ///< Answered OK within the deadline.
  std::vector<int> http_status;
  std::vector<double> values;  ///< 4 slots per probe.
  std::vector<uint64_t> versions;
  std::vector<uint8_t> status;
  /// Whether the generator ran at its raised scheduling weight.
  bool raised_priority = false;
  /// Host CPU ticks at each slice boundary of the window.
  std::vector<HostTicks> slice_ticks;
};

/// One probe's answer: the HTTP status (504 when the whole probe expired,
/// 0 on a transport failure) and the outcome of each of its rows.
struct ProbeAnswer {
  int http = 0;
  std::array<double, 4> values{};
  std::array<uint64_t, 4> versions{};
  std::array<uint8_t, 4> status{kRowFailed, kRowFailed, kRowFailed, kRowFailed};
};

/// How the probe stream reaches the stack. Send starts one probe and hands
/// its answer to `done` when it arrives (on any thread, or inside a later
/// call), so the generator never waits on an earlier answer unless the
/// transport has no free slot for the probe. Send returns when the probe
/// went out.
class ProbeTransport {
 public:
  using Done = std::function<void(const ProbeAnswer&)>;
  virtual ~ProbeTransport() = default;
  virtual Clock::time_point Send(const std::vector<const OpRow*>& rows,
                                 Done done) = 0;
  /// Returns at `until` (spinning over the last stretch, so sends are not
  /// late by the timer slack), delivering answers that arrive meanwhile.
  virtual void WaitUntil(Clock::time_point until) = 0;
  /// Returns once every probe sent has been answered.
  virtual void Drain() = 0;
};

/// Urgent probes with a deadline, submitted in-process through the
/// callback flavor of EstimationService::SubmitBatch.
class ServiceProbes : public ProbeTransport {
 public:
  using Submit = std::function<void(std::vector<resest::EstimateRequest>,
                                    const resest::SubmitOptions&,
                                    resest::BatchCallback)>;
  ServiceProbes(Submit submit, int deadline_ms)
      : submit_(std::move(submit)), deadline_ms_(deadline_ms) {}
  Clock::time_point Send(const std::vector<const OpRow*>& rows,
                         Done done) override;
  void WaitUntil(Clock::time_point until) override;
  void Drain() override;

 private:
  Submit submit_;
  int deadline_ms_;
  std::mutex mu_;
  std::condition_variable answered_;
  size_t outstanding_ = 0;
};

/// An open-loop probe stream: Poisson arrivals over warm-up plus window.
struct ProbeSchedule {
  const ProbeSet* probes = nullptr;
  uint64_t seed = 0;
  double rate = 100.0;
  int deadline_ms = 10;
  double warmup_s = 1.0;
  double measure_s = 10.0;
  /// Fractions of the window at which to call at_mark, besides 0 (window
  /// start) and 1 (window end), which always fire.
  std::vector<double> marks;
  std::function<void(double)> at_mark;
};

/// The probe stream of a traffic mix (HttpMix or OptimizerMix).
template <typename Mix>
ProbeSchedule ProbeScheduleOf(const Mix& mix) {
  ProbeSchedule schedule;
  schedule.probes = mix.probes;
  schedule.seed = mix.seed;
  schedule.rate = mix.probe_rate;
  schedule.deadline_ms = mix.probe_deadline_ms;
  schedule.warmup_s = mix.warmup_s;
  schedule.measure_s = mix.measure_s;
  schedule.marks = mix.marks;
  schedule.at_mark = mix.at_mark;
  return schedule;
}

/// Nice value of the probe generator while it sends, where the host allows
/// it. A mostly sleeping thread at that weight wakes at its due times even
/// while the stack keeps every CPU busy; its lateness would otherwise count
/// as the stack's latency.
inline constexpr int kGeneratorNice = -10;

/// Sends each probe at its due time on the calling thread, firing the
/// marks and reading the host's CPU ticks at each slice boundary on the
/// way, and times each answer from its due time; returns when the window
/// has ended and every probe is answered.
void RunProbes(const ProbeSchedule& schedule, Clock::time_point start,
               Clock::time_point window_start, ProbeTransport* transport,
               ProbeLog* log);

struct HttpRun {
  std::vector<ClientLog> clients;
  ProbeLog probes;
  uint64_t observe_requests = 0;
  uint64_t observe_failed = 0;
  uint64_t observe_acked = 0;         ///< Rows, whole run.
  std::vector<Sample> observe_samples;  ///< In-window requests.
  pid_t fixed_point_tid = 0;
  pid_t main_tid = 0;
  Clock::time_point window_start;
};

/// Runs the mix to completion (warm-up plus window). Uses main_clients + 1
/// threads including the caller's (one more with at_fixed_point), and
/// main_clients + side_connections connections.
HttpRun RunHttpMix(const HttpMix& mix);

/// Over the probes due in the window: p50 and p90 at zero steal, the p99
/// and the SLO share as measured; the generator lag over all probes.
ProbeStats SummarizeProbes(const ProbeLog& log, double window_s,
                           const std::vector<double>& steal);

/// Units of the samples that completed inside the window.
double UnitsInWindow(const std::vector<Sample>& samples, double window_s);

/// Checks every probe answer against the oracle.
Verdict VerifyProbes(const ProbeSet& probes, const ProbeLog& log,
                     const Oracle& oracle);

/// Checks every estimate the run received against the oracle (memcmp of
/// EstimateFromFeatures for the version each answer names). Uses `threads`
/// workers.
Verdict VerifyHttpRun(const HttpMix& mix, const HttpRun& run,
                      const Oracle& oracle, int threads);

/// Every estimate row the run sent (main streams and probes), for the
/// workload properties.
void TallyHttpRun(const HttpMix& mix, const HttpRun& run,
                  const Envelope& envelope, WorkTally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
