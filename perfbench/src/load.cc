#include "perfbench/src/load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <thread>

#include "src/server/http_client.h"

namespace perfbench {

void Oracle::Add(uint64_t version,
                 std::shared_ptr<const resest::ResourceEstimator> estimator) {
  std::lock_guard<std::mutex> lock(mu_);
  by_version_[version] = std::move(estimator);
}

const resest::ResourceEstimator* Oracle::Get(uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_version_.find(version);
  return it == by_version_.end() ? nullptr : it->second.get();
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

std::vector<double> SliceSteal(const std::vector<HostTicks>& boundaries,
                               size_t slices) {
  std::vector<double> steal(slices, 0.0);
  if (boundaries.size() != slices + 1) return steal;
  for (size_t k = 0; k < slices; ++k) {
    steal[k] = StealShare(boundaries[k], boundaries[k + 1]);
  }
  return steal;
}

namespace {

/// The slice `at_s` falls in, or slices when it is outside the window.
size_t SliceOf(double at_s, double window_s, size_t slices) {
  if (at_s < 0.0 || at_s >= window_s) return slices;
  return std::min(slices - 1, static_cast<size_t>(at_s / window_s *
                                                  static_cast<double>(slices)));
}

/// Values grouped by the slice they fall in.
using BySlice = std::vector<std::vector<double>>;

/// Slope of y over x: the median of the pairwise slopes, each weighted by
/// the x difference of its pair, so that pairs whose steal barely differs
/// carry little weight. 0 when every x is the same.
double WeightedPairSlope(const std::vector<double>& x,
                         const std::vector<double>& y) {
  std::vector<std::pair<double, double>> slopes;  // (slope, weight)
  double total = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    for (size_t j = i + 1; j < x.size(); ++j) {
      const double dx = x[j] - x[i];
      if (dx == 0.0) continue;
      slopes.push_back({(y[j] - y[i]) / dx, std::abs(dx)});
      total += std::abs(dx);
    }
  }
  std::sort(slopes.begin(), slopes.end());
  double seen = 0.0;
  for (const auto& [slope, weight] : slopes) {
    seen += weight;
    if (seen >= 0.5 * total) return slope;
  }
  return 0.0;
}

/// Slope of log(per-slice figure) over steal, over the slices that have a
/// positive figure.
double LogSlope(const std::vector<double>& figures,
                const std::vector<double>& steal) {
  std::vector<double> x, y;
  for (size_t k = 0; k < figures.size(); ++k) {
    if (figures[k] <= 0.0) continue;
    x.push_back(steal[k]);
    y.push_back(std::log(figures[k]));
  }
  return WeightedPairSlope(x, y);
}

std::vector<double> Flatten(const BySlice& values) {
  std::vector<double> all;
  for (const std::vector<double>& v : values) all.insert(all.end(), v.begin(), v.end());
  return all;
}

/// Percentile `p` at zero steal: the slope is fitted to the per-slice
/// percentiles, and the percentile is taken over every value moved to zero
/// steal.
double PercentileAtZeroSteal(const BySlice& values,
                             const std::vector<double>& steal, double p) {
  std::vector<double> per_slice;
  for (const std::vector<double>& v : values) per_slice.push_back(Percentile(v, p));
  const double slope = LogSlope(per_slice, steal);
  std::vector<double> moved;
  for (size_t k = 0; k < values.size(); ++k) {
    for (double v : values[k]) {
      if (v > 0.0) moved.push_back(std::log(v) - slope * steal[k]);
    }
  }
  return moved.empty() ? 0.0 : std::exp(Percentile(moved, p));
}

/// Units per second at zero steal: the slope is fitted to the per-slice
/// rates (slices with no units or no seconds are left out), and the units
/// are divided by the seconds moved to zero steal.
double RateAtZeroSteal(const std::vector<double>& units,
                       const std::vector<double>& seconds,
                       const std::vector<double>& steal) {
  std::vector<double> rates(units.size(), 0.0);
  for (size_t k = 0; k < units.size(); ++k) {
    if (seconds[k] > 0.0) rates[k] = units[k] / seconds[k];
  }
  const double slope = LogSlope(rates, steal);
  double total_units = 0.0, moved_seconds = 0.0;
  for (size_t k = 0; k < units.size(); ++k) {
    total_units += units[k];
    moved_seconds += seconds[k] * std::exp(slope * steal[k]);
  }
  return moved_seconds > 0.0 ? total_units / moved_seconds : 0.0;
}

}  // namespace

StreamStats Summarize(const std::vector<Sample>& samples, double window_s,
                      const std::vector<double>& steal) {
  const size_t slices = steal.size();
  std::vector<double> units(slices, 0.0);
  BySlice latencies(slices);
  for (const Sample& x : samples) {
    const size_t k = SliceOf(x.at_s, window_s, slices);
    if (k == slices) continue;
    units[k] += x.units;
    latencies[k].push_back(x.latency_ms);
  }
  const std::vector<double> all = Flatten(latencies);
  StreamStats s;
  s.samples = all.size();
  s.rate_per_s = RateAtZeroSteal(
      units, std::vector<double>(slices, window_s / static_cast<double>(slices)),
      steal);
  s.p50_ms = PercentileAtZeroSteal(latencies, steal, 0.50);
  s.p90_ms = PercentileAtZeroSteal(latencies, steal, 0.90);
  s.p99_ms = Percentile(all, 0.99);
  return s;
}

double UnitsInWindow(const std::vector<Sample>& samples, double window_s) {
  double units = 0.0;
  for (const Sample& x : samples) {
    if (x.at_s >= 0.0 && x.at_s < window_s) units += x.units;
  }
  return units;
}

double BusyRate(const std::vector<Sample>& samples, double window_s,
                const std::vector<double>& steal) {
  const size_t slices = steal.size();
  std::vector<double> units(slices, 0.0), busy_s(slices, 0.0);
  for (const Sample& x : samples) {
    const size_t k = SliceOf(x.at_s, window_s, slices);
    if (k == slices) continue;
    units[k] += x.units;
    busy_s[k] += 1e-3 * x.latency_ms;
  }
  return RateAtZeroSteal(units, busy_s, steal);
}

namespace {

void MainClient(const HttpMix& mix, const std::atomic<bool>& stop,
                Clock::time_point window_start, resest::HttpClient* connection,
                ClientLog* log) {
  log->tid = CurrentTid();
  resest::HttpClient& client = *connection;
  const RowStream rows(mix.base, mix.seed, log->stream, mix.rescale);
  std::vector<OpRow> batch(mix.main_rows);
  std::vector<const OpRow*> ptrs(mix.main_rows);
  std::string body;
  resest::HttpClientResponse response;
  uint64_t next = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    for (size_t j = 0; j < mix.main_rows; ++j) {
      batch[j] = rows.Row(next + j);
      ptrs[j] = &batch[j];
    }
    next += mix.main_rows;
    body.clear();
    AppendEstimateBody(ptrs.data(), ptrs.size(), mix.main_priority.c_str(), 0,
                       mix.main_tenant, &body);
    const auto sent = Clock::now();
    const bool transported = client.Post("/v1/estimate", body, &response);
    const auto done = Clock::now();
    const size_t first = log->values.size();
    log->values.resize(first + mix.main_rows, 0.0);
    log->versions.resize(first + mix.main_rows, 0);
    log->status.resize(first + mix.main_rows, kRowFailed);
    const bool ok = transported && response.status == 200 &&
                    ParseEstimateResponse(response.body, mix.main_rows,
                                          &log->values[first],
                                          &log->versions[first],
                                          &log->status[first]);
    log->request_failed.push_back(ok ? 0 : 1);
    ++log->requests;
    const double at = SecondsBetween(window_start, done);
    if (ok && at >= 0.0) {
      double answered = 0.0;
      for (size_t j = 0; j < mix.main_rows; ++j) {
        if (log->status[first + j] == kRowOk) answered += 1.0;
      }
      log->samples.push_back({at, MsBetween(sent, done), answered});
    }
  }
}

/// The stretch before a due time the generator spins through.
constexpr auto kSpin = std::chrono::microseconds(200);

/// Sleeps to just before `when`, then spins: a plain sleep wakes the
/// generator late by the timer slack plus the wake-up latency, which would
/// count against every sub-millisecond probe.
void SleepUntilPrecisely(Clock::time_point when) {
  std::this_thread::sleep_until(when - kSpin);
  while (Clock::now() < when) {
  }
}

/// The side streams of an HTTP mix: the urgent probes and the paced
/// feedback batches, over keep-alive connections of their own, driven from
/// the generator thread with poll(). A request goes out on any connection
/// that holds no unanswered request; feedback batches go out from WaitUntil
/// once due.
class HttpSideTraffic : public ProbeTransport {
 public:
  HttpSideTraffic(const HttpMix& mix, HttpRun* run)
      : conns_(static_cast<size_t>(std::max(1, mix.side_connections))),
        mix_(mix), run_(run) {
    for (Conn& c : conns_) Open(&c);
  }
  ~HttpSideTraffic() override {
    for (Conn& c : conns_) Close(&c);
  }

  Clock::time_point Send(const std::vector<const OpRow*>& rows,
                         Done done) override {
    Conn* idle = nullptr;
    while ((idle = Idle()) == nullptr && Busy()) {
      Poll(std::chrono::milliseconds(100));
    }
    const auto sent = Clock::now();
    if (idle == nullptr) {  // No connection is busy, and none would open.
      done(ProbeAnswer{});
      return sent;
    }
    body_.clear();
    AppendEstimateBody(rows.data(), rows.size(), "urgent", mix_.probe_deadline_ms,
                       mix_.probe_tenant, &body_);
    Dispatch(idle, "/v1/estimate",
             [n = rows.size(), done = std::move(done)](int status,
                                                       const std::string& body) {
               ProbeAnswer answer;
               answer.http = status;
               if (status == 200 &&
                   !ParseEstimateResponse(body, n, answer.values.data(),
                                          answer.versions.data(),
                                          answer.status.data())) {
                 answer.status[0] = kRowFailed;  // Unparseable body.
               }
               done(answer);
             });
    return sent;
  }

  void WaitUntil(Clock::time_point until) override {
    while (true) {
      SendDueFeedback();
      const auto now = Clock::now();
      if (now >= until) return;
      auto wake = until - kSpin;
      if (FeedbackLeft()) wake = std::min(wake, FeedbackDue(next_batch_));
      Poll(std::max(Clock::duration::zero(), wake - now));
    }
  }

  void Drain() override {
    const auto give_up = Clock::now() + std::chrono::seconds(10);
    while (Busy() && Clock::now() < give_up) Poll(std::chrono::milliseconds(100));
    for (Conn& c : conns_) {
      if (c.handler) {
        Close(&c);
        Answer(&c, 0, "");
      }
    }
  }

  void set_window_start(Clock::time_point t) { window_start_ = t; }

 private:
  /// Called with the HTTP status (0 on a transport failure) and the body.
  using Handler = std::function<void(int, const std::string&)>;
  struct Conn {
    int fd = -1;
    std::string in;
    Handler handler;  ///< Set while a request is unanswered.
  };

  Clock::time_point FeedbackDue(uint64_t batch) const {
    return At(window_start_,
              static_cast<double>(batch) / mix_.observe_rate - mix_.warmup_s);
  }
  /// Feedback batches fall due from the start of the warm-up to the end of
  /// the window.
  bool FeedbackLeft() const {
    return mix_.feedback != nullptr &&
           FeedbackDue(next_batch_) < At(window_start_, mix_.measure_s);
  }

  void SendDueFeedback() {
    while (FeedbackLeft() && FeedbackDue(next_batch_) <= Clock::now()) {
      Conn* idle = Idle();
      if (idle == nullptr) return;
      std::vector<const OpRow*> ptrs(mix_.observe_rows);
      for (size_t j = 0; j < mix_.observe_rows; ++j) {
        ptrs[j] = &(*mix_.feedback)[(next_batch_ * mix_.observe_rows + j) %
                                    mix_.feedback->size()];
      }
      ++next_batch_;
      body_.clear();
      AppendObserveBody(ptrs.data(), ptrs.size(), mix_.observe_tenant, &body_);
      ++run_->observe_requests;
      const auto sent = Clock::now();
      Dispatch(idle, "/v1/observe",
               [this, sent](int status, const std::string& body) {
                 const auto done = Clock::now();
                 const long accepted = status == 200 ? ParseAccepted(body) : -1;
                 if (accepted != static_cast<long>(mix_.observe_rows)) {
                   ++run_->observe_failed;
                   return;
                 }
                 run_->observe_acked += static_cast<uint64_t>(accepted);
                 const double at = SecondsBetween(window_start_, done);
                 if (at >= 0.0) {
                   run_->observe_samples.push_back(
                       {at, MsBetween(sent, done), static_cast<double>(accepted)});
                 }
               });
    }
  }

  /// POSTs body_ to `target` on `c`.
  void Dispatch(Conn* c, const char* target, Handler handler) {
    const std::string request =
        std::string("POST ") + target +
        " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
        "Content-Length: " +
        std::to_string(body_.size()) + "\r\n\r\n" + body_;
    c->handler = std::move(handler);
    // A kept-alive connection the server closed shows on the first write.
    if (!Write(c, request)) {
      Close(c);
      if (!Open(c) || !Write(c, request)) Answer(c, 0, "");
    }
  }

  bool Open(Conn* c) {
    c->fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c->fd < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(mix_.port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close(c);
      return false;
    }
    const int one = 1;
    ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  void Close(Conn* c) {
    if (c->fd >= 0) ::close(c->fd);
    c->fd = -1;
    c->in.clear();
  }

  bool Write(Conn* c, const std::string& request) {
    size_t sent = 0;
    while (c->fd >= 0 && sent < request.size()) {
      const ssize_t n = ::send(c->fd, request.data() + sent, request.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return c->fd >= 0;
  }

  Conn* Idle() {
    for (Conn& c : conns_) {
      if (!c.handler && (c.fd >= 0 || Open(&c))) return &c;
    }
    return nullptr;
  }

  bool Busy() const {
    return std::any_of(conns_.begin(), conns_.end(),
                       [](const Conn& c) { return static_cast<bool>(c.handler); });
  }

  void Answer(Conn* c, int status, const std::string& body) {
    Handler handler = std::move(c->handler);
    c->handler = nullptr;
    handler(status, body);
  }

  /// Waits up to `timeout` for answers and delivers every complete one.
  void Poll(Clock::duration timeout) {
    std::vector<pollfd> fds;
    std::vector<Conn*> owners;
    for (Conn& c : conns_) {
      if (c.handler && c.fd >= 0) {
        fds.push_back({c.fd, POLLIN, 0});
        owners.push_back(&c);
      }
    }
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count();
    const timespec wait{static_cast<time_t>(ns / 1000000000),
                        static_cast<long>(ns % 1000000000)};
    if (fds.empty()) {
      if (ns > 0) ::nanosleep(&wait, nullptr);
      return;
    }
    if (::ppoll(fds.data(), fds.size(), &wait, nullptr) <= 0) return;
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents != 0) Read(owners[i]);
    }
  }

  void Read(Conn* c) {
    char chunk[16384];
    while (true) {
      const ssize_t n = ::recv(c->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        c->in.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      Close(c);  // Closed or failed with the request unanswered.
      Answer(c, 0, "");
      return;
    }
    const size_t head_end = c->in.find("\r\n\r\n");
    if (head_end == std::string::npos) return;
    std::string head = c->in.substr(0, head_end);
    for (char& ch : head) ch = static_cast<char>(std::tolower(ch));
    const size_t length_at = head.find("\r\ncontent-length:");
    const size_t length =
        length_at == std::string::npos
            ? 0
            : static_cast<size_t>(std::strtoull(head.c_str() + length_at + 17,
                                                nullptr, 10));
    if (c->in.size() < head_end + 4 + length) return;
    const size_t space = head.find(' ');
    const int status =
        space == std::string::npos ? 0 : std::atoi(head.c_str() + space + 1);
    const std::string body = c->in.substr(head_end + 4, length);
    if (head.find("\r\nconnection: close") != std::string::npos) {
      Close(c);
    } else {
      c->in.clear();
    }
    Answer(c, status, body);
  }

  std::vector<Conn> conns_;
  const HttpMix& mix_;
  HttpRun* run_;
  Clock::time_point window_start_;
  uint64_t next_batch_ = 0;
  std::string body_;
};

}  // namespace

HttpRun RunHttpMix(const HttpMix& mix) {
  HttpRun run;
  run.main_tid = CurrentTid();
  run.clients.resize(static_cast<size_t>(mix.main_clients));
  // Connect in a fixed order (side streams, then main clients) so the
  // server's round-robin spreads them over its I/O loops the same way on
  // every run.
  HttpSideTraffic side(mix, &run);
  std::vector<resest::HttpClient> main_connections(run.clients.size());
  for (resest::HttpClient& c : main_connections) c.Connect("127.0.0.1", mix.port);
  const auto start = Clock::now();
  run.window_start = At(start, mix.warmup_s);
  side.set_window_start(run.window_start);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < run.clients.size(); ++c) {
    run.clients[c].stream = c + 1;
    threads.emplace_back(MainClient, std::cref(mix), std::cref(stop),
                         run.window_start, &main_connections[c],
                         &run.clients[c]);
  }
  if (mix.at_fixed_point) {
    threads.emplace_back([&]() {
      run.fixed_point_tid = CurrentTid();
      for (size_t k = 0; k < mix.fixed_points.size(); ++k) {
        std::this_thread::sleep_until(
            At(run.window_start, mix.fixed_points[k] * mix.measure_s));
        mix.at_fixed_point(k);
      }
    });
  }
  RunProbes(ProbeScheduleOf(mix), start, run.window_start, &side, &run.probes);
  stop.store(true);
  for (std::thread& t : threads) t.join();
  return run;
}

namespace {

/// An in-process probe's results in ProbeAnswer form (504 when every row
/// expired, 500 when the row count is wrong).
ProbeAnswer AnswerOf(const std::vector<resest::EstimateResult>& results,
                     size_t rows) {
  ProbeAnswer answer;
  bool all_expired = !results.empty();
  for (size_t j = 0; j < results.size() && j < 4; ++j) {
    answer.values[j] = results[j].value;
    answer.versions[j] = results[j].model_version;
    answer.status[j] =
        results[j].ok() ? kRowOk
        : results[j].status == resest::EstimateStatus::kDeadlineExceeded
            ? kRowExpired
            : kRowFailed;
    all_expired = all_expired && answer.status[j] == kRowExpired;
  }
  answer.http = results.size() != rows ? 500 : all_expired ? 504 : 200;
  return answer;
}

}  // namespace

Clock::time_point ServiceProbes::Send(const std::vector<const OpRow*>& rows,
                                      Done done) {
  std::vector<resest::EstimateRequest> requests;
  for (const OpRow* row : rows) {
    requests.push_back(
        resest::EstimateRequest::ForOperator(row->op, row->features, row->resource));
  }
  resest::SubmitOptions options;
  options.priority = resest::TaskPriority::kUrgent;
  options.deadline = Clock::now() + std::chrono::milliseconds(deadline_ms_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
  }
  const auto sent = Clock::now();
  submit_(std::move(requests), options,
          [this, n = rows.size(), done = std::move(done)](
              std::vector<resest::EstimateResult> results) {
            done(AnswerOf(results, n));
            std::lock_guard<std::mutex> lock(mu_);
            if (--outstanding_ == 0) answered_.notify_all();
          });
  return sent;
}

void ServiceProbes::WaitUntil(Clock::time_point until) {
  SleepUntilPrecisely(until);
}

void ServiceProbes::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  answered_.wait(lock, [this]() { return outstanding_ == 0; });
}

void RunProbes(const ProbeSchedule& schedule, Clock::time_point start,
               Clock::time_point window_start, ProbeTransport* transport,
               ProbeLog* log) {
  const id_t tid = static_cast<id_t>(CurrentTid());
  const int nice_before = getpriority(PRIO_PROCESS, tid);
  log->raised_priority = setpriority(PRIO_PROCESS, tid, kGeneratorNice) == 0;
  const double end_s = schedule.warmup_s + schedule.measure_s;
  std::vector<double> due = PoissonSchedule(schedule.seed ^ 0x9e0be,
                                            schedule.rate, end_s);
  while (!due.empty() && due.back() >= end_s) due.pop_back();
  const size_t n = due.size();
  // Answers land in their probe's slots, possibly on other threads; the
  // slots are sized up front so none moves meanwhile.
  log->due_at_s.assign(n, 0.0);
  log->lag_ms.assign(n, 0.0);
  log->latency_from_due_ms.assign(n, 0.0);
  log->within_slo.assign(n, 0);
  log->http_status.assign(n, 0);
  log->values.assign(4 * n, 0.0);
  log->versions.assign(4 * n, 0);
  log->status.assign(4 * n, kRowFailed);
  // The window's events in time order: the marks (fractions of the
  // window), and the slice boundaries (mark -1).
  std::vector<std::pair<double, double>> events;
  for (double m : schedule.marks) events.push_back({m * schedule.measure_s, m});
  events.push_back({0.0, 0.0});
  events.push_back({schedule.measure_s, 1.0});
  const size_t slices = WindowSlices(schedule.measure_s);
  for (size_t b = 0; b <= slices; ++b) {
    events.push_back({schedule.measure_s * static_cast<double>(b) /
                          static_cast<double>(slices),
                      -1.0});
  }
  std::sort(events.begin(), events.end());
  size_t next_event = 0;
  const auto fire_marks = [&](Clock::time_point until) {
    for (; next_event < events.size(); ++next_event) {
      const auto [at_s, mark] = events[next_event];
      const auto when = At(window_start, at_s);
      if (when > until) return;
      transport->WaitUntil(when);
      if (mark < 0.0) {
        log->slice_ticks.push_back(ReadHostTicks());
      } else if (schedule.at_mark) {
        schedule.at_mark(mark);
      }
    }
  };
  for (size_t k = 0; k < n; ++k) {
    const auto target = At(start, due[k]);
    fire_marks(target);
    transport->WaitUntil(target);
    const std::vector<uint32_t>& rows =
        schedule.probes->probes[k % schedule.probes->probes.size()];
    std::vector<const OpRow*> ptrs;
    for (uint32_t r : rows) ptrs.push_back(&schedule.probes->pool[r]);
    log->due_at_s[k] = SecondsBetween(window_start, target);
    const int deadline_ms = schedule.deadline_ms;
    const auto on_answer = [log, k, target, deadline_ms,
                            used = rows.size()](const ProbeAnswer& answer) {
      const double from_due = MsBetween(target, Clock::now());
      bool all_ok = answer.http == 200;
      for (size_t j = 0; j < 4; ++j) {
        log->values[4 * k + j] = answer.values[j];
        log->versions[4 * k + j] = answer.versions[j];
        log->status[4 * k + j] = answer.status[j];
        if (j < used) all_ok = all_ok && answer.status[j] == kRowOk;
      }
      log->http_status[k] = answer.http;
      log->latency_from_due_ms[k] = from_due;
      log->within_slo[k] = all_ok && from_due <= deadline_ms;
    };
    const auto sent = transport->Send(ptrs, on_answer);
    log->lag_ms[k] = MsBetween(target, sent);
  }
  fire_marks(Clock::time_point::max());
  transport->Drain();
  setpriority(PRIO_PROCESS, tid, nice_before);
}

ProbeStats SummarizeProbes(const ProbeLog& log, double window_s,
                           const std::vector<double>& steal) {
  const size_t slices = steal.size();
  BySlice latencies(slices);
  size_t met = 0;
  for (size_t i = 0; i < log.latency_from_due_ms.size(); ++i) {
    const size_t k = SliceOf(log.due_at_s[i], window_s, slices);
    if (k == slices) continue;
    latencies[k].push_back(log.latency_from_due_ms[i]);
    met += log.within_slo[i];
  }
  ProbeStats s;
  const std::vector<double> all = Flatten(latencies);
  s.samples = all.size();
  s.p50_ms = PercentileAtZeroSteal(latencies, steal, 0.50);
  s.p90_ms = PercentileAtZeroSteal(latencies, steal, 0.90);
  s.p99_ms = Percentile(all, 0.99);
  s.lag_p99_ms = Percentile(log.lag_ms, 0.99);
  s.slo_share = s.samples == 0 ? 0.0
                               : static_cast<double>(met) /
                                     static_cast<double>(s.samples);
  return s;
}

namespace {

/// True when the row answered OK with the oracle's exact double for the
/// version it names.
bool RowMatches(const Oracle& oracle, const OpRow& row, double value,
                uint64_t version) {
  const resest::ResourceEstimator* estimator = oracle.Get(version);
  if (estimator == nullptr) return false;
  return SameBits(value, estimator->EstimateFromFeatures(row.op, row.features,
                                                         row.resource));
}

}  // namespace

Verdict VerifyProbes(const ProbeSet& probes, const ProbeLog& log,
                     const Oracle& oracle) {
  // A 504 (the whole probe expired) is an SLO miss, not a failure; so is a
  // DEADLINE_EXCEEDED row inside a 200.
  Verdict v;
  for (size_t k = 0; k < log.http_status.size(); ++k) {
    ++v.attempted;
    if (log.http_status[k] == 504) continue;
    if (log.http_status[k] != 200) {
      ++v.failed;
      continue;
    }
    const std::vector<uint32_t>& rows = probes.probes[k % probes.probes.size()];
    for (size_t j = 0; j < rows.size(); ++j) {
      const size_t at = 4 * k + j;
      if (log.status[at] == kRowExpired) continue;
      if (log.status[at] != kRowOk ||
          !RowMatches(oracle, probes.pool[rows[j]], log.values[at],
                      log.versions[at])) {
        ++v.failed;
        break;
      }
    }
  }
  return v;
}

Verdict VerifyHttpRun(const HttpMix& mix, const HttpRun& run,
                      const Oracle& oracle, int threads) {
  // Work items: (client, request) pairs, striped over the workers.
  struct Item {
    const ClientLog* log;
    uint64_t request;
  };
  std::vector<Item> items;
  for (const ClientLog& c : run.clients) {
    for (uint64_t r = 0; r < c.requests; ++r) items.push_back({&c, r});
  }
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> workers;
  const size_t n = static_cast<size_t>(std::max(1, threads));
  for (size_t w = 0; w < n; ++w) {
    workers.emplace_back([&, w]() {
      uint64_t bad = 0;
      for (size_t i = w; i < items.size(); i += n) {
        const ClientLog& c = *items[i].log;
        const uint64_t r = items[i].request;
        if (c.request_failed[r]) {
          ++bad;
          continue;
        }
        const RowStream rows(mix.base, mix.seed, c.stream, mix.rescale);
        for (size_t j = 0; j < mix.main_rows; ++j) {
          const size_t at = r * mix.main_rows + j;
          if (c.status[at] != kRowOk ||
              !RowMatches(oracle, rows.Row(at), c.values[at], c.versions[at])) {
            ++bad;
            break;
          }
        }
      }
      failed += bad;
    });
  }
  for (std::thread& t : workers) t.join();

  Verdict v;
  v.attempted = items.size();
  v.failed = failed.load();
  v.Merge(VerifyProbes(*mix.probes, run.probes, oracle));
  v.attempted += run.observe_requests;
  v.failed += run.observe_failed;
  return v;
}

void TallyHttpRun(const HttpMix& mix, const HttpRun& run,
                  const Envelope& envelope, WorkTally* tally) {
  for (const ClientLog& c : run.clients) {
    const RowStream rows(mix.base, mix.seed, c.stream, mix.rescale);
    for (uint64_t i = 0; i < c.requests * mix.main_rows; ++i) {
      tally->Add(rows.Row(i), envelope);
    }
  }
  for (size_t k = 0; k < run.probes.http_status.size(); ++k) {
    for (uint32_t r : mix.probes->probes[k % mix.probes->probes.size()]) {
      tally->Add(mix.probes->pool[r], envelope);
    }
  }
}

}  // namespace perfbench
