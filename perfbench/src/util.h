// Shared helpers of the perfbench harness: clocks and order statistics,
// /proc readers for the serving process and its threads, the host/run
// fingerprint, and the metric report that ends every run with one JSON
// line.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return 1e3 * SecondsBetween(a, b);
}
/// `start` plus `offset_s` seconds.
inline Clock::time_point At(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// CPUs this process may run on (what `nproc` prints).
int AvailableCpus();

/// User + system CPU seconds of a process (from /proc/<pid>/stat).
double ProcessCpuSeconds(pid_t pid);
/// Host-wide CPU tick counters from /proc/stat.
struct HostTicks {
  uint64_t total = 0;
  uint64_t steal = 0;  ///< Time the hypervisor ran someone else.
};
HostTicks ReadHostTicks();
/// Share of host CPU time stolen between two readings.
double StealShare(const HostTicks& a, const HostTicks& b);

/// Peak resident set (VmHWM) of a process in MiB.
double PeakRssMb(pid_t pid);

/// Scheduler and I/O counters of one thread of this process.
struct ThreadCounters {
  uint64_t run_ns = 0;        ///< schedstat: time on CPU.
  uint64_t wait_ns = 0;       ///< schedstat: time runnable but waiting.
  uint64_t nonvoluntary = 0;  ///< nonvoluntary_ctxt_switches.
  uint64_t syscalls = 0;      ///< syscr + syscw.
};
/// Counters of every live thread of this process, keyed by tid.
std::map<pid_t, ThreadCounters> SnapshotThreads();
/// Sum over tids present in both snapshots and not in `exclude`, of
/// after - before.
ThreadCounters DiffThreads(const std::map<pid_t, ThreadCounters>& before,
                           const std::map<pid_t, ThreadCounters>& after,
                           const std::vector<pid_t>& exclude);
pid_t CurrentTid();

/// Host and run identity stamped on every result.
struct Fingerprint {
  int nproc = 0;
  std::string cpu_model;
  bool avx2 = false;
  bool avx512 = false;
  std::string kernel;
  std::string build_type;
  std::string git_sha;
  std::string source_digest;
  uint64_t seed = 0;
  std::string workload;
  bool trace = false;
};
Fingerprint MakeFingerprint();
std::string FingerprintJson(const Fingerprint& f);

/// Appends `v` in shortest round-trip form.
void AppendNumber(double v, std::string* out);

/// Metric report. Print() writes one human-readable line per metric (all
/// metrics, including diagnostics outside the contract set), then the
/// fingerprint line, then the result line: the JSON object holding exactly
/// the metrics named in `contract`.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// The value of a metric added earlier; 0 when absent.
  double Get(const std::string& name) const;
  /// Returns false (and lists them on stderr) when a contract metric is
  /// missing.
  bool Print(const Fingerprint& fingerprint,
             const std::vector<std::string>& contract, bool correct,
             uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
