#include "perfbench/src/util.h"

#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/ml/compiled_forest.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Value of a "Key:   123 ..." line of a /proc status-style file.
uint64_t StatusField(const std::string& text, const std::string& key) {
  const size_t at = text.find("\n" + key + ":");
  const size_t start = at == std::string::npos
                           ? (text.compare(0, key.size() + 1, key + ":") == 0
                                  ? key.size() + 1
                                  : std::string::npos)
                           : at + key.size() + 2;
  if (start == std::string::npos) return 0;
  return std::strtoull(text.c_str() + start, nullptr, 10);
}

/// utime + stime ticks from a /proc/.../stat line (fields 14 and 15,
/// counted after the parenthesised command name).
uint64_t StatCpuTicks(const std::string& stat) {
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (in >> field); ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return utime + stime;
}

ThreadCounters ReadThread(const std::string& dir) {
  ThreadCounters c;
  std::istringstream sched(ReadFile(dir + "/schedstat"));
  sched >> c.run_ns >> c.wait_ns;
  c.nonvoluntary =
      StatusField(ReadFile(dir + "/status"), "nonvoluntary_ctxt_switches");
  const std::string io = ReadFile(dir + "/io");
  c.syscalls = StatusField(io, "syscr") + StatusField(io, "syscw");
  return c;
}

}  // namespace

double ProcessCpuSeconds(pid_t pid) {
  const uint64_t ticks =
      StatCpuTicks(ReadFile("/proc/" + std::to_string(pid) + "/stat"));
  return static_cast<double>(ticks) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

HostTicks ReadHostTicks() {
  std::istringstream in(ReadFile("/proc/stat"));
  std::string cpu;
  in >> cpu;
  HostTicks t;
  uint64_t v = 0;
  for (int i = 0; i < 10 && (in >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealShare(const HostTicks& a, const HostTicks& b) {
  const uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

double PeakRssMb(pid_t pid) {
  const uint64_t kb = StatusField(
      ReadFile("/proc/" + std::to_string(pid) + "/status"), "VmHWM");
  return static_cast<double>(kb) / 1024.0;
}

std::map<pid_t, ThreadCounters> SnapshotThreads() {
  std::map<pid_t, ThreadCounters> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    out[tid] = ReadThread(std::string("/proc/self/task/") + entry->d_name);
  }
  closedir(dir);
  return out;
}

ThreadCounters DiffThreads(const std::map<pid_t, ThreadCounters>& before,
                           const std::map<pid_t, ThreadCounters>& after,
                           const std::vector<pid_t>& exclude) {
  ThreadCounters sum;
  for (const auto& [tid, a] : after) {
    if (std::find(exclude.begin(), exclude.end(), tid) != exclude.end()) {
      continue;
    }
    const auto b = before.find(tid);
    if (b == before.end()) continue;
    sum.run_ns += a.run_ns - b->second.run_ns;
    sum.wait_ns += a.wait_ns - b->second.wait_ns;
    sum.nonvoluntary += a.nonvoluntary - b->second.nonvoluntary;
    sum.syscalls += a.syscalls - b->second.syscalls;
  }
  return sum;
}

pid_t CurrentTid() { return static_cast<pid_t>(syscall(SYS_gettid)); }

Fingerprint MakeFingerprint() {
  Fingerprint f;
  f.nproc = AvailableCpus();
  const std::string cpuinfo = ReadFile("/proc/cpuinfo");
  const size_t at = cpuinfo.find("model name");
  if (at != std::string::npos) {
    const size_t colon = cpuinfo.find(':', at);
    const size_t end = cpuinfo.find('\n', at);
    if (colon != std::string::npos && colon < end) {
      f.cpu_model = cpuinfo.substr(colon + 2, end - colon - 2);
    }
  }
  f.avx2 = resest::CompiledForest::Avx2Supported();
  f.avx512 = resest::CompiledForest::Avx512Supported();
  f.kernel = resest::CompiledForest::ActiveKernelName();
#ifdef PERFBENCH_BUILD_TYPE
  f.build_type = PERFBENCH_BUILD_TYPE;
#endif
  return f;
}

namespace {
void AppendString(const std::string& s, std::string* out) {
  *out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') *out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) *out += c;
  }
  *out += '"';
}
}  // namespace

std::string FingerprintJson(const Fingerprint& f) {
  std::string out = "{\"nproc\": " + std::to_string(f.nproc);
  out += ", \"cpu_model\": ";
  AppendString(f.cpu_model, &out);
  out += std::string(", \"avx2\": ") + (f.avx2 ? "true" : "false");
  out += std::string(", \"avx512\": ") + (f.avx512 ? "true" : "false");
  out += ", \"forest_kernel\": ";
  AppendString(f.kernel, &out);
  out += ", \"build_type\": ";
  AppendString(f.build_type, &out);
  out += ", \"git_sha\": ";
  AppendString(f.git_sha, &out);
  out += ", \"source_digest\": ";
  AppendString(f.source_digest, &out);
  out += ", \"workload\": ";
  AppendString(f.workload, &out);
  out += ", \"seed\": " + std::to_string(f.seed);
  out += std::string(", \"trace\": ") + (f.trace ? "1" : "0") + "}";
  return out;
}

void AppendNumber(double v, std::string* out) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

double Report::Get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

bool Report::Print(const Fingerprint& fingerprint,
                   const std::vector<std::string>& contract, bool correct,
                   uint64_t attempted, uint64_t failed) const {
  for (const Entry& e : entries_) {
    std::string value;
    AppendNumber(e.value, &value);
    std::printf("metric %-36s %18s %s\n", e.name.c_str(), value.c_str(),
                e.unit.c_str());
  }
  std::printf("fingerprint %s\n", FingerprintJson(fingerprint).c_str());
  bool complete = true;
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : contract) {
    const Entry* found = nullptr;
    for (const Entry& e : entries_) {
      if (e.name == name) found = &e;
    }
    if (found == nullptr) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      complete = false;
      continue;
    }
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": ";
    AppendNumber(found->value, &line);
    line += ", \"unit\": \"" + found->unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return complete;
}

}  // namespace perfbench
