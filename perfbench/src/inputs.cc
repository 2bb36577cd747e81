#include "perfbench/src/inputs.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>

#include "perfbench/src/util.h"
#include "src/workload/schemas.h"
#include "src/workload/tpcds_queries.h"
#include "src/workload/tpch_queries.h"

namespace perfbench {

using resest::Database;
using resest::ExecutedQuery;
using resest::FeatureId;

namespace {

enum class Bench { kTpch, kTpcds };

/// Executes `count` generated queries of one benchmark at one scale factor
/// and appends them to `corpus`.
void AddQueries(Corpus* corpus, Bench bench, double scale_factor, int count,
                uint64_t seed) {
  auto db = resest::GenerateDatabase(
      bench == Bench::kTpch ? resest::TpchSchema() : resest::TpcdsSchema(),
      scale_factor, 1.0, seed);
  resest::Rng rng(seed + 1);
  const auto specs = bench == Bench::kTpch
                         ? resest::GenerateTpchWorkload(count, &rng, db.get())
                         : resest::GenerateTpcdsWorkload(count, &rng, db.get());
  for (auto& q : resest::RunWorkload(db.get(), specs, seed + 2)) {
    corpus->queries.push_back(std::move(q));
  }
  corpus->databases.push_back(std::move(db));
}

// Features that grow with the data: tuple counts, byte totals, table sizes
// and the per-tuple-times-count products.
constexpr FeatureId kDataSizeFeatures[] = {
    FeatureId::kCOut,     FeatureId::kSOutTot,    FeatureId::kCIn0,
    FeatureId::kSInTot0,  FeatureId::kCIn1,       FeatureId::kSInTot1,
    FeatureId::kTSize,    FeatureId::kPages,      FeatureId::kEstIoCost,
    FeatureId::kHashOpTot, FeatureId::kSSeekTable, FeatureId::kMinComp,
    FeatureId::kSInSum};

double UnitInterval(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void AppendRow(const OpRow& row, bool with_label, std::string* out) {
  *out += "{\"op\":\"";
  *out += resest::OpTypeName(row.op);
  *out += "\",\"resource\":\"";
  *out += resest::ResourceName(row.resource);
  *out += "\",\"features\":[";
  size_t last = 0;
  for (size_t i = 0; i < row.features.size(); ++i) {
    if (row.features[i] != 0.0) last = i + 1;
  }
  for (size_t i = 0; i < last; ++i) {
    if (i > 0) *out += ',';
    AppendNumber(row.features[i], out);
  }
  *out += ']';
  if (with_label) {
    *out += ",\"label\":";
    AppendNumber(row.label, out);
  }
  *out += '}';
}

}  // namespace

Corpus TrainingCorpus() {
  Corpus c;
  AddQueries(&c, Bench::kTpch, 1.0, 20, 101);
  AddQueries(&c, Bench::kTpch, 2.0, 20, 102);
  AddQueries(&c, Bench::kTpch, 4.0, 20, 104);
  AddQueries(&c, Bench::kTpcds, 2.0, 20, 152);
  return c;
}

Corpus HeldOutCorpus() {
  Corpus c;
  AddQueries(&c, Bench::kTpch, 8.0, 40, 208);
  return c;
}

Corpus FeedbackCorpus() {
  Corpus c;
  AddQueries(&c, Bench::kTpch, 3.0, 30, 303);
  AddQueries(&c, Bench::kTpcds, 3.0, 30, 353);
  return c;
}

Corpus PlanPool() {
  Corpus c;
  AddQueries(&c, Bench::kTpch, 1.0, 12, 401);
  AddQueries(&c, Bench::kTpch, 3.0, 12, 403);
  AddQueries(&c, Bench::kTpch, 6.0, 12, 406);
  AddQueries(&c, Bench::kTpcds, 2.0, 12, 452);
  AddQueries(&c, Bench::kTpcds, 5.0, 12, 455);
  return c;
}

resest::TrainOptions ModelTrainOptions(size_t threads) {
  resest::TrainOptions options;
  options.mart.num_trees = 60;
  options.train_threads = threads;
  return options;
}

std::vector<OpRow> OperatorRows(const std::vector<ExecutedQuery>& qs) {
  std::vector<OpRow> rows;
  for (const ExecutedQuery& q : qs) {
    if (q.database == nullptr) continue;
    resest::VisitPlanOperators(
        q.plan, [&](const resest::PlanNode& node, const resest::PlanNode* parent) {
          OpRow row;
          row.op = node.type;
          row.features = resest::ExtractFeatures(node, parent, *q.database,
                                                 resest::FeatureMode::kExact);
          row.resource = Resource::kCpu;
          row.label = node.actual.cpu;
          rows.push_back(row);
          row.resource = Resource::kIo;
          row.label = static_cast<double>(node.actual.logical_io);
          rows.push_back(row);
        });
  }
  return rows;
}

std::vector<OpRow> ScalableRows(const std::vector<OpRow>& rows) {
  std::vector<OpRow> out;
  for (const OpRow& row : rows) {
    for (FeatureId f : kDataSizeFeatures) {
      if (row.features[static_cast<size_t>(f)] != 0.0) {
        out.push_back(row);
        break;
      }
    }
  }
  return out;
}

Envelope::Envelope(const std::vector<OpRow>& training_rows) {
  for (const OpRow& row : training_rows) {
    const size_t op = static_cast<size_t>(row.op);
    if (!seen_[op]) {
      lo_[op] = row.features;
      hi_[op] = row.features;
      seen_[op] = true;
      continue;
    }
    for (size_t f = 0; f < row.features.size(); ++f) {
      lo_[op][f] = std::min(lo_[op][f], row.features[f]);
      hi_[op][f] = std::max(hi_[op][f], row.features[f]);
    }
  }
}

bool Envelope::Outside(const OpRow& row) const {
  const size_t op = static_cast<size_t>(row.op);
  if (!seen_[op]) return true;
  for (size_t f = 0; f < row.features.size(); ++f) {
    if (row.features[f] < lo_[op][f] || row.features[f] > hi_[op][f]) {
      return true;
    }
  }
  return false;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t TermHash(const OpRow& row) {
  uint64_t h = Mix(static_cast<uint64_t>(row.op) * 2 +
                   static_cast<uint64_t>(row.resource));
  for (double v : row.features) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = Mix(h ^ bits);
  }
  return h;
}

OpRow RowStream::Row(uint64_t index) const {
  const uint64_t h = Mix(key_ ^ Mix(index));
  OpRow row = (*base_)[h % base_->size()];
  if (!rescale_) return row;
  static const double kLo = std::log(0.5);
  static const double kHi = std::log(20.0);
  const double scale = std::exp(kLo + (kHi - kLo) * UnitInterval(Mix(h)));
  for (FeatureId f : kDataSizeFeatures) {
    row.features[static_cast<size_t>(f)] *= scale;
  }
  return row;
}

ProbeSet MakeProbes(const std::vector<OpRow>& base, uint64_t seed,
                    size_t count) {
  ProbeSet set;
  constexpr size_t kPool = 256;
  for (size_t i = 0; i < kPool; ++i) {
    set.pool.push_back(base[Mix(seed * 31 + i) % base.size()]);
  }
  set.probes.resize(count);
  for (size_t p = 0; p < count; ++p) {
    const uint64_t h = Mix(seed ^ Mix(p + 0x51ed));
    const size_t rows = 1 + h % 4;
    const uint32_t first = static_cast<uint32_t>((h >> 8) % kPool);
    for (size_t r = 0; r < rows; ++r) {
      set.probes[p].push_back(static_cast<uint32_t>((first + r * 61) % kPool));
    }
  }
  return set;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double seconds) {
  std::vector<double> due;
  double t = 0.0;
  for (uint64_t i = 0;; ++i) {
    const double u = UnitInterval(Mix(seed ^ Mix(i + 0xa11ce)));
    t += -std::log(1.0 - u) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

SessionSet MakeSessions(const Corpus& pool, uint64_t seed, size_t sessions,
                        size_t per_session, double zipf_s) {
  const size_t items = pool.queries.size() * 2;
  // Popularity rank -> item, a seeded permutation.
  std::vector<uint32_t> by_rank(items);
  for (size_t i = 0; i < items; ++i) by_rank[i] = static_cast<uint32_t>(i);
  resest::Rng ranking(0x5e55);
  ranking.Shuffle(&by_rank);
  resest::Rng rng(seed ^ 0x5e55);
  std::vector<double> cdf(items);
  double total = 0.0;
  for (size_t r = 0; r < items; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
    cdf[r] = total;
  }
  SessionSet set;
  set.sessions.resize(sessions);
  set.items.resize(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    for (size_t k = 0; k < per_session; ++k) {
      const double u = rng.Uniform() * total;
      const size_t rank = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      const uint32_t item = by_rank[std::min(rank, items - 1)];
      const ExecutedQuery& q = pool.queries[item / 2];
      resest::EstimateRequest request;
      request.plan = &q.plan;
      request.database = q.database;
      request.resource = item % 2 == 0 ? Resource::kCpu : Resource::kIo;
      set.sessions[s].push_back(request);
      set.items[s].push_back(item);
    }
  }
  return set;
}

void AppendEstimateBody(const OpRow* const* rows, size_t n,
                        const char* priority, int deadline_ms,
                        const std::string& tenant, std::string* out) {
  *out += "{\"priority\":\"";
  *out += priority;
  *out += '"';
  if (deadline_ms > 0) *out += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  if (!tenant.empty()) *out += ",\"tenant\":\"" + tenant + "\"";
  *out += ",\"requests\":[";
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) *out += ',';
    AppendRow(*rows[i], /*with_label=*/false, out);
  }
  *out += "]}";
}

void AppendObserveBody(const OpRow* const* rows, size_t n,
                       const std::string& tenant, std::string* out) {
  *out += '{';
  if (!tenant.empty()) *out += "\"tenant\":\"" + tenant + "\",";
  *out += "\"observations\":[";
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) *out += ',';
    AppendRow(*rows[i], /*with_label=*/true, out);
  }
  *out += "]}";
}

bool ParseEstimateResponse(const std::string& body, size_t n, double* values,
                           uint64_t* versions, uint8_t* status) {
  static const char kStatus[] = "{\"status\":\"";
  static const char kValue[] = "\"value\":";
  static const char kVersion[] = "\"model_version\":";
  size_t pos = body.find("\"results\":[");
  if (pos == std::string::npos) return false;
  const char* end = body.data() + body.size();
  for (size_t i = 0; i < n; ++i) {
    pos = body.find(kStatus, pos);
    if (pos == std::string::npos) return false;
    pos += sizeof(kStatus) - 1;
    status[i] = body.compare(pos, 3, "OK\"") == 0 ? kRowOk
                : body.compare(pos, 18, "DEADLINE_EXCEEDED\"") == 0 ? kRowExpired
                                                                    : kRowFailed;
    pos = body.find(kValue, pos);
    if (pos == std::string::npos) return false;
    pos += sizeof(kValue) - 1;
    const auto v = std::from_chars(body.data() + pos, end, values[i]);
    if (v.ec != std::errc()) return false;
    pos = body.find(kVersion, static_cast<size_t>(v.ptr - body.data()));
    if (pos == std::string::npos) return false;
    pos += sizeof(kVersion) - 1;
    const auto w = std::from_chars(body.data() + pos, end, versions[i]);
    if (w.ec != std::errc()) return false;
    pos = static_cast<size_t>(w.ptr - body.data());
  }
  return body.find(kStatus, pos) == std::string::npos;
}

long ParseAccepted(const std::string& body) {
  const size_t at = body.find("\"accepted\":");
  if (at == std::string::npos) return -1;
  return std::strtol(body.c_str() + at + 11, nullptr, 10);
}

void WorkTally::Add(const OpRow& row, const Envelope& envelope) {
  hashes_.push_back(TermHash(row));
  if (envelope.Outside(row)) ++outside_;
}

WorkProperties WorkTally::Finish(size_t cache_capacity) {
  WorkProperties p;
  const size_t n = hashes_.size();
  if (n == 0) return p;
  std::sort(hashes_.begin(), hashes_.end());
  const size_t distinct = static_cast<size_t>(
      std::unique(hashes_.begin(), hashes_.end()) - hashes_.begin());
  p.repeat_share = static_cast<double>(n - distinct) / static_cast<double>(n);
  p.extrapolated_share =
      static_cast<double>(outside_) / static_cast<double>(n);
  p.working_set_ratio =
      static_cast<double>(distinct) / static_cast<double>(cache_capacity);
  return p;
}

}  // namespace perfbench
