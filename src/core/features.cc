#include "src/core/features.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "src/storage/catalog.h"

namespace resest {

const char* ResourceName(Resource r) {
  return r == Resource::kCpu ? "CPU" : "IO";
}

bool ParseResource(const std::string& name, Resource* out) {
  std::string upper = name;
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  for (int i = 0; i < kNumResources; ++i) {
    const Resource r = static_cast<Resource>(i);
    if (upper == ResourceName(r)) {
      *out = r;
      return true;
    }
  }
  return false;
}

const char* FeatureName(FeatureId f) {
  switch (f) {
    case FeatureId::kCOut: return "COUT";
    case FeatureId::kSOutAvg: return "SOUTAVG";
    case FeatureId::kSOutTot: return "SOUTTOT";
    case FeatureId::kCIn0: return "CIN";
    case FeatureId::kSInAvg0: return "SINAVG";
    case FeatureId::kSInTot0: return "SINTOT";
    case FeatureId::kCIn1: return "CIN2";
    case FeatureId::kSInAvg1: return "SINAVG2";
    case FeatureId::kSInTot1: return "SINTOT2";
    case FeatureId::kOutputUsage: return "OUTPUTUSAGE";
    case FeatureId::kTSize: return "TSIZE";
    case FeatureId::kPages: return "PAGES";
    case FeatureId::kTColumns: return "TCOLUMNS";
    case FeatureId::kEstIoCost: return "ESTIOCOST";
    case FeatureId::kIndexDepth: return "INDEXDEPTH";
    case FeatureId::kHashOpAvg: return "HASHOPAVG";
    case FeatureId::kHashOpTot: return "HASHOPTOT";
    case FeatureId::kCHashCol: return "CHASHCOL";
    case FeatureId::kCInnerCol: return "CINNERCOL";
    case FeatureId::kCOuterCol: return "COUTERCOL";
    case FeatureId::kSSeekTable: return "SSEEKTABLE";
    case FeatureId::kMinComp: return "MINCOMP";
    case FeatureId::kCSortCol: return "CSORTCOL";
    case FeatureId::kSInSum: return "SINSUM";
    case FeatureId::kNumFeatures: break;
  }
  return "?";
}

uint64_t HashFeatureVector(const FeatureVector& v) {
  // Two independent lanes of xxHash64-style rounds, one 8-byte word each,
  // so the lanes' multiply chains overlap instead of serializing 8 byte
  // steps per slot; a final avalanche spreads every input bit over the
  // whole result (callers take both low bits and high bits).
  constexpr uint64_t kP1 = 0x9e3779b185ebca87ull;
  constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
  constexpr uint64_t kP3 = 0x165667b19e3779f9ull;
  const auto round = [](uint64_t acc, uint64_t word) {
    acc += word * kP2;
    acc = (acc << 31) | (acc >> 33);
    return acc * kP1;
  };
  static_assert(kNumFeatures % 2 == 0, "lanes take alternate slots");
  uint64_t words[kNumFeatures];
  static_assert(sizeof(words) == sizeof(v), "double must be 64-bit");
  std::memcpy(words, v.data(), sizeof(words));
  uint64_t a = kP1 + kP2;
  uint64_t b = kP2;
  for (int i = 0; i < kNumFeatures; i += 2) {
    a = round(a, words[i]);
    b = round(b, words[i + 1]);
  }
  uint64_t h = ((a << 1) | (a >> 63)) + ((b << 7) | (b >> 57));
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

bool FeatureVectorHashEqual(const FeatureVector& a, const FeatureVector& b) {
  return std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

namespace {

using F = FeatureId;

const std::vector<FeatureId> kScanFeatures = {
    F::kCOut, F::kSOutAvg, F::kSOutTot, F::kOutputUsage,
    F::kTSize, F::kPages, F::kTColumns, F::kEstIoCost};
const std::vector<FeatureId> kSeekFeatures = {
    F::kCOut, F::kSOutAvg, F::kSOutTot, F::kOutputUsage,
    F::kTSize, F::kPages, F::kTColumns, F::kEstIoCost, F::kIndexDepth};
const std::vector<FeatureId> kFilterFeatures = {
    F::kCOut, F::kSOutAvg, F::kSOutTot, F::kCIn0, F::kSInAvg0, F::kSInTot0,
    F::kOutputUsage};
const std::vector<FeatureId> kSortFeatures = {
    F::kCOut, F::kSOutAvg, F::kSOutTot, F::kCIn0, F::kSInAvg0, F::kSInTot0,
    F::kOutputUsage, F::kMinComp, F::kCSortCol};
const std::vector<FeatureId> kTopFeatures = {
    F::kCOut, F::kSOutAvg, F::kSOutTot, F::kCIn0, F::kSInAvg0, F::kSInTot0,
    F::kOutputUsage};
const std::vector<FeatureId> kHashJoinFeatures = {
    F::kCOut, F::kSOutAvg, F::kSOutTot, F::kCIn0, F::kSInAvg0, F::kSInTot0,
    F::kCIn1, F::kSInAvg1, F::kSInTot1, F::kOutputUsage,
    F::kHashOpAvg, F::kHashOpTot, F::kCInnerCol, F::kCOuterCol};
const std::vector<FeatureId> kMergeJoinFeatures = {
    F::kCOut, F::kSOutAvg, F::kSOutTot, F::kCIn0, F::kSInAvg0, F::kSInTot0,
    F::kCIn1, F::kSInAvg1, F::kSInTot1, F::kOutputUsage,
    F::kCInnerCol, F::kCOuterCol, F::kSInSum};
const std::vector<FeatureId> kNestedLoopFeatures = {
    F::kCOut, F::kSOutAvg, F::kSOutTot, F::kCIn0, F::kSInAvg0, F::kSInTot0,
    F::kCIn1, F::kSInAvg1, F::kSInTot1, F::kOutputUsage,
    F::kCInnerCol, F::kCOuterCol, F::kSSeekTable};
const std::vector<FeatureId> kInljFeatures = {
    F::kCOut, F::kSOutAvg, F::kSOutTot, F::kCIn0, F::kSInAvg0, F::kSInTot0,
    F::kOutputUsage, F::kCInnerCol, F::kCOuterCol, F::kSSeekTable,
    F::kIndexDepth};
const std::vector<FeatureId> kHashAggFeatures = {
    F::kCOut, F::kSOutAvg, F::kSOutTot, F::kCIn0, F::kSInAvg0, F::kSInTot0,
    F::kOutputUsage, F::kHashOpAvg, F::kHashOpTot, F::kCHashCol};
const std::vector<FeatureId> kStreamAggFeatures = {
    F::kCOut, F::kSOutAvg, F::kSOutTot, F::kCIn0, F::kSInAvg0, F::kSInTot0,
    F::kOutputUsage, F::kCHashCol};
const std::vector<FeatureId> kComputeScalarFeatures = {
    F::kCOut, F::kSOutAvg, F::kSOutTot, F::kCIn0, F::kSInAvg0, F::kSInTot0,
    F::kOutputUsage};

}  // namespace

const std::vector<FeatureId>& OperatorFeatures(OpType op) {
  switch (op) {
    case OpType::kTableScan: return kScanFeatures;
    case OpType::kIndexSeek: return kSeekFeatures;
    case OpType::kFilter: return kFilterFeatures;
    case OpType::kSort: return kSortFeatures;
    case OpType::kTop: return kTopFeatures;
    case OpType::kHashJoin: return kHashJoinFeatures;
    case OpType::kMergeJoin: return kMergeJoinFeatures;
    case OpType::kNestedLoopJoin: return kNestedLoopFeatures;
    case OpType::kIndexNestedLoopJoin: return kInljFeatures;
    case OpType::kHashAggregate: return kHashAggFeatures;
    case OpType::kStreamAggregate: return kStreamAggFeatures;
    case OpType::kComputeScalar: return kComputeScalarFeatures;
  }
  return kScanFeatures;
}

std::vector<FeatureId> ScalableFeatures(OpType op, Resource resource) {
  // Candidates: numeric features with a monotonic relationship to resource
  // usage. OUTPUTUSAGE (categorical) is never a candidate; column-count
  // features and index depth are structural and never scaled directly.
  static const std::vector<FeatureId> kNever = {
      F::kOutputUsage, F::kTColumns, F::kCInnerCol, F::kCOuterCol,
      F::kCSortCol, F::kCHashCol, F::kIndexDepth};
  // For I/O, second-order CPU-ish features are additionally excluded
  // (paper Section 6.2, "Non-scaling Features").
  static const std::vector<FeatureId> kNeverIo = {
      F::kHashOpAvg, F::kHashOpTot, F::kMinComp};

  std::vector<FeatureId> out;
  for (FeatureId f : OperatorFeatures(op)) {
    if (std::find(kNever.begin(), kNever.end(), f) != kNever.end()) continue;
    if (resource == Resource::kIo &&
        std::find(kNeverIo.begin(), kNeverIo.end(), f) != kNeverIo.end()) {
      continue;
    }
    out.push_back(f);
  }
  return out;
}

FeatureVector ExtractFeatures(const PlanNode& node, const PlanNode* parent,
                              const Database& db, FeatureMode mode) {
  FeatureVector v{};
  v.fill(0.0);

  const bool exact = (mode == FeatureMode::kExact);
  const double rows_out = exact ? static_cast<double>(node.actual.rows_out)
                                : node.est.rows_out;
  const double bytes_out = exact ? node.actual.bytes_out : node.est.bytes_out;
  auto rows_in = [&](int i) {
    return exact ? static_cast<double>(node.actual.rows_in[i])
                 : node.est.rows_in[i];
  };
  auto bytes_in = [&](int i) {
    return exact ? node.actual.bytes_in[i] : node.est.bytes_in[i];
  };

  auto set = [&v](FeatureId f, double val) {
    v[static_cast<size_t>(f)] = val;
  };

  set(F::kCOut, rows_out);
  set(F::kSOutAvg, rows_out > 0 ? bytes_out / rows_out : 0.0);
  set(F::kSOutTot, bytes_out);
  set(F::kOutputUsage,
      parent == nullptr ? -1.0 : static_cast<double>(parent->type));

  const size_t children = node.num_children();
  // IndexNestedLoopJoin has one plan child but two logical inputs (the
  // executor fills rows_in[1] with the inner table volume).
  const bool has_input1 =
      children >= 2 || node.type == OpType::kIndexNestedLoopJoin;
  if (children >= 1 || node.type == OpType::kTableScan ||
      node.type == OpType::kIndexSeek) {
    set(F::kCIn0, rows_in(0));
    set(F::kSInAvg0, rows_in(0) > 0 ? bytes_in(0) / rows_in(0) : 0.0);
    set(F::kSInTot0, bytes_in(0));
  }
  if (has_input1) {
    set(F::kCIn1, rows_in(1));
    set(F::kSInAvg1, rows_in(1) > 0 ? bytes_in(1) / rows_in(1) : 0.0);
    set(F::kSInTot1, bytes_in(1));
  }

  // Operator-specific features from the catalog and plan shape.
  switch (node.type) {
    case OpType::kTableScan:
    case OpType::kIndexSeek: {
      const Table* t = db.FindTable(node.table);
      if (t != nullptr) {
        set(F::kTSize, static_cast<double>(t->row_count()));
        set(F::kPages, static_cast<double>(t->data_pages()));
        set(F::kTColumns, static_cast<double>(t->column_count()));
        // Scans see the whole table regardless of mode; the paper notes
        // full-scan counts are known a priori.
        set(F::kCIn0, static_cast<double>(t->row_count()));
        set(F::kSInAvg0, static_cast<double>(t->row_width()));
        set(F::kSInTot0,
            static_cast<double>(t->row_count() * t->row_width()));
        if (node.type == OpType::kIndexSeek) {
          const int col = t->FindColumn(node.seek_column);
          const Index* idx = col >= 0 ? t->IndexOn(col) : nullptr;
          if (idx != nullptr) {
            set(F::kIndexDepth, static_cast<double>(idx->depth()));
          }
        }
      }
      set(F::kEstIoCost, node.est.io_cost);
      break;
    }
    case OpType::kHashJoin: {
      const double keys = 1.0;  // single-column equi-joins
      set(F::kHashOpAvg, keys);
      set(F::kHashOpTot, keys * rows_in(1));  // build side is hashed
      set(F::kCInnerCol, 1.0);
      set(F::kCOuterCol, 1.0);
      break;
    }
    case OpType::kMergeJoin:
      set(F::kCInnerCol, 1.0);
      set(F::kCOuterCol, 1.0);
      set(F::kSInSum, bytes_in(0) + bytes_in(1));
      break;
    case OpType::kNestedLoopJoin:
      set(F::kCInnerCol, 1.0);
      set(F::kCOuterCol, 1.0);
      set(F::kSSeekTable, rows_in(1));
      break;
    case OpType::kIndexNestedLoopJoin: {
      set(F::kCInnerCol, 1.0);
      set(F::kCOuterCol, 1.0);
      const Table* t = db.FindTable(node.inner_table);
      if (t != nullptr) {
        set(F::kSSeekTable, static_cast<double>(t->row_count()));
        const int col = t->FindColumn(node.inner_key);
        const Index* idx = col >= 0 ? t->IndexOn(col) : nullptr;
        if (idx != nullptr) {
          set(F::kIndexDepth, static_cast<double>(idx->depth()));
        }
      }
      break;
    }
    case OpType::kHashAggregate: {
      const double keys =
          static_cast<double>(std::max<size_t>(1, node.group_columns.size()));
      set(F::kHashOpAvg, keys);
      set(F::kHashOpTot, keys * rows_in(0));
      set(F::kCHashCol, keys);
      break;
    }
    case OpType::kStreamAggregate:
      set(F::kCHashCol,
          static_cast<double>(std::max<size_t>(1, node.group_columns.size())));
      break;
    case OpType::kSort:
      set(F::kCSortCol,
          static_cast<double>(std::max<size_t>(1, node.sort_columns.size())));
      set(F::kMinComp, rows_in(0) * static_cast<double>(std::max<size_t>(
                                         1, node.sort_columns.size())));
      break;
    default:
      break;
  }
  return v;
}

const std::vector<FeatureId>& Dependents(FeatureId f) {
  // Reconstructed Table 3: Dependents(f) = derived features whose value is a
  // *product* involving f, i.e. the values divided by f during scaled-model
  // training and prediction. Following the paper's worked Filter example
  // (Section 6.1), output-side counts such as COUT are deliberately NOT
  // normalized by input counts: they stay raw so the scaled model keeps
  // absolute-size signal within the training range, while SINTOT-style byte
  // totals are divided so a single outlier cause is not scaled twice.
  static const std::vector<FeatureId> kEmpty = {};
  static const std::vector<FeatureId> kCOutDeps = {F::kSOutTot};
  static const std::vector<FeatureId> kSOutAvgDeps = {F::kSOutTot};
  static const std::vector<FeatureId> kCIn0Deps = {F::kSInTot0, F::kHashOpTot,
                                                   F::kMinComp, F::kSInSum};
  static const std::vector<FeatureId> kSInAvg0Deps = {F::kSInTot0, F::kSInSum};
  static const std::vector<FeatureId> kSInTot0Deps = {F::kSInSum};
  static const std::vector<FeatureId> kCIn1Deps = {F::kSInTot1, F::kSInSum,
                                                   F::kHashOpTot};
  static const std::vector<FeatureId> kSInAvg1Deps = {F::kSInTot1, F::kSInSum};
  static const std::vector<FeatureId> kSInTot1Deps = {F::kSInSum};
  static const std::vector<FeatureId> kTSizeDeps = {F::kPages, F::kEstIoCost,
                                                    F::kCIn0, F::kSInTot0};
  static const std::vector<FeatureId> kPagesDeps = {F::kEstIoCost};
  static const std::vector<FeatureId> kHashOpAvgDeps = {F::kHashOpTot};
  static const std::vector<FeatureId> kCHashColDeps = {F::kHashOpAvg,
                                                       F::kHashOpTot};
  static const std::vector<FeatureId> kCSortColDeps = {F::kMinComp};

  switch (f) {
    case F::kCOut: return kCOutDeps;
    case F::kSOutAvg: return kSOutAvgDeps;
    case F::kCIn0: return kCIn0Deps;
    case F::kSInAvg0: return kSInAvg0Deps;
    case F::kSInTot0: return kSInTot0Deps;
    case F::kCIn1: return kCIn1Deps;
    case F::kSInAvg1: return kSInAvg1Deps;
    case F::kSInTot1: return kSInTot1Deps;
    case F::kTSize: return kTSizeDeps;
    case F::kPages: return kPagesDeps;
    case F::kHashOpAvg: return kHashOpAvgDeps;
    case F::kCHashCol: return kCHashColDeps;
    case F::kCSortCol: return kCSortColDeps;
    default: return kEmpty;
  }
}

}  // namespace resest
