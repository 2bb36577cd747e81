#include "src/ml/compiled_forest.h"

#include <algorithm>
#include <limits>

namespace resest {

namespace {
/// Max root-to-leaf edge count of the subtree at `node` (0 for a leaf).
int32_t SubtreeDepth(const std::vector<TreeNode>& nodes, size_t node) {
  const TreeNode& n = nodes[node];
  if (n.feature < 0) return 0;
  const int32_t l = SubtreeDepth(nodes, static_cast<size_t>(n.left));
  const int32_t r = SubtreeDepth(nodes, static_cast<size_t>(n.right));
  return 1 + (l > r ? l : r);
}
}  // namespace

int32_t CompiledForest::EmitSubtree(const std::vector<TreeNode>& tree_nodes,
                                    size_t node) {
  const TreeNode& n = tree_nodes[node];
  const int32_t self = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  value_.push_back(n.value);
  lin_feature_.push_back(n.lin_feature);
  slope_.push_back(n.slope);
  if (n.lin_feature >= 0) {
    num_features_referenced_ = std::max(
        num_features_referenced_, static_cast<size_t>(n.lin_feature) + 1);
  }
  if (n.feature < 0) {
    // Leaf: the NaN threshold fails every ordered compare, so the select
    // always takes `right` — pointed back at the leaf (the self-loop).
    HotNode& hot = nodes_[static_cast<size_t>(self)];
    hot.feature = 0;
    hot.threshold = std::numeric_limits<float>::quiet_NaN();
    hot.right = self;
    return self;
  }
  num_features_referenced_ = std::max(num_features_referenced_,
                                      static_cast<size_t>(n.feature) + 1);
  // Pre-order: the left child lands at self + 1 (implicit), the right
  // subtree follows the whole left subtree.
  EmitSubtree(tree_nodes, static_cast<size_t>(n.left));
  const int32_t right = EmitSubtree(tree_nodes, static_cast<size_t>(n.right));
  HotNode& hot = nodes_[static_cast<size_t>(self)];
  hot.feature = n.feature;
  hot.threshold = n.threshold;
  hot.right = right;
  return self;
}

void CompiledForest::Compile(double f0, double learning_rate,
                             const std::vector<RegressionTree>& trees) {
  f0_ = f0;
  learning_rate_ = learning_rate;
  roots_.clear();
  depths_.clear();
  nodes_.clear();
  value_.clear();
  lin_feature_.clear();
  slope_.clear();

  size_t total_nodes = 0;
  for (const auto& tree : trees) {
    total_nodes += tree.nodes().empty() ? 1 : tree.nodes().size();
  }
  roots_.reserve(trees.size());
  depths_.reserve(trees.size());
  nodes_.reserve(total_nodes);
  value_.reserve(total_nodes);
  lin_feature_.reserve(total_nodes);
  slope_.reserve(total_nodes);

  num_features_referenced_ = 0;
  for (const auto& tree : trees) {
    const int32_t base = static_cast<int32_t>(nodes_.size());
    roots_.push_back(base);
    if (tree.nodes().empty()) {
      // An empty tree predicts 0.0; encode it as one constant zero leaf.
      depths_.push_back(0);
      HotNode leaf;
      leaf.feature = 0;
      leaf.threshold = std::numeric_limits<float>::quiet_NaN();
      leaf.right = base;
      nodes_.push_back(leaf);
      value_.push_back(0.0f);
      lin_feature_.push_back(-1);
      slope_.push_back(0.0f);
      continue;
    }
    depths_.push_back(SubtreeDepth(tree.nodes(), 0));
    EmitSubtree(tree.nodes(), 0);
  }
}

namespace {
/// One branchless traversal step. `!(x <= t)` picks the right child exactly
/// when the legacy walk does (including for NaN features — and for leaves,
/// whose NaN threshold makes the compare false so `right`, the self-loop,
/// wins); the arithmetic select compiles to setcc+imul instead of a
/// data-dependent branch — tree navigation is inherently unpredictable, and
/// a mispredict per step would serialize the interleaved row chains
/// PredictBatch relies on.
inline size_t Step(size_t i, const double* x,
                   const CompiledForest::HotNode* nodes) {
  const CompiledForest::HotNode& n = nodes[i];
  const double xf = x[static_cast<size_t>(n.feature)];
  const size_t go_right =
      static_cast<size_t>(!(xf <= static_cast<double>(n.threshold)));
  const size_t l = i + 1;  // pre-order: the left child is the next node
  const size_t r = static_cast<size_t>(n.right);
  return l + (r - l) * go_right;
}
}  // namespace

bool CompiledForest::Avx2Supported() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool CompiledForest::Avx512Supported() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
#else
  return false;
#endif
}

double CompiledForest::Predict(const double* features, size_t count) const {
  (void)count;
  const HotNode* nodes = nodes_.data();
  double out = f0_;
  const size_t num_trees = roots_.size();
  for (size_t t = 0; t < num_trees; ++t) {
    size_t i = static_cast<size_t>(roots_[t]);
    for (int32_t d = depths_[t]; d > 0; --d) {
      i = Step(i, features, nodes);
    }
    double v = value_[i];
    if (lin_feature_[i] >= 0) {
      v += slope_[i] * features[static_cast<size_t>(lin_feature_[i])];
    }
    out += learning_rate_ * v;
  }
  return out;
}

void CompiledForest::PredictBatchWith(ForestKernel /*kernel*/,
                                      const double* rows, size_t num_rows,
                                      size_t stride, double* out) const {
  PredictBatch(rows, num_rows, stride, out);
}

void CompiledForest::PredictBatch(const double* rows, size_t num_rows,
                                  size_t stride, double* out) const {
  for (size_t r = 0; r < num_rows; ++r) out[r] = f0_;
  // Tree-outer/row-inner: one tree's handful of pre-order nodes stays
  // cache-hot across the whole batch, and each out[r] still receives the
  // trees in boosting order — the per-row floating-point accumulation
  // matches Predict exactly. kLockstepWidth rows walk the tree in lockstep:
  // the fixed-depth, self-looping traversal has no data-dependent exit, so
  // the rows' load-compare chains are independent and overlap in the
  // pipeline (memory-level parallelism), which is where the batched speedup
  // over the one-row-at-a-time scalar walk comes from.
  const HotNode* nodes = nodes_.data();
  auto leaf_value = [&](size_t i, const double* x) {
    double v = value_[i];
    if (lin_feature_[i] >= 0) {
      v += slope_[i] * x[static_cast<size_t>(lin_feature_[i])];
    }
    return v;
  };
  constexpr size_t W = kLockstepWidth;
  const size_t num_trees = roots_.size();
  for (size_t t = 0; t < num_trees; ++t) {
    const size_t root = static_cast<size_t>(roots_[t]);
    const int32_t depth = depths_[t];
    size_t r = 0;
    for (; r + W <= num_rows; r += W) {
      const double* x[W];
      size_t idx[W];
      for (size_t k = 0; k < W; ++k) {
        x[k] = rows + (r + k) * stride;
        idx[k] = root;
      }
      for (int32_t d = depth; d > 0; --d) {
        for (size_t k = 0; k < W; ++k) {
          idx[k] = Step(idx[k], x[k], nodes);
        }
      }
      for (size_t k = 0; k < W; ++k) {
        out[r + k] += learning_rate_ * leaf_value(idx[k], x[k]);
      }
    }
    for (; r < num_rows; ++r) {
      const double* x = rows + r * stride;
      size_t i = root;
      for (int32_t d = depth; d > 0; --d) {
        i = Step(i, x, nodes);
      }
      out[r] += learning_rate_ * leaf_value(i, x);
    }
  }
}

}  // namespace resest
