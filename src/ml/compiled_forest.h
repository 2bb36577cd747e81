// Ahead-of-time compiled forest inference (paper Section 7.3: the deployed
// artifact is the compactly encoded per-operator MART ensemble; inference
// must stay cheap inside the server).
//
// A trained Mart stores one heap-allocated std::vector<TreeNode> per tree
// (~150 per model), so a single prediction chases ~150 scattered blocks.
// CompiledForest flattens the whole ensemble at Train/Deserialize time into
// one cache-dense pre-order layout: each node is a single 16-byte record
// (int32 split feature, float32-quantized threshold, int32 right-child
// index) so one cache line holds four nodes and one traversal step touches
// one line instead of four parallel arrays. The left child is implicit —
// pre-order emission places it at index i + 1. Leaf values and the
// linear-leaf fields stay in separate cold arrays, touched once per tree
// per row.
//
// PredictBatch walks kLockstepWidth (8) rows per tree in lockstep: the
// fixed-depth, self-looping walk has no data-dependent exit, so the rows'
// load-compare chains overlap in the pipeline. It is the only kernel:
// serving sweeps are mostly 1-4 rows, where AVX2 and AVX-512 gather kernels
// did not beat it end to end. A SIMD kernel belongs here only once the
// benchmark shows it winning by >=15% at the service level
// (docs/inference_tuning.md has the measurements).
//
// Bit-identity contract: Predict and PredictBatch reproduce the legacy
// per-tree scalar path (Mart::PredictReference) byte for byte. Comparisons
// happen in the double domain (the float32 threshold is widened exactly),
// and each row's accumulation f0 + sum_i lr * tree_i(x) runs in boosting
// order.
//
// Immutability: Compile() fully builds the representation; afterwards all
// methods are const and touch no mutable state, so a compiled forest can be
// shared by any number of serving threads without synchronization.
#ifndef RESEST_ML_COMPILED_FOREST_H_
#define RESEST_ML_COMPILED_FOREST_H_

#include <cstdint>
#include <vector>

#include "src/ml/regression_tree.h"

namespace resest {

/// Kernel names kept for callers that request one explicitly (benches that
/// compare kernels across builds). Every value runs the scalar kernel.
enum class ForestKernel { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

class CompiledForest {
 public:
  /// Rows walked in lockstep per tree by PredictBatch.
  static constexpr size_t kLockstepWidth = 8;

  /// The batch kernel's name, for bench fingerprints: always "scalar".
  static const char* ActiveKernelName() { return "scalar"; }
  /// Host facts for bench fingerprints; no kernel depends on them. True
  /// when the CPU supports AVX2, and AVX-512 F+VL+DQ, respectively.
  static bool Avx2Supported();
  static bool Avx512Supported();

  /// Flattens `trees` (the boosted sequence of a Mart) into the contiguous
  /// layout. Trees with no nodes compile to a single zero-value leaf, which
  /// is what an empty RegressionTree predicts.
  void Compile(double f0, double learning_rate,
               const std::vector<RegressionTree>& trees);

  /// f0 + sum_i lr * tree_i(x), accumulated in tree order. `count` is the
  /// row width (number of model input features); traversal never reads past
  /// the features the trees were fitted on.
  double Predict(const double* features, size_t count) const;

  /// Batched prediction over `num_rows` contiguous rows of width `stride`
  /// (row i starts at rows + i * stride). out[i] is bit-identical to
  /// Predict(rows + i * stride, stride): the loop is tree-outer/row-inner
  /// for cache locality, but each row still accumulates f0 first and then
  /// the trees in boosting order.
  void PredictBatch(const double* rows, size_t num_rows, size_t stride,
                    double* out) const;

  /// PredictBatch through a named kernel. Falls back to scalar when the
  /// kernel is unavailable; no build carries a SIMD kernel, so every value
  /// runs scalar.
  void PredictBatchWith(ForestKernel kernel, const double* rows,
                        size_t num_rows, size_t stride, double* out) const;

  size_t NumTrees() const { return roots_.size(); }
  size_t NumNodes() const { return nodes_.size(); }
  bool empty() const { return roots_.empty(); }

  /// 1 + the largest feature index any split or linear leaf reads; 0 for a
  /// leaf-only forest. Predict/PredictBatch rows must be at least this
  /// wide. Loaders with a known input width use this to reject corrupt
  /// models whose (unvalidatable in isolation) feature indices would read
  /// out of bounds at predict time.
  size_t NumFeaturesReferenced() const { return num_features_referenced_; }

  /// One traversal record. 16 bytes so a cache line covers four nodes.
  /// The left child is implicit (pre-order: index + 1); leaves carry a NaN
  /// threshold, which fails every ordered compare, so the select routes a
  /// finished row to `right` — pointed at the leaf itself (the self-loop
  /// that makes the fixed-depth walk overshoot-safe).
  struct HotNode {
    int32_t feature = 0;      ///< Split feature (0 on leaves, never read).
    float threshold = 0.0f;   ///< Go left iff x[feature] <= threshold.
    int32_t right = 0;        ///< Absolute right-child index; self on leaves.
    int32_t pad = 0;          ///< Keeps the record a power-of-two size.
  };
  static_assert(sizeof(HotNode) == 16, "four nodes per cache line");

 private:
  /// Pre-order emission of the subtree rooted at `node` into nodes_ and the
  /// cold leaf arrays; returns the absolute index it was placed at.
  int32_t EmitSubtree(const std::vector<TreeNode>& tree_nodes, size_t node);

  double f0_ = 0.0;
  double learning_rate_ = 0.0;
  std::vector<int32_t> roots_;   ///< Absolute root node index per tree.
  /// Max root-to-leaf edge count per tree. Traversal runs exactly this many
  /// steps: leaves self-loop (see HotNode), so a row that reaches its leaf
  /// early just stays put. This makes the walk branch-free — no
  /// data-dependent loop exit to mispredict — without changing which leaf a
  /// row lands on.
  std::vector<int32_t> depths_;
  std::vector<HotNode> nodes_;  ///< Pre-order per tree; indices absolute.
  // Cold leaf data, indexed like nodes_.
  std::vector<float> value_;          ///< Leaf constant (or intercept).
  std::vector<int16_t> lin_feature_;  ///< Linear-leaf feature; -1 = constant.
  std::vector<float> slope_;
  size_t num_features_referenced_ = 0;
};

}  // namespace resest

#endif  // RESEST_ML_COMPILED_FOREST_H_
