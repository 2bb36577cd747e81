// The per-tenant submission stage of the /v1/estimate path. It forwards
// every submission to EstimationService::SubmitBatch at once, with its own
// SubmitOptions, and counts what it forwarded (CoalescerStats, rendered as
// the resest_coalesce_* /metrics families).
//
// It does not merge concurrent submissions. A merge adds no kernel width
// (the chunk scheduler re-splits every batch into chunks of a few rows),
// and holding rows for a partner only adds latency (on perfbench's
// wire-cold workload a 100 µs merge window held submissions ~140 µs of a
// ~0.5 ms median answer). Merging only while the pool is saturated is not
// done either: no benchmarked workload keeps every worker busy, so it
// could not be shown to pay.
//
// Thread-safe and stateless apart from the counters: results travel from
// the service straight to the caller's callback, so each caller gets
// exactly its own rows, in order, bit-identical to a direct SubmitBatch.
// The service must outlive the coalescer.
#ifndef RESEST_SERVING_BATCH_COALESCER_H_
#define RESEST_SERVING_BATCH_COALESCER_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/serving/estimation_service.h"

namespace resest {

/// Power-of-two histogram: bucket i counts batches of < 2^i rows (the last
/// bucket absorbs the rest) — same shape as the service's latency
/// histogram, rendered the same way in /metrics.
inline constexpr size_t kCoalesceRowsBuckets = 13;  ///< rows, up to 4096.

struct CoalescerStats {
  uint64_t submissions = 0;   ///< Forwarded without a deadline.
  uint64_t passthrough = 0;   ///< Forwarded with a deadline, or empty.
  /// Batches sent for `submissions`: one each, since nothing merges.
  uint64_t batches = 0;
  uint64_t coalesced_rows = 0;  ///< Rows carried by those batches.
  uint64_t flush_urgent = 0;    ///< Of `batches`, those at kUrgent.
  std::array<uint64_t, kCoalesceRowsBuckets> batch_rows_histogram{};
  /// Time submissions were held before being sent: always 0, nothing is
  /// held (perfbench's coalescer.wait_us_mean reads it).
  double total_wait_us = 0.0;

  double MeanRowsPerBatch() const {
    return batches == 0
               ? 0.0
               : static_cast<double>(coalesced_rows) /
                     static_cast<double>(batches);
  }
};

class BatchCoalescer {
 public:
  /// `service` must outlive the coalescer.
  explicit BatchCoalescer(const EstimationService* service)
      : service_(service) {}

  BatchCoalescer(const BatchCoalescer&) = delete;
  BatchCoalescer& operator=(const BatchCoalescer&) = delete;

  /// Forwards one group of rows to the service as its own batch; `done`
  /// receives exactly rows.size() results in row order, exactly once,
  /// possibly before this returns (degenerate batches complete inline).
  void Submit(std::vector<EstimateRequest> rows, const SubmitOptions& options,
              BatchCallback done);

  CoalescerStats stats() const;

 private:
  const EstimationService* service_;
  mutable std::mutex mu_;
  CoalescerStats stats_;
};

}  // namespace resest

#endif  // RESEST_SERVING_BATCH_COALESCER_H_
