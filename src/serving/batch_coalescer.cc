#include "src/serving/batch_coalescer.h"

#include <utility>

namespace resest {

void BatchCoalescer::Submit(std::vector<EstimateRequest> rows,
                            const SubmitOptions& options, BatchCallback done) {
  const size_t n = rows.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options.has_deadline() || n == 0) {
      ++stats_.passthrough;
    } else {
      ++stats_.submissions;
      ++stats_.batches;
      stats_.coalesced_rows += n;
      if (options.priority == TaskPriority::kUrgent) ++stats_.flush_urgent;
      // Index of the first power of two above n, saturated to the last
      // bucket.
      size_t bucket = 0;
      while (bucket + 1 < kCoalesceRowsBuckets && (size_t{1} << bucket) <= n) {
        ++bucket;
      }
      ++stats_.batch_rows_histogram[bucket];
    }
  }
  service_->SubmitBatch(std::move(rows), std::move(done), options);
}

CoalescerStats BatchCoalescer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace resest
