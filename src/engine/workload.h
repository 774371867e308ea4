// Workload generation for the slot engine.
//
// Produces streams of update / flush / checkpoint / log-force actions
// with tunable mix and key skew. The same stream drives any recovery
// method, which is what makes the §6 method-matrix experiments
// apples-to-apples.

#ifndef REDO_ENGINE_WORKLOAD_H_
#define REDO_ENGINE_WORKLOAD_H_

#include <string>

#include "engine/minidb.h"
#include "util/rng.h"

namespace redo::engine {

/// One workload step.
struct Action {
  enum class Kind {
    kSlotWrite,    ///< page[slot] <- value
    kBlindFormat,  ///< whole-page blind format
    kSplit,        ///< split src into dst
    kTransfer,     ///< move a slot's value across pages (§6.4-class op)
    kFlushPage,    ///< background cache flush of one page
    kCheckpoint,   ///< take a checkpoint
    kForceLog,     ///< force the log up to a random LSN
  };
  Kind kind = Kind::kSlotWrite;
  storage::PageId page = 0;   // slot write / format / flush target
  uint32_t slot = 0;
  int64_t value = 0;
  storage::PageId split_src = 0;
  storage::PageId split_dst = 0;
  uint32_t slot2 = 0;  ///< transfer destination slot

  std::string ToString() const;
};

/// Workload mix knobs (probabilities; the remainder is slot writes).
struct WorkloadOptions {
  size_t num_pages = 16;
  double zipf_skew = 0.8;               ///< page-access skew
  double blind_format_probability = 0.03;
  double split_probability = 0.04;
  double transfer_probability = 0.04;
  double flush_probability = 0.10;
  double checkpoint_probability = 0.02;
  double force_log_probability = 0.05;
};

/// Deterministic action-stream generator.
class Workload {
 public:
  Workload(const WorkloadOptions& options, uint64_t seed);

  /// Draws the next action.
  Action Next();

 private:
  WorkloadOptions options_;
  Rng rng_;
  ZipfSampler zipf_;
  int64_t next_value_ = 1;
};

/// Executes one action against the database. Update actions run through
/// a fresh Session (one Dispatch each); flushes, checkpoints and log
/// forces call the engine directly.
Status ExecuteAction(MiniDb& db, const Action& action, Rng& rng);

}  // namespace redo::engine

#endif  // REDO_ENGINE_WORKLOAD_H_
