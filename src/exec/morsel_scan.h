#ifndef QPI_EXEC_MORSEL_SCAN_H_
#define QPI_EXEC_MORSEL_SCAN_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/packed_rows.h"
#include "common/row.h"
#include "common/row_batch.h"

namespace qpi {

class BoundPredicate;
class ExecContext;
class Operator;
class SeqScanOp;
class TaskGroup;
class TaskScheduler;
struct ScanOrder;
class Table;

/// One operator of a fused scan → filter/project chain, in bottom-up order.
/// Exactly one of `predicate` / `projection` is set for filter / project
/// stages; `op` is always the operator the stage's output counts are
/// attributed to.
struct MorselStage {
  Operator* op = nullptr;
  const BoundPredicate* predicate = nullptr;
  const std::vector<size_t>* projection = nullptr;
};

/// \brief Morsel-parallel executor for a fused SeqScan → Filter/Project
/// chain.
///
/// The scan order (random-sample prefix first, then the remaining blocks)
/// is cut into fixed-size morsels of `ExecContext::morsel_rows` virtual
/// rows. Subtasks on the query's TaskScheduler (a shared fleet when one is
/// attached, a private one otherwise) evaluate the whole fused chain
/// over their morsel — scan, predicates, projections — into a per-morsel
/// result buffer; the query's driving thread merges results back **in
/// morsel-index order**, so the emitted row stream, every batch boundary,
/// and every batch's `random_run` are bit-identical to the sequential
/// engine at any worker count. That invariance is what keeps the gnm
/// progress counters and the ONCE estimation freeze points exact (see
/// DESIGN.md §9): estimators only ever see the merged stream, on the
/// driving thread.
///
/// Counter accounting: workers attribute the captured (non-driving)
/// operators' output counts via Operator::CountEmitted as each morsel
/// completes, and bank the matching progress ticks with
/// ExecContext::TickConcurrent; the driving operator's own rows are counted
/// by its NextBatchImpl and ticked by the ordinary wrapper. Totals are
/// therefore identical to sequential execution — gnm progress is a sum of
/// per-operator counters and is invariant under the order in which threads
/// contribute.
///
/// In-flight memory is bounded: at most ~2·workers+2 morsels are submitted
/// ahead of the merge cursor. Their results live in a ring of that many
/// slots, each a PackedRows buffer reused by every morsel that maps to it,
/// so a steady-state scan allocates nothing per row or per morsel result.
/// Workers evaluate predicates on the stored block row and pack only the
/// rows that survive; the merge gathers them into the caller's batch
/// slots.
class MorselScanDriver {
 public:
  /// `stages` is the fused chain bottom-up; the last stage (or the scan
  /// itself when `stages` is empty) is the *driving* operator, whose
  /// NextBatchImpl calls Fill(). Must be constructed on the query's driving
  /// thread after the scan has been opened.
  MorselScanDriver(SeqScanOp* scan, std::vector<MorselStage> stages,
                   ExecContext* ctx);

  /// Aborts outstanding morsel tasks and waits for them.
  ~MorselScanDriver();

  MorselScanDriver(const MorselScanDriver&) = delete;
  MorselScanDriver& operator=(const MorselScanDriver&) = delete;

  /// Gather rows into `out`'s slots (already cleared by the NextBatch
  /// wrapper) until it is full or the stream ends, bumping the batch's
  /// random_run for the leading in-run rows. Driving thread only.
  void Fill(RowBatch* out);

 private:
  /// Result slot of morsel m, m + ring size, ...: the merge resets a
  /// drained slot before submitting the next morsel that maps to it.
  struct MorselResult {
    PackedRows rows;            // surviving (fully transformed) rows
    uint64_t random_limit = 0;  // leading rows produced from in-run inputs
    bool breaks_run = false;    // consumed past the random-prefix boundary
    bool done = false;          // guarded by mu_
    std::vector<uint64_t> stage_out;  // rows each stage passed on
    Row scratch;  // a predicate's input when a projection precedes it
  };

  void SubmitUpTo(size_t limit);
  void ProcessMorsel(size_t m);

  SeqScanOp* scan_;
  std::vector<MorselStage> stages_;
  ExecContext* ctx_;
  TaskScheduler* sched_;  ///< the fleet morsel subtasks run on
  const Table* table_;
  const ScanOrder* order_;

  // Captured operators: every chain member except the driving one. Their
  // counters/states are attributed by the workers (friend of Operator).
  std::vector<Operator*> captured_;

  bool sampled_ = false;
  uint64_t prefix_rows_ = 0;  // random-prefix length (sampled scans only)
  uint64_t total_rows_ = 0;
  size_t morsel_rows_ = 1;
  size_t morsel_count_ = 0;
  size_t window_ = 2;
  std::vector<uint64_t> vstarts_;  // virtual row offset of each scan block
  // Block-row columns each stage's input is made of, composed over the
  // projections below it (nullopt: the whole block row), and the same for
  // the chain's output.
  std::vector<std::optional<std::vector<size_t>>> stage_cols_;
  std::optional<std::vector<size_t>> out_cols_;

  std::vector<MorselResult> results_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> abort_{false};
  std::atomic<size_t> remaining_{0};

  // Merge-side cursors (driving thread only).
  size_t submitted_ = 0;
  size_t emit_idx_ = 0;
  size_t cursor_ = 0;
  bool run_open_ = true;

  // Declared last: its destructor (which waits on outstanding tasks) must
  // run while every member those tasks touch is still alive.
  std::unique_ptr<TaskGroup> group_;
};

/// Whether a scan of `scan`'s table is worth a MorselScanDriver: more than
/// one worker, and more than one morsel of rows. A table that fits in one
/// morsel would make a single subtask the driving thread then waits on.
bool WorthMorselScan(const SeqScanOp& scan, const ExecContext& ctx);

/// Walk the operator chain below (and including) `driving_op` looking for a
/// fusable SeqScan → Filter/Project spine; returns a driver with
/// `driving_op` as its last stage, or nullptr if anything else (a join, a
/// non-scan leaf) interrupts the chain or the scan is not WorthMorselScan.
/// Call from `driving_op`'s first NextBatchImpl when ctx->exec_workers > 1.
std::unique_ptr<MorselScanDriver> TryBuildFusedScanDriver(Operator* driving_op,
                                                          ExecContext* ctx);

}  // namespace qpi

#endif  // QPI_EXEC_MORSEL_SCAN_H_
