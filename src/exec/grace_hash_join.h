#ifndef QPI_EXEC_GRACE_HASH_JOIN_H_
#define QPI_EXEC_GRACE_HASH_JOIN_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/packed_rows.h"
#include "estimators/baselines.h"
#include "estimators/join_once.h"
#include "estimators/pipeline_join.h"
#include "exec/operator.h"
#include "plan/plan_node.h"

namespace qpi {

class TaskGroup;
class TaskScheduler;

/// \brief Grace hash join with the three-phase structure the paper
/// instruments (Section 4.1.1).
///
/// Phases:
///  1. **Build-partition** — the build input R is read completely and hash
///     partitioned. With ONCE estimation active, the exact join-key
///     histogram N^R is accumulated here, interleaved with partitioning.
///  2. **Probe-partition** — the probe input S is read completely and
///     partitioned. This is the paper's estimation window: each probe key
///     refines D_t, which is exact by the end of the phase, *before any
///     join output exists*.
///  3. **Join** — partitions are joined pairwise, in partition-index
///     order. The probe side is re-read clustered by partition, which is
///     precisely the reordering that makes the dne/byte baselines (whose
///     driver consumption is measured here, as in the original systems)
///     fluctuate under skew. One routine, JoinRows, joins a partition into
///     a batch and pauses when the batch is full; with exec_workers <= 1,
///     or a probe side of fewer than batch_size rows, it runs inline on
///     the driving thread, otherwise as scheduler subtasks whose batches
///     the driving thread merges back in order.
///
/// children[0] is the build input, children[1] the probe input.
class GraceHashJoinOp : public Operator {
 public:
  GraceHashJoinOp(OperatorPtr build, OperatorPtr probe, size_t build_key_index,
                  size_t probe_key_index, std::string label,
                  JoinFlavor join_type = JoinFlavor::kInner);

  /// Conjunctive multi-attribute equijoin (Section 4.1: "join conditions
  /// involving ... conjunctions of multiple attributes"): all key pairs
  /// must match. Estimation uses a composite key code; binary ONCE
  /// estimation applies, pipeline push-down requires single-key joins.
  GraceHashJoinOp(OperatorPtr build, OperatorPtr probe,
                  std::vector<size_t> build_key_indices,
                  std::vector<size_t> probe_key_indices, std::string label,
                  JoinFlavor join_type = JoinFlavor::kInner);
  ~GraceHashJoinOp() override;

  /// Attach the paper's binary estimator (requires a probe input that
  /// starts as a random stream).
  void EnableBinaryOnceEstimation();

  /// Enlist this join as member `index` of a pipeline chain; the lowest
  /// member (`is_lowest` true) feeds driver rows to the shared estimator.
  void EnlistInPipeline(std::shared_ptr<PipelineJoinEstimator> pipeline,
                        size_t index, bool is_lowest);

  double CurrentCardinalityEstimate() const override;
  double CandidateCardinalityEstimate(
      EstimatorCandidate candidate) const override;
  double CurrentCardinalityHalfWidth(double confidence) const override;
  bool CardinalityExact() const override;

  size_t num_key_columns() const { return build_key_indices_.size(); }
  size_t build_key_index() const { return build_key_indices_[0]; }
  size_t probe_key_index() const { return probe_key_indices_[0]; }
  JoinFlavor join_type() const { return join_type_; }

  /// Partition count after Open's normalization to a power of two.
  size_t num_partitions() const { return num_partitions_; }

  /// Run the (sequential, ONCE-instrumented) build and probe-partition
  /// phases now, leaving only the join phase for NextBatch. No-op if
  /// the phases already ran. Benches use this to time the join phase in
  /// isolation; parallel join workers are only launched by the first
  /// NextBatch, so the timed region includes their whole lifetime.
  void PreparePartitions();

  // --- observability for benches/tests -------------------------------------
  uint64_t probe_partition_consumed() const {
    return probe_partition_consumed_;
  }
  uint64_t join_driver_consumed() const {
    return join_driver_consumed_.load(std::memory_order_relaxed);
  }
  const OnceBinaryJoinEstimator* once_estimator() const { return once_.get(); }
  const PipelineJoinEstimator* pipeline_estimator() const {
    return pipeline_.get();
  }
  std::shared_ptr<PipelineJoinEstimator> shared_pipeline_estimator() const {
    return pipeline_;
  }
  size_t pipeline_index() const { return pipeline_index_; }

  /// dne / byte estimates regardless of the active mode (for side-by-side
  /// comparison harnesses).
  double DneEstimate() const;
  double ByteEstimate() const;

  /// Histogram memory consumed by estimation at this operator.
  size_t EstimationBytesUsed() const;

 protected:
  Status OpenImpl() override;
  void NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  enum class Phase { kInit, kJoin, kDone };

  /// One side of a partition pair: packed rows plus each row's key code.
  struct Partition {
    PackedRows rows;
    std::vector<uint64_t> codes;
  };

  /// Chained hash index over a build partition's stored key codes:
  /// `head[bucket]` is the bucket's first build row, `next[row]` the
  /// following row of the same bucket, kNoRow ends a chain. Rows are
  /// inserted in reverse, so every chain walks ascending build order and
  /// a probe row's matches are emitted in the order the build input
  /// produced them.
  struct PartitionIndex {
    std::vector<uint32_t> head;
    std::vector<uint32_t> next;
  };
  static constexpr uint32_t kNoRow = UINT32_MAX;

  /// Where a partition's join resumes. Owned by whoever runs JoinRows on
  /// the partition; in the parallel join, runners hand it over through
  /// the join_mu_ state transitions of the partition's PartitionResult.
  struct JoinCursor {
    PartitionIndex index;
    bool index_built = false;
    size_t probe_row = 0;  ///< probe row to (re)start at
    /// Next build row matching probe_row; kNoRow: probe_row not started.
    uint32_t match = kNoRow;
  };

  void RunBuildPhase();
  void RunProbePartitionPhase();

  /// Join partition `part` from its resume cursor into `out` (appending)
  /// until the partition is exhausted (true; its index is released) or
  /// `out` is full (false; the cursor is saved, possibly mid match chain).
  /// A probe row counts as consumed when the join starts on it, which
  /// never happens while `out` is full; `*consumed` is advanced by the
  /// rows started. Builds the partition's index on first entry.
  bool JoinRows(size_t part, RowBatch* out, uint64_t* consumed);

  /// Fan the partition pairs out as subtasks on the query's TaskScheduler
  /// (ctx->exec_workers > 1 and at least one batch of probe rows), at
  /// most `join_window_` partitions ahead of the merge cursor. Each
  /// subtask joins one partition, publishing every completed output batch
  /// under `join_mu_` as it is produced — a
  /// bounded-time push, never a blocking wait, which is what lets any
  /// blocked waiter help the fleet (see task_scheduler.h) — and the
  /// driving thread merges batches **in partition-index order** in
  /// NextBatchImpl, draining a partition concurrently with its production
  /// (so a skew-heavy partition's output streams through instead of
  /// materializing wholesale). That is the inline join's order, so the
  /// emitted stream is bit-identical to it at any worker count; gnm
  /// counters were already order-invariant, and the join phase performs
  /// no estimator observation.
  void StartParallelJoin();
  void SubmitJoinUpTo(size_t limit);
  void JoinPartitionTask(size_t part);
  /// One bounded chunk of partition `part`'s join: JoinRows into
  /// published batches until the partition is exhausted (-> kDone) or
  /// kJoinReadyCap batches wait unmerged (-> kStalled, cursor saved).
  /// Called with the partition in state kRunning.
  void RunJoinChunk(size_t part);
  /// A cleared output batch from the free list, or a new one.
  std::unique_ptr<RowBatch> AcquireJoinBatch();

  Operator* build_child() const { return child(0); }
  Operator* probe_child() const { return child(1); }

  /// The ONCE-path estimate (pipeline → binary → dne fallback),
  /// independent of ctx->mode.
  double OnceEstimate() const;

  uint64_t BuildKeyCode(const Row& row) const;
  uint64_t ProbeKeyCode(const Row& row) const;

  // The partition index and its bucket walk.
  void BuildIndex(const Partition& build, PartitionIndex* index) const;
  bool KeysEqual(const Partition& build, size_t bi, const Partition& probe,
                 size_t pi) const;
  /// First build row at chain position `pos` or after it whose key equals
  /// probe row `pi`'s; kNoRow when the chain has none.
  uint32_t NextMatch(const Partition& build, const PartitionIndex& index,
                     uint32_t pos, const Partition& probe, size_t pi) const;
  uint32_t FirstMatch(const Partition& build, const PartitionIndex& index,
                      const Partition& probe, size_t pi) const;
  /// Overwrite `*out` with build row `bi` (NULLs when kNoRow) followed by
  /// probe row `pi`, reusing the slot's storage.
  void GatherJoined(const Partition& build, uint32_t bi,
                    const Partition& probe, size_t pi, Row* out) const;

  std::vector<size_t> build_key_indices_;
  std::vector<size_t> probe_key_indices_;
  JoinFlavor join_type_;
  size_t num_partitions_ = 64;

  Phase phase_ = Phase::kInit;
  std::vector<Partition> build_parts_;
  std::vector<Partition> probe_parts_;

  uint64_t build_rows_ = 0;
  uint64_t probe_partition_consumed_ = 0;
  // Advanced by the inline join once per batch and by parallel join
  // workers once per published batch; read by monitor-thread estimates.
  std::atomic<uint64_t> join_driver_consumed_{0};

  // One resume cursor per partition, created by the join phase's first
  // NextBatch.
  std::vector<JoinCursor> join_cursors_;

  // Parallel join phase (see StartParallelJoin). A partition's output is
  // produced in bounded chunks: its runner pauses (returns to the fleet,
  // never blocks) once `ready` holds kJoinReadyCap unmerged batches, and
  // the merge driver requeues it once half of them are drained — so
  // in-flight join output is capped at ~window × cap batches no matter how
  // skewed one partition's output is. Output batches cycle between the
  // runners and the merge through `join_free_batches_`: the merge swaps
  // rows into the caller's batch and returns the drained batch, so row
  // storage is reused instead of being allocated on one thread and freed
  // on another.
  struct PartitionResult {
    enum class State : unsigned char {
      kQueued,   ///< a task for the next chunk is (re)submitted
      kRunning,  ///< a runner is producing batches right now
      kStalled,  ///< paused at the ready-cap; the driver requeues it
      kDone,     ///< fully joined, nothing more will be produced
    };
    /// Produced, not yet merged (join_mu_).
    std::deque<std::unique_ptr<RowBatch>> ready;
    State state = State::kQueued;   ///< guarded by join_mu_
  };
  static constexpr size_t kJoinReadyCap = 16;
  std::vector<PartitionResult> part_results_;
  std::vector<std::unique_ptr<RowBatch>> join_free_batches_;  // join_mu_
  std::mutex join_mu_;
  std::condition_variable join_cv_;
  std::atomic<bool> join_abort_{false};
  TaskScheduler* join_sched_ = nullptr;
  bool parallel_join_ = false;
  size_t join_window_ = 0;     // partitions in flight past the merge cursor
  size_t join_submitted_ = 0;  // partitions handed to the scheduler
  // Partition being joined inline or merged (driving thread only).
  size_t join_emit_part_ = 0;
  // Batch being merged (driving thread only).
  std::unique_ptr<RowBatch> join_merge_batch_;
  size_t join_emit_row_ = 0;
  // Declared after the members its tasks touch: the group's destructor
  // waits for outstanding partition subtasks.
  std::unique_ptr<TaskGroup> join_group_;

  // Estimation attachments.
  std::unique_ptr<OnceBinaryJoinEstimator> once_;
  std::shared_ptr<PipelineJoinEstimator> pipeline_;
  size_t pipeline_index_ = 0;
  bool pipeline_lowest_ = false;
};

}  // namespace qpi

#endif  // QPI_EXEC_GRACE_HASH_JOIN_H_
