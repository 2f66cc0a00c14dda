#include "exec/grace_hash_join.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/task_scheduler.h"

namespace qpi {

namespace {

std::vector<OperatorPtr> TwoChildren(OperatorPtr a, OperatorPtr b) {
  std::vector<OperatorPtr> v;
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  return v;
}

inline uint64_t PartitionMix(uint64_t k) {
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 29;
  return k;
}

inline size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Bucket of a key code in a partition index. The partition was chosen by
// the low bits of PartitionMix(code), so buckets take the high bits.
inline size_t BucketOf(uint64_t code, size_t mask) {
  return static_cast<size_t>(PartitionMix(code) >> 32) & mask;
}

}  // namespace

GraceHashJoinOp::GraceHashJoinOp(OperatorPtr build, OperatorPtr probe,
                                 size_t build_key_index,
                                 size_t probe_key_index, std::string label,
                                 JoinFlavor join_type)
    : GraceHashJoinOp(std::move(build), std::move(probe),
                      std::vector<size_t>{build_key_index},
                      std::vector<size_t>{probe_key_index}, std::move(label),
                      join_type) {}

GraceHashJoinOp::GraceHashJoinOp(OperatorPtr build, OperatorPtr probe,
                                 std::vector<size_t> build_key_indices,
                                 std::vector<size_t> probe_key_indices,
                                 std::string label, JoinFlavor join_type)
    : Operator(std::move(label), TwoChildren(std::move(build), std::move(probe))),
      build_key_indices_(std::move(build_key_indices)),
      probe_key_indices_(std::move(probe_key_indices)),
      join_type_(join_type) {
  QPI_CHECK(!build_key_indices_.empty());
  QPI_CHECK(build_key_indices_.size() == probe_key_indices_.size());
  // Semi and anti joins emit probe rows only; the other flavours emit the
  // concatenation (with NULL-padded build columns for probe-outer misses).
  if (join_type_ == JoinFlavor::kSemi || join_type_ == JoinFlavor::kAnti) {
    SetSchema(probe_child()->schema());
  } else {
    SetSchema(
        Schema::Concat(build_child()->schema(), probe_child()->schema()));
  }
}

uint64_t GraceHashJoinOp::BuildKeyCode(const Row& row) const {
  if (build_key_indices_.size() == 1) {
    return HistogramKeyCode(row[build_key_indices_[0]]);
  }
  uint64_t h = kCompositeKeySeed;
  for (size_t idx : build_key_indices_) {
    h = CombineKeyCodes(h, HistogramKeyCode(row[idx]));
  }
  return h;
}

uint64_t GraceHashJoinOp::ProbeKeyCode(const Row& row) const {
  if (probe_key_indices_.size() == 1) {
    return HistogramKeyCode(row[probe_key_indices_[0]]);
  }
  uint64_t h = kCompositeKeySeed;
  for (size_t idx : probe_key_indices_) {
    h = CombineKeyCodes(h, HistogramKeyCode(row[idx]));
  }
  return h;
}

void GraceHashJoinOp::BuildIndex(const Partition& build,
                                 PartitionIndex* index) const {
  size_t n = build.rows.size();
  QPI_CHECK(n < kNoRow);
  index->head.assign(NextPowerOfTwo(n), kNoRow);
  index->next.resize(n);
  size_t mask = index->head.size() - 1;
  for (size_t i = n; i-- > 0;) {
    uint32_t& head = index->head[BucketOf(build.codes[i], mask)];
    index->next[i] = head;
    head = static_cast<uint32_t>(i);
  }
}

bool GraceHashJoinOp::KeysEqual(const Partition& build, size_t bi,
                                const Partition& probe, size_t pi) const {
  for (size_t k = 0; k < build_key_indices_.size(); ++k) {
    if (!build.rows.CellEquals(bi, build_key_indices_[k], probe.rows, pi,
                               probe_key_indices_[k])) {
      return false;
    }
  }
  return true;
}

uint32_t GraceHashJoinOp::NextMatch(const Partition& build,
                                    const PartitionIndex& index, uint32_t pos,
                                    const Partition& probe, size_t pi) const {
  // Composite and string keys are matched by 64-bit code first, values
  // second; a chain also holds rows of other codes that share the bucket.
  uint64_t code = probe.codes[pi];
  for (; pos != kNoRow; pos = index.next[pos]) {
    if (build.codes[pos] == code && KeysEqual(build, pos, probe, pi)) break;
  }
  return pos;
}

uint32_t GraceHashJoinOp::FirstMatch(const Partition& build,
                                     const PartitionIndex& index,
                                     const Partition& probe, size_t pi) const {
  uint32_t head = index.head[BucketOf(probe.codes[pi], index.head.size() - 1)];
  return NextMatch(build, index, head, probe, pi);
}

void GraceHashJoinOp::GatherJoined(const Partition& build, uint32_t bi,
                                   const Partition& probe, size_t pi,
                                   Row* out) const {
  size_t build_width = build.rows.width();
  out->resize(build_width + probe.rows.width());
  if (bi == kNoRow) {
    // NULL-pad the build side of an unmatched probe row.
    for (size_t c = 0; c < build_width; ++c) (*out)[c].SetNull();
  } else {
    build.rows.GatherInto(bi, out->data());
  }
  probe.rows.GatherInto(pi, out->data() + build_width);
}

void GraceHashJoinOp::EnableBinaryOnceEstimation() {
  QPI_CHECK(pipeline_ == nullptr);
  Operator* probe = probe_child();
  OnceBinaryJoinEstimator::Contribution contribution;
  switch (join_type_) {
    case JoinFlavor::kInner:
      contribution = OnceBinaryJoinEstimator::Contribution::kInner;
      break;
    case JoinFlavor::kSemi:
      contribution = OnceBinaryJoinEstimator::Contribution::kSemi;
      break;
    case JoinFlavor::kAnti:
      contribution = OnceBinaryJoinEstimator::Contribution::kAnti;
      break;
    case JoinFlavor::kProbeOuter:
      contribution = OnceBinaryJoinEstimator::Contribution::kProbeOuter;
      break;
  }
  once_ = std::make_unique<OnceBinaryJoinEstimator>(
      [probe] { return probe->CurrentCardinalityEstimate(); }, contribution);
}

void GraceHashJoinOp::EnlistInPipeline(
    std::shared_ptr<PipelineJoinEstimator> pipeline, size_t index,
    bool is_lowest) {
  QPI_CHECK(once_ == nullptr);
  pipeline_ = std::move(pipeline);
  pipeline_index_ = index;
  pipeline_lowest_ = is_lowest;
}

GraceHashJoinOp::~GraceHashJoinOp() {
  // Destruction without Close (error paths): flag the abort before
  // waiting the task group (its Wait helps the fleet drain), so the
  // remaining members (partitions included) die only after every
  // partition subtask has exited.
  join_abort_.store(true, std::memory_order_relaxed);
  join_group_.reset();
}

Status GraceHashJoinOp::OpenImpl() {
  size_t requested = ctx_->hash_join_partitions;
  if (requested == 0) {
    return Status::InvalidArgument(
        "hash_join_partitions must be >= 1 (got 0)");
  }
  // Normalize to the next power of two: the partition index becomes a mask
  // over the mixed key hash, and the parallel join phase fans out one task
  // per partition.
  num_partitions_ = NextPowerOfTwo(requested);
  build_parts_.assign(
      num_partitions_,
      Partition{PackedRows(build_child()->schema().num_columns()), {}});
  probe_parts_.assign(
      num_partitions_,
      Partition{PackedRows(probe_child()->schema().num_columns()), {}});
  return Status::OK();
}

void GraceHashJoinOp::RunBuildPhase() {
  RowBatch batch(ctx_ != nullptr ? ctx_->batch_size
                                 : RowBatch::kDefaultCapacity);
  std::vector<uint64_t> keys;
  keys.reserve(batch.capacity());
  while (build_child()->NextBatch(&batch)) {
    size_t n = batch.size();
    keys.clear();
    for (size_t i = 0; i < n; ++i) keys.push_back(BuildKeyCode(batch.row(i)));
    if (once_ != nullptr) {
      for (size_t i = 0; i < n; ++i) once_->ObserveBuildKey(keys[i]);
    }
    if (pipeline_ != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        pipeline_->ObserveBuildRow(pipeline_index_, batch.row(i));
      }
    }
    for (size_t i = 0; i < n; ++i) {
      Partition& p =
          build_parts_[PartitionMix(keys[i]) & (num_partitions_ - 1)];
      p.rows.Append(batch.row(i));
      p.codes.push_back(keys[i]);
    }
    build_rows_ += n;
  }
  if (once_ != nullptr) once_->BuildComplete();
  if (pipeline_ != nullptr) pipeline_->BuildComplete(pipeline_index_);
}

void GraceHashJoinOp::RunProbePartitionPhase() {
  RowBatch batch(ctx_ != nullptr ? ctx_->batch_size
                                 : RowBatch::kDefaultCapacity);
  std::vector<uint64_t> keys;
  keys.reserve(batch.capacity());
  bool feed_pipeline = pipeline_ != nullptr && pipeline_lowest_;
  while (probe_child()->NextBatch(&batch)) {
    size_t n = batch.size();
    keys.clear();
    for (size_t i = 0; i < n; ++i) keys.push_back(ProbeKeyCode(batch.row(i)));
    probe_partition_consumed_ += n;

    // The estimation window: refine while the probe stream is still a
    // random prefix, freeze the moment it stops being one (Section 4.4).
    // The batch's random_run marks the per-tuple boundary.
    size_t run = static_cast<size_t>(batch.random_run());
    if (run > n) run = n;
    if (once_ != nullptr && !once_->frozen()) {
      once_->ObserveProbeKeys(keys.data(), run);
      if (run < n) once_->Freeze();
    }
    if (feed_pipeline && !pipeline_->frozen()) {
      for (size_t i = 0; i < run; ++i) {
        pipeline_->ObserveDriverRow(batch.row(i));
      }
      if (run < n) pipeline_->Freeze();
    }
    for (size_t i = 0; i < n; ++i) {
      Partition& p =
          probe_parts_[PartitionMix(keys[i]) & (num_partitions_ - 1)];
      p.rows.Append(batch.row(i));
      p.codes.push_back(keys[i]);
    }
  }
  if (once_ != nullptr) once_->ProbeComplete();
  if (feed_pipeline) pipeline_->DriverComplete();
}

void GraceHashJoinOp::PreparePartitions() {
  if (phase_ != Phase::kInit) return;
  RunBuildPhase();
  RunProbePartitionPhase();
  phase_ = Phase::kJoin;
}

void GraceHashJoinOp::StartParallelJoin() {
  parallel_join_ = true;
  join_abort_.store(false, std::memory_order_relaxed);
  std::vector<PartitionResult>(num_partitions_).swap(part_results_);
  // In-flight memory is bounded by the submission window, like the morsel
  // driver's: at most ~2·workers+2 partitions run ahead of the merge
  // cursor, and the merge drains each partition's batches while it is
  // still producing, so even a skew-heavy partition streams through
  // rather than materializing its whole output.
  join_window_ = std::min(2 * ctx_->exec_workers + 2, num_partitions_);
  join_submitted_ = 0;
  join_emit_part_ = 0;
  join_merge_batch_.reset();
  join_emit_row_ = 0;
  join_sched_ = ctx_->scheduler();
  join_group_ = std::make_unique<TaskGroup>(join_sched_, ctx_->sched_tag());
  SubmitJoinUpTo(join_window_);
}

void GraceHashJoinOp::SubmitJoinUpTo(size_t limit) {
  limit = std::min(limit, num_partitions_);
  while (join_submitted_ < limit) {
    size_t p = join_submitted_++;
    join_group_->Submit([this, p] { JoinPartitionTask(p); });
  }
}

void GraceHashJoinOp::JoinPartitionTask(size_t part) {
  // Claimed-bail entry: every submission (initial window fill, driver
  // requeue after a stall, helping thread racing a worker) funnels through
  // here, and only one claims the partition — duplicates see a state other
  // than kQueued and return immediately.
  {
    std::lock_guard<std::mutex> lock(join_mu_);
    PartitionResult& result = part_results_[part];
    if (result.state != PartitionResult::State::kQueued) return;
    result.state = PartitionResult::State::kRunning;
  }
  RunJoinChunk(part);
}

std::unique_ptr<RowBatch> GraceHashJoinOp::AcquireJoinBatch() {
  {
    std::lock_guard<std::mutex> lock(join_mu_);
    if (!join_free_batches_.empty()) {
      std::unique_ptr<RowBatch> batch = std::move(join_free_batches_.back());
      join_free_batches_.pop_back();
      return batch;
    }
  }
  return std::make_unique<RowBatch>(ctx_->batch_size);
}

bool GraceHashJoinOp::JoinRows(size_t part, RowBatch* out,
                               uint64_t* consumed) {
  JoinCursor& cursor = join_cursors_[part];
  const Partition& build = build_parts_[part];
  const Partition& probe = probe_parts_[part];
  if (!cursor.index_built) {
    BuildIndex(build, &cursor.index);
    cursor.index_built = true;
  }
  const PartitionIndex& index = cursor.index;
  bool semi_or_anti =
      join_type_ == JoinFlavor::kSemi || join_type_ == JoinFlavor::kAnti;
  size_t pi = cursor.probe_row;
  uint32_t match = cursor.match;
  for (; pi < probe.rows.size(); ++pi) {
    if (match == kNoRow) {
      if (out->full()) break;
      ++*consumed;
      match = FirstMatch(build, index, probe, pi);
      if (semi_or_anti) {
        if ((match != kNoRow) == (join_type_ == JoinFlavor::kSemi)) {
          probe.rows.Gather(pi, out->NextSlot());
          out->CommitSlot();
        }
        match = kNoRow;
        continue;
      }
      if (match == kNoRow) {
        if (join_type_ == JoinFlavor::kProbeOuter) {
          GatherJoined(build, kNoRow, probe, pi, out->NextSlot());
          out->CommitSlot();
        }
        continue;
      }
    }
    for (; match != kNoRow;
         match = NextMatch(build, index, index.next[match], probe, pi)) {
      if (out->full()) break;
      GatherJoined(build, match, probe, pi, out->NextSlot());
      out->CommitSlot();
    }
    if (match != kNoRow) break;  // `out` filled inside the match chain
  }
  cursor.probe_row = pi;
  cursor.match = match;
  if (pi < probe.rows.size()) return false;
  cursor.index = PartitionIndex();  // dead weight once the partition is done
  return true;
}

void GraceHashJoinOp::RunJoinChunk(size_t part) {
  PartitionResult& result = part_results_[part];
  using State = PartitionResult::State;
  State next = State::kRunning;
  while (next == State::kRunning) {
    std::unique_ptr<RowBatch> batch;
    bool done =
        join_abort_.load(std::memory_order_relaxed) || ctx_->IsCancelled();
    if (!done) {
      batch = AcquireJoinBatch();
      uint64_t consumed = 0;
      done = JoinRows(part, batch.get(), &consumed);
      // Account emitted rows and driver consumption *before* publishing
      // the batch, so a monitor never sees more output than accounted
      // input.
      CountEmitted(batch->size());
      join_driver_consumed_.fetch_add(consumed, std::memory_order_relaxed);
    }
    // Publication is a bounded-time push under join_mu_ — never a wait on
    // the consumer — which keeps the subtask-never-blocks contract the
    // fleet's helping protocol relies on, while letting the merge drain
    // this partition concurrently with its production. At the ready cap
    // the chunk pauses (kStalled) with its JoinCursor saved; the
    // next runner reads that cursor only after observing kQueued under
    // join_mu_, so the mutex chain orders the handoff.
    {
      std::lock_guard<std::mutex> lock(join_mu_);
      if (batch != nullptr && !batch->empty()) {
        result.ready.push_back(std::move(batch));
      } else if (batch != nullptr) {
        join_free_batches_.push_back(std::move(batch));
      }
      if (done) {
        next = State::kDone;
      } else if (result.ready.size() >= kJoinReadyCap) {
        next = State::kStalled;
      }
      result.state = next;
    }
    // The merge driver is the only join_cv_ waiter.
    join_cv_.notify_one();
  }
}

void GraceHashJoinOp::NextBatchImpl(RowBatch* out) {
  PreparePartitions();
  if (phase_ != Phase::kJoin) return;
  if (join_cursors_.empty()) {
    // First batch request of the join phase (also after an explicit
    // PreparePartitions).
    join_cursors_.resize(num_partitions_);
    // Fan out only when the probe side fills at least one output batch;
    // below that the partition tasks cost more than the rows they join.
    size_t probe_rows = 0;
    for (const Partition& p : probe_parts_) probe_rows += p.rows.size();
    if (ctx_->exec_workers > 1 && probe_rows >= ctx_->batch_size) {
      StartParallelJoin();
    }
  }
  if (parallel_join_) {
    // Merge published batches in partition-index order — each drained as
    // soon as its producer publishes it, so in-flight output stays near
    // one batch per running subtask. Rows are swapped, not moved, into
    // `out`: the drained batch returns to the free list holding the
    // caller's previous row storage, so neither side reallocates. The
    // subtasks already advanced `emitted_` when they published, so the merge
    // must not count again. The wrapper's Tick(out->size()) still delivers
    // the progress ticks for these rows on the driving thread.
    while (!out->full()) {
      if (join_merge_batch_ != nullptr) {
        while (join_emit_row_ < join_merge_batch_->size() && !out->full()) {
          std::swap(*out->NextSlot(), join_merge_batch_->row(join_emit_row_++));
          out->CommitSlot();
        }
        if (out->full()) break;
      }
      if (join_emit_part_ >= num_partitions_) {
        phase_ = Phase::kDone;
        break;
      }
      PartitionResult& r = part_results_[join_emit_part_];
      enum class Next { kBatch, kAdvance, kWait } next;
      bool requeue = false;  // stalled runner drained below the cap
      {
        std::lock_guard<std::mutex> lock(join_mu_);
        if (join_merge_batch_ != nullptr) {
          join_merge_batch_->Clear();
          join_free_batches_.push_back(std::move(join_merge_batch_));
        }
        if (!r.ready.empty()) {
          join_merge_batch_ = std::move(r.ready.front());
          r.ready.pop_front();
          join_emit_row_ = 0;
          next = Next::kBatch;
          // Requeue only once half the cap has drained, so a stalled
          // runner resumes for several batches instead of one task per
          // batch.
          if (r.state == PartitionResult::State::kStalled &&
              r.ready.size() <= kJoinReadyCap / 2) {
            r.state = PartitionResult::State::kQueued;
            requeue = true;
          }
        } else if (r.state == PartitionResult::State::kDone) {
          next = Next::kAdvance;
        } else {
          if (r.state == PartitionResult::State::kStalled) {
            r.state = PartitionResult::State::kQueued;
            requeue = true;
          }
          next = Next::kWait;
        }
      }
      if (requeue) {
        size_t p = join_emit_part_;
        join_group_->Submit([this, p] { JoinPartitionTask(p); });
      }
      if (next == Next::kBatch) continue;
      if (next == Next::kAdvance) {
        ++join_emit_part_;
        SubmitJoinUpTo(join_emit_part_ + join_window_);
        continue;
      }
      // Wait for the next batch by helping the fleet (same protocol as
      // the morsel merge): run pending subtasks instead of parking, with
      // a timed wait only for the instant where the needed partition is
      // mid-production elsewhere and nothing else is runnable.
      if (join_sched_->HelpOneSubtask()) continue;
      {
        std::unique_lock<std::mutex> lock(join_mu_);
        if (r.ready.empty() && r.state != PartitionResult::State::kDone) {
          join_cv_.wait_for(lock, std::chrono::milliseconds(2));
        }
      }
    }
    return;
  }
  // One worker, or a probe side under one batch: the same partition walk
  // runs inline on the driving thread, writing straight into `out` and pausing when it is full — no
  // scheduler, task group or output-batch pool.
  uint64_t consumed = 0;
  while (join_emit_part_ < num_partitions_ &&
         JoinRows(join_emit_part_, out, &consumed)) {
    ++join_emit_part_;
  }
  join_driver_consumed_.fetch_add(consumed, std::memory_order_relaxed);
  CountEmitted(out->size());
  if (join_emit_part_ >= num_partitions_) phase_ = Phase::kDone;
}

void GraceHashJoinOp::CloseImpl() {
  // Tear down the parallel join phase first: the abort flag makes still-
  // queued partition subtasks exit at their next check, and resetting the
  // group waits (helping the fleet) for every subtask before the
  // partitions they read are released.
  join_abort_.store(true, std::memory_order_relaxed);
  join_group_.reset();
  join_sched_ = nullptr;
  parallel_join_ = false;
  join_window_ = 0;
  join_submitted_ = 0;
  join_emit_part_ = 0;
  join_merge_batch_.reset();
  join_emit_row_ = 0;
  // Swap with empty containers rather than clear(), which keeps capacity:
  // a closed tree can outlive its query (the multi-query executors keep
  // every entry's tree until they are destroyed).
  std::vector<JoinCursor>().swap(join_cursors_);
  std::vector<PartitionResult>().swap(part_results_);
  std::vector<std::unique_ptr<RowBatch>>().swap(join_free_batches_);
  std::vector<Partition>().swap(build_parts_);
  std::vector<Partition>().swap(probe_parts_);
}

double GraceHashJoinOp::DneEstimate() const {
  if (state() == OpState::kFinished) {
    return static_cast<double>(tuples_emitted());
  }
  DneEstimator dne(optimizer_estimate());
  dne.Update(join_driver_consumed(), tuples_emitted());
  return dne.Estimate(static_cast<double>(probe_partition_consumed_));
}

double GraceHashJoinOp::ByteEstimate() const {
  if (state() == OpState::kFinished) {
    return static_cast<double>(tuples_emitted());
  }
  ByteEstimator byte(optimizer_estimate());
  byte.Update(join_driver_consumed(), tuples_emitted());
  return byte.Estimate(static_cast<double>(probe_partition_consumed_));
}

double GraceHashJoinOp::OnceEstimate() const {
  if (state() == OpState::kFinished) {
    return static_cast<double>(tuples_emitted());
  }
  if (pipeline_ != nullptr && pipeline_->Resolved(pipeline_index_)) {
    if (pipeline_->driver_rows_seen() == 0) return optimizer_estimate();
    return pipeline_->EstimateForJoin(pipeline_index_);
  }
  if (once_ != nullptr) {
    if (once_->probe_tuples_seen() == 0) return optimizer_estimate();
    return once_->Estimate();
  }
  // No preprocessing-phase estimator applies: default to dne (paper
  // Sections 4.1.3 / 4.3).
  return DneEstimate();
}

double GraceHashJoinOp::CandidateCardinalityEstimate(
    EstimatorCandidate candidate) const {
  switch (candidate) {
    case EstimatorCandidate::kOnce:
      return OnceEstimate();
    case EstimatorCandidate::kDne:
      return DneEstimate();
    case EstimatorCandidate::kByte:
      return ByteEstimate();
  }
  return optimizer_estimate();
}

double GraceHashJoinOp::CurrentCardinalityEstimate() const {
  if (state() == OpState::kFinished) {
    return static_cast<double>(tuples_emitted());
  }
  EstimationMode mode = ctx_ != nullptr ? ctx_->mode : EstimationMode::kNone;
  switch (mode) {
    case EstimationMode::kNone:
      return optimizer_estimate();
    case EstimationMode::kOnce:
      return OnceEstimate();
    case EstimationMode::kDne:
      return DneEstimate();
    case EstimationMode::kByte:
      return ByteEstimate();
  }
  return optimizer_estimate();
}

double GraceHashJoinOp::CurrentCardinalityHalfWidth(double confidence) const {
  if (state() == OpState::kFinished) return 0.0;
  if (ctx_ == nullptr || ctx_->mode != EstimationMode::kOnce) return 0.0;
  if (pipeline_ != nullptr && pipeline_->Resolved(pipeline_index_) &&
      pipeline_->driver_rows_seen() > 0) {
    return pipeline_->ConfidenceHalfWidth(pipeline_index_, confidence);
  }
  if (once_ != nullptr && once_->probe_tuples_seen() > 0) {
    return once_->ConfidenceHalfWidth(confidence);
  }
  return 0.0;
}

bool GraceHashJoinOp::CardinalityExact() const {
  if (state() == OpState::kFinished) return true;
  if (ctx_ == nullptr || ctx_->mode != EstimationMode::kOnce) return false;
  if (pipeline_ != nullptr && pipeline_->Resolved(pipeline_index_)) {
    return pipeline_->Exact();
  }
  return once_ != nullptr && once_->Exact();
}

size_t GraceHashJoinOp::EstimationBytesUsed() const {
  if (once_ != nullptr) return once_->build_histogram().UsedBytes();
  if (pipeline_ != nullptr && pipeline_lowest_) {
    return pipeline_->HistogramBytesUsed();
  }
  return 0;
}

}  // namespace qpi
