#include "exec/morsel_scan.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/task_scheduler.h"
#include "exec/exec_context.h"
#include "exec/filter.h"
#include "exec/operator.h"
#include "exec/seq_scan.h"
#include "storage/table.h"

namespace qpi {

MorselScanDriver::MorselScanDriver(SeqScanOp* scan,
                                   std::vector<MorselStage> stages,
                                   ExecContext* ctx)
    : scan_(scan), stages_(std::move(stages)), ctx_(ctx) {
  QPI_CHECK(ctx_ != nullptr && ctx_->exec_workers > 1);
  table_ = &scan_->scan_table();
  order_ = &scan_->scan_order();

  vstarts_.reserve(order_->block_order.size());
  for (uint32_t block_id : order_->block_order) {
    vstarts_.push_back(total_rows_);
    total_rows_ += table_->block(block_id).num_rows();
  }
  sampled_ = order_->sample_block_count != 0;
  prefix_rows_ = order_->sample_row_count;

  morsel_rows_ = std::max<size_t>(1, ctx_->morsel_rows);
  morsel_count_ =
      static_cast<size_t>((total_rows_ + morsel_rows_ - 1) / morsel_rows_);
  window_ = 2 * ctx_->exec_workers + 2;
  remaining_.store(morsel_count_, std::memory_order_relaxed);

  for (const MorselStage& st : stages_) {
    stage_cols_.push_back(out_cols_);
    if (st.projection == nullptr) continue;
    std::vector<size_t> cols;
    cols.reserve(st.projection->size());
    for (size_t idx : *st.projection) {
      cols.push_back(out_cols_ ? (*out_cols_)[idx] : idx);
    }
    out_cols_ = std::move(cols);
  }
  size_t width =
      out_cols_ ? out_cols_->size() : table_->schema().num_columns();
  results_.resize(std::min(window_, morsel_count_));
  for (MorselResult& r : results_) r.rows = PackedRows(width);

  if (!stages_.empty()) {
    captured_.push_back(scan_);
    for (size_t s = 0; s + 1 < stages_.size(); ++s) {
      captured_.push_back(stages_[s].op);
    }
  }
  // The driving operator's wrapper flips its own state; the captured chain
  // below it starts running the moment the first morsel is scheduled.
  for (Operator* op : captured_) {
    op->state_.store(OpState::kRunning, std::memory_order_relaxed);
  }
  if (morsel_count_ == 0) {
    for (Operator* op : captured_) {
      op->state_.store(OpState::kFinished, std::memory_order_relaxed);
    }
  }

  sched_ = ctx_->scheduler();
  group_ = std::make_unique<TaskGroup>(sched_, ctx_->sched_tag());
  SubmitUpTo(window_);
}

MorselScanDriver::~MorselScanDriver() {
  abort_.store(true, std::memory_order_relaxed);
  group_->Wait();
}

void MorselScanDriver::SubmitUpTo(size_t limit) {
  limit = std::min(limit, morsel_count_);
  while (submitted_ < limit) {
    size_t m = submitted_++;
    group_->Submit([this, m] { ProcessMorsel(m); });
  }
}

void MorselScanDriver::ProcessMorsel(size_t m) {
  MorselResult& r = results_[m % results_.size()];
  uint64_t begin = static_cast<uint64_t>(m) * morsel_rows_;
  uint64_t end = std::min(total_rows_, begin + morsel_rows_);
  uint64_t ticks = 0;

  if (!abort_.load(std::memory_order_relaxed) && !ctx_->IsCancelled()) {
    // Locate the block containing virtual row `begin`; zero-row blocks are
    // skipped by the scan loop below.
    size_t b = static_cast<size_t>(
                   std::upper_bound(vstarts_.begin(), vstarts_.end(), begin) -
                   vstarts_.begin()) -
               1;
    uint64_t v = begin;
    size_t local = static_cast<size_t>(begin - vstarts_[b]);
    bool run_ok = true;
    r.stage_out.assign(stages_.size(), 0);

    while (v < end) {
      const Block& block = table_->block(order_->block_order[b]);
      if (local >= block.num_rows()) {
        ++b;
        local = 0;
        continue;
      }
      // Run membership is judged after each row's emission, so input row
      // v is in-run iff v + 1 < prefix; an out-of-run input ends the run
      // for every later output even if a predicate drops it.
      if (sampled_ && v + 1 >= prefix_rows_) run_ok = false;
      const Row& row = block.row(local);
      bool keep = true;
      for (size_t s = 0; s < stages_.size() && keep; ++s) {
        const MorselStage& st = stages_[s];
        if (st.predicate != nullptr) {
          const std::optional<std::vector<size_t>>& cols = stage_cols_[s];
          if (!cols) {
            keep = st.predicate->Evaluate(row);
          } else {
            r.scratch.resize(cols->size());
            for (size_t c = 0; c < cols->size(); ++c) {
              r.scratch[c] = row[(*cols)[c]];
            }
            keep = st.predicate->Evaluate(r.scratch);
          }
        }
        if (keep) ++r.stage_out[s];
      }
      if (keep) {
        if (run_ok) ++r.random_limit;
        if (out_cols_) {
          r.rows.AppendColumns(row, *out_cols_);
        } else {
          r.rows.Append(row);
        }
      }
      ++local;
      ++v;
    }

    uint64_t scanned = end - begin;
    r.breaks_run = sampled_ && end >= prefix_rows_;

    // Attribute the captured operators' counters and bank the matching
    // progress ticks; the driving operator's rows are counted on delivery.
    if (!captured_.empty()) {
      scan_->CountEmitted(scanned);
      ticks += scanned;
      for (size_t s = 0; s + 1 < stages_.size(); ++s) {
        stages_[s].op->CountEmitted(r.stage_out[s]);
        ticks += r.stage_out[s];
      }
    }
  }

  if (ticks != 0) ctx_->TickConcurrent(ticks);
  {
    std::lock_guard<std::mutex> lock(mu_);
    r.done = true;
  }
  cv_.notify_all();
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    for (Operator* op : captured_) {
      op->state_.store(OpState::kFinished, std::memory_order_relaxed);
    }
  }
}

void MorselScanDriver::Fill(RowBatch* out) {
  while (!out->full() && emit_idx_ < morsel_count_) {
    MorselResult& r = results_[emit_idx_ % results_.size()];
    // Wait for morsel emit_idx_ by *helping*: drain pending subtasks
    // (often our own, possibly another query's on a shared fleet) instead
    // of parking. A driving thread that is itself a fleet worker would
    // otherwise deadlock the fleet once every worker waits like this; the
    // timed wait is only a safety net for the instant where the needed
    // morsel is mid-execution elsewhere and nothing else is runnable.
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (r.done) break;
      }
      if (sched_->HelpOneSubtask()) continue;
      std::unique_lock<std::mutex> lock(mu_);
      if (r.done) break;
      cv_.wait_for(lock, std::chrono::milliseconds(2), [&r] { return r.done; });
    }
    while (cursor_ < r.rows.size() && !out->full()) {
      bool in_run = run_open_ && cursor_ < r.random_limit;
      r.rows.Gather(cursor_, out->NextSlot());
      out->CommitSlot();
      if (in_run) out->bump_random_run();
      ++cursor_;
    }
    if (cursor_ >= r.rows.size()) {
      // The run is monotone across morsels: once this morsel consumed past
      // the prefix boundary, no later output is in-run.
      if (r.breaks_run) run_open_ = false;
      // Reset the slot for the morsel that reuses it; the submission
      // below orders these writes before that morsel's task runs.
      r.rows.Clear();
      r.random_limit = 0;
      r.breaks_run = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        r.done = false;
      }
      cursor_ = 0;
      ++emit_idx_;
      SubmitUpTo(emit_idx_ + window_);
    }
  }
}

bool WorthMorselScan(const SeqScanOp& scan, const ExecContext& ctx) {
  return ctx.exec_workers > 1 &&
         scan.scan_table().num_rows() > ctx.morsel_rows;
}

std::unique_ptr<MorselScanDriver> TryBuildFusedScanDriver(Operator* driving_op,
                                                          ExecContext* ctx) {
  std::vector<MorselStage> top_down;
  Operator* cur = driving_op;
  SeqScanOp* scan = nullptr;
  while (true) {
    if (auto* s = dynamic_cast<SeqScanOp*>(cur)) {
      scan = s;
      break;
    }
    if (auto* f = dynamic_cast<FilterOp*>(cur)) {
      top_down.push_back(MorselStage{f, f->bound_predicate(), nullptr});
      cur = f->child(0);
      continue;
    }
    if (auto* p = dynamic_cast<ProjectOp*>(cur)) {
      top_down.push_back(MorselStage{p, nullptr, &p->project_indices()});
      cur = p->child(0);
      continue;
    }
    return nullptr;  // chain interrupted: not fusable from here
  }
  if (!WorthMorselScan(*scan, *ctx)) return nullptr;
  std::reverse(top_down.begin(), top_down.end());
  return std::make_unique<MorselScanDriver>(scan, std::move(top_down), ctx);
}

}  // namespace qpi
