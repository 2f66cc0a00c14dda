#include "progress/multi_query.h"

#include "common/check.h"

namespace qpi {

Status MultiQueryExecutor::Add(std::string name, OperatorPtr root,
                               std::unique_ptr<ExecContext> ctx) {
  if (root == nullptr || ctx == nullptr) {
    return Status::InvalidArgument("multi-query entry needs root and context");
  }
  QPI_RETURN_NOT_OK(ctx->Validate());
  auto entry = std::make_unique<Entry>();
  entry->name = std::move(name);
  entry->root = std::move(root);
  entry->ctx = std::move(ctx);
  entry->accountant = std::make_unique<GnmAccountant>(entry->root.get());
  entries_.push_back(std::move(entry));
  return Status::OK();
}

Status MultiQueryExecutor::Step(size_t index, uint64_t quantum,
                                bool* has_more) {
  QPI_CHECK(index < entries_.size());
  Entry& entry = *entries_[index];
  if (entry.done) {
    if (has_more != nullptr) *has_more = false;
    return Status::OK();
  }
  if (!entry.opened) {
    QPI_RETURN_NOT_OK(entry.root->Open(entry.ctx.get()));
    entry.ctx->BeginExecution();
    entry.opened = true;
  }
  // A short batch is followed by a request for the remainder, so a query
  // whose stream ends inside the quantum finishes in this step.
  uint64_t left = quantum;
  while (left > 0) {
    RowBatch batch(left);
    if (!entry.root->NextBatch(&batch)) {
      entry.root->Close();
      entry.ctx->EndExecution();
      entry.done = true;
      break;
    }
    entry.rows_emitted += batch.size();
    left -= batch.size();
  }
  if (has_more != nullptr) *has_more = !entry.done;
  return Status::OK();
}

Status MultiQueryExecutor::RunAll(uint64_t quantum) {
  QPI_CHECK(quantum > 0);
  bool any_left = true;
  while (any_left) {
    any_left = false;
    for (size_t i = 0; i < entries_.size(); ++i) {
      // Entries that were already done contribute no quantum, so sampling
      // them would just duplicate the previous history point once per
      // finished query per round.
      if (entries_[i]->done) continue;
      bool has_more = false;
      QPI_RETURN_NOT_OK(Step(i, quantum, &has_more));
      any_left = any_left || has_more;
      combined_history_.push_back(CombinedProgress());
    }
  }
  return Status::OK();
}

bool MultiQueryExecutor::AllDone() const {
  for (const auto& entry : entries_) {
    if (!entry->done) return false;
  }
  return true;
}

double MultiQueryExecutor::QueryProgress(size_t i) const {
  QPI_CHECK(i < entries_.size());
  const Entry& entry = *entries_[i];
  if (entry.done) return 1.0;
  GnmSnapshot snap = entry.accountant->Snapshot();
  // Clamp like CombinedProgress: an undershooting T̂ must not surface as
  // progress above 100%.
  if (snap.total_estimate <= 0) return 0.0;
  double p = snap.current_calls / snap.total_estimate;
  if (p < 0.0) return 0.0;
  return p > 1.0 ? 1.0 : p;
}

double MultiQueryExecutor::CombinedProgress() const {
  double current = 0;
  double total = 0;
  for (const auto& entry : entries_) {
    current += static_cast<double>(entry->accountant->CurrentCalls());
    total += entry->accountant->TotalEstimate();
  }
  if (total <= 0) return AllDone() ? 1.0 : 0.0;
  double p = current / total;
  return p > 1.0 ? 1.0 : p;
}

}  // namespace qpi
