#include "exec/executor.h"

#include "common/row_batch.h"

namespace qpi {

Status QueryExecutor::Run(Operator* root, ExecContext* ctx,
                          std::vector<Row>* sink, uint64_t* rows_emitted,
                          const BatchHook& on_batch) {
  QPI_RETURN_NOT_OK(ctx->Validate());
  QPI_RETURN_NOT_OK(root->Open(ctx));
  ctx->BeginExecution();
  RowBatch batch(ctx->batch_size);
  uint64_t count = 0;
  while (root->NextBatch(&batch)) {
    count += batch.size();
    if (on_batch) on_batch(batch);
    if (sink != nullptr) {
      for (size_t i = 0; i < batch.size(); ++i) {
        sink->push_back(batch.row(i));
      }
    }
  }
  root->Close();
  ctx->EndExecution();
  if (rows_emitted != nullptr) *rows_emitted = count;
  return Status::OK();
}

}  // namespace qpi
