#ifndef QPI_EXEC_EXECUTOR_H_
#define QPI_EXEC_EXECUTOR_H_

#include <functional>
#include <vector>

#include "exec/operator.h"

namespace qpi {

/// \brief Drives an operator tree to completion.
class QueryExecutor {
 public:
  /// Sees every root batch on the driving thread, before the next one is
  /// requested.
  using BatchHook = std::function<void(const RowBatch&)>;

  /// Validate `ctx`, then open, drain and close `root` inside
  /// BeginExecution()/EndExecution(). If `sink` is non-null, the emitted
  /// rows are collected into it. `*rows_emitted` (optional) receives the
  /// count; `on_batch` (optional) lets a driver publish a live count.
  static Status Run(Operator* root, ExecContext* ctx,
                    std::vector<Row>* sink = nullptr,
                    uint64_t* rows_emitted = nullptr,
                    const BatchHook& on_batch = nullptr);
};

}  // namespace qpi

#endif  // QPI_EXEC_EXECUTOR_H_
