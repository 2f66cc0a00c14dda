#ifndef QPI_PROGRESS_MULTI_QUERY_H_
#define QPI_PROGRESS_MULTI_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/operator.h"
#include "progress/gnm.h"

namespace qpi {

/// \brief Interleaved execution of several queries with per-query and
/// combined gnm progress — the multi-query extension the paper cites
/// (Luo et al.'s follow-up [19]).
///
/// Queries are registered with their own ExecContext (mode, sampling) and
/// driven round-robin, one root batch of `quantum` rows per step,
/// simulating the concurrent workloads a DBA monitors. Per-query progress
/// is each query's C(Q)/T̂(Q); combined progress weights every query by its
/// (estimated) total work: Σ C_i / Σ T̂_i.
class MultiQueryExecutor {
 public:
  /// One query's slot.
  struct Entry {
    std::string name;
    // Declared before `root`: the context and any fleet it owns must
    // outlive the operators (see ExecContext::scheduler()).
    std::unique_ptr<ExecContext> ctx;
    OperatorPtr root;
    std::unique_ptr<GnmAccountant> accountant;
    uint64_t rows_emitted = 0;
    bool opened = false;
    bool done = false;
  };

  /// Register a query (takes ownership of the operator tree and context).
  /// The context's catalog must outlive the executor. Rejects a context
  /// that fails ExecContext::Validate(): with exec_workers > 1 the entry
  /// fans out on the context's scheduler, a private fleet of that many
  /// threads unless one is attached.
  Status Add(std::string name, OperatorPtr root,
             std::unique_ptr<ExecContext> ctx);

  /// Advance query `index` by up to `quantum` root output rows, inside
  /// its context's BeginExecution()/EndExecution() window (opened by the
  /// first Step, closed when the query finishes). Sets *has_more if that
  /// query still has work left.
  Status Step(size_t index, uint64_t quantum, bool* has_more);

  /// Round-robin all unfinished queries until completion, taking a
  /// combined-progress snapshot after every quantum actually executed
  /// (already-finished entries contribute no history points).
  Status RunAll(uint64_t quantum);

  size_t num_queries() const { return entries_.size(); }
  const Entry& entry(size_t i) const { return *entries_[i]; }
  bool AllDone() const;

  /// Estimated progress of query i (C_i / T̂_i, clamped to [0,1]).
  double QueryProgress(size_t i) const;

  /// Combined progress over all registered queries: Σ C_i / Σ T̂_i.
  double CombinedProgress() const;

  /// Combined-progress trajectory recorded by RunAll.
  const std::vector<double>& combined_history() const {
    return combined_history_;
  }

 private:
  std::vector<std::unique_ptr<Entry>> entries_;
  std::vector<double> combined_history_;
};

}  // namespace qpi

#endif  // QPI_PROGRESS_MULTI_QUERY_H_
