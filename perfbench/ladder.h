// The in-process half of the traced run: spans around calls into each
// module's public functions (sql, plan, exec, estimators, stats, progress,
// ola), on the workload's own catalog and statements.
#ifndef QPIBENCH_LADDER_H_
#define QPIBENCH_LADDER_H_

#include "common.h"
#include "common/status.h"
#include "workloads.h"

namespace qpibench {

/// Run every layer probe, recording spans on `tracer`, and add the
/// per-layer metrics they yield to `metrics`. `workers` is the N of the
/// ".wN" metrics.
qpi::Status RunLadder(WorkloadData* data, size_t workers, Tracer* tracer,
                      Metrics* metrics);

}  // namespace qpibench

#endif  // QPIBENCH_LADDER_H_
