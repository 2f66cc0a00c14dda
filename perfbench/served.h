// The served half of the benchmark: one load-generator thread drives an
// in-process QpiServer over loopback through the real wire protocol,
// multiplexing several watches per connection, and checks every answer.
#ifndef QPIBENCH_SERVED_H_
#define QPIBENCH_SERVED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "service/protocol.h"
#include "workloads.h"

namespace qpibench {

/// What one served query went through, in client-clock milliseconds.
struct QueryRecord {
  size_t statement = 0;
  size_t conn = 0;  ///< submitting connection
  uint64_t id = 0;
  double due_ms = 0;        ///< scheduled send time (open loop) / send time
  double sent_ms = 0;       ///< submit line written
  double submitted_ms = 0;  ///< "submitted" reply received
  double first_snapshot_ms = -1;
  double first_running_ms = -1;  ///< first snapshot not in state "queued"
  double final_server_ms = -1;   ///< earliest final snapshot's server_ms
  double done_ms = -1;           ///< final snapshot at the last watcher
  size_t watchers_done = 0;
  size_t snapshots = 0;
  std::string state;  ///< terminal state
  qpi::WireSnapshot final_snapshot;
  bool failed = false;
  std::string failure;
};

struct ServedResult {
  std::vector<QueryRecord> queries;
  std::vector<double> delivery_ms;  ///< server_ms → receipt, every snapshot
  std::vector<double> gen_lag_ms;   ///< send time − due time
  double window_ms = 0;             ///< first due → last terminal delivery
  double cpu_ms = 0;                ///< process CPU over the window
  double rss_growth_kb = 0;         ///< VmRSS after − before
  qpi::ServerStats stats_delta;     ///< STATS after − before the run
  /// |R − 1| of every non-degenerate audit checkpoint (TRACE fetched
  /// after the window).
  std::vector<double> progress_err;
  size_t ola_stopped = 0;
  size_t ola_covered = 0;
  /// A sample of the snapshots received, for the encode/decode ladder.
  std::vector<qpi::WireSnapshot> sample;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
};

/// Submit `count` queries of `data`'s statement pool to the server on
/// `port`, following `spec`'s loop policy with arrivals and statement
/// choices drawn from `seed`. `deadline_ms` bounds the whole run on the
/// NowMs() clock: queries still open then count as failed (timeout).
/// When `tracer` is non-null the per-query phase spans are recorded.
qpi::Status RunServed(const WorkloadSpec& spec, const WorkloadData& data,
                      uint16_t port, uint64_t seed, size_t count,
                      double deadline_ms, Tracer* tracer, ServedResult* out);

}  // namespace qpibench

#endif  // QPIBENCH_SERVED_H_
