// The benchmark's three workloads: seeded catalogs, statements and the
// reference answers every served query is checked against.
#ifndef QPIBENCH_WORKLOADS_H_
#define QPIBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/catalog.h"

namespace qpibench {

/// How one workload drives the server. Every figure here is part of the
/// benchmark's definition: changing one starts a new baseline.
struct WorkloadSpec {
  std::string name;
  bool open_loop = false;
  /// Open loop: Poisson arrival rate. Closed loop: the rate the query
  /// count is sized by (queries = rate × seconds), so every run of a
  /// workload submits the same number of queries whatever its speed.
  double rate_qps = 0;
  double cadence_ms = 10;
  size_t connections = 1;
  /// Watchers per query; the second one (when present) negotiates binary
  /// snapshot frames on its own connection.
  size_t watchers = 1;
  /// OLA relative half-width target; 0 = not an OLA workload.
  double ola_rel_target = 0;
  /// TPC-H scale factor of the generated catalog.
  double scale_factor = 0;
};

/// Look up a workload by name; false for an unknown name.
bool FindWorkloadSpec(const std::string& name, WorkloadSpec* out);

/// Exact answer of one statement, computed in process at one worker.
struct Reference {
  uint64_t rows = 0;
  /// Global-aggregate statements: the exact value of every aggregate
  /// (COUNT and SUM), in select-list order. Empty otherwise.
  std::vector<double> aggregates;
};

struct Statement {
  std::string sql;
  Reference reference;
};

/// A workload's generated inputs: catalog, statement pool and references.
struct WorkloadData {
  qpi::Catalog catalog;
  std::vector<Statement> statements;
};

/// Generate the catalog for `spec` from `seed` (scaled by `scale`),
/// analyze it, draw the statement pool's literals from the seed and
/// compute each statement's reference answer.
qpi::Status BuildWorkloadData(const WorkloadSpec& spec, uint64_t seed,
                              double scale, WorkloadData* out);

/// Run `sql` in process at one worker and fill its reference answer.
qpi::Status ComputeReference(qpi::Catalog* catalog, const std::string& sql,
                             Reference* out);

/// The join/aggregate statement of the ola_early_stop workload and its
/// relative half-width target; the OLA ladder runs the same statement on
/// every workload's catalog (all of them have these tables).
extern const char kOlaSql[];
inline constexpr double kOlaRelTarget = 0.02;

}  // namespace qpibench

#endif  // QPIBENCH_WORKLOADS_H_
