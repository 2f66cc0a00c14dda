// Mixed-type differential for the packed-row data path. Grace-join
// partitions and morsel results store rows as PackedRows cells, so every
// value kind must survive the trip and match exactly as Value::Compare
// says: NULL keys (which match only NULL keys), doubles including -0.0
// (equal to 0 and to integer 0) and NaN, and empty, short and long
// (>15-char, heap-allocated) strings.
//
// Each shape runs at workers {1, 4} × batch {1, 1024}. Every run must
// reproduce the (workers 1, batch 1024) reference exactly: the same rows
// in the same order compared bit for bit, the same tuples_emitted() and
// final estimate on every operator, and the same ONCE estimator state.
// The workers-1 runs take the inline join path. Join results are
// also checked against a nested-loops oracle that matches rows the way
// the engine always has: equal key code, then Value::Compare == 0.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/task_scheduler.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "exec/grace_hash_join.h"
#include "exec/seq_scan.h"
#include "stats/hash_histogram.h"
#include "storage/catalog.h"

namespace qpi {
namespace {

Value PickDouble(Pcg32* rng) {
  switch (rng->NextBounded(16)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(-0.0);
    case 2:
      return Value(0.0);
    case 3:
      return Value(std::numeric_limits<double>::quiet_NaN());
    case 4:
      return Value(1.5);
    case 5:
      return Value(-3.25);
    default:
      // A domain wide enough that anti joins keep some probe rows.
      return Value(static_cast<double>(rng->NextBounded(100)));
  }
}

Value PickString(Pcg32* rng) {
  uint32_t k = rng->NextBounded(6);
  switch (rng->NextBounded(6)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(std::string());
    case 2:
      return Value(std::string(1, static_cast<char>('a' + k)));
    case 3:
      return Value("short" + std::to_string(k));
    default:
      return Value("a considerably longer join key #" + std::to_string(k));
  }
}

/// id, ik (INT64 key with NULLs), dk (DOUBLE key), sk (STRING key), pay
/// (STRING payload of 0..60 chars), pd (DOUBLE payload).
TablePtr MixedTable(const std::string& name, uint64_t rows, uint64_t seed) {
  auto col = [&](const char* c, ValueType t) { return Column{name, c, t}; };
  auto table = std::make_shared<Table>(
      name, Schema({col("id", ValueType::kInt64), col("ik", ValueType::kInt64),
                    col("dk", ValueType::kDouble),
                    col("sk", ValueType::kString),
                    col("pay", ValueType::kString),
                    col("pd", ValueType::kDouble)}));
  Pcg32 rng(seed);
  for (uint64_t r = 0; r < rows; ++r) {
    Row row;
    row.push_back(Value(static_cast<int64_t>(r)));
    row.push_back(rng.NextBounded(10) == 0
                      ? Value::Null()
                      : Value(static_cast<int64_t>(rng.NextBounded(40))));
    row.push_back(PickDouble(&rng));
    row.push_back(PickString(&rng));
    row.push_back(Value(std::string(rng.NextBounded(61), 'p')));
    row.push_back(PickDouble(&rng));
    EXPECT_TRUE(table->Append(std::move(row)).ok());
  }
  return table;
}

/// Exact rendering: type tag plus integer, double bit pattern or string
/// bytes — -0.0 and 0.0, or two NaN payloads, render differently.
std::string Canonical(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    switch (v.type()) {
      case ValueType::kNull:
        out += "N|";
        break;
      case ValueType::kInt64:
        out += "I" + std::to_string(v.AsInt64()) + "|";
        break;
      case ValueType::kDouble: {
        double d = v.AsDouble();
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        out += "D" + std::to_string(bits) + "|";
        break;
      }
      case ValueType::kString:
        out += "S" + std::to_string(v.AsString().size()) + ":" +
               v.AsString() + "|";
        break;
    }
  }
  return out;
}

struct JoinSpec {
  std::vector<std::string> keys;  // same column names on both sides
  JoinFlavor flavor;
};

struct Shape {
  const char* name;
  PlanNodePtr (*make)();
  JoinSpec join;  // keys empty: not a plain two-table join
};

PlanNodePtr Join(const char* key, JoinFlavor flavor) {
  return FlavoredHashJoinPlan(ScanPlan("a"), ScanPlan("b"),
                              std::string("a.") + key, std::string("b.") + key,
                              flavor);
}

const Shape kShapes[] = {
    {"inner_int", [] { return Join("ik", JoinFlavor::kInner); },
     {{"ik"}, JoinFlavor::kInner}},
    {"inner_double", [] { return Join("dk", JoinFlavor::kInner); },
     {{"dk"}, JoinFlavor::kInner}},
    {"inner_string", [] { return Join("sk", JoinFlavor::kInner); },
     {{"sk"}, JoinFlavor::kInner}},
    {"semi_string", [] { return Join("sk", JoinFlavor::kSemi); },
     {{"sk"}, JoinFlavor::kSemi}},
    {"anti_double", [] { return Join("dk", JoinFlavor::kAnti); },
     {{"dk"}, JoinFlavor::kAnti}},
    {"outer_int", [] { return Join("ik", JoinFlavor::kProbeOuter); },
     {{"ik"}, JoinFlavor::kProbeOuter}},
    {"two_key",
     [] {
       return MultiKeyHashJoinPlan(ScanPlan("a"), ScanPlan("b"),
                                   {"a.ik", "a.sk"}, {"b.ik", "b.sk"});
     },
     {{"ik", "sk"}, JoinFlavor::kInner}},
    {"filter_project_filter",
     [] {
       return FilterPlan(
           ProjectPlan(FilterPlan(ScanPlan("b"),
                                  MakeCompare("pd", CompareOp::kLe,
                                              Value(4.0))),
                       {"pay", "sk", "dk"}),
           MakeCompare("sk", CompareOp::kGe, Value(std::string("b"))));
     },
     {{}, JoinFlavor::kInner}},
    {"join_fused_probe",
     [] {
       return HashJoinPlan(
           ScanPlan("a"),
           ProjectPlan(FilterPlan(ScanPlan("b"),
                                  MakeCompare("dk", CompareOp::kGe,
                                              Value(int64_t{0}))),
                       {"sk", "pd", "id"}),
           "a.sk", "b.sk");
     },
     {{}, JoinFlavor::kInner}},
};

struct OpObservation {
  std::string label;
  uint64_t emitted;
  double estimate;
};

struct OnceObservation {
  uint64_t probe_seen = 0;
  double estimate = 0.0;
  bool frozen = false;
  bool exact = false;
};

struct RunResult {
  std::vector<std::string> rows;  // emission order
  std::vector<OpObservation> ops;
  std::vector<OnceObservation> once;
  uint64_t subtasks = 0;      // morsel-lane tasks the query's fleet ran
  uint64_t scan_morsels = 0;  // of those, the morsels of its scans
};

void Configure(ExecContext* ctx, const Catalog& catalog, size_t workers,
               size_t batch_size) {
  ctx->catalog = const_cast<Catalog*>(&catalog);
  ctx->mode = EstimationMode::kOnce;
  ctx->sample_fraction = 0.1;
  ctx->batch_size = batch_size;
  ctx->exec_workers = workers;
  ctx->morsel_rows = 64;
  ctx->hash_join_partitions = 16;
}

RunResult Observe(Operator* root, const std::vector<Row>& rows) {
  RunResult out;
  for (const Row& row : rows) out.rows.push_back(Canonical(row));
  root->Visit([&](Operator* op) {
    out.ops.push_back(
        {op->label(), op->tuples_emitted(), op->CurrentCardinalityEstimate()});
    if (auto* join = dynamic_cast<GraceHashJoinOp*>(op)) {
      OnceObservation once;
      if (const OnceBinaryJoinEstimator* est = join->once_estimator()) {
        once.probe_seen = est->probe_tuples_seen();
        once.estimate = est->Estimate();
        once.frozen = est->frozen();
        once.exact = est->Exact();
      }
      out.once.push_back(once);
    }
  });
  return out;
}

RunResult RunBatchPath(const Catalog& catalog, const Shape& shape,
                       size_t workers, size_t batch_size) {
  ExecContext ctx;
  Configure(&ctx, catalog, workers, batch_size);
  PlanNodePtr plan = shape.make();
  OperatorPtr root;
  Status s = CompilePlan(plan.get(), &ctx, &root);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::vector<Row> rows;
  EXPECT_TRUE(QueryExecutor::Run(root.get(), &ctx, &rows).ok());
  RunResult out = Observe(root.get(), rows);
  if (workers > 1) {
    root->Visit([&](Operator* op) {
      if (auto* scan = dynamic_cast<SeqScanOp*>(op)) {
        uint64_t n = scan->scan_table().num_rows();
        out.scan_morsels += (n + ctx.morsel_rows - 1) / ctx.morsel_rows;
      }
    });
    out.subtasks = ctx.scheduler()->tasks_executed(TaskLane::kSubtask);
  }
  return out;
}

uint64_t KeyCode(const Row& row, const std::vector<size_t>& idx) {
  if (idx.size() == 1) return HistogramKeyCode(row[idx[0]]);
  uint64_t h = kCompositeKeySeed;
  for (size_t i : idx) h = CombineKeyCodes(h, HistogramKeyCode(row[i]));
  return h;
}

/// Nested-loops reference for a two-table join shape, as a sorted
/// canonical multiset.
std::vector<std::string> Oracle(const Table& build, const Table& probe,
                                const JoinSpec& join) {
  std::vector<size_t> idx;
  for (const std::string& k : join.keys) {
    idx.push_back(*build.schema().FindColumn(k));
  }
  std::vector<std::string> out;
  size_t build_width = build.schema().num_columns();
  for (uint64_t p = 0; p < probe.num_rows(); ++p) {
    const Row& pr = probe.RowAt(p);
    bool matched = false;
    for (uint64_t b = 0; b < build.num_rows(); ++b) {
      const Row& br = build.RowAt(b);
      if (KeyCode(br, idx) != KeyCode(pr, idx)) continue;
      bool equal = true;
      for (size_t i : idx) equal = equal && br[i].Compare(pr[i]) == 0;
      if (!equal) continue;
      matched = true;
      if (join.flavor == JoinFlavor::kInner ||
          join.flavor == JoinFlavor::kProbeOuter) {
        out.push_back(Canonical(ConcatRows(br, pr)));
      }
    }
    if ((join.flavor == JoinFlavor::kSemi && matched) ||
        (join.flavor == JoinFlavor::kAnti && !matched)) {
      out.push_back(Canonical(pr));
    }
    if (join.flavor == JoinFlavor::kProbeOuter && !matched) {
      out.push_back(Canonical(ConcatRows(Row(build_width), pr)));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectSameRun(const RunResult& got, const RunResult& want) {
  EXPECT_EQ(got.rows, want.rows);
  ASSERT_EQ(got.ops.size(), want.ops.size());
  for (size_t i = 0; i < want.ops.size(); ++i) {
    EXPECT_EQ(got.ops[i].label, want.ops[i].label);
    EXPECT_EQ(got.ops[i].emitted, want.ops[i].emitted)
        << "operator " << want.ops[i].label;
    EXPECT_EQ(got.ops[i].estimate, want.ops[i].estimate)
        << "operator " << want.ops[i].label;
  }
  ASSERT_EQ(got.once.size(), want.once.size());
  for (size_t i = 0; i < want.once.size(); ++i) {
    EXPECT_EQ(got.once[i].probe_seen, want.once[i].probe_seen);
    EXPECT_EQ(got.once[i].estimate, want.once[i].estimate);
    EXPECT_EQ(got.once[i].frozen, want.once[i].frozen);
    EXPECT_EQ(got.once[i].exact, want.once[i].exact);
  }
}

TEST(MixedTypeParallel, PackedPathMatchesReferenceAndOracle) {
  // No Analyze: NaN has no order, so these columns get no equi-depth
  // histograms; the optimizer falls back to row counts.
  Catalog catalog;
  TablePtr a = MixedTable("a", 400, 11);
  // b is the probe side of every join: 1400 rows keep even the filtered
  // probe of join_fused_probe above one 1024-row batch, so the batch-1024
  // runs at 4 workers take the partition-parallel join too.
  TablePtr b = MixedTable("b", 1400, 12);
  ASSERT_TRUE(catalog.Register(a).ok());
  ASSERT_TRUE(catalog.Register(b).ok());

  for (const Shape& shape : kShapes) {
    SCOPED_TRACE(shape.name);
    RunResult reference = RunBatchPath(catalog, shape, 1, 1024);
    ASSERT_FALSE(reference.rows.empty());
    if (!shape.join.keys.empty()) {
      std::vector<std::string> sorted = reference.rows;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, Oracle(*a, *b, shape.join));
    }
    for (size_t workers : {size_t{1}, size_t{4}}) {
      for (size_t batch : {size_t{1}, size_t{1024}}) {
        SCOPED_TRACE("workers " + std::to_string(workers) + " batch " +
                     std::to_string(batch));
        RunResult run = RunBatchPath(catalog, shape, workers, batch);
        ExpectSameRun(run, reference);
        if (workers > 1) {
          // Morsel scans ran, and a join's partitions ran as subtasks
          // beyond them.
          EXPECT_GT(run.scan_morsels, 0u);
          EXPECT_GE(run.subtasks, run.scan_morsels);
          if (!reference.once.empty()) {
            EXPECT_GT(run.subtasks, run.scan_morsels)
                << "the join phase ran inline";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace qpi
