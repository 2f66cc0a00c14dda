// Batch-size differential: execution must be observationally independent
// of the batch size. For every operator shape (scan, filter, hash and sort
// aggregates, hash join, merge join, two-join pipeline, sort, nested-loops
// equi- and theta-joins, index nested-loops join) and every estimation
// mode, stepping the root one tuple at a time (capacity-1 batches, with
// batch_size 1 inside the tree) and draining it at several batch sizes
// must produce
//   (a) the same result multiset,
//   (b) the same final tuples_emitted() on every operator in the tree, and
//   (c) the same final cardinality estimate on every operator.
// Estimators observe every tuple in the batched loops, so the estimates
// are bit-identical, not merely close.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "datagen/table_builder.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "storage/catalog.h"

namespace qpi {
namespace {

/// Deterministic catalog: three tables with mixed skew (same recipe as
/// differential_test.cc so the shapes cover realistic key overlap).
void BuildCatalog(Catalog* catalog, uint64_t seed) {
  Pcg32 rng(seed);
  for (const char* name : {"r1", "r2", "r3"}) {
    TableBuilder b(name);
    double z = (rng.NextBounded(3)) * 0.75;  // 0, 0.75, 1.5
    uint32_t domain = 10 + rng.NextBounded(90);
    b.AddColumn("k", std::make_unique<ZipfSpec>(z, domain,
                                                rng.NextUint64() | 1))
        .AddColumn("v", std::make_unique<UniformIntSpec>(1, 50));
    uint64_t rows = 300 + rng.NextBounded(700);
    ASSERT_TRUE(catalog->Register(b.Build(rows, rng.NextUint64())).ok());
    ASSERT_TRUE(catalog->Analyze(name).ok());
  }
}

struct Shape {
  const char* name;
  PlanNodePtr (*make)();
};

const Shape kShapes[] = {
    {"scan", [] { return ScanPlan("r1"); }},
    {"filter",
     [] {
       return FilterPlan(ScanPlan("r2"), MakeCompare("v", CompareOp::kLe,
                                                     Value(int64_t{25})));
     }},
    {"agg",
     [] {
       return HashAggregatePlan(
           ScanPlan("r1"), {"k"},
           {AggregateSpec{AggregateSpec::Kind::kCountStar, ""},
            AggregateSpec{AggregateSpec::Kind::kSum, "v"}});
     }},
    {"hash_join",
     [] {
       return HashJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k", "r2.k");
     }},
    {"merge_join",
     [] {
       return MergeJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k", "r2.k");
     }},
    {"pipeline",
     [] {
       return HashJoinPlan(
           ScanPlan("r1"),
           HashJoinPlan(ScanPlan("r2"), ScanPlan("r3"), "r2.k", "r3.k"),
           "r1.k", "r3.k");
     }},
    {"sort", [] { return SortPlan(ScanPlan("r3"), {"k", "v"}); }},
    {"sort_agg",
     [] {
       return SortAggregatePlan(
           ScanPlan("r2"), {"k"},
           {AggregateSpec{AggregateSpec::Kind::kCountStar, ""},
            AggregateSpec{AggregateSpec::Kind::kAvg, "v"}});
     }},
    {"nl_join",
     [] {
       return NestedLoopsJoinPlan(ScanPlan("r1"), ScanPlan("r3"), "r1.k",
                                  "r3.k");
     }},
    {"theta_nl_join",
     [] {
       return ThetaNestedLoopsJoinPlan(ScanPlan("r3"), ScanPlan("r2"), "r3.k",
                                       "r2.k", CompareOp::kLt);
     }},
    {"inl_join",
     [] {
       return IndexNestedLoopsJoinPlan(ScanPlan("r2"), ScanPlan("r1"), "r2.k",
                                       "r1.k");
     }},
};

/// Final per-operator observables, collected after Close().
struct OpObservation {
  std::string label;
  uint64_t emitted;
  double estimate;
};

struct RunResult {
  std::vector<std::string> rows;  // canonical (sorted) multiset
  std::vector<OpObservation> ops;  // pre-order over the tree
};

RunResult Observe(Operator* root, std::vector<Row> rows) {
  RunResult out;
  out.rows.reserve(rows.size());
  for (const Row& row : rows) out.rows.push_back(RowToString(row));
  std::sort(out.rows.begin(), out.rows.end());
  root->Visit([&](Operator* op) {
    out.ops.push_back(
        {op->label(), op->tuples_emitted(), op->CurrentCardinalityEstimate()});
  });
  return out;
}

/// Steps the root one tuple per NextBatch() call, with batch_size pinned
/// to 1 so the internal intake loops also consume their children one tuple
/// per call.
RunResult RunTupleAtATime(const Catalog& catalog, const Shape& shape,
                          EstimationMode mode) {
  ExecContext ctx;
  ctx.catalog = const_cast<Catalog*>(&catalog);
  ctx.mode = mode;
  ctx.sample_fraction = 0.1;
  ctx.batch_size = 1;
  PlanNodePtr plan = shape.make();
  OperatorPtr root;
  Status s = CompilePlan(plan.get(), &ctx, &root);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(root->Open(&ctx).ok());
  ctx.BeginExecution();
  std::vector<Row> rows;
  RowBatch batch(1);
  while (root->NextBatch(&batch)) {
    EXPECT_EQ(batch.size(), 1u);
    rows.push_back(batch.row(0));
  }
  root->Close();
  ctx.EndExecution();
  return Observe(root.get(), std::move(rows));
}

/// Drains the root through QueryExecutor at the given batch size.
RunResult RunBatchPath(const Catalog& catalog, const Shape& shape,
                       EstimationMode mode, size_t batch_size) {
  ExecContext ctx;
  ctx.catalog = const_cast<Catalog*>(&catalog);
  ctx.mode = mode;
  ctx.sample_fraction = 0.1;
  ctx.batch_size = batch_size;
  PlanNodePtr plan = shape.make();
  OperatorPtr root;
  Status s = CompilePlan(plan.get(), &ctx, &root);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::vector<Row> rows;
  EXPECT_TRUE(QueryExecutor::Run(root.get(), &ctx, &rows, nullptr).ok());
  return Observe(root.get(), std::move(rows));
}

class RowVsBatch : public ::testing::TestWithParam<EstimationMode> {};

TEST_P(RowVsBatch, IdenticalResultsCountersAndEstimates) {
  EstimationMode mode = GetParam();
  Catalog catalog;
  BuildCatalog(&catalog, 42);

  for (const Shape& shape : kShapes) {
    RunResult reference = RunTupleAtATime(catalog, shape, mode);
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256},
                              size_t{1024}}) {
      SCOPED_TRACE(std::string(shape.name) + " mode " +
                   EstimationModeName(mode) + " batch " +
                   std::to_string(batch_size));
      RunResult batched = RunBatchPath(catalog, shape, mode, batch_size);
      EXPECT_EQ(batched.rows, reference.rows);
      ASSERT_EQ(batched.ops.size(), reference.ops.size());
      for (size_t i = 0; i < reference.ops.size(); ++i) {
        EXPECT_EQ(batched.ops[i].label, reference.ops[i].label);
        EXPECT_EQ(batched.ops[i].emitted, reference.ops[i].emitted)
            << "operator " << reference.ops[i].label;
        EXPECT_DOUBLE_EQ(batched.ops[i].estimate, reference.ops[i].estimate)
            << "operator " << reference.ops[i].label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, RowVsBatch,
                         ::testing::Values(EstimationMode::kNone,
                                           EstimationMode::kOnce,
                                           EstimationMode::kDne,
                                           EstimationMode::kByte));

}  // namespace
}  // namespace qpi
