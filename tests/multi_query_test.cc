// Multi-query interleaved execution with combined gnm progress (the
// multiple-queries extension of Luo et al. [19] that the paper cites).

#include "progress/multi_query.h"

#include <gtest/gtest.h>

#include "datagen/table_builder.h"
#include "exec/compiler.h"
#include "storage/catalog.h"

namespace qpi {
namespace {

TablePtr MakeSkewed(const std::string& name, uint64_t rows, double z,
                    uint32_t domain, uint64_t peak, uint64_t seed) {
  TableBuilder b(name);
  b.AddColumn("k", std::make_unique<ZipfSpec>(z, domain, peak))
      .AddColumn("id", std::make_unique<SequentialSpec>(0));
  return b.Build(rows, seed);
}

class MultiQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.Register(MakeSkewed("a", 2000, 1.0, 40, 1, 1)).ok());
    ASSERT_TRUE(catalog_.Register(MakeSkewed("b", 2000, 1.0, 40, 2, 2)).ok());
    ASSERT_TRUE(catalog_.Register(MakeSkewed("c", 500, 0.0, 20, 3, 3)).ok());
    for (const char* name : {"a", "b", "c"}) {
      ASSERT_TRUE(catalog_.Analyze(name).ok());
    }
  }

  void AddQuery(MultiQueryExecutor* mq, const std::string& name,
                PlanNodePtr plan, size_t exec_workers = 1) {
    auto ctx = std::make_unique<ExecContext>();
    ctx->catalog = &catalog_;
    ctx->mode = EstimationMode::kOnce;
    ctx->exec_workers = exec_workers;
    ctx->morsel_rows = 256;
    OperatorPtr root;
    ASSERT_TRUE(CompilePlan(plan.get(), ctx.get(), &root).ok());
    ASSERT_TRUE(mq->Add(name, std::move(root), std::move(ctx)).ok());
  }

  uint64_t SoloRowCount(PlanNodePtr plan) {
    ExecContext ctx;
    ctx.catalog = &catalog_;
    ctx.mode = EstimationMode::kOnce;
    OperatorPtr root;
    EXPECT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
    uint64_t rows = 0;
    EXPECT_TRUE(QueryExecutor::Run(root.get(), &ctx, nullptr, &rows).ok());
    return rows;
  }

  Catalog catalog_;
};

TEST_F(MultiQueryTest, InterleavedRunsMatchSoloResults) {
  uint64_t join_rows =
      SoloRowCount(HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k"));
  uint64_t agg_rows = SoloRowCount(HashAggregatePlan(
      ScanPlan("c"), {"k"},
      {AggregateSpec{AggregateSpec::Kind::kCountStar, ""}}));

  MultiQueryExecutor mq;
  AddQuery(&mq, "join",
           HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k"));
  AddQuery(&mq, "agg",
           HashAggregatePlan(
               ScanPlan("c"), {"k"},
               {AggregateSpec{AggregateSpec::Kind::kCountStar, ""}}));
  ASSERT_TRUE(mq.RunAll(/*quantum=*/256).ok());
  EXPECT_TRUE(mq.AllDone());
  EXPECT_EQ(mq.entry(0).rows_emitted, join_rows);
  EXPECT_EQ(mq.entry(1).rows_emitted, agg_rows);
}

TEST_F(MultiQueryTest, PerQueryProgressReachesOne) {
  MultiQueryExecutor mq;
  AddQuery(&mq, "q0",
           HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k"));
  AddQuery(&mq, "q1", SortPlan(ScanPlan("c"), {"k"}));
  ASSERT_TRUE(mq.RunAll(128).ok());
  EXPECT_DOUBLE_EQ(mq.QueryProgress(0), 1.0);
  EXPECT_DOUBLE_EQ(mq.QueryProgress(1), 1.0);
  EXPECT_DOUBLE_EQ(mq.CombinedProgress(), 1.0);
}

TEST_F(MultiQueryTest, StepAdvancesOnlyTheTargetQuery) {
  MultiQueryExecutor mq;
  AddQuery(&mq, "q0", ScanPlan("a"));
  AddQuery(&mq, "q1", ScanPlan("b"));
  bool more = false;
  ASSERT_TRUE(mq.Step(0, 100, &more).ok());
  EXPECT_TRUE(more);
  EXPECT_EQ(mq.entry(0).rows_emitted, 100u);
  EXPECT_EQ(mq.entry(1).rows_emitted, 0u);
  EXPECT_GT(mq.QueryProgress(0), 0.0);
  EXPECT_DOUBLE_EQ(mq.QueryProgress(1), 0.0);
}

TEST_F(MultiQueryTest, CombinedHistoryIsEventuallyComplete) {
  MultiQueryExecutor mq;
  AddQuery(&mq, "q0", ScanPlan("a"));
  AddQuery(&mq, "q1", ScanPlan("c"));
  ASSERT_TRUE(mq.RunAll(200).ok());
  const std::vector<double>& history = mq.combined_history();
  ASSERT_GE(history.size(), 2u);
  EXPECT_DOUBLE_EQ(history.back(), 1.0);
  for (double p : history) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  // Scans have exact totals, so combined progress is monotone here.
  for (size_t i = 1; i < history.size(); ++i) {
    EXPECT_GE(history[i], history[i - 1] - 1e-12);
  }
}

TEST_F(MultiQueryTest, CombinedHistorySamplesOnlyExecutedQuanta) {
  // Scan-only workload with a quantum that does not divide either row
  // count: every recorded sample follows at least one newly emitted row,
  // so the history is strictly increasing. The old RunAll appended one
  // sample per entry per round — including for entries that finished
  // rounds earlier — padding the tail with duplicates.
  MultiQueryExecutor mq;
  AddQuery(&mq, "q0", ScanPlan("a"));  // 2000 rows
  AddQuery(&mq, "q1", ScanPlan("c"));  // 500 rows
  ASSERT_TRUE(mq.RunAll(/*quantum=*/300).ok());
  const std::vector<double>& history = mq.combined_history();
  // q0 drains in ceil(2000/300)=7 steps, q1 in ceil(500/300)=2.
  EXPECT_EQ(history.size(), 9u);
  for (size_t i = 1; i < history.size(); ++i) {
    EXPECT_GT(history[i], history[i - 1]);
  }
  EXPECT_DOUBLE_EQ(history.back(), 1.0);
}

TEST_F(MultiQueryTest, QueryProgressClampedUnderUndershootingEstimate) {
  // Drive a query exactly to its last output row without letting the root
  // observe end-of-stream: C(Q) is then at its maximum while the query
  // still counts as running. Whatever T̂ the estimators hold, the reported
  // per-query progress must stay within [0, 1], like CombinedProgress.
  uint64_t join_rows =
      SoloRowCount(HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k"));
  MultiQueryExecutor mq;
  AddQuery(&mq, "join",
           HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k"));
  bool more = false;
  ASSERT_TRUE(mq.Step(0, join_rows, &more).ok());
  EXPECT_TRUE(more);
  double p = mq.QueryProgress(0);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

TEST_F(MultiQueryTest, AddRejectsNullInputs) {
  MultiQueryExecutor mq;
  EXPECT_EQ(mq.Add("bad", nullptr, nullptr).code(),
            Status::Code::kInvalidArgument);
}

TEST_F(MultiQueryTest, AddRejectsInvalidContext) {
  // Add validates the context, so an entry whose exec_workers is out of
  // range never reaches a Step that could start its fleet.
  MultiQueryExecutor mq;
  auto ctx = std::make_unique<ExecContext>();
  ctx->catalog = &catalog_;
  ctx->exec_workers = ExecContext::kMaxExecWorkers + 1;
  PlanNodePtr plan = ScanPlan("c");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), ctx.get(), &root).ok());
  EXPECT_EQ(mq.Add("too_wide", std::move(root), std::move(ctx)).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(mq.num_queries(), 0u);
}

TEST_F(MultiQueryTest, TwoWorkerEntryMatchesOneWorkerEntry) {
  // A filtered scan (morsel-parallel at two workers) feeding a hash join
  // (partition-parallel at two workers), interleaved with its one-worker
  // twin.
  auto plan = [] {
    return HashJoinPlan(
        FilterPlan(ScanPlan("a"),
                   MakeCompare("k", CompareOp::kLe, Value(int64_t{20}))),
        ScanPlan("b"), "a.k", "b.k");
  };
  MultiQueryExecutor mq;
  AddQuery(&mq, "w1", plan(), 1);
  AddQuery(&mq, "w2", plan(), 2);
  ASSERT_TRUE(mq.RunAll(/*quantum=*/300).ok());
  ASSERT_TRUE(mq.AllDone());
  EXPECT_GT(mq.entry(0).rows_emitted, 0u);
  EXPECT_EQ(mq.entry(1).rows_emitted, mq.entry(0).rows_emitted);
  EXPECT_EQ(mq.entry(1).accountant->CurrentCalls(),
            mq.entry(0).accountant->CurrentCalls());
  EXPECT_DOUBLE_EQ(mq.QueryProgress(1), 1.0);
}

TEST_F(MultiQueryTest, UnfinishedTwoWorkerEntryIsDestroyedSafely) {
  // The executor goes away mid-query, with the entry's join subtasks
  // submitted to the context's private fleet and never closed.
  MultiQueryExecutor mq;
  AddQuery(&mq, "w2",
           HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k"), 2);
  bool more = false;
  ASSERT_TRUE(mq.Step(0, 10, &more).ok());
  EXPECT_TRUE(more);
  EXPECT_EQ(mq.entry(0).rows_emitted, 10u);
}

TEST_F(MultiQueryTest, FinishedQueryStepIsNoOp) {
  MultiQueryExecutor mq;
  AddQuery(&mq, "q0", ScanPlan("c"));
  ASSERT_TRUE(mq.RunAll(1000).ok());
  bool more = true;
  ASSERT_TRUE(mq.Step(0, 10, &more).ok());
  EXPECT_FALSE(more);
  EXPECT_EQ(mq.entry(0).rows_emitted, 500u);
}

}  // namespace
}  // namespace qpi
