// Steady-state allocation check for the join and parallel-scan data
// path: once warm, a join chunk or a morsel allocates nothing per row.
// This binary replaces the global operator new with a counting one, runs
// the same query at two input sizes 4x apart, and compares the
// allocations made while (a) the partition-parallel join phase drains,
// (b) the same join phase drains inline at one worker and (c) a
// morsel-parallel filter/project scan drains.
//
// What may still allocate is bounded by constants, not by rows: the
// recycled output-batch pool grows to the peak number of batches in
// flight (at most join window × (ready cap + 1) + 1 batches of
// batch_size rows), and each scheduler task — one per partition, per
// resumed chunk and per morsel — costs about one allocation. The inline
// join at one worker has no pool and no tasks: it writes into the
// caller's batch.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "common/task_scheduler.h"
#include "datagen/table_builder.h"
#include "exec/compiler.h"
#include "exec/grace_hash_join.h"
#include "storage/catalog.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace qpi {
namespace {

constexpr size_t kWorkers = 4;
constexpr size_t kBatchRows = 16;
constexpr size_t kPartitions = 16;
constexpr size_t kMorselRows = 1024;

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// build: `build_rows` unique keys; probe: 4 × build_rows rows with keys
/// drawn from the build domain, so every probe row matches once. Both
/// carry a 24-char string payload (heap-allocated in a Value).
void BuildCatalog(Catalog* catalog, uint64_t build_rows) {
  TableBuilder build("r");
  build.AddColumn("k", std::make_unique<SequentialSpec>(0))
      .AddColumn("pay", std::make_unique<RandomStringSpec>(24));
  ASSERT_TRUE(catalog->Register(build.Build(build_rows, 1)).ok());
  TableBuilder probe("s");
  probe
      .AddColumn("k", std::make_unique<UniformIntSpec>(
                          0, static_cast<int64_t>(build_rows) - 1))
      .AddColumn("v", std::make_unique<UniformIntSpec>(1, 100))
      .AddColumn("pay", std::make_unique<RandomStringSpec>(24));
  ASSERT_TRUE(catalog->Register(probe.Build(4 * build_rows, 2)).ok());
  ASSERT_TRUE(catalog->Analyze("r").ok());
  ASSERT_TRUE(catalog->Analyze("s").ok());
}

struct Measured {
  uint64_t rows = 0;
  uint64_t allocations = 0;
  uint64_t subtasks = 0;  ///< morsel-lane tasks run over the same window
};

void Configure(ExecContext* ctx, Catalog* catalog, TaskScheduler* sched,
               size_t workers = kWorkers) {
  ctx->catalog = catalog;
  ctx->mode = EstimationMode::kOnce;
  ctx->batch_size = kBatchRows;
  ctx->exec_workers = workers;
  ctx->morsel_rows = kMorselRows;
  ctx->hash_join_partitions = kPartitions;
  ctx->AttachScheduler(sched, 1);
}

/// Allocations while the join phase drains (partitioning excluded).
Measured JoinPhase(uint64_t build_rows, TaskScheduler* sched,
                   size_t workers) {
  Catalog catalog;
  BuildCatalog(&catalog, build_rows);
  ExecContext ctx;
  Configure(&ctx, &catalog, sched, workers);
  PlanNodePtr plan =
      HashJoinPlan(ScanPlan("r"), ScanPlan("s"), "r.k", "s.k");
  OperatorPtr root;
  EXPECT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
  auto* join = dynamic_cast<GraceHashJoinOp*>(root.get());
  EXPECT_NE(join, nullptr);
  Measured m;
  if (join == nullptr) return m;
  EXPECT_TRUE(root->Open(&ctx).ok());
  join->PreparePartitions();
  RowBatch batch(kBatchRows);
  uint64_t tasks_before = sched->tasks_executed(TaskLane::kSubtask);
  uint64_t before = Allocations();
  while (root->NextBatch(&batch)) m.rows += batch.size();
  m.allocations = Allocations() - before;
  m.subtasks = sched->tasks_executed(TaskLane::kSubtask) - tasks_before;
  root->Close();
  return m;
}

/// Allocations while a fused filter → project scan drains.
Measured MorselScan(uint64_t build_rows, TaskScheduler* sched) {
  Catalog catalog;
  BuildCatalog(&catalog, build_rows);
  ExecContext ctx;
  Configure(&ctx, &catalog, sched);
  PlanNodePtr plan = ProjectPlan(
      FilterPlan(ScanPlan("s"),
                 MakeCompare("v", CompareOp::kLe, Value(int64_t{90}))),
      {"pay", "k"});
  OperatorPtr root;
  EXPECT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
  EXPECT_TRUE(root->Open(&ctx).ok());
  RowBatch batch(kBatchRows);
  Measured m;
  uint64_t tasks_before = sched->tasks_executed(TaskLane::kSubtask);
  uint64_t before = Allocations();
  while (root->NextBatch(&batch)) m.rows += batch.size();
  m.allocations = Allocations() - before;
  m.subtasks = sched->tasks_executed(TaskLane::kSubtask) - tasks_before;
  root->Close();
  return m;
}

TEST(ParallelAlloc, JoinPhaseDoesNotAllocatePerRow) {
  TaskScheduler sched(kWorkers);
  Measured small = JoinPhase(4000, &sched, kWorkers);
  Measured large = JoinPhase(16000, &sched, kWorkers);
  ASSERT_EQ(small.rows, 16000u);
  ASSERT_EQ(large.rows, 64000u);
  // Both sizes fill many batches, so the join phase runs as subtasks.
  EXPECT_GT(small.subtasks, 0u);
  EXPECT_GT(large.subtasks, 0u);
  uint64_t growth = large.allocations > small.allocations
                        ? large.allocations - small.allocations
                        : 0;
  RecordProperty("small_allocations", std::to_string(small.allocations));
  RecordProperty("large_allocations", std::to_string(large.allocations));
  // Batch pool bound: window (2 × workers + 2) partitions, each with up to
  // kJoinReadyCap (16) ready batches plus the one it fills, plus the
  // batch being merged. A batch costs its slot array plus, per row slot,
  // the row vector and its two heap strings.
  const uint64_t pool_bound =
      ((2 * kWorkers + 2) * (16 + 1) + 1) * (1 + kBatchRows * 3);
  // Per-batch bookkeeping stays under half an allocation per batch: a
  // stalled chunk resumes after 8 batches drain (one task, two
  // allocations), and a ready queue takes a node per 64 batches. A
  // per-row allocation would add 3 × 48000.
  const uint64_t resume_bound = large.rows / kBatchRows / 2;
  EXPECT_LE(growth, pool_bound + resume_bound)
      << "small " << small.allocations << " large " << large.allocations;
}

TEST(ParallelAlloc, InlineJoinPhaseDoesNotAllocatePerRow) {
  // One worker: the join phase runs inline on the driving thread, so the
  // attached fleet must stay idle.
  TaskScheduler sched(kWorkers);
  uint64_t tasks_before = sched.tasks_executed(TaskLane::kSubtask);
  Measured small = JoinPhase(4000, &sched, 1);
  Measured large = JoinPhase(16000, &sched, 1);
  ASSERT_EQ(small.rows, 16000u);
  ASSERT_EQ(large.rows, 64000u);
  EXPECT_EQ(sched.tasks_executed(TaskLane::kSubtask), tasks_before);
  uint64_t growth = large.allocations > small.allocations
                        ? large.allocations - small.allocations
                        : 0;
  RecordProperty("small_allocations", std::to_string(small.allocations));
  RecordProperty("large_allocations", std::to_string(large.allocations));
  // Both sizes build the same number of partition indexes (two arrays
  // each) and fill the same caller batch; a per-row allocation would add
  // 3 × 48000.
  EXPECT_LE(growth, 64u)
      << "small " << small.allocations << " large " << large.allocations;
}

TEST(ParallelAlloc, MorselMergeDoesNotAllocatePerRow) {
  TaskScheduler sched(kWorkers);
  Measured small = MorselScan(4000, &sched);
  Measured large = MorselScan(16000, &sched);
  ASSERT_GT(large.rows, 3 * small.rows);
  // Both tables span many morsels, so the scans fan out.
  EXPECT_GT(small.subtasks, 0u);
  EXPECT_GT(large.subtasks, 0u);
  uint64_t growth = large.allocations > small.allocations
                        ? large.allocations - small.allocations
                        : 0;
  RecordProperty("small_allocations", std::to_string(small.allocations));
  RecordProperty("large_allocations", std::to_string(large.allocations));
  // The only per-unit cost left is the scheduler task of each morsel.
  auto morsels = [](uint64_t rows) {
    return (rows + kMorselRows - 1) / kMorselRows;
  };
  const uint64_t extra_morsels = morsels(4 * 16000) - morsels(4 * 4000);
  EXPECT_LE(growth, 2 * extra_morsels + 64)
      << "small " << small.allocations << " large " << large.allocations;
}

}  // namespace
}  // namespace qpi
