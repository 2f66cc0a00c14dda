// Table 3 — runtime overhead of the estimation framework on binary joins:
// lineitem ⋈ orders on orderkey (PK-FK), hash join and sort-merge join,
// with estimation disabled vs enabled at 1% and 10% samples, across scale
// factors. The paper's claim: overhead is a small fraction of response time
// because estimation rides the preprocessing passes. (Our engine is fully
// in-memory, so the relative overhead measured here is an upper bound on
// the paper's I/O-dominated setting.)

#include <benchmark/benchmark.h>

#include <map>

#include "bench/bench_util.h"
#include "bench/overhead_json.h"

namespace qpi {
namespace {

struct Dataset {
  TablePtr orders;
  TablePtr lineitem;
};

const Dataset& GetDataset(int sf_permille) {
  static std::map<int, Dataset> cache;
  auto it = cache.find(sf_permille);
  if (it == cache.end()) {
    double sf = sf_permille / 1000.0;
    TpchLikeGenerator gen(7);
    Dataset ds;
    ds.orders = gen.MakeOrders(sf);
    ds.lineitem = gen.MakeLineitem(sf);
    it = cache.emplace(sf_permille, std::move(ds)).first;
  }
  return it->second;
}

/// state.range(0) = SF in permille; state.range(1) = sample size in
/// percent; state.range(2) = estimation on/off; state.range(3) = batch
/// size (1 = one tick per tuple). The scan order (and
/// thus the sort/partition cost) is held identical within a (SF, sample,
/// batch) triple so the on/off delta isolates the estimation framework's
/// cost, as in the paper's Table 3.
void RunJoin(benchmark::State& state, PlanKind kind) {
  const Dataset& ds = GetDataset(static_cast<int>(state.range(0)));
  int sample_pct = static_cast<int>(state.range(1));
  bool estimation = state.range(2) != 0;
  size_t batch_size = static_cast<size_t>(state.range(3));

  uint64_t rows_out = 0;
  for (auto _ : state) {
    state.PauseTiming();
    bench::Workbench wb;
    wb.Add(ds.orders);
    wb.Add(ds.lineitem);
    wb.ctx.mode = estimation ? EstimationMode::kOnce : EstimationMode::kNone;
    wb.ctx.sample_fraction = sample_pct / 100.0;
    wb.ctx.batch_size = batch_size;
    // Identical scan order for on/off runs: the sampler consumes the same
    // deterministic RNG stream.
    wb.ctx.rng = Pcg32(0xbe9cbe9cULL);
    PlanNodePtr plan =
        kind == PlanKind::kHashJoin
            ? HashJoinPlan(ScanPlan("orders"), ScanPlan("lineitem"),
                           "orders.orderkey", "lineitem.orderkey")
            : MergeJoinPlan(ScanPlan("orders"), ScanPlan("lineitem"),
                            "orders.orderkey", "lineitem.orderkey");
    OperatorPtr root = wb.Compile(plan.get());
    state.ResumeTiming();

    uint64_t rows = 0;
    Status s = QueryExecutor::Run(root.get(), &wb.ctx, nullptr, &rows);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    rows_out = rows;
  }
  state.counters["rows_out"] = static_cast<double>(rows_out);
}

void BM_HashJoin(benchmark::State& state) {
  RunJoin(state, PlanKind::kHashJoin);
}
void BM_MergeJoin(benchmark::State& state) {
  RunJoin(state, PlanKind::kMergeJoin);
}

void JoinArgs(benchmark::internal::Benchmark* b) {
  for (int sf : {20, 50, 100}) {
    for (int sample : {1, 10}) {
      for (int est : {0, 1}) {
        for (int batch : {1, 64, 256, 1024}) b->Args({sf, sample, est, batch});
      }
    }
  }
  b->Unit(benchmark::kMillisecond);
  b->ArgNames({"SFpermille", "sample_pct", "estimation", "batch"});
  // Three repetitions per configuration; the JSON recorder keeps the
  // minimum, which filters scheduler noise out of the paired overheads.
  b->Repetitions(3);
}

BENCHMARK(BM_HashJoin)->Apply(JoinArgs);
BENCHMARK(BM_MergeJoin)->Apply(JoinArgs);

}  // namespace
}  // namespace qpi

int main(int argc, char** argv) {
  return qpi::bench::RunOverheadBenchmarks(argc, argv, "BENCH_overhead.json");
}
