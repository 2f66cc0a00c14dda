#include "ladder.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "estimators/feedback_cache.h"
#include "estimators/group_count.h"
#include "estimators/join_once.h"
#include "estimators/pipeline_join.h"
#include "exec/compiler.h"
#include "ola/ola_collector.h"
#include "progress/accuracy_audit.h"
#include "progress/ensemble.h"
#include "progress/gnm.h"
#include "progress/trace_ring.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "stats/hash_histogram.h"

namespace qpibench {

using qpi::Status;

namespace {

constexpr int kReps = 3;
constexpr size_t kMaxStatements = 8;
constexpr size_t kKeyBatch = 1024;

/// A compiled plan with its own context, driven the way the server's
/// worker drives a query: Open, then NextBatch to the end, then Close.
struct Compiled {
  std::unique_ptr<qpi::ExecContext> ctx;
  qpi::OperatorPtr root;
};

Status Compile(qpi::Catalog* catalog, qpi::PlanNode* plan, size_t workers,
               qpi::EstimationMode mode, Compiled* out) {
  out->ctx = std::make_unique<qpi::ExecContext>();
  out->ctx->catalog = catalog;
  out->ctx->exec_workers = workers;
  out->ctx->mode = mode;
  return qpi::CompilePlan(plan, out->ctx.get(), &out->root);
}

Status PlanSql(qpi::Catalog* catalog, const std::string& sql,
               qpi::PlanNodePtr* out) {
  return qpi::SqlPlanner(catalog).PlanQuery(sql, out);
}

/// Drive `c` to the end. Spans: `open_name` covers Open until the first
/// batch is out, `rest_name` the first batch until Close returns (either
/// may be empty to skip). Returns rows emitted.
uint64_t Drive(Compiled* c, Tracer* tracer, const std::string& open_name,
               const std::string& rest_name) {
  qpi::ExecContext* ctx = c->ctx.get();
  if (!open_name.empty()) tracer->Begin(open_name);
  if (!c->root->Open(ctx).ok()) {
    if (!open_name.empty()) tracer->End();
    return 0;
  }
  ctx->BeginExecution();
  qpi::RowBatch batch(ctx->batch_size);
  uint64_t rows = 0;
  bool more = c->root->NextBatch(&batch);
  rows += batch.size();
  if (!open_name.empty()) tracer->End();
  if (!rest_name.empty()) tracer->Begin(rest_name);
  while (more) {
    more = c->root->NextBatch(&batch);
    rows += batch.size();
  }
  c->root->Close();
  ctx->EndExecution();
  if (!rest_name.empty()) tracer->End(rows);
  return rows;
}

/// Compile + run a plan under one span called `name` (units = `units`).
Status TimedRun(qpi::Catalog* catalog, qpi::PlanNode* plan, size_t workers,
                qpi::EstimationMode mode, Tracer* tracer,
                const std::string& name, uint64_t units) {
  Compiled c;
  QPI_RETURN_NOT_OK(Compile(catalog, plan, workers, mode, &c));
  tracer->Begin(name);
  Drive(&c, tracer, "", "");
  tracer->End(units);
  return Status::OK();
}

double MedianNsPerUnit(const Tracer& tracer, const std::string& name) {
  return Median(tracer.PerUnitMs(name)) * 1e6;
}

std::vector<const qpi::Row*> Rows(const qpi::Table& table) {
  std::vector<const qpi::Row*> out;
  out.reserve(table.num_rows());
  for (size_t b = 0; b < table.num_blocks(); ++b) {
    const qpi::Block& block = table.block(b);
    for (size_t i = 0; i < block.num_rows(); ++i) out.push_back(&block.row(i));
  }
  return out;
}

/// The server worker's publish hook (TracePublisher) re-assembled from
/// public calls so each step gets its own span; optionally feeds OLA.
class TimedPublisher : public qpi::TickObserver {
 public:
  TimedPublisher(qpi::GnmAccountant* accountant, qpi::ExecContext* ctx,
                 qpi::EstimatorEnsemble* ensemble, qpi::TraceRing* ring,
                 qpi::OlaCollector* ola, Tracer* tracer)
      : accountant_(accountant),
        ctx_(ctx),
        ensemble_(ensemble),
        ring_(ring),
        ola_(ola),
        tracer_(tracer) {}

  void OnTick(uint64_t n) override {
    ticks_ += n;
    if (ticks_ - last_ < kInterval) return;
    last_ = ticks_;
    {
      ScopedSpan span(tracer_, "progress.ensemble_observe");
      ensemble_->Observe(ticks_);
    }
    if (ola_ != nullptr) {
      ScopedSpan span(tracer_, "ola.publish");
      ola_->OnPublish(ticks_);
    }
    qpi::GnmSnapshot snap;
    {
      ScopedSpan span(tracer_, "progress.snapshot");
      snap = accountant_->SnapshotWithConfidence(ticks_, ctx_->confidence,
                                                 ctx_->ci_combine);
    }
    ScopedSpan span(tracer_, "progress.trace_record");
    qpi::TraceSample sample =
        qpi::MakeTraceSample(*accountant_, snap, ctx_->phase());
    ensemble_->FillTraceSample(&sample);
    ring_->Record(std::move(sample));
  }

  uint64_t ticks() const { return ticks_; }

 private:
  static constexpr uint64_t kInterval = 1024;  // the server's default
  qpi::GnmAccountant* accountant_;
  qpi::ExecContext* ctx_;
  qpi::EstimatorEnsemble* ensemble_;
  qpi::TraceRing* ring_;
  qpi::OlaCollector* ola_;
  Tracer* tracer_;
  uint64_t ticks_ = 0;
  uint64_t last_ = 0;
};

/// One statement under the full progress stack (accountant, ensemble,
/// trace ring, audit), optionally with OLA. Returns C at the end.
Status ProgressRun(qpi::Catalog* catalog, const std::string& sql,
                   const qpi::OlaOptions* ola, Tracer* tracer,
                   double* final_calls, uint64_t* draws) {
  qpi::PlanNodePtr plan;
  QPI_RETURN_NOT_OK(PlanSql(catalog, sql, &plan));
  Compiled c;
  QPI_RETURN_NOT_OK(
      Compile(catalog, plan.get(), 1, qpi::EstimationMode::kOnce, &c));
  std::unique_ptr<qpi::OlaCollector> collector;
  qpi::OlaSnapshotSlot ola_slot;
  if (ola != nullptr) {
    c.ctx->ola = *ola;
    c.ctx->ola.enabled = true;
    QPI_RETURN_NOT_OK(
        qpi::AttachOla(c.root.get(), c.ctx.get(), &ola_slot, &collector));
  }
  qpi::GnmAccountant accountant(c.root.get());
  qpi::FeedbackCache cache;
  qpi::EstimatorEnsemble ensemble(&accountant, c.ctx.get(), &cache);
  accountant.AttachEnsemble(&ensemble);
  qpi::TraceRing ring(qpi::TraceRing::kDefaultCapacity);
  std::vector<std::string> labels;
  for (const qpi::Operator* op : accountant.operators()) {
    labels.push_back(op->label());
  }
  TimedPublisher publisher(&accountant, c.ctx.get(), &ensemble, &ring,
                           collector.get(), tracer);
  c.ctx->AddTickObserver(&publisher);
  Drive(&c, tracer, "", "");
  c.ctx->RemoveTickObserver(&publisher);
  ensemble.Observe(publisher.ticks());
  qpi::GnmSnapshot final_snap = accountant.SnapshotWithConfidence(
      publisher.ticks(), c.ctx->confidence, c.ctx->ci_combine);
  *final_calls = final_snap.current_calls;
  if (collector != nullptr) {
    collector->PublishFinal(publisher.ticks());
    *draws = collector->Snapshot(publisher.ticks()).draws;
    return Status::OK();
  }
  qpi::TraceSample terminal =
      qpi::MakeTraceSample(accountant, final_snap, c.ctx->phase());
  ensemble.FillTraceSample(&terminal);
  ring.RecordTerminal(std::move(terminal));
  // Only the audit's cost is measured; the served path publishes it.
  ScopedSpan span(tracer, "progress.audit");
  qpi::ComputeAccuracyReport(ring.Samples(), labels);
  return Status::OK();
}

Status SqlLadder(WorkloadData* data, Tracer* tracer) {
  size_t n = std::min(data->statements.size(), kMaxStatements);
  for (int rep = 0; rep < kReps * 4; ++rep) {
    for (size_t s = 0; s < n; ++s) {
      const std::string& sql = data->statements[s].sql;
      qpi::SelectStatement parsed;
      {
        ScopedSpan span(tracer, "sql.parse");
        QPI_RETURN_NOT_OK(qpi::ParseSql(sql, &parsed));
      }
      qpi::PlanNodePtr plan;
      {
        ScopedSpan span(tracer, "sql.plan");
        QPI_RETURN_NOT_OK(
            qpi::SqlPlanner(&data->catalog).Plan(parsed, &plan));
      }
      Compiled c;
      c.ctx = std::make_unique<qpi::ExecContext>();
      c.ctx->catalog = &data->catalog;
      ScopedSpan span(tracer, "exec.compile");
      QPI_RETURN_NOT_OK(qpi::CompilePlan(plan.get(), c.ctx.get(), &c.root));
    }
  }
  return Status::OK();
}

Status ExecLadder(WorkloadData* data, size_t workers, Tracer* tracer) {
  qpi::Catalog* catalog = &data->catalog;
  const uint64_t lineitem = catalog->Find("lineitem")->num_rows();
  auto filter = [] {
    return qpi::FilterPlan(qpi::ScanPlan("lineitem"),
                           qpi::MakeCompare("quantity", qpi::CompareOp::kLe,
                                            qpi::Value(int64_t{5})));
  };
  const auto once = qpi::EstimationMode::kOnce;
  for (int rep = 0; rep < kReps; ++rep) {
    qpi::PlanNodePtr scan = qpi::ScanPlan("lineitem");
    QPI_RETURN_NOT_OK(TimedRun(catalog, scan.get(), 1, once, tracer,
                               "exec.scan", lineitem));
    qpi::PlanNodePtr filtered = filter();
    QPI_RETURN_NOT_OK(TimedRun(catalog, filtered.get(), 1, once, tracer,
                               "exec.scan_filter", lineitem));
    qpi::PlanNodePtr agg = qpi::HashAggregatePlan(
        qpi::ScanPlan("lineitem"), {"quantity"},
        {qpi::AggregateSpec{qpi::AggregateSpec::Kind::kCountStar, ""},
         qpi::AggregateSpec{qpi::AggregateSpec::Kind::kSum,
                            "extendedprice"}});
    QPI_RETURN_NOT_OK(TimedRun(catalog, agg.get(), 1, once, tracer,
                               "exec.scan_agg", lineitem));
    // The workload's join: orders build, filtered lineitem probe.
    for (size_t w : {size_t{1}, workers}) {
      qpi::PlanNodePtr join =
          qpi::HashJoinPlan(qpi::ScanPlan("orders"), filter(),
                            "orders.orderkey", "lineitem.orderkey");
      Compiled c;
      QPI_RETURN_NOT_OK(Compile(catalog, join.get(), w, once, &c));
      std::string suffix = w == 1 ? ".w1" : ".wN";
      Drive(&c, tracer, "exec.join_build_probe" + suffix,
            "exec.join_phase" + suffix);
    }
    // The workload's own statements, whole, at 1 and N workers.
    size_t n = std::min(data->statements.size(), kMaxStatements);
    for (size_t s = 0; s < n; ++s) {
      for (size_t w : {size_t{1}, workers}) {
        qpi::PlanNodePtr plan;
        QPI_RETURN_NOT_OK(PlanSql(catalog, data->statements[s].sql, &plan));
        QPI_RETURN_NOT_OK(TimedRun(catalog, plan.get(), w, once, tracer,
                                   w == 1 ? "exec.query.w1" : "exec.query.wN",
                                   1));
      }
    }
  }
  // Estimation overhead: kOnce against kNone on the first statement,
  // paired and alternating which side runs first.
  for (int rep = 0; rep < kReps + 1; ++rep) {
    for (int side = 0; side < 2; ++side) {
      bool with = (side == 0) == (rep % 2 == 0);
      qpi::PlanNodePtr plan;
      QPI_RETURN_NOT_OK(PlanSql(catalog, data->statements[0].sql, &plan));
      QPI_RETURN_NOT_OK(TimedRun(
          catalog, plan.get(), 1,
          with ? qpi::EstimationMode::kOnce : qpi::EstimationMode::kNone,
          tracer, with ? "exec.estimation_on" : "exec.estimation_off", 1));
    }
  }
  return Status::OK();
}

Status EstimatorLadder(WorkloadData* data, Tracer* tracer) {
  qpi::Catalog* catalog = &data->catalog;
  qpi::TablePtr lineitem = catalog->Find("lineitem");
  qpi::TablePtr orders = catalog->Find("orders");
  qpi::TablePtr customer = catalog->Find("customer");
  std::vector<const qpi::Row*> l_rows = Rows(*lineitem);
  std::vector<const qpi::Row*> o_rows = Rows(*orders);
  std::vector<const qpi::Row*> c_rows = Rows(*customer);
  const size_t l_key = *lineitem->schema().FindColumn("orderkey");
  const size_t o_key = *orders->schema().FindColumn("orderkey");
  const size_t o_cust = *orders->schema().FindColumn("custkey");
  const size_t c_key = *customer->schema().FindColumn("custkey");
  const size_t c_seg = *customer->schema().FindColumn("mktsegment");

  std::vector<uint64_t> probe_keys;
  probe_keys.reserve(l_rows.size());
  for (const qpi::Row* r : l_rows) {
    probe_keys.push_back(static_cast<uint64_t>((*r)[l_key].AsInt64()));
  }
  // The q8 grouping key of each lineitem row: its customer's segment.
  std::unordered_map<int64_t, int64_t> segment_of_cust;
  for (const qpi::Row* r : c_rows) {
    segment_of_cust[(*r)[c_key].AsInt64()] = (*r)[c_seg].AsInt64();
  }
  std::unordered_map<int64_t, int64_t> cust_of_order;
  for (const qpi::Row* r : o_rows) {
    cust_of_order[(*r)[o_key].AsInt64()] = (*r)[o_cust].AsInt64();
  }
  std::vector<uint64_t> group_keys;
  group_keys.reserve(probe_keys.size());
  for (uint64_t k : probe_keys) {
    group_keys.push_back(static_cast<uint64_t>(
        segment_of_cust[cust_of_order[static_cast<int64_t>(k)]]));
  }
  const double n = static_cast<double>(probe_keys.size());

  for (int rep = 0; rep < kReps; ++rep) {
    {
      qpi::HashHistogram hist;
      ScopedSpan span(tracer, "stats.histogram_incr", probe_keys.size());
      for (uint64_t k : probe_keys) hist.Increment(k);
    }
    {
      qpi::OnceBinaryJoinEstimator est([n] { return n; });
      for (const qpi::Row* r : o_rows) {
        est.ObserveBuildKey(static_cast<uint64_t>((*r)[o_key].AsInt64()));
      }
      est.BuildComplete();
      ScopedSpan span(tracer, "estimators.once_probe", probe_keys.size());
      for (size_t i = 0; i < probe_keys.size(); i += kKeyBatch) {
        est.ObserveProbeKeys(probe_keys.data() + i,
                             std::min(kKeyBatch, probe_keys.size() - i));
      }
    }
    {
      // The q8 chain: lineitem drives orders (same attribute), whose
      // custkey drives customer (the paper's Case 2 push-down).
      std::vector<qpi::PipelineJoinEstimator::JoinSpec> specs(2);
      specs[0].build_schema = orders->schema();
      specs[0].build_key_index = o_key;
      specs[0].probe_attr = lineitem->schema().column(l_key);
      specs[1].build_schema = customer->schema();
      specs[1].build_key_index = c_key;
      specs[1].probe_attr = orders->schema().column(o_cust);
      qpi::PipelineJoinEstimator est(lineitem->schema(), specs,
                                     [n] { return n; });
      for (const qpi::Row* r : c_rows) est.ObserveBuildRow(1, *r);
      est.BuildComplete(1);
      for (const qpi::Row* r : o_rows) est.ObserveBuildRow(0, *r);
      est.BuildComplete(0);
      ScopedSpan span(tracer, "estimators.pipeline_observe", l_rows.size());
      for (const qpi::Row* r : l_rows) est.ObserveDriverRow(*r);
    }
    {
      qpi::AdaptiveGroupEstimator est([n] { return n; });
      ScopedSpan span(tracer, "estimators.group_observe", group_keys.size());
      for (uint64_t k : group_keys) est.Observe(k);
    }
  }
  return Status::OK();
}

Status ProgressAndOlaLadder(WorkloadData* data, Tracer* tracer,
                            Metrics* metrics) {
  qpi::Catalog* catalog = &data->catalog;
  size_t n = std::min(data->statements.size(), kMaxStatements);
  double calls = 0;
  uint64_t draws = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t s = 0; s < n; ++s) {
      QPI_RETURN_NOT_OK(ProgressRun(catalog, data->statements[s].sql,
                                    nullptr, tracer, &calls, &draws));
    }
  }
  // OLA: the exact run's C, then the early-stopped run's C and draws.
  double exact_calls = 0;
  QPI_RETURN_NOT_OK(
      ProgressRun(catalog, kOlaSql, nullptr, tracer, &exact_calls, &draws));
  qpi::OlaOptions ola;
  ola.has_rel_target = true;
  ola.rel_target = kOlaRelTarget;
  std::vector<double> stop_calls;
  std::vector<double> stop_draws;
  for (int rep = 0; rep < kReps; ++rep) {
    ScopedSpan span(tracer, "ola.query");
    QPI_RETURN_NOT_OK(
        ProgressRun(catalog, kOlaSql, &ola, tracer, &calls, &draws));
    stop_calls.push_back(calls);
    stop_draws.push_back(static_cast<double>(draws));
  }
  Put(metrics, "ola.draws_at_stop", Median(stop_draws), "count",
      stop_draws.size());
  Put(metrics, "ola.calls_frac_at_stop", Median(stop_calls) / exact_calls,
      "ratio", stop_calls.size());

  // The fold itself: feed the OLA statement's join output, batch by batch,
  // straight into a fresh collector's intake.
  qpi::PlanNodePtr join_plan;
  QPI_RETURN_NOT_OK(PlanSql(catalog,
                            "SELECT * FROM orders JOIN lineitem "
                            "ON orders.orderkey = lineitem.orderkey",
                            &join_plan));
  Compiled join;
  QPI_RETURN_NOT_OK(Compile(catalog, join_plan.get(), 1,
                            qpi::EstimationMode::kOnce, &join));
  std::vector<qpi::RowBatch> batches;
  QPI_RETURN_NOT_OK(join.root->Open(join.ctx.get()));
  join.ctx->BeginExecution();
  while (batches.size() < 64) {
    qpi::RowBatch batch(join.ctx->batch_size);
    if (!join.root->NextBatch(&batch)) break;
    batches.push_back(std::move(batch));
  }
  join.ctx->RequestCancel();
  qpi::RowBatch drain(join.ctx->batch_size);
  while (join.root->NextBatch(&drain)) {
  }
  join.root->Close();
  join.ctx->EndExecution();
  uint64_t rows = 0;
  for (const qpi::RowBatch& b : batches) rows += b.size();
  for (int rep = 0; rep < kReps; ++rep) {
    qpi::PlanNodePtr plan;
    QPI_RETURN_NOT_OK(PlanSql(catalog, kOlaSql, &plan));
    Compiled c;
    QPI_RETURN_NOT_OK(
        Compile(catalog, plan.get(), 1, qpi::EstimationMode::kOnce, &c));
    c.ctx->ola.enabled = true;
    qpi::OlaSnapshotSlot slot;
    std::unique_ptr<qpi::OlaCollector> collector;
    QPI_RETURN_NOT_OK(
        qpi::AttachOla(c.root.get(), c.ctx.get(), &slot, &collector));
    ScopedSpan span(tracer, "ola.fold", rows);
    for (const qpi::RowBatch& b : batches) collector->OnIntakeBatch(b);
  }
  return Status::OK();
}

}  // namespace

Status RunLadder(WorkloadData* data, size_t workers, Tracer* tracer,
                 Metrics* metrics) {
  QPI_RETURN_NOT_OK(SqlLadder(data, tracer));
  QPI_RETURN_NOT_OK(ExecLadder(data, workers, tracer));
  QPI_RETURN_NOT_OK(EstimatorLadder(data, tracer));
  QPI_RETURN_NOT_OK(ProgressAndOlaLadder(data, tracer, metrics));

  // Each metric is the median over its spans of time per work unit.
  auto put = [&](const std::string& metric, const std::string& span,
                 const std::string& unit, double scale) {
    std::vector<double> per_unit = tracer->PerUnitMs(span);
    Put(metrics, metric, Median(per_unit) * scale, unit, per_unit.size());
  };
  put("sql.parse_us", "sql.parse", "us", 1e3);
  put("sql.plan_us", "sql.plan", "us", 1e3);
  put("exec.compile_us", "exec.compile", "us", 1e3);
  put("exec.scan_ns_per_row", "exec.scan", "ns", 1e6);
  const double scan = MedianNsPerUnit(*tracer, "exec.scan");
  const size_t reps = tracer->PerUnitMs("exec.scan").size();
  Put(metrics, "exec.filter_ns_per_row",
      MedianNsPerUnit(*tracer, "exec.scan_filter") - scan, "ns", reps);
  Put(metrics, "exec.agg_ns_per_row",
      MedianNsPerUnit(*tracer, "exec.scan_agg") - scan, "ns", reps);
  put("exec.join_build_probe_ms", "exec.join_build_probe.w1", "ms", 1);
  const std::vector<double> w1 = tracer->DurationsMs("exec.join_phase.w1");
  const std::vector<double> wn = tracer->DurationsMs("exec.join_phase.wN");
  Put(metrics, "exec.join_phase_ms.w1", Median(w1), "ms", w1.size());
  Put(metrics, "exec.join_phase_ms.wN", Median(wn), "ms", wn.size());
  Put(metrics, "exec.join_speedup", Median(w1) / Median(wn), "ratio",
      wn.size());
  put("exec.query_ms.w1", "exec.query.w1", "ms", 1);
  put("exec.query_ms.wN", "exec.query.wN", "ms", 1);
  // Spans are recorded in pair order, so the i-th on/off spans are a pair.
  const std::vector<double> on = tracer->DurationsMs("exec.estimation_on");
  const std::vector<double> off = tracer->DurationsMs("exec.estimation_off");
  std::vector<double> ratio;
  for (size_t i = 0; i < on.size() && i < off.size(); ++i) {
    ratio.push_back(on[i] / off[i]);
  }
  Put(metrics, "exec.estimation_overhead_pct", (Median(ratio) - 1.0) * 100.0,
      "%", ratio.size());
  put("estimators.once_probe_ns_per_key", "estimators.once_probe", "ns", 1e6);
  put("estimators.pipeline_observe_ns_per_row",
      "estimators.pipeline_observe", "ns", 1e6);
  put("estimators.group_observe_ns_per_row", "estimators.group_observe",
      "ns", 1e6);
  put("stats.histogram_incr_ns", "stats.histogram_incr", "ns", 1e6);
  put("progress.snapshot_us", "progress.snapshot", "us", 1e3);
  put("progress.ensemble_observe_us", "progress.ensemble_observe", "us", 1e3);
  put("progress.trace_record_ns", "progress.trace_record", "ns", 1e6);
  put("progress.audit_us", "progress.audit", "us", 1e3);
  put("ola.fold_ns_per_row", "ola.fold", "ns", 1e6);
  return Status::OK();
}

}  // namespace qpibench
