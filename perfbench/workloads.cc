#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "datagen/table_builder.h"
#include "datagen/tpch_like.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "sql/planner.h"

namespace qpibench {

using qpi::Status;

const char kOlaSql[] =
    "SELECT COUNT(*), SUM(totalprice) FROM orders JOIN lineitem "
    "ON orders.orderkey = lineitem.orderkey";

namespace {

// The Fig-8 / TPC-H-Q8 shape: a filtered lineitem driver probing orders
// then customer, grouped by market segment.
const char kQ8Sql[] =
    "SELECT customer.mktsegment, COUNT(*), SUM(lineitem.extendedprice) "
    "FROM lineitem JOIN orders ON orders.orderkey = lineitem.orderkey "
    "JOIN customer ON customer.custkey = orders.custkey "
    "WHERE lineitem.quantity <= 5 GROUP BY customer.mktsegment";

// Literal variants per storm template. Each template's literals are
// stratified over its range (variant i sits in the i-th of kStormVariants
// equal slices, at a seeded offset inside it), so every seed draws the
// same mix of selectivities and only the exact values move.
constexpr int kStormVariants = 16;

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v(3);
    v[0].name = "q8_pipeline";
    v[0].open_loop = false;
    v[0].rate_qps = 1.6;
    v[0].cadence_ms = 10;
    v[0].connections = 2;
    v[0].watchers = 2;
    v[0].scale_factor = 0.05;
    v[1].name = "short_query_storm";
    v[1].open_loop = true;
    v[1].rate_qps = 400;
    v[1].cadence_ms = 10;
    v[1].connections = 4;
    v[1].watchers = 1;
    v[1].scale_factor = 0.01;
    v[2].name = "ola_early_stop";
    v[2].open_loop = false;
    v[2].rate_qps = 6;
    v[2].cadence_ms = 2;
    v[2].connections = 1;
    v[2].watchers = 1;
    v[2].ola_rel_target = kOlaRelTarget;
    v[2].scale_factor = 0.05;
    return v;
  }();
  return specs;
}

// lineitem for q8: the stock orderkey/price columns with quantity drawn
// Zipf(2) — values 1..5 carry ~90% of the mass, so `quantity <= 5` passes
// far more rows than the optimizer's uniform-range guess.
qpi::TablePtr MakeSkewedLineitem(uint64_t num_orders, uint64_t seed) {
  qpi::TableBuilder builder("lineitem");
  builder
      .AddColumn("orderkey", std::make_unique<qpi::UniformIntSpec>(
                                 1, static_cast<int64_t>(num_orders)))
      .AddColumn("quantity", std::make_unique<qpi::ZipfSpec>(2.0, 50, 0))
      .AddColumn("extendedprice",
                 std::make_unique<qpi::MoneySpec>(1.0, 100000.0));
  return builder.Build(num_orders * 4, seed);
}

Status AnalyzeAll(qpi::Catalog* catalog) {
  for (const std::string& name : catalog->TableNames()) {
    QPI_RETURN_NOT_OK(catalog->Analyze(name));
  }
  return Status::OK();
}

std::vector<std::string> StormStatements(uint64_t seed, double sf) {
  qpi::Pcg32 rng(seed ^ 0x73746f726dULL);
  const double orders =
      static_cast<double>(qpi::TpchLikeGenerator::OrdersRows(sf));
  // Position of variant i within [0, 1): slice i, seeded offset.
  auto slice = [&](int i) {
    return (i + rng.NextDouble()) / static_cast<double>(kStormVariants);
  };
  std::vector<std::string> out;
  char buf[512];
  for (int i = 0; i < kStormVariants; ++i) {
    std::snprintf(buf, sizeof(buf),
                  "SELECT * FROM orders WHERE orderkey = %.0f",
                  1 + std::floor(slice(i) * orders));
    out.emplace_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "SELECT mktsegment, COUNT(*), SUM(acctbal) FROM customer "
                  "WHERE nationkey <= %.0f GROUP BY mktsegment",
                  5 + std::floor(slice(i) * 20));
    out.emplace_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "SELECT nation.regionkey, COUNT(*) FROM customer "
                  "JOIN nation ON nation.nationkey = customer.nationkey "
                  "WHERE customer.acctbal > %.2f GROUP BY nation.regionkey",
                  -999.0 + 9000.0 * slice(i));
    out.emplace_back(buf);
    // orderdate is drawn uniform over the integers [19920101, 19981231].
    std::snprintf(buf, sizeof(buf),
                  "SELECT COUNT(*), SUM(totalprice) FROM orders "
                  "WHERE orderdate >= %.0f",
                  19920101 + std::floor(slice(i) * 61130));
    out.emplace_back(buf);
  }
  return out;
}

}  // namespace

bool FindWorkloadSpec(const std::string& name, WorkloadSpec* out) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) {
      *out = spec;
      return true;
    }
  }
  return false;
}

Status ComputeReference(qpi::Catalog* catalog, const std::string& sql,
                        Reference* out) {
  qpi::SqlPlanner planner(catalog);
  qpi::PlanNodePtr plan;
  QPI_RETURN_NOT_OK(planner.PlanQuery(sql, &plan));
  qpi::ExecContext ctx;
  ctx.catalog = catalog;
  qpi::OperatorPtr root;
  QPI_RETURN_NOT_OK(qpi::CompilePlan(plan.get(), &ctx, &root));
  std::vector<qpi::Row> rows;
  QPI_RETURN_NOT_OK(qpi::QueryExecutor::Run(root.get(), &ctx, &rows));
  out->rows = rows.size();
  out->aggregates.clear();
  // A global aggregate (no GROUP BY) returns one all-numeric row.
  if (rows.size() == 1 && sql.find("GROUP BY") == std::string::npos &&
      sql.find("COUNT(*)") != std::string::npos) {
    for (const qpi::Value& v : rows[0]) {
      out->aggregates.push_back(v.type() == qpi::ValueType::kInt64
                                    ? static_cast<double>(v.AsInt64())
                                    : v.AsDouble());
    }
  }
  return Status::OK();
}

Status BuildWorkloadData(const WorkloadSpec& spec, uint64_t seed,
                         double scale, WorkloadData* out) {
  const double sf = spec.scale_factor * scale;
  qpi::TpchLikeGenerator gen(seed);
  std::vector<std::string> sqls;
  if (spec.name == "q8_pipeline") {
    QPI_RETURN_NOT_OK(out->catalog.Register(gen.MakeCustomer(sf)));
    QPI_RETURN_NOT_OK(out->catalog.Register(gen.MakeOrders(sf)));
    QPI_RETURN_NOT_OK(out->catalog.Register(MakeSkewedLineitem(
        qpi::TpchLikeGenerator::OrdersRows(sf), seed * 31 + 99)));
    QPI_RETURN_NOT_OK(AnalyzeAll(&out->catalog));
    sqls.push_back(kQ8Sql);
  } else if (spec.name == "short_query_storm") {
    QPI_RETURN_NOT_OK(gen.PopulateCatalog(&out->catalog, sf));
    sqls = StormStatements(seed, sf);
  } else if (spec.name == "ola_early_stop") {
    QPI_RETURN_NOT_OK(gen.PopulateCatalog(&out->catalog, sf));
    sqls.push_back(kOlaSql);
  } else {
    return Status::InvalidArgument("unknown workload " + spec.name);
  }
  for (std::string& sql : sqls) {
    Statement statement;
    statement.sql = std::move(sql);
    QPI_RETURN_NOT_OK(ComputeReference(&out->catalog, statement.sql,
                                       &statement.reference));
    out->statements.push_back(std::move(statement));
  }
  return Status::OK();
}

}  // namespace qpibench
