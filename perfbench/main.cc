// qpibench: the repository benchmark. Starts an in-process qpi-serve on
// loopback, drives one named workload through the wire protocol from a
// single load-generator thread, checks every answer against a reference
// computed in process, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced run). The last line of
// standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
//   qpibench --workload q8_pipeline --seed 1 --seconds 10 --trace 0

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/json.h"
#include "ladder.h"
#include "served.h"
#include "service/protocol_binary.h"
#include "service/server.h"
#include "workloads.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QPIBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define QPIBENCH_SANITIZED 1
#endif
#endif

#ifndef QPIBENCH_BUILD_TYPE
#define QPIBENCH_BUILD_TYPE "unknown"
#endif

namespace qpibench {
namespace {

// Set-up repeats at least kMinSetupReps times and until kMinSetupMs have
// passed (at most kMaxSetupReps), so a cheap set-up still yields a steady
// median.
constexpr size_t kMinSetupReps = 5;
constexpr size_t kMaxSetupReps = 25;
constexpr double kMinSetupMs = 2000;
// A run that has not delivered every terminal by then is cut: the rest
// count as timeouts, and the process still exits well inside its budget.
constexpr double kRunBudgetMs = 120000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  bool corrupt_reference = false;
  std::string trace_out;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scale") {
      args->scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty() && args->seconds > 0 && args->scale > 0;
}

std::vector<double> QueryMs(const ServedResult& r) {
  std::vector<double> out;
  for (const QueryRecord& q : r.queries) {
    if (!q.failed) out.push_back(q.done_ms - q.due_ms);
  }
  return out;
}

Metrics EndToEnd(const ServedResult& r, const std::vector<double>& setup_s) {
  Metrics m;
  std::vector<double> query_ms = QueryMs(r);
  std::vector<double> first;
  for (const QueryRecord& q : r.queries) {
    if (!q.failed) first.push_back(q.first_snapshot_ms - q.due_ms);
  }
  const size_t n = query_ms.size();
  Put(&m, "query_ms_p50", Median(query_ms), "ms", n);
  if (TailReportable(n, 0.99)) {
    Put(&m, "query_ms_p99", Percentile(query_ms, 0.99), "ms", n);
  }
  Put(&m, "queries_per_s", static_cast<double>(n) / (r.window_ms / 1000.0),
      "1/s", n);
  Put(&m, "first_snapshot_ms_p50", Median(first), "ms", first.size());
  Put(&m, "delivery_ms_p50", Median(r.delivery_ms), "ms",
      r.delivery_ms.size());
  if (TailReportable(r.delivery_ms.size(), 0.99)) {
    Put(&m, "delivery_ms_p99", Percentile(r.delivery_ms, 0.99), "ms",
        r.delivery_ms.size());
  }
  if (!r.progress_err.empty()) {
    Put(&m, "progress_err_mean", Mean(r.progress_err), "ratio",
        r.progress_err.size());
  }
  if (r.ola_stopped > 0) {
    Put(&m, "ola_covered_frac",
        static_cast<double>(r.ola_covered) /
            static_cast<double>(r.ola_stopped),
        "fraction", r.ola_stopped);
  }
  Put(&m, "cpu_ms_per_query",
      r.cpu_ms / static_cast<double>(r.queries.size()), "ms",
      r.queries.size());
  Put(&m, "peak_rss_mb", PeakRssKb() / 1024.0, "MB", 1);
  Put(&m, "failed_frac",
      static_cast<double>(r.failed) / static_cast<double>(r.attempted),
      "fraction", r.attempted);
  Put(&m, "setup_s", Median(setup_s), "s", setup_s.size());
  return m;
}

/// Per-layer numbers of the traced served run.
void ServiceLayer(const ServedResult& r, const Tracer& tracer, Metrics* m) {
  const size_t n = r.queries.size();
  std::vector<double> submit = tracer.DurationsMs("submit");
  Put(m, "service.submit_rtt_ms_p50", Median(submit), "ms", submit.size());
  Put(m, "service.queued_ms_p50", Median(tracer.DurationsMs("queued")), "ms", n);
  Put(m, "service.running_ms_p50", Median(tracer.DurationsMs("running")), "ms", n);
  Put(m, "service.final_delivery_ms_p50", Median(tracer.DurationsMs("deliver_final")),
      "ms", n);
  Put(m, "service.snapshots_per_query",
      static_cast<double>(r.delivery_ms.size()) / static_cast<double>(n),
      "count", n);
  const qpi::ServerStats& st = r.stats_delta;
  Put(m, "service.fanout",
      static_cast<double>(st.snapshot_sends) /
          static_cast<double>(st.snapshot_builds),
      "ratio", st.snapshot_builds);
  Put(m, "service.rss_kb_per_query", r.rss_growth_kb / static_cast<double>(n),
      "KiB", n);
  Put(m, "sched.morsel_tasks_per_query",
      static_cast<double>(st.tasks_morsel) / static_cast<double>(n), "count",
      n);
  Put(m, "sched.steal_frac",
      static_cast<double>(st.tasks_stolen) /
          static_cast<double>(st.tasks_query + st.tasks_morsel),
      "fraction", st.tasks_query + st.tasks_morsel);
  Put(m, "gen.lag_ms_p99", Percentile(r.gen_lag_ms, 0.99), "ms",
      r.gen_lag_ms.size());

  // Encode/decode cost on the snapshots the run actually received.
  const size_t k = r.sample.size();
  if (k == 0) return;
  constexpr int kLoops = 20;
  std::vector<std::string> json(k), frames(k);
  double t0 = NowMs();
  for (int l = 0; l < kLoops; ++l) {
    for (size_t i = 0; i < k; ++i) json[i] = qpi::EncodeSnapshot(r.sample[i]);
  }
  double t1 = NowMs();
  for (int l = 0; l < kLoops; ++l) {
    for (size_t i = 0; i < k; ++i) {
      frames[i] = qpi::EncodeSnapshotFrame(r.sample[i]);
    }
  }
  double t2 = NowMs();
  qpi::WireSnapshot snap;
  for (int l = 0; l < kLoops; ++l) {
    for (size_t i = 0; i < k; ++i) {
      qpi::JsonValue v;
      (void)qpi::JsonParse(json[i].substr(0, json[i].size() - 1), &v);
      (void)qpi::DecodeSnapshot(v, &snap);
    }
  }
  double t3 = NowMs();
  for (int l = 0; l < kLoops; ++l) {
    for (size_t i = 0; i < k; ++i) {
      // Frame = header + body; the decoder takes kind byte + body.
      std::string_view f(frames[i]);
      std::string body(1, f[1]);
      body.append(f.substr(qpi::kFrameHeaderBytes));
      (void)qpi::DecodeSnapshotFrame(body, &snap);
    }
  }
  double t4 = NowMs();
  const double calls = static_cast<double>(k * kLoops);
  Put(m, "service.encode_json_us", (t1 - t0) * 1e3 / calls, "us", k);
  Put(m, "service.encode_binary_us", (t2 - t1) * 1e3 / calls, "us", k);
  Put(m, "service.decode_json_us", (t3 - t2) * 1e3 / calls, "us", k);
  Put(m, "service.decode_binary_us", (t4 - t3) * 1e3 / calls, "us", k);
}

void PrintMetrics(const char* section, const Metrics& m) {
  for (const auto& [name, metric] : m) {
    std::printf("%s %-40s %14.6g %-8s n=%zu\n", section, name.c_str(),
                metric.value, metric.unit.c_str(), metric.samples);
  }
}

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const Metrics& m) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ",";
    first = false;
    qpi::JsonAppendQuoted(name, &out);
    out += ":{\"value\":" + qpi::JsonNumberString(metric.value) +
           ",\"unit\":";
    qpi::JsonAppendQuoted(metric.unit, &out);
    out += "}";
  }
  out += "}}";
  return out;
}

bool StartServer(qpi::Catalog* catalog, size_t workers,
                 std::unique_ptr<qpi::QpiServer>* out) {
  qpi::QpiServer::Options options;
  options.exec_workers = workers;
  *out = std::make_unique<qpi::QpiServer>(catalog, options);
  qpi::Status s = (*out)->Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
  }
  return s.ok();
}

int Run(const Args& args) {
  WorkloadSpec spec;
  if (!FindWorkloadSpec(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const size_t workers =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t count = std::max<size_t>(
      3, static_cast<size_t>(std::llround(spec.rate_qps * args.seconds)));

  // Set-up, repeated: generate + analyze the catalog, compute the
  // reference answers, start the server. The last one is kept.
  std::vector<double> setup_s;
  std::unique_ptr<WorkloadData> data;
  std::unique_ptr<qpi::QpiServer> server;
  double setup_total_ms = 0;
  while (setup_s.size() < kMinSetupReps ||
         (setup_total_ms < kMinSetupMs && setup_s.size() < kMaxSetupReps)) {
    server.reset();
    data.reset();
    const double t0 = NowMs();
    data = std::make_unique<WorkloadData>();
    qpi::Status s = BuildWorkloadData(spec, args.seed, args.scale, data.get());
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 2;
    }
    if (!StartServer(&data->catalog, workers, &server)) return 2;
    setup_total_ms += NowMs() - t0;
    setup_s.push_back((NowMs() - t0) / 1000.0);
  }
  if (args.corrupt_reference) {
    for (Statement& st : data->statements) {
      st.reference.rows += 1;
      for (double& a : st.reference.aggregates) a = a * 1.5 + 1.0;
    }
  }

  std::printf(
      "record {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"scale\":%g,\"host_cpus\":%zu,\"exec_workers\":%zu,"
      "\"build_type\":\"%s\",\"asserts\":%s,\"sanitizers\":\"none\","
      "\"commit\":\"%s\",\"loop\":\"%s\",\"rate_qps\":%g,"
      "\"cadence_ms\":%g,\"connections\":%zu,\"watchers\":%zu,"
      "\"queries\":%zu,\"statements\":%zu,\"ola_rel_target\":%g}\n",
      spec.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.scale, workers, workers, QPIBENCH_BUILD_TYPE,
#ifdef NDEBUG
      "false",
#else
      "true",
#endif
      args.commit.c_str(), spec.open_loop ? "open" : "closed", spec.rate_qps,
      spec.cadence_ms, spec.connections, spec.watchers, count,
      data->statements.size(), spec.ola_rel_target);

  // Every served query counts toward attempted/failed, warm-ups included.
  size_t attempted = 0;
  size_t failed = 0;
  auto served = [&](size_t n, Tracer* tracer, ServedResult* out) {
    qpi::Status s = RunServed(spec, *data, server->port(), args.seed, n,
                              NowMs() + kRunBudgetMs, tracer, out);
    if (!s.ok()) {
      std::fprintf(stderr, "served run failed: %s\n", s.ToString().c_str());
      return false;
    }
    attempted += out->attempted;
    failed += out->failed;
    for (const std::string& f : out->failures) {
      std::printf("FAILED %s\n", f.c_str());
    }
    return true;
  };
  // Warm-up: lazy set-up inside the server and the allocator settle.
  auto warm_up = [&] {
    ServedResult warm;
    return served(std::max<size_t>(2, count / 10), nullptr, &warm);
  };

  // A traced run splits its time between an untraced and a traced served
  // run of half the size each (their difference is the tracing overhead),
  // leaving room for the layer ladder.
  const size_t served_count =
      args.trace ? std::max<size_t>(3, count / 2) : count;
  ServedResult run;
  if (!warm_up() || !served(served_count, nullptr, &run)) return 2;
  Metrics e2e = EndToEnd(run, setup_s);
  PrintMetrics("end_to_end", e2e);

  Metrics out = e2e;
  if (args.trace) {
    // A fresh server, so the traced run starts from the same memory state
    // as the untraced one instead of on top of its retained queries.
    server.reset();
    if (!StartServer(&data->catalog, workers, &server)) return 2;
    Tracer tracer;
    ServedResult traced;
    if (!warm_up() || !served(served_count, &tracer, &traced)) return 2;
    Metrics layer;
    ServiceLayer(traced, tracer, &layer);
    Put(&layer, "trace.overhead_pct",
        (Median(QueryMs(traced)) / Median(QueryMs(run)) - 1.0) * 100.0, "%",
        traced.queries.size());
    qpi::Status s = RunLadder(data.get(), workers, &tracer, &layer);
    if (!s.ok()) {
      std::fprintf(stderr, "layer ladder failed: %s\n", s.ToString().c_str());
      return 2;
    }
    PrintMetrics("per_layer", layer);
    if (!args.trace_out.empty() && !tracer.WriteJsonLines(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
    out = layer;
  } else {
    // The gated end-to-end set (BENCHMARK.json): metrics every workload
    // defines, is never 0 on, and repeats within its bound across runs.
    for (const char* partial :
         {"query_ms_p99", "delivery_ms_p50", "delivery_ms_p99",
          "first_snapshot_ms_p50", "progress_err_mean", "ola_covered_frac",
          "failed_frac"}) {
      out.erase(partial);
    }
  }
  std::printf("%s\n", ResultJson(failed == 0, attempted, failed, out).c_str());
  std::fflush(stdout);
  server->Shutdown();
  server.reset();
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qpibench

int main(int argc, char** argv) {
#ifdef QPIBENCH_SANITIZED
  std::fprintf(stderr, "qpibench refuses to time a sanitizer build\n");
  return 2;
#endif
  qpibench::Args args;
  if (!qpibench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: qpibench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scale <f>] [--trace-out <path>] "
                 "[--commit <id>] [--corrupt-reference]\n");
    return 2;
  }
  return qpibench::Run(args);
}
