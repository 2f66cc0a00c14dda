#include "service/server.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <utility>

#include "exec/compiler.h"
#include "exec/executor.h"
#include "progress/accuracy_audit.h"
#include "progress/snapshot_json.h"
#include "service/metrics_text.h"
#include "service/net.h"
#include "sql/planner.h"

namespace qpi {

namespace {

/// Self-pipe write end for the SIGTERM handler. The handler body is
/// async-signal-safe: one relaxed load and one write(2).
std::atomic<int> g_sigterm_pipe{-1};

extern "C" void QpiServeSigtermHandler(int) {
  int fd = g_sigterm_pipe.load(std::memory_order_relaxed);
  if (fd >= 0) {
    char byte = 1;
    ssize_t rc = ::write(fd, &byte, 1);
    (void)rc;
  }
}

/// |T̂/T − 1| — the estimator's relative error given the paper's accuracy
/// ratio r = T/T̂. Callers must guard: a non-finite or non-positive r has
/// no defined error (division blows up or flips sign) and such checkpoints
/// are skipped and counted, never observed.
double RelativeErrorFromRatio(double r) { return std::fabs(1.0 / r - 1.0); }

/// A checkpoint ratio usable for estimator scoring: finite and positive,
/// and not from a checkpoint the audit flagged degenerate (terminal-sample
/// satisfied, where R = 1 by construction).
bool ScorableRatio(double r, bool degenerate) {
  return !degenerate && std::isfinite(r) && r > 0;
}

}  // namespace

ServerMetrics::ServerMetrics() {
  submits = registry.AddCounter("qpi_submits_total",
                                "Queries accepted by SUBMIT.");
  finished = registry.AddCounter(
      "qpi_queries_terminal_total",
      "Queries reaching a terminal state, by kind.", "kind=\"finished\"");
  failed = registry.AddCounter("qpi_queries_terminal_total",
                               "Queries reaching a terminal state, by kind.",
                               "kind=\"failed\"");
  cancelled = registry.AddCounter(
      "qpi_queries_terminal_total",
      "Queries reaching a terminal state, by kind.", "kind=\"cancelled\"");
  trace_samples = registry.AddCounter(
      "qpi_trace_samples_total",
      "Progress samples offered to per-query trace rings.");
  queue_depth =
      registry.AddGauge("qpi_queue_depth", "Queries waiting for admission.");
  running =
      registry.AddGauge("qpi_queries_running", "Queries currently executing.");
  sessions = registry.AddGauge("qpi_sessions", "Open client sessions.");
  watchers = registry.AddGauge("qpi_watchers", "Active progress watches.");
  draining = registry.AddGauge("qpi_draining",
                               "1 while the graceful drain runs, else 0.");
  delivery_ms = registry.AddHistogram(
      "qpi_snapshot_delivery_ms",
      "Publish-to-socket-write latency of streamed snapshots.",
      {0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250});
  const std::vector<double> error_bounds = {0.01, 0.02, 0.05, 0.1,
                                            0.2,  0.5,  1,    2,   5};
  relative_error = registry.AddHistogram(
      "qpi_estimator_relative_error",
      "Estimator relative error |T_hat/T - 1| at the 25/50/75% "
      "checkpoints of finished queries.",
      error_bounds);
  for (size_t c = 0; c < kNumEstimatorCandidates; ++c) {
    std::string label = "estimator=\"";
    label += EstimatorCandidateName(static_cast<EstimatorCandidate>(c));
    label += '"';
    candidate_error[c] = registry.AddHistogram(
        "qpi_estimator_relative_error",
        "Estimator relative error |T_hat/T - 1| at the 25/50/75% "
        "checkpoints of finished queries.",
        error_bounds, label);
  }
  audit_skipped = registry.AddCounter(
      "qpi_audit_checkpoints_skipped_total",
      "Audit checkpoints excluded from the error histograms (degenerate "
      "terminal-sample checkpoints, or R non-finite / not positive).");
  for (size_t c = 0; c < kNumEstimatorCandidates; ++c) {
    std::string label = "estimator=\"";
    label += EstimatorCandidateName(static_cast<EstimatorCandidate>(c));
    label += '"';
    selected[c] = registry.AddCounter(
        "qpi_estimator_selected_total",
        "Operators whose selector finished the query on each candidate.",
        label);
  }
  for (size_t l = 0; l < kNumTaskLanes; ++l) {
    std::string label = "lane=\"";
    label += TaskLaneName(static_cast<TaskLane>(l));
    label += '"';
    tasks_executed[l] = registry.AddCounter(
        "qpi_tasks_executed_total",
        "Tasks executed by the scheduler fleet, by lane.", label);
  }
  tasks_stolen = registry.AddCounter(
      "qpi_tasks_stolen_total",
      "Tasks stolen from another worker's deque before executing.");
  run_queue_depth = registry.AddGauge(
      "qpi_run_queue_depth",
      "Tasks submitted to the scheduler fleet and not yet finished.");
  ola_ci_halfwidth = registry.AddGauge(
      "qpi_ola_ci_halfwidth",
      "Widest CI half-width across the aggregates of the most recently "
      "published online-aggregation snapshot.");
  ola_early_stops = registry.AddCounter(
      "qpi_ola_early_stops_total",
      "Online-aggregation queries early-terminated by a stop condition or "
      "a client stop verb.");
  feedback_cache_load_errors = registry.AddCounter(
      "qpi_feedback_cache_load_errors_total",
      "Feedback-cache files that failed to load at startup (corrupt or "
      "unreadable); the server starts cold instead of aborting.");
}

const char* QueryHandle::WireState() const {
  Terminal t = terminal.load(std::memory_order_acquire);
  if (t == Terminal::kNone) {
    const char* live = nullptr;
    WithExecution([&live](const QueryExecution& e) {
      live = e.ctx->phase() == QueryPhase::kQueued ? "queued" : "running";
    });
    if (live != nullptr) return live;
    // Released between the two reads: the terminal store came first.
    t = terminal.load(std::memory_order_acquire);
  }
  switch (t) {
    case Terminal::kFinished:
      return "finished";
    case Terminal::kFailed:
      return "failed";
    case Terminal::kCancelled:
      return "cancelled";
    case Terminal::kOlaStopped:
      return "ola_stopped";
    case Terminal::kNone:
      break;
  }
  return "running";
}

double QueryHandle::Progress() {
  Terminal t = terminal.load(std::memory_order_acquire);
  if (t == Terminal::kFinished) return 1.0;
  GnmSnapshot snap = slot.Load();
  if (t == Terminal::kNone) {
    // Refresh C(Q) from the relaxed atomic counters so progress advances
    // between the worker's publications (same scheme as the concurrent
    // executor's QueryProgress).
    WithExecution([&snap](const QueryExecution& e) {
      double live = static_cast<double>(e.accountant->CurrentCalls());
      if (live > snap.current_calls) snap.current_calls = live;
    });
  }
  if (snap.total_estimate < snap.current_calls) {
    snap.total_estimate = snap.current_calls;
  }
  double p = snap.EstimatedProgress();
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  double floor = progress_floor.load(std::memory_order_relaxed);
  while (p > floor && !progress_floor.compare_exchange_weak(
                          floor, p, std::memory_order_relaxed)) {
  }
  return p > floor ? p : floor;
}

QpiServer::QpiServer(Catalog* catalog, Options options)
    : catalog_(catalog),
      options_(options),
      admission_(options.max_inflight) {}

QpiServer::~QpiServer() {
  Shutdown();
  for (int fd : pipe_fds_) {
    if (fd >= 0) ::close(fd);
  }
}

Status QpiServer::Start() {
  if (!options_.feedback_cache_path.empty()) {
    // Best-effort warm start: a missing or malformed cache file only means
    // the selector starts cold, never that the server fails to come up.
    // Corrupt files are counted and warned about so operators notice.
    Status load = feedback_cache_.LoadFromFile(options_.feedback_cache_path);
    if (!load.ok() && load.code() != Status::Code::kNotFound) {
      metrics_.feedback_cache_load_errors->Increment();
      std::fprintf(stderr, "qpi-serve: ignoring feedback cache %s: %s\n",
                   options_.feedback_cache_path.c_str(),
                   load.ToString().c_str());
    }
  }
  QPI_RETURN_NOT_OK(TcpListen(options_.port, &listen_fd_, &port_));
  if (::pipe(pipe_fds_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("pipe: failed to create the drain self-pipe");
  }
  if (options_.install_sigterm_handler) {
    g_sigterm_pipe.store(pipe_fds_[1], std::memory_order_relaxed);
    struct sigaction action {};
    action.sa_handler = QpiServeSigtermHandler;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGTERM, &action, nullptr);
    sigterm_installed_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(fleet_mu_);
    fleet_ = std::make_unique<TaskScheduler>(options_.exec_workers);
  }
  size_t num_loops = options_.event_loops > 0 ? options_.event_loops : 1;
  for (size_t i = 0; i < num_loops; ++i) {
    auto loop = std::make_unique<EventLoop>(this, &broadcast_,
                                            options_.max_line_bytes,
                                            options_.session_drain_deadline);
    Status s = loop->Start();
    if (!s.ok()) {
      loops_.clear();
      {
        std::lock_guard<std::mutex> lock(fleet_mu_);
        fleet_.reset();
      }
      ::close(listen_fd_);
      listen_fd_ = -1;
      return s;
    }
    loops_.push_back(std::move(loop));
  }
  started_.store(true, std::memory_order_release);
  dispatch_thread_ = std::thread([this] { DispatchLoop(); });
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void QpiServer::RequestDrain() {
  int fd = pipe_fds_[1];
  if (fd >= 0) {
    char byte = 1;
    ssize_t rc = ::write(fd, &byte, 1);
    (void)rc;
  }
}

void QpiServer::Shutdown() {
  if (!started_.load(std::memory_order_acquire)) return;
  RequestDrain();
  {
    std::unique_lock<std::mutex> lock(drained_mu_);
    drained_cv_.wait(lock, [this] { return drained_; });
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (sigterm_installed_) {
    g_sigterm_pipe.store(-1, std::memory_order_relaxed);
    struct sigaction action {};
    action.sa_handler = SIG_DFL;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGTERM, &action, nullptr);
    sigterm_installed_ = false;
  }
  started_.store(false, std::memory_order_release);
}

Status QpiServer::Submit(const std::string& sql, const OlaOptions* ola,
                         uint64_t* id, uint64_t tenant) {
  if (draining()) {
    return Status::Internal("server is draining; submissions are closed");
  }
  SqlPlanner planner(catalog_);
  PlanNodePtr plan;
  QPI_RETURN_NOT_OK(planner.PlanQuery(sql, &plan));
  auto handle = std::make_unique<QueryHandle>();
  handle->tenant = tenant;
  handle->sql = sql;
  handle->exec = std::make_unique<QueryExecution>();
  QueryExecution& exec = *handle->exec;
  exec.ctx = std::make_unique<ExecContext>();
  exec.ctx->catalog = catalog_;
  exec.ctx->mode = options_.mode;
  // Served queries fan intra-query subtasks (morsel scans, grace-join
  // partitions) out on the shared fleet; the per-query tag keeps the
  // sharing fair when several queries are inflight.
  exec.ctx->exec_workers = options_.exec_workers;
  if (ola != nullptr) {
    exec.ctx->ola = *ola;
    exec.ctx->ola.enabled = true;
  }
  QPI_RETURN_NOT_OK(exec.ctx->Validate());
  QPI_RETURN_NOT_OK(CompilePlan(plan.get(), exec.ctx.get(), &exec.root));
  if (ola != nullptr) {
    QPI_RETURN_NOT_OK(AttachOla(exec.root.get(), exec.ctx.get(),
                                &handle->ola_slot, &exec.ola));
    handle->is_ola = true;
    handle->ola_labels = exec.ola->labels();
    exec.ola->set_publish_hook([this](const OlaSnapshot& snap) {
      double max_hw = -1.0;
      for (uint32_t a = 0; a < snap.num_aggregates; ++a) {
        if (std::isfinite(snap.half_width[a]) &&
            snap.half_width[a] > max_hw) {
          max_hw = snap.half_width[a];
        }
      }
      if (max_hw >= 0.0) metrics_.ola_ci_halfwidth->Set(max_hw);
    });
    // Seed the slot so watchers that poll before the first publish tick
    // already see the aggregate labels and an infinite half-width instead
    // of a zero-length snapshot.
    handle->ola_slot.Store(exec.ola->Snapshot(0));
  }
  exec.accountant = std::make_unique<GnmAccountant>(exec.root.get());
  if (options_.ensemble) {
    exec.ensemble = std::make_unique<EstimatorEnsemble>(
        exec.accountant.get(), exec.ctx.get(), &feedback_cache_);
    exec.accountant->AttachEnsemble(exec.ensemble.get());
  }
  exec.ctx->set_phase(QueryPhase::kQueued);
  handle->trace = std::make_unique<TraceRing>(options_.trace_capacity);
  handle->op_labels.reserve(exec.accountant->operators().size());
  for (const Operator* op : exec.accountant->operators()) {
    handle->op_labels.push_back(op->label());
  }
  // Seed the slot so a watcher attached before execution sees the
  // optimizer-based T̂ (progress 0 in the "queued" state), not an empty
  // snapshot. Safe: nothing executes yet. The same observation opens the
  // trace: every curve starts at the optimizer's guess.
  GnmSnapshot seed = exec.accountant->SnapshotWithConfidence(
      0, exec.ctx->confidence, exec.ctx->ci_combine);
  handle->slot.Store(seed);
  handle->trace->Record(
      MakeTraceSample(*exec.accountant, seed, QueryPhase::kQueued));
  metrics_.trace_samples->Increment();
  handle->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  QueryHandle* raw = handle.get();
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    queries_.emplace(raw->id, std::move(handle));
  }
  if (!admission_.Enqueue(raw, tenant)) {
    // The drain closed admission between the check above and here; the id
    // is already visible, so terminalize it rather than leak a handle a
    // watcher could wait on forever.
    TerminalizeQueued(raw);
    return Status::Internal("server is draining; submissions are closed");
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  metrics_.submits->Increment();
  *id = raw->id;
  return Status::OK();
}

Status QpiServer::CancelQuery(uint64_t id) {
  QueryHandle* handle = FindQuery(id);
  if (handle == nullptr) {
    return Status::NotFound("no such query id " + std::to_string(id));
  }
  if (handle->IsTerminal()) return Status::OK();  // idempotent
  if (admission_.Remove(handle)) {
    // Still queued: it never claimed an inflight slot, so terminalize it
    // directly — watchers get a final "cancelled" snapshot at progress 0.
    TerminalizeQueued(handle);
    return Status::OK();
  }
  // Running (or about to): cooperative cancellation; the worker drains it
  // and records the terminal state. A query that terminalized meanwhile
  // has released its execution and needs nothing.
  handle->WithExecution(
      [](QueryExecution& e) { e.ctx->RequestCancel(); });
  return Status::OK();
}

Status QpiServer::StopQuery(uint64_t id) {
  QueryHandle* handle = FindQuery(id);
  if (handle == nullptr) {
    return Status::NotFound("no such query id " + std::to_string(id));
  }
  if (!handle->is_ola) {
    return Status::InvalidArgument(
        "query " + std::to_string(id) +
        " was not submitted with online aggregation; use cancel");
  }
  if (handle->IsTerminal()) return Status::OK();  // idempotent
  if (admission_.Remove(handle)) {
    // Never ran: there is no estimate to accept; terminalize as cancelled
    // exactly like a cancel of a queued query.
    TerminalizeQueued(handle);
    return Status::OK();
  }
  // Running: early-terminate through the cancellation path, remembering it
  // was an accept-the-estimate stop (the worker classifies the terminal
  // via ctx->OlaStopped()).
  handle->WithExecution(
      [](QueryExecution& e) { e.ctx->RequestOlaStop(); });
  return Status::OK();
}

QueryHandle* QpiServer::FindQuery(uint64_t id) {
  std::lock_guard<std::mutex> lock(queries_mu_);
  auto it = queries_.find(id);
  return it == queries_.end() ? nullptr : it->second.get();
}

ServerStats QpiServer::GetStats() const {
  ServerStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.queued = admission_.pending();
  stats.running = admission_.inflight();
  stats.finished = finished_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.cancelled = cancelled_.load(std::memory_order_relaxed);
  stats.max_inflight = admission_.max_inflight();
  stats.draining = draining();
  stats.ola_stopped = ola_stopped_.load(std::memory_order_relaxed);
  SyncSchedulerStats();
  stats.tasks_query = sched_tasks_[0].load(std::memory_order_relaxed);
  stats.tasks_morsel = sched_tasks_[1].load(std::memory_order_relaxed);
  stats.tasks_stolen = sched_stolen_.load(std::memory_order_relaxed);
  stats.run_queue_depth = sched_depth_.load(std::memory_order_relaxed);
  for (const auto& loop : loops_) {
    stats.sessions += loop->num_connections();
    stats.watchers += loop->num_watches();
    stats.snapshot_sends += loop->snapshots_sent();
  }
  stats.snapshot_builds = broadcast_.serializations();
  return stats;
}

WireSnapshot QpiServer::BuildWireSnapshot(QueryHandle* h, uint64_t seq,
                                          bool force_final) {
  WireSnapshot snap;
  snap.id = h->id;
  snap.seq = seq;
  // Read the terminal state BEFORE the slot: the worker publishes the
  // terminal snapshot first and stores the terminal state with release
  // ordering, so observing a terminal state here guarantees the slot load
  // below returns the exact final T̂ = C snapshot.
  bool terminal = h->IsTerminal();
  snap.state = h->WireState();
  snap.final_snapshot = terminal || force_final;
  snap.gnm = h->slot.Load();
  // No per-stream clamp needed: Progress() maintains a query-global
  // CAS-max floor, so consecutive builds are monotone for every stream.
  snap.progress = h->Progress();
  snap.rows = h->rows_emitted.load(std::memory_order_relaxed);
  snap.server_ms = MonotonicMs();
  // A terminal query's counters are frozen on its handle; a live query's
  // are read from its tree under the lifetime guard (if the worker released
  // the tree since the terminal read above, the frozen copy is final).
  if (terminal ||
      !h->WithExecution([&snap](const QueryExecution& e) {
        snap.ops = CollectOperatorCounters(*e.accountant);
      })) {
    snap.ops = h->final_ops;
  }
  if (h->is_ola) {
    OlaSnapshot ola = h->ola_slot.Load();
    snap.ola.present = true;
    snap.ola.draws = ola.draws;
    snap.ola.groups = ola.groups;
    snap.ola.frozen = ola.frozen;
    snap.ola.exact = ola.exact;
    snap.ola.labels = h->ola_labels;
    snap.ola.estimate.assign(ola.estimate, ola.estimate + ola.num_aggregates);
    snap.ola.half_width.assign(ola.half_width,
                               ola.half_width + ola.num_aggregates);
  }
  return snap;
}

Status QpiServer::BuildTrace(uint64_t id, TraceDump* out) {
  QueryHandle* handle = FindQuery(id);
  if (handle == nullptr) {
    return Status::NotFound("no such query id " + std::to_string(id));
  }
  *out = TraceDump();
  out->id = id;
  // Read terminal state once; reading it *before* the samples would let a
  // terminal sample arrive in between and pair a "running" state with a
  // finished curve — harmless, but reading state last keeps the pair
  // consistent whenever the audit is present.
  out->op_labels = handle->op_labels;
  std::vector<TraceSample> samples = handle->trace->Samples();
  out->stride = handle->trace->stride();
  out->offered = handle->trace->offered();
  out->samples.reserve(samples.size());
  for (const TraceSample& s : samples) {
    WireTraceSample w;
    w.tick = s.tick;
    w.calls = s.calls;
    w.total_estimate = s.total_estimate;
    w.ci_half_width = s.ci_half_width;
    w.terminal = s.terminal;
    w.offer = s.offer;
    w.op_emitted = s.op_emitted;
    w.op_estimate = s.op_estimate;
    w.total_candidate = s.total_candidate;
    w.op_candidate = s.op_candidate;
    w.op_selected = s.op_selected;
    w.ola_estimate = s.ola_estimate;
    w.ola_half_width = s.ola_half_width;
    w.ola_draws = s.ola_draws;
    out->samples.push_back(std::move(w));
  }
  out->state = handle->WireState();
  // audit_json is written by the worker before the terminal release-store,
  // so observing a terminal state (acquire) makes this read race-free.
  out->audit_json = handle->IsTerminal() ? handle->audit_json : "null";
  return Status::OK();
}

void QpiServer::SyncSchedulerStats() const {
  // One lock serves two purposes: the fleet pointer cannot be reset by
  // drain step 5 mid-read, and concurrent renderers cannot both apply the
  // same counter delta (which would double-count).
  std::lock_guard<std::mutex> lock(fleet_mu_);
  if (fleet_ == nullptr) return;  // post-drain renders keep the last totals
  auto& metrics = const_cast<QpiServer*>(this)->metrics_;
  for (size_t l = 0; l < kNumTaskLanes; ++l) {
    uint64_t total = fleet_->tasks_executed(static_cast<TaskLane>(l));
    sched_tasks_[l].store(total, std::memory_order_relaxed);
    metrics.tasks_executed[l]->Increment(total -
                                         metrics.tasks_executed[l]->Value());
  }
  uint64_t stolen = fleet_->tasks_stolen();
  sched_stolen_.store(stolen, std::memory_order_relaxed);
  metrics.tasks_stolen->Increment(stolen - metrics.tasks_stolen->Value());
  size_t depth = fleet_->run_queue_depth();
  sched_depth_.store(depth, std::memory_order_relaxed);
  metrics.run_queue_depth->Set(static_cast<double>(depth));
}

std::string QpiServer::RenderMetricsText() {
  ServerStats stats = GetStats();  // refreshes the scheduler counters too
  metrics_.queue_depth->Set(static_cast<double>(stats.queued));
  metrics_.running->Set(static_cast<double>(stats.running));
  metrics_.sessions->Set(static_cast<double>(stats.sessions));
  metrics_.watchers->Set(static_cast<double>(stats.watchers));
  metrics_.draining->Set(stats.draining ? 1.0 : 0.0);
  return RenderPrometheusText(metrics_.registry);
}

void QpiServer::DispatchLoop() {
  // The dispatcher outlives the fleet reset only by the drain protocol
  // (step 3 joins this thread before step 5 resets fleet_), so the raw
  // access is safe. Each admitted query is a query-lane task tagged with
  // its id: with several inflight, the fleet round-robins dispatch across
  // them instead of draining one query's backlog first.
  while (QueryHandle* handle = admission_.NextRunnable()) {
    fleet_->Submit(TaskLane::kQuery, handle->id,
                   [this, handle] { RunOne(handle); });
  }
}

void QpiServer::RunOne(QueryHandle* handle) {
  // This worker is the only thread that releases the execution, so it
  // uses it without the lifetime guard.
  QueryExecution& exec = *handle->exec;
  // Any intra-query fan-out this query performs (exec_workers > 1 in its
  // context) rides the same fleet, tagged by query id for fair sharing.
  exec.ctx->AttachScheduler(fleet_.get(), handle->id);
  TracePublisher publisher(exec.accountant.get(), exec.ctx.get(),
                           &handle->slot, handle->trace.get(),
                           options_.publish_interval, exec.ensemble.get());
  if (exec.ola != nullptr) publisher.set_ola_feed(exec.ola.get());
  exec.ctx->AddTickObserver(&publisher);
  Status s = QueryExecutor::Run(
      exec.root.get(), exec.ctx.get(), nullptr, nullptr,
      [handle](const RowBatch& batch) {
        handle->rows_emitted.fetch_add(batch.size(),
                                       std::memory_order_relaxed);
      });
  exec.ctx->RemoveTickObserver(&publisher);
  const uint64_t ticks = publisher.ticks();
  metrics_.trace_samples->Increment(publisher.samples_offered() + 1);
  // Terminal snapshot first, terminal state second (release): a watcher
  // observing the terminal state is guaranteed the exact final snapshot
  // (every operator finished, so T̂ = C and the half-width is 0). The
  // trace's terminal sample, the audit and the frozen counters land in
  // the same window, so a reader after the terminal state sees them all.
  if (exec.ensemble != nullptr) {
    // One last observation with every operator finished: each candidate's
    // total collapses to C, so the terminal sample's candidate columns end
    // on the exact point the audit expects (T̂ = C for every curve).
    exec.ensemble->Observe(ticks);
  }
  GnmSnapshot final_snap = exec.accountant->SnapshotWithConfidence(
      ticks, exec.ctx->confidence, exec.ctx->ci_combine);
  handle->slot.Store(final_snap);
  // The final OLA answer lands in its slot inside the same window (before
  // the terminal release-store), so a watcher observing the terminal reads
  // the final approximate answer, exact or early-stopped alike.
  if (exec.ola != nullptr) exec.ola->PublishFinal(ticks);
  handle->final_ops = CollectOperatorCounters(*exec.accountant);
  TraceSample terminal_sample =
      MakeTraceSample(*exec.accountant, final_snap, exec.ctx->phase());
  if (exec.ensemble != nullptr) {
    exec.ensemble->FillTraceSample(&terminal_sample);
  }
  if (exec.ola != nullptr) exec.ola->FillTraceSample(&terminal_sample);
  handle->trace->RecordTerminal(std::move(terminal_sample));
  QueryHandle::Terminal terminal;
  if (!s.ok()) {
    handle->error = s.ToString();
    terminal = QueryHandle::Terminal::kFailed;
    failed_.fetch_add(1, std::memory_order_relaxed);
    metrics_.failed->Increment();
  } else if (exec.ctx->IsCancelled()) {
    if (exec.ctx->OlaStopped()) {
      // An accepted approximate answer, not an abandoned query.
      terminal = QueryHandle::Terminal::kOlaStopped;
      ola_stopped_.fetch_add(1, std::memory_order_relaxed);
      metrics_.ola_early_stops->Increment();
    } else {
      terminal = QueryHandle::Terminal::kCancelled;
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      metrics_.cancelled->Increment();
    }
  } else {
    terminal = QueryHandle::Terminal::kFinished;
    finished_.fetch_add(1, std::memory_order_relaxed);
    metrics_.finished->Increment();
    // Audit only truly-finished queries: R against a partial T would be
    // meaningless for failures and cancellations.
    AccuracyReport report =
        ComputeAccuracyReport(handle->trace->Samples(), handle->op_labels);
    handle->audit_json = AccuracyReportJson(report);
    if (exec.ensemble != nullptr) {
      // Deposit this query's audited per-candidate accuracy into the
      // cross-query cache before any metric reads it back out.
      exec.ensemble->Finalize(report);
    }
    for (const CheckpointAccuracy& cp : report.checkpoints) {
      if (!ScorableRatio(cp.r, cp.degenerate)) {
        metrics_.audit_skipped->Increment();
      } else {
        metrics_.relative_error->Observe(RelativeErrorFromRatio(cp.r));
      }
      for (size_t c = 0;
           c < cp.candidate_r.size() && c < kNumEstimatorCandidates; ++c) {
        if (ScorableRatio(cp.candidate_r[c], cp.degenerate)) {
          metrics_.candidate_error[c]->Observe(
              RelativeErrorFromRatio(cp.candidate_r[c]));
        }
      }
    }
    if (exec.ensemble != nullptr) {
      std::vector<uint64_t> counts = exec.ensemble->SelectedCounts();
      for (size_t c = 0;
           c < counts.size() && c < kNumEstimatorCandidates; ++c) {
        if (counts[c] > 0) metrics_.selected[c]->Increment(counts[c]);
      }
    }
  }
  handle->terminal.store(terminal, std::memory_order_release);
  exec.ctx->AttachScheduler(nullptr, 0);
  // From here readers use only what the handle owns. Swap the execution
  // out under the guard and destroy the tree outside it, on this worker,
  // before the inflight slot frees up for the next query.
  handle->ReleaseExecution().reset();
  admission_.OnComplete(handle->tenant);
}

void QpiServer::TerminalizeQueued(QueryHandle* handle) {
  handle->error = "cancelled before execution";
  // Close the trace with the seeded snapshot — the query never ran, so no
  // worker is publishing and reading the accountant here is safe.
  const QueryExecution& exec = *handle->exec;
  handle->final_ops = CollectOperatorCounters(*exec.accountant);
  handle->trace->RecordTerminal(MakeTraceSample(
      *exec.accountant, handle->slot.Load(), QueryPhase::kQueued));
  handle->terminal.store(QueryHandle::Terminal::kCancelled,
                         std::memory_order_release);
  cancelled_.fetch_add(1, std::memory_order_relaxed);
  metrics_.cancelled->Increment();
  // The tree never opened, so destroying it here is cheap.
  handle->ReleaseExecution().reset();
}

void QpiServer::AcceptLoop() {
  while (true) {
    struct pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = pipe_fds_[0];
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    int rc = ::poll(fds, 2, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // drain requested
    if (fds[0].revents & POLLIN) {
      int client_fd = ::accept(listen_fd_, nullptr, nullptr);
      if (client_fd < 0) continue;
      // Shard round-robin: connection state lives entirely on its loop.
      loops_[next_loop_]->AddConnection(
          client_fd, next_tenant_.fetch_add(1, std::memory_order_relaxed));
      next_loop_ = (next_loop_ + 1) % loops_.size();
    }
  }
  DrainInternal();
}

/// Drain state machine (documented in DESIGN.md §10):
///  1. draining: Submit rejects, admission closes;
///  2. still-queued queries terminalize as cancelled;
///  3. the dispatcher joins (NextRunnable returns nullptr);
///  4. running queries get drain_deadline to finish, then RequestCancel;
///  5. the scheduler fleet drains its queued tasks and joins;
///  6. every event loop flushes one final snapshot per watch + bye, closes
///     connections as their queues empty (deadline-bounded), and joins;
///  7. the listen socket closes and drained_ flips.
void QpiServer::DrainInternal() {
  draining_.store(true, std::memory_order_release);
  admission_.CloseAdmission();
  for (QueryHandle* handle : admission_.DrainPending()) {
    TerminalizeQueued(handle);
  }
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  if (!admission_.WaitIdle(options_.drain_deadline)) {
    std::lock_guard<std::mutex> lock(queries_mu_);
    for (auto& [id, handle] : queries_) {
      (void)id;
      handle->WithExecution(
          [](QueryExecution& e) { e.ctx->RequestCancel(); });
    }
  }
  // Cancelled queries drain cooperatively (bounded by their tick path),
  // so this wait terminates; a generous cap keeps a wedged build from
  // hanging the process forever.
  admission_.WaitIdle(std::chrono::milliseconds(60000));
  SyncSchedulerStats();  // final counter refresh before the fleet dies
  {
    std::lock_guard<std::mutex> lock(fleet_mu_);
    fleet_.reset();  // drains stragglers and joins the fleet workers
  }
  if (!options_.feedback_cache_path.empty()) {
    // All workers joined: no Finalize() runs concurrently, the cache is
    // quiescent, and what we persist is the post-drain state.
    (void)feedback_cache_.SaveToFile(options_.feedback_cache_path);
  }

  // Each loop enforces session_drain_deadline internally: flush finals +
  // bye, close connections as their queues empty, force-close stragglers.
  for (auto& loop : loops_) loop->BeginDrain();
  for (auto& loop : loops_) loop->Join();

  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(drained_mu_);
    drained_ = true;
  }
  drained_cv_.notify_all();
}

}  // namespace qpi
