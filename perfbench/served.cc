#include "served.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/json.h"
#include "common/rng.h"
#include "service/net.h"
#include "service/protocol_binary.h"

namespace qpibench {

using qpi::Status;

namespace {

/// One nonblocking client connection carrying many interleaved watch
/// streams: newline-JSON control lines and (after negotiation) binary
/// snapshot frames, demultiplexed on the first byte as FrameReader does.
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  Status Open(uint16_t port, bool binary) {
    QPI_RETURN_NOT_OK(qpi::TcpConnect("127.0.0.1", port, &fd_));
    std::string line;
    QPI_RETURN_NOT_OK(AwaitLine(&line));  // hello
    if (binary) {
      if (!Send("{\"cmd\":\"hello\",\"snapshots\":\"binary\"}\n")) {
        return Status::Internal("connection closed during hello");
      }
      QPI_RETURN_NOT_OK(AwaitLine(&line));
      if (line.find("\"binary\"") == std::string::npos) {
        return Status::Internal("server declined binary snapshots");
      }
    }
    return Status::OK();
  }

  int fd() const { return fd_; }
  bool Send(const std::string& line) { return qpi::SendAll(fd_, line); }

  /// Append whatever the socket holds; false on EOF or error.
  bool Fill() {
    char chunk[65536];
    while (true) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        buf_.append(chunk, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof(chunk)) return true;
        continue;
      }
      if (n == 0) return false;
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
  }

  enum class Kind { kNone, kLine, kFrame };

  /// Pop one complete message: a line (without '\n') or a frame (kind
  /// byte + body, the form DecodeSnapshotFrame takes).
  Kind Next(std::string* out) {
    if (pos_ >= buf_.size()) {
      buf_.clear();
      pos_ = 0;
      return Kind::kNone;
    }
    if (static_cast<uint8_t>(buf_[pos_]) == qpi::kFrameMagic) {
      if (buf_.size() - pos_ < qpi::kFrameHeaderBytes) return Kind::kNone;
      uint32_t body = 0;
      for (int i = 0; i < 4; ++i) {
        body |= static_cast<uint32_t>(
                    static_cast<uint8_t>(buf_[pos_ + 2 + i]))
                << (8 * i);
      }
      size_t total = qpi::kFrameHeaderBytes + body;
      if (buf_.size() - pos_ < total) return Kind::kNone;
      out->assign(1, buf_[pos_ + 1]);
      out->append(buf_, pos_ + qpi::kFrameHeaderBytes, body);
      pos_ += total;
      Compact();
      return Kind::kFrame;
    }
    size_t nl = buf_.find('\n', pos_);
    if (nl == std::string::npos) return Kind::kNone;
    out->assign(buf_, pos_, nl - pos_);
    pos_ = nl + 1;
    Compact();
    return Kind::kLine;
  }

 private:
  Status AwaitLine(std::string* line) {
    double deadline = NowMs() + 10000;
    while (true) {
      if (Next(line) == Kind::kLine) return Status::OK();
      pollfd pfd{fd_, POLLIN, 0};
      int left = static_cast<int>(deadline - NowMs());
      if (left <= 0 || ::poll(&pfd, 1, left) <= 0 || !Fill()) {
        return Status::Internal("no reply from server");
      }
    }
  }

  void Compact() {
    if (pos_ > (1 << 16) && pos_ * 2 > buf_.size()) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
  }

  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

std::string SubmitLine(const std::string& sql, double ola_rel_target) {
  std::string line = "{";
  qpi::JsonAppendKey("cmd", &line);
  qpi::JsonAppendQuoted("submit", &line);
  qpi::JsonAppendKey("sql", &line);
  qpi::JsonAppendQuoted(sql, &line);
  if (ola_rel_target > 0) {
    line += ",\"ola\":{\"target_rel\":" +
            qpi::JsonNumberString(ola_rel_target) +
            ",\"confidence\":0.95,\"min_draws\":256}";
  }
  line += "}\n";
  return line;
}

std::string IdLine(const char* cmd, uint64_t id, double period_ms) {
  std::string line = "{";
  qpi::JsonAppendKey("cmd", &line);
  qpi::JsonAppendQuoted(cmd, &line);
  qpi::JsonAppendKey("id", &line);
  line += std::to_string(id);
  if (period_ms > 0) {
    qpi::JsonAppendKey("period_ms", &line);
    line += qpi::JsonNumberString(period_ms);
  }
  line += "}\n";
  return line;
}

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

/// The correctness gate for one terminal snapshot. `*covered` reports
/// whether an early-stopped OLA answer's intervals hold the exact values.
std::string CheckFinal(const WorkloadSpec& spec, const Reference& ref,
                       const qpi::WireSnapshot& snap, bool* covered) {
  *covered = false;
  const bool ola = spec.ola_rel_target > 0;
  const bool stopped = ola && snap.state == "ola_stopped";
  if (snap.state != "finished" && !stopped) {
    return "terminal state " + snap.state;
  }
  if (snap.rows != ref.rows) {
    return "rows " + std::to_string(snap.rows) + " != reference " +
           std::to_string(ref.rows);
  }
  if (!(snap.gnm.total_estimate == snap.gnm.current_calls) ||
      snap.progress != 1.0) {
    return "final T^ " + qpi::JsonNumberString(snap.gnm.total_estimate) +
           " != C " + qpi::JsonNumberString(snap.gnm.current_calls);
  }
  if (!ola) return "";
  if (!snap.ola.present || snap.ola.estimate.size() != ref.aggregates.size() ||
      snap.ola.half_width.size() != ref.aggregates.size()) {
    return "terminal snapshot without the query's ola aggregates";
  }
  if (stopped) {
    *covered = true;
    for (size_t a = 0; a < ref.aggregates.size(); ++a) {
      if (!(std::fabs(snap.ola.estimate[a] - ref.aggregates[a]) <=
            snap.ola.half_width[a])) {
        *covered = false;
      }
    }
    return "";
  }
  if (!snap.ola.exact) return "finished ola query without an exact answer";
  for (size_t a = 0; a < ref.aggregates.size(); ++a) {
    if (!NearlyEqual(snap.ola.estimate[a], ref.aggregates[a])) {
      return "aggregate " + std::to_string(a) + " = " +
             qpi::JsonNumberString(snap.ola.estimate[a]) + " != reference " +
             qpi::JsonNumberString(ref.aggregates[a]);
    }
  }
  return "";
}

/// Blocking request/reply on an idle connection (nothing else in flight).
Status RoundTrip(Conn* conn, const std::string& request,
                 const std::string& want, qpi::JsonValue* reply) {
  if (!conn->Send(request)) return Status::Internal("connection closed");
  double deadline = NowMs() + 30000;
  std::string msg;
  while (true) {
    Conn::Kind kind = conn->Next(&msg);
    if (kind == Conn::Kind::kLine) {
      QPI_RETURN_NOT_OK(qpi::JsonParse(msg, reply));
      std::string type = reply->GetString("type");
      if (type == want) return Status::OK();
      if (type == "error") {
        return Status::Internal(reply->GetString("error", "server error"));
      }
      continue;  // a late snapshot line
    }
    if (kind == Conn::Kind::kFrame) continue;
    pollfd pfd{conn->fd(), POLLIN, 0};
    int left = static_cast<int>(deadline - NowMs());
    if (left <= 0 || ::poll(&pfd, 1, left) <= 0 || !conn->Fill()) {
      return Status::Internal("no " + want + " reply");
    }
  }
}

Status FetchStats(Conn* conn, qpi::ServerStats* out) {
  qpi::JsonValue reply;
  QPI_RETURN_NOT_OK(RoundTrip(conn, "{\"cmd\":\"stats\"}\n", "stats", &reply));
  return qpi::DecodeStats(reply, out);
}

qpi::ServerStats StatsDelta(const qpi::ServerStats& a,
                            const qpi::ServerStats& b) {
  qpi::ServerStats d;
  d.submitted = b.submitted - a.submitted;
  d.finished = b.finished - a.finished;
  d.tasks_query = b.tasks_query - a.tasks_query;
  d.tasks_morsel = b.tasks_morsel - a.tasks_morsel;
  d.tasks_stolen = b.tasks_stolen - a.tasks_stolen;
  d.snapshot_builds = b.snapshot_builds - a.snapshot_builds;
  d.snapshot_sends = b.snapshot_sends - a.snapshot_sends;
  d.ola_stopped = b.ola_stopped - a.ola_stopped;
  return d;
}

/// |R − 1| over the non-degenerate checkpoints of an audit JSON.
void CollectAuditErrors(const std::string& audit_json,
                        std::vector<double>* out) {
  qpi::JsonValue audit;
  if (!qpi::JsonParse(audit_json, &audit).ok()) return;
  const qpi::JsonValue* checkpoints = audit.Find("checkpoints");
  if (checkpoints == nullptr || !checkpoints->is_array()) return;
  for (const qpi::JsonValue& cp : checkpoints->items) {
    if (cp.GetBool("degenerate", true)) continue;
    const qpi::JsonValue* r = cp.Find("r");
    if (r == nullptr || !r->is_number() || !std::isfinite(r->number) ||
        r->number <= 0) {
      continue;
    }
    out->push_back(std::fabs(r->number - 1.0));
  }
}

constexpr size_t kSampleSnapshots = 256;

}  // namespace

Status RunServed(const WorkloadSpec& spec, const WorkloadData& data,
                 uint16_t port, uint64_t seed, size_t count,
                 double deadline_ms, Tracer* tracer, ServedResult* out) {
  *out = ServedResult();
  std::vector<std::unique_ptr<Conn>> conns;
  for (size_t c = 0; c < spec.connections; ++c) {
    conns.push_back(std::make_unique<Conn>());
    // With two watchers per query the second connection carries the
    // binary-frame watch; every other connection stays JSON.
    bool binary = spec.watchers > 1 && c == 1;
    QPI_RETURN_NOT_OK(conns.back()->Open(port, binary));
  }
  const size_t submitters = spec.watchers > 1 ? 1 : conns.size();

  // Arrivals and statement choices come from the seed alone.
  qpi::Pcg32 rng(seed ^ 0x6172726976ULL);
  std::vector<QueryRecord>& q = out->queries;
  q.resize(count);
  double offset = 0;
  // Statements rotate through seeded shuffles of the whole pool, so every
  // run carries the same statement mix.
  std::vector<size_t> order(data.statements.size());
  for (size_t i = 0; i < count; ++i) {
    const size_t k = i % order.size();
    if (k == 0) {
      for (size_t j = 0; j < order.size(); ++j) order[j] = j;
      for (size_t j = order.size(); j > 1; --j) {
        std::swap(order[j - 1],
                  order[rng.NextBounded(static_cast<uint32_t>(j))]);
      }
    }
    q[i].statement = order[k];
    q[i].conn = i % submitters;
    if (spec.open_loop) {
      offset += -std::log(1.0 - rng.NextDouble()) * 1000.0 / spec.rate_qps;
      q[i].due_ms = offset;
    }
  }

  qpi::ServerStats before;
  QPI_RETURN_NOT_OK(FetchStats(conns[0].get(), &before));
  const double rss_before = CurrentRssKb();
  const double cpu_before = ProcessCpuMs();
  const double start = NowMs() + (spec.open_loop ? 1.0 : 0.0);
  if (spec.open_loop) {
    for (QueryRecord& r : q) r.due_ms += start;
  }

  std::vector<std::deque<size_t>> pending(conns.size());  // submits
  std::unordered_map<uint64_t, size_t> by_id;
  size_t next = 0;
  size_t open = 0;
  size_t done = 0;
  double last_done = start;
  std::vector<pollfd> pfds(conns.size());
  std::string msg;

  auto fail = [&](size_t i, const std::string& why) {
    if (q[i].failed) return;
    q[i].failed = true;
    q[i].failure = why;
  };
  auto finish_query = [&](size_t i, double now) {
    q[i].done_ms = now;
    --open;
    ++done;
    last_done = now;
  };
  auto on_snapshot = [&](qpi::WireSnapshot&& snap, double now) {
    auto it = by_id.find(snap.id);
    if (it == by_id.end()) return;
    QueryRecord& r = q[it->second];
    out->delivery_ms.push_back(now - snap.server_ms);
    ++r.snapshots;
    if (r.first_snapshot_ms < 0) r.first_snapshot_ms = now;
    if (r.first_running_ms < 0 && snap.state != "queued") {
      r.first_running_ms = now;
    }
    if (!snap.final_snapshot) {
      if (out->sample.size() < kSampleSnapshots && snap.state == "running") {
        out->sample.push_back(snap);
      }
      return;
    }
    if (r.final_server_ms < 0 || snap.server_ms < r.final_server_ms) {
      r.final_server_ms = snap.server_ms;
    }
    if (r.watchers_done == 0) {
      r.state = snap.state;
      if (out->sample.size() < kSampleSnapshots) out->sample.push_back(snap);
      r.final_snapshot = std::move(snap);
    } else if (snap.state != r.state) {
      fail(it->second, "watchers disagree on the terminal state");
    }
    if (++r.watchers_done == spec.watchers) finish_query(it->second, now);
  };
  auto submit = [&](size_t i, double now) {
    QueryRecord& r = q[i];
    // A closed-loop client is due the moment its previous query ended.
    if (!spec.open_loop) r.due_ms = last_done;
    r.sent_ms = now;
    out->gen_lag_ms.push_back(now - r.due_ms);
    ++open;
    pending[r.conn].push_back(i);
    if (!conns[r.conn]->Send(SubmitLine(data.statements[r.statement].sql,
                                        spec.ola_rel_target))) {
      fail(i, "connection closed on submit");
      pending[r.conn].pop_back();
      finish_query(i, now);
    }
  };

  while (done < count) {
    double now = NowMs();
    if (now > deadline_ms) break;
    if (spec.open_loop) {
      while (next < count && q[next].due_ms <= now) submit(next++, now);
    } else if (open == 0 && next < count) {
      submit(next++, now);
    }
    double wait_ms = deadline_ms - now;
    if (spec.open_loop && next < count) {
      wait_ms = std::min(wait_ms, q[next].due_ms - now);
    }
    if (wait_ms < 0) wait_ms = 0;
    for (size_t c = 0; c < conns.size(); ++c) {
      pfds[c] = pollfd{conns[c]->fd(), POLLIN, 0};
    }
    timespec ts{static_cast<time_t>(wait_ms / 1000),
                static_cast<long>(std::fmod(wait_ms, 1000.0) * 1e6)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    for (size_t c = 0; c < conns.size(); ++c) {
      if (pfds[c].revents == 0) continue;
      if (!conns[c]->Fill()) {
        return Status::Internal("server closed connection " +
                                std::to_string(c));
      }
      while (true) {
        Conn::Kind kind = conns[c]->Next(&msg);
        if (kind == Conn::Kind::kNone) break;
        double at = NowMs();
        qpi::WireSnapshot snap;
        if (kind == Conn::Kind::kFrame) {
          QPI_RETURN_NOT_OK(qpi::DecodeSnapshotFrame(msg, &snap));
          on_snapshot(std::move(snap), at);
          continue;
        }
        qpi::JsonValue line;
        QPI_RETURN_NOT_OK(qpi::JsonParse(msg, &line));
        std::string type = line.GetString("type");
        if (type == "snapshot") {
          QPI_RETURN_NOT_OK(qpi::DecodeSnapshot(line, &snap));
          on_snapshot(std::move(snap), at);
        } else if (type == "submitted" || type == "error") {
          if (pending[c].empty()) {
            return Status::Internal("unsolicited " + type + " reply");
          }
          size_t i = pending[c].front();
          pending[c].pop_front();
          if (type == "error") {
            fail(i, "submit refused: " + line.GetString("error"));
            finish_query(i, at);
            continue;
          }
          q[i].submitted_ms = at;
          q[i].id = static_cast<uint64_t>(line.GetNumber("id"));
          by_id[q[i].id] = i;
          conns[c]->Send(IdLine("watch", q[i].id, spec.cadence_ms));
          for (size_t w = 1; w < spec.watchers; ++w) {
            conns[w]->Send(IdLine("watch", q[i].id, spec.cadence_ms));
          }
        }
      }
    }
  }
  const double end = last_done;
  out->window_ms = end - start;
  out->cpu_ms = ProcessCpuMs() - cpu_before;

  for (size_t i = 0; i < count; ++i) {
    QueryRecord& r = q[i];
    ++out->attempted;
    if (r.done_ms < 0) fail(i, "timed out");
    if (!r.failed) {
      bool covered = false;
      std::string why = CheckFinal(
          spec, data.statements[r.statement].reference, r.final_snapshot,
          &covered);
      if (!why.empty()) fail(i, why);
      if (r.state == "ola_stopped") {
        ++out->ola_stopped;
        if (covered) ++out->ola_covered;
      }
    }
    if (r.failed) {
      ++out->failed;
      if (out->failures.size() < 5) {
        out->failures.push_back("query " + std::to_string(i) + " (" +
                                data.statements[r.statement].sql +
                                "): " + r.failure);
      }
    }
  }
  if (done < count) return Status::OK();  // timeouts already counted

  // After the window: audits of finished queries (closed loops only; the
  // storm's thousands of trivial queries would dominate the run), then the
  // server counters.
  for (const QueryRecord& r : q) {
    if (spec.open_loop || r.state != "finished") continue;
    qpi::JsonValue reply;
    QPI_RETURN_NOT_OK(RoundTrip(conns[0].get(),
                                IdLine("trace", r.id, 0), "trace", &reply));
    qpi::TraceDump dump;
    QPI_RETURN_NOT_OK(qpi::DecodeTrace(reply, &dump));
    CollectAuditErrors(dump.audit_json, &out->progress_err);
  }
  qpi::ServerStats after;
  QPI_RETURN_NOT_OK(FetchStats(conns[0].get(), &after));
  out->stats_delta = StatsDelta(before, after);
  out->rss_growth_kb = CurrentRssKb() - rss_before;

  if (tracer != nullptr) {
    for (const QueryRecord& r : q) {
      if (r.failed) continue;
      int64_t root = tracer->Add("query", r.due_ms, r.done_ms, -1, r.id);
      tracer->Add("submit", r.sent_ms, r.submitted_ms, root, r.id);
      double running = r.first_running_ms >= 0 ? r.first_running_ms
                                               : r.final_server_ms;
      tracer->Add("queued", r.submitted_ms, running, root, r.id);
      tracer->Add("running", running, r.final_server_ms, root, r.id);
      tracer->Add("deliver_final", r.final_server_ms, r.done_ms, root, r.id);
    }
  }
  return Status::OK();
}

}  // namespace qpibench
