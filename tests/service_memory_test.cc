// What a served query keeps after its terminal snapshot, and the races
// around releasing the rest.
//
//  - Retention: a finished query keeps its handle (slots, trace, audit,
//    frozen counters), never its operator tree or estimators. Live heap
//    growth per finished short statement, watched to its terminal, stays
//    a few KiB.
//  - Release races: watches at 1 ms cadence, cancel, stop, watch and trace
//    verbs, and direct snapshot builds race each query's terminal and the
//    release of its execution (the point of running under service-tsan
//    and service-asan).
//  - Frozen state: for every terminal kind, the terminal snapshot built
//    after the release equals, in JSON and binary, the one computed from
//    the live accountant before it.
//
// This binary replaces the global operator new with one that tracks live
// bytes through malloc_usable_size, which the sanitizers also intercept.

#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/tpch_like.h"
#include "progress/snapshot_json.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/protocol_binary.h"
#include "service/server.h"
#include "storage/catalog.h"

namespace {
std::atomic<int64_t> g_live_bytes{0};

void Release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }

namespace qpi {
namespace {

/// Short statements of four shapes — a point filter, a small GROUP BY, a
/// small join with GROUP BY and a filtered aggregate — with `variants`
/// literals each, spread over the columns' ranges.
std::vector<std::string> ShortStatements(int variants) {
  std::vector<std::string> out;
  char buf[512];
  for (int i = 0; i < variants; ++i) {
    double f = (i + 0.5) / variants;
    std::snprintf(buf, sizeof(buf),
                  "SELECT * FROM orders WHERE orderkey = %.0f",
                  1 + f * 15000);
    out.emplace_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "SELECT mktsegment, COUNT(*), SUM(acctbal) FROM customer "
                  "WHERE nationkey <= %.0f GROUP BY mktsegment",
                  5 + f * 20);
    out.emplace_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "SELECT nation.regionkey, COUNT(*) FROM customer "
                  "JOIN nation ON nation.nationkey = customer.nationkey "
                  "WHERE customer.acctbal > %.2f GROUP BY nation.regionkey",
                  -999.0 + 9000.0 * f);
    out.emplace_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "SELECT COUNT(*), SUM(totalprice) FROM orders "
                  "WHERE orderdate >= %.0f",
                  19920101 + f * 61130);
    out.emplace_back(buf);
  }
  return out;
}

// A join on two low-cardinality columns (millions of output rows): runs
// long enough to hold later statements in the admission queue, or to be
// cancelled mid-run.
const char kBlockerSql[] =
    "SELECT COUNT(*) FROM lineitem JOIN orders "
    "ON orders.orderpriority = lineitem.linenumber";

const char kOlaSql[] =
    "SELECT COUNT(*), SUM(totalprice) FROM orders JOIN lineitem "
    "ON orders.orderkey = lineitem.orderkey";

class ServiceMemoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchLikeGenerator gen(1);
    ASSERT_TRUE(gen.PopulateCatalog(&catalog_, 0.01).ok());
  }

  std::unique_ptr<QpiServer> StartServer(QpiServer::Options options) {
    auto server = std::make_unique<QpiServer>(&catalog_, options);
    EXPECT_TRUE(server->Start().ok());
    return server;
  }

  Catalog catalog_;
};

/// Wait until no query is queued or running: every finished query has
/// released its execution (the worker frees its inflight slot after).
void WaitIdle(QpiServer* server) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    ServerStats stats = server->GetStats();
    if (stats.queued == 0 && stats.running == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ADD_FAILURE() << "server did not go idle";
}

/// Submit and watch `count` statements from `pool`, round robin, from
/// `clients` connections in parallel; every stream must end final.
void ServeWatched(QpiServer* server, const std::vector<std::string>& pool,
                  size_t count, size_t clients) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  std::vector<std::string> failures(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      QpiClient client;
      Status s = client.Connect("127.0.0.1", server->port());
      for (size_t i = next.fetch_add(1); s.ok() && i < count;
           i = next.fetch_add(1)) {
        uint64_t id = 0;
        s = client.Submit(pool[i % pool.size()], &id);
        WireSnapshot final_snap;
        if (s.ok()) s = client.Watch(id, 10, nullptr, &final_snap);
        if (s.ok() && final_snap.state != "finished") {
          s = Status::Internal("query ended " + final_snap.state);
        }
      }
      if (!s.ok()) failures[c] = s.ToString();
      client.Quit();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
}

TEST_F(ServiceMemoryTest, FinishedQueriesRetainOnlyTheirHandle) {
  QpiServer::Options options;
  options.exec_workers = 4;
  options.max_inflight = 4;
  auto server = StartServer(options);
  const std::vector<std::string> pool = ShortStatements(8);
  // Warm every statement (the feedback cache holds one entry set per plan
  // shape) and the allocator's per-thread caches.
  ServeWatched(server.get(), pool, 2 * pool.size(), 4);
  WaitIdle(server.get());

  constexpr size_t kQueries = 256;
  int64_t before = g_live_bytes.load();
  ServeWatched(server.get(), pool, kQueries, 4);
  WaitIdle(server.get());
  int64_t after = g_live_bytes.load();
  double per_query =
      static_cast<double>(after - before) / static_cast<double>(kQueries);
  RecordProperty("retained_bytes_per_query",
                 std::to_string(static_cast<int64_t>(per_query)));
  // A handle keeps its slots, a trace of a few samples, the operator
  // labels, the audit and the frozen counters: a few KiB. Keeping the
  // tree, accountant and estimators costs tens of KiB per statement.
  EXPECT_LT(per_query, 10.0 * 1024) << "live bytes " << before << " -> "
                                    << after;
  server->Shutdown();
}

TEST_F(ServiceMemoryTest, VerbsRaceTheTerminalAndTheRelease) {
  QpiServer::Options options;
  options.exec_workers = 4;
  options.max_inflight = 4;
  options.publish_interval = 64;
  auto server = StartServer(options);
  QpiServer* srv = server.get();
  const std::vector<std::string> pool = ShortStatements(4);

  constexpr size_t kQueries = 96;
  std::mutex ids_mu;
  std::vector<uint64_t> ids;
  std::atomic<bool> submitting{true};
  std::vector<std::string> failures;
  std::mutex failures_mu;
  auto fail = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(what);
  };
  auto latest = [&](size_t back) -> uint64_t {
    std::lock_guard<std::mutex> lock(ids_mu);
    if (ids.empty()) return 0;
    return ids[ids.size() - 1 - (back % ids.size())];
  };

  // Submitter: every fourth statement an OLA join (so stop has a target),
  // each watched at 1 ms from its own connection.
  std::thread submitter([&] {
    QpiClient client;
    QpiClient watcher;
    if (!client.Connect("127.0.0.1", srv->port()).ok() ||
        !watcher.Connect("127.0.0.1", srv->port()).ok()) {
      fail("connect");
      submitting.store(false);
      return;
    }
    for (size_t i = 0; i < kQueries; ++i) {
      uint64_t id = 0;
      Status s = i % 4 == 3 ? client.SubmitOla(kOlaSql, OlaOptions{}, &id)
                            : client.Submit(pool[i % pool.size()], &id);
      if (!s.ok()) {
        fail("submit: " + s.ToString());
        break;
      }
      {
        std::lock_guard<std::mutex> lock(ids_mu);
        ids.push_back(id);
      }
      WireSnapshot final_snap;
      s = watcher.Watch(id, 1, nullptr, &final_snap);
      if (!s.ok() || !final_snap.final_snapshot) {
        fail("watch " + std::to_string(id) + ": " + s.ToString());
      } else if (final_snap.state == "finished" &&
                 final_snap.gnm.total_estimate !=
                     final_snap.gnm.current_calls) {
        fail("finished query " + std::to_string(id) + " ended T != C");
      }
    }
    submitting.store(false);
    client.Quit();
    watcher.Quit();
  });

  // Wire verbs on the newest ids, from a second connection.
  std::thread verbs([&] {
    QpiClient client;
    if (!client.Connect("127.0.0.1", srv->port()).ok()) {
      fail("connect");
      return;
    }
    for (size_t round = 0; submitting.load(); ++round) {
      uint64_t id = latest(round % 3);
      if (id == 0) {
        std::this_thread::yield();
        continue;
      }
      TraceDump dump;
      Status s;
      switch (round % 4) {
        case 0:
          s = client.Cancel(id);
          break;
        case 1:
          client.Stop(id);  // non-OLA ids answer with an error, by design
          break;
        case 2:
          s = client.Trace(id, &dump);
          break;
        case 3: {
          WireSnapshot final_snap;
          s = client.Watch(id, 1, nullptr, &final_snap);
          break;
        }
      }
      if (!s.ok()) fail("verb: " + s.ToString());
    }
    client.Quit();
  });

  // In-process readers of the same handles: snapshot builds, progress and
  // state reads, which take the lifetime guard while the query is live.
  std::thread readers([&] {
    for (size_t round = 0; submitting.load(); ++round) {
      uint64_t id = latest(round % 2);
      QueryHandle* handle = id == 0 ? nullptr : srv->FindQuery(id);
      if (handle == nullptr) {
        std::this_thread::yield();
        continue;
      }
      WireSnapshot snap = srv->BuildWireSnapshot(handle, round, false);
      if (snap.ops.size() != handle->op_labels.size()) {
        fail("snapshot of " + std::to_string(id) + " lost its operators");
      }
      EncodeSnapshot(snap);
      EncodeSnapshotFrame(snap);
    }
  });

  submitter.join();
  verbs.join();
  readers.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  WaitIdle(srv);
  for (uint64_t id = 1; id <= kQueries; ++id) {
    QueryHandle* handle = srv->FindQuery(id);
    ASSERT_NE(handle, nullptr);
    EXPECT_TRUE(handle->IsTerminal());
    EXPECT_FALSE(handle->WithExecution([](QueryExecution&) {}))
        << "query " << id << " kept its execution";
  }
  server->Shutdown();
}

/// Holds query `id`'s lifetime guard from before its terminal until the
/// terminal state is stored, and records the terminal snapshot as the
/// live execution gives it. `on_live` runs once under the guard first
/// (to request a cancel or a stop, or to break the context).
class TerminalWitness {
 public:
  TerminalWitness(QpiServer* server, uint64_t id,
                  std::function<void(QueryExecution&)> on_live)
      : handle_(server->FindQuery(id)) {
    thread_ = std::thread([this, on_live = std::move(on_live)] {
      bool held = handle_->WithExecution([&](QueryExecution& e) {
        if (on_live) on_live(e);
        // After on_live: its writes happen before whatever the test does
        // next, and so before the worker reads them.
        entered_.store(true);
        while (!handle_->IsTerminal()) std::this_thread::yield();
        // The live execution's view of the terminal, as the server read
        // it before the release: counters off the tree, labels off the
        // collector, progress and rows off the handle.
        expected_.id = handle_->id;
        expected_.state = handle_->WireState();
        expected_.final_snapshot = true;
        expected_.gnm = handle_->slot.Load();
        expected_.progress = handle_->Progress();
        expected_.rows = handle_->rows_emitted.load();
        expected_.ops = CollectOperatorCounters(*e.accountant);
        live_calls_ = static_cast<double>(e.accountant->CurrentCalls());
        if (e.ola != nullptr) {
          OlaSnapshot ola = handle_->ola_slot.Load();
          expected_.ola.present = true;
          expected_.ola.draws = ola.draws;
          expected_.ola.groups = ola.groups;
          expected_.ola.frozen = ola.frozen;
          expected_.ola.exact = ola.exact;
          expected_.ola.labels = e.ola->labels();
          expected_.ola.estimate.assign(ola.estimate,
                                        ola.estimate + ola.num_aggregates);
          expected_.ola.half_width.assign(
              ola.half_width, ola.half_width + ola.num_aggregates);
        }
      });
      EXPECT_TRUE(held) << "the execution was gone before the terminal";
      entered_.store(true);
    });
    while (!entered_.load()) std::this_thread::yield();
  }

  /// Wait for the release; return the expected snapshot.
  WireSnapshot Finish(double* live_calls) {
    thread_.join();
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (handle_->WithExecution([](QueryExecution&) {}) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    *live_calls = live_calls_;
    return expected_;
  }

  QueryHandle* handle() const { return handle_; }

 private:
  QueryHandle* handle_;
  std::atomic<bool> entered_{false};
  WireSnapshot expected_;
  double live_calls_ = 0;
  std::thread thread_;
};

/// The released query's terminal snapshot, in both encodings, equals the
/// one the live execution gave.
void ExpectFrozenTerminal(QpiServer* server, TerminalWitness* witness,
                          const std::string& state) {
  double live_calls = 0;
  WireSnapshot expected = witness->Finish(&live_calls);
  QueryHandle* handle = witness->handle();
  ASSERT_FALSE(handle->WithExecution([](QueryExecution&) {}))
      << "a terminal query kept its tree";
  WireSnapshot got = server->BuildWireSnapshot(handle, 7, false);
  expected.seq = got.seq;
  expected.server_ms = got.server_ms;
  EXPECT_EQ(got.state, state);
  EXPECT_EQ(expected.state, state);
  EXPECT_TRUE(got.final_snapshot);
  EXPECT_EQ(got.gnm.current_calls, live_calls);
  EXPECT_EQ(EncodeSnapshot(got), EncodeSnapshot(expected));
  EXPECT_EQ(EncodeSnapshotFrame(got), EncodeSnapshotFrame(expected));
  if (state == "finished") {
    EXPECT_EQ(got.gnm.total_estimate, got.gnm.current_calls);
    EXPECT_EQ(got.progress, 1.0);
  }
}

TEST_F(ServiceMemoryTest, TerminalSnapshotSurvivesTheRelease) {
  QpiServer::Options options;
  options.exec_workers = 2;
  options.max_inflight = 1;
  options.publish_interval = 256;
  auto server = StartServer(options);
  QpiServer* srv = server.get();
  uint64_t blocker = 0;
  const std::string join_sql = ShortStatements(1)[2];

  {
    SCOPED_TRACE("finished");
    ASSERT_TRUE(srv->Submit(kBlockerSql, &blocker).ok());
    uint64_t id = 0;
    ASSERT_TRUE(srv->Submit(join_sql, &id).ok());
    TerminalWitness witness(srv, id, nullptr);
    ASSERT_TRUE(srv->CancelQuery(blocker).ok());
    ExpectFrozenTerminal(srv, &witness, "finished");
  }
  {
    SCOPED_TRACE("failed");
    ASSERT_TRUE(srv->Submit(kBlockerSql, &blocker).ok());
    uint64_t id = 0;
    ASSERT_TRUE(srv->Submit(join_sql, &id).ok());
    // Still queued behind the blocker: no worker reads the context yet.
    // An invalid batch size fails the run at its start.
    TerminalWitness witness(srv, id,
                            [](QueryExecution& e) { e.ctx->batch_size = 0; });
    ASSERT_TRUE(srv->CancelQuery(blocker).ok());
    ExpectFrozenTerminal(srv, &witness, "failed");
  }
  {
    SCOPED_TRACE("cancelled while running");
    uint64_t id = 0;
    ASSERT_TRUE(srv->Submit(kBlockerSql, &id).ok());
    TerminalWitness witness(srv, id, [](QueryExecution& e) {
      while (e.ctx->phase() != QueryPhase::kRunning) {
        std::this_thread::yield();
      }
      e.ctx->RequestCancel();
    });
    ExpectFrozenTerminal(srv, &witness, "cancelled");
  }
  {
    SCOPED_TRACE("cancelled while queued");
    ASSERT_TRUE(srv->Submit(kBlockerSql, &blocker).ok());
    uint64_t id = 0;
    ASSERT_TRUE(srv->Submit(join_sql, &id).ok());
    TerminalWitness witness(srv, id, nullptr);
    // The cancel terminalizes the queued query on this thread and then
    // waits on the guard the witness holds until it has read the terminal.
    std::thread canceller([&] { EXPECT_TRUE(srv->CancelQuery(id).ok()); });
    ExpectFrozenTerminal(srv, &witness, "cancelled");
    canceller.join();
    ASSERT_TRUE(srv->CancelQuery(blocker).ok());
  }
  {
    SCOPED_TRACE("ola_stopped");
    OlaOptions ola;
    ola.has_rel_target = true;
    ola.rel_target = 5.0;  // met as soon as the interval is finite
    ola.min_draws = 256;
    ASSERT_TRUE(srv->Submit(kBlockerSql, &blocker).ok());
    uint64_t id = 0;
    ASSERT_TRUE(srv->Submit(kOlaSql, &ola, &id).ok());
    TerminalWitness witness(srv, id, nullptr);
    ASSERT_TRUE(srv->CancelQuery(blocker).ok());
    ExpectFrozenTerminal(srv, &witness, "ola_stopped");
  }
  server->Shutdown();
}

}  // namespace
}  // namespace qpi
