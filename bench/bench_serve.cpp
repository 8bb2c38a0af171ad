// bench_serve — multi-feed serving layer scaling study (google-benchmark).
//
// Three claims, machine-checkable from the emitted counters (recorded into
// BENCH_serve.json via tools/bench_report.py):
//
//   ServeMultiplexedFeeds/N   N in {2,4,8,16} feeds multiplexed through
//                             one shared pool: throughput
//                             (items_per_second = published trajectories)
//                             and per-iteration window counts. `feeds`
//                             documents the concurrency level.
//   ServeIsolationCheck/8     1 hog feed (recycling ids, exhausts its
//                             per-object budget) + 7 victims. Every feed's
//                             multiplexed output is compared bit-for-bit
//                             against its SOLO run at the same master
//                             seed: isolation_bit_identical must be 1 and
//                             hog_windows_refused > 0 (the hog really ran
//                             dry while the victims noticed nothing).
//   ServeDeadlineClose/8      8 trickle feeds that never fill a
//                             count-based window; --close-after-ms style
//                             deadline closure must bound the close-wait
//                             tail: deadline_met is 1 iff
//                             close_wait_p99_ms < deadline_ms.
//   ServeCheckpoint           every iteration runs the same 8-feed
//                             workload twice — durable budget ledgers off,
//                             then on (write-ahead snapshot + fsync before
//                             every publish flush) — and reports the
//                             paired throughput ratio
//                             (checkpoint_throughput_ratio) plus
//                             checkpoints_per_iter. The acceptance claim
//                             is ratio >= 0.9: checkpointing costs at
//                             most 10% at production window sizes.
//   ServeTraceOverhead        the same paired design for span tracing:
//                             recorder disarmed, then armed (dump drained
//                             and discarded). trace_throughput_ratio is
//                             the armed/disarmed throughput ratio; the
//                             disarmed half doubles as the compiled-in-
//                             but-disabled neutrality figure against the
//                             committed baseline (claim: ratio >= 0.97).
//   ServeAdminScrapeOverhead  the same ABBA-paired design for the admin
//                             introspection plane: a 16-feed run with no
//                             admin listener vs the same run scraped at
//                             10 Hz (GET /metrics + GET /feedz) over a
//                             Unix socket. admin_scrape_throughput_ratio
//                             is scraped/unscraped throughput; the claim
//                             is ratio >= 0.99 — handlers only read
//                             registry atomics and snapshot copies, so a
//                             live scraper must be throughput-neutral.
//   DispatcherWakeup/N        N in {16,256,2048} dormant feeds each hold
//                             an armed (never-due) close deadline while
//                             one hot feed drives 40 windows through the
//                             dispatcher loop. With the min-deadline heap
//                             the timed hot phase must stay flat in N
//                             (the old per-wakeup deadline rescan was
//                             O(feeds)).
//   EdgeAggregator/E          E in {2,4,8} scripted edges stream
//                             pre-encoded frames (hello + 200 trajectory
//                             frames + bye each) over a Unix-socket
//                             loopback into one IngressServer feeding a
//                             live dispatcher: end-to-end framed ingest
//                             throughput scaling with edge count.
//
// The container may be single-core: throughput numbers are modest there,
// but the isolation and deadline claims are scheduling-independent.

#include <benchmark/benchmark.h>

#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/ingress.h"
#include "net/socket.h"
#include "obs/admin_server.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "service/dispatcher.h"
#include "stream/ingest.h"
#include "traj/trajectory.h"

namespace {

constexpr uint64_t kSeed = 42;

/// Deterministic arrivals; ids recycle modulo `distinct_ids` when > 0.
std::vector<frt::Trajectory> FeedArrivals(int arrivals, int distinct_ids) {
  std::vector<frt::Trajectory> out;
  out.reserve(arrivals);
  for (int i = 0; i < arrivals; ++i) {
    const int id = distinct_ids > 0 ? i % distinct_ids : i;
    const int points = 24 + (i * 7) % 13;
    double x = 200.0 + (i * 137) % 1700;
    double y = 300.0 + (i * 251) % 1500;
    int64_t t = 1000 + i;
    frt::Trajectory traj(id);
    for (int j = 0; j < points; ++j) {
      traj.Append(frt::Point{x, y}, t);
      x += 35.0 + (j * 11) % 20;
      y += 25.0 + ((i + j) * 13) % 30;
      t += 60;
    }
    out.push_back(std::move(traj));
  }
  return out;
}

frt::ServiceConfig BaseConfig() {
  frt::ServiceConfig config;
  config.stream.window_size = 10;
  config.stream.batch.shards = 2;
  config.stream.batch.pipeline.m = 3;
  config.stream.batch.pipeline.epsilon_global = 0.5;
  config.stream.batch.pipeline.epsilon_local = 0.5;
  config.pool_threads = 4;
  return config;
}

frt::ServiceSink CountingSink(size_t* trajectories) {
  return [trajectories](const std::string&, const frt::Dataset& published,
                        const frt::WindowReport&) -> frt::Status {
    *trajectories += published.size();
    return frt::Status::OK();
  };
}

void BM_ServeMultiplexedFeeds(benchmark::State& state) {
  const int feeds = static_cast<int>(state.range(0));
  const int arrivals_per_feed = 60;
  const std::vector<frt::Trajectory> arrivals =
      FeedArrivals(arrivals_per_feed, 0);
  std::vector<std::string> names;
  names.reserve(feeds);
  for (int f = 0; f < feeds; ++f) {
    names.push_back("feed" + std::to_string(f));
  }
  size_t published = 0;
  size_t windows = 0;
  for (auto _ : state) {
    frt::ServiceDispatcher service(BaseConfig(), CountingSink(&published));
    if (!service.Start(kSeed).ok()) {
      state.SkipWithError("service failed to start");
      return;
    }
    for (const frt::Trajectory& t : arrivals) {
      for (const std::string& name : names) {
        if (!service.Offer(name, t)) {
          state.SkipWithError("offer rejected");
          return;
        }
      }
    }
    if (!service.Finish().ok()) {
      state.SkipWithError("service run failed");
      return;
    }
    windows += service.report().windows_published;
  }
  state.SetItemsProcessed(static_cast<int64_t>(published));
  state.counters["feeds"] = static_cast<double>(feeds);
  state.counters["pool_workers"] = 4.0;
  state.counters["windows_per_iter"] =
      benchmark::Counter(static_cast<double>(windows),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ServeMultiplexedFeeds)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Minimal bit-level capture: feed -> flat list of (id, points).
struct Capture {
  std::map<std::string,
           std::vector<std::pair<frt::TrajId,
                                 std::vector<frt::TimedPoint>>>>
      feeds;
  frt::ServiceSink MakeSink() {
    return [this](const std::string& feed, const frt::Dataset& published,
                  const frt::WindowReport&) -> frt::Status {
      auto& rows = feeds[feed];
      for (const auto& t : published.trajectories()) {
        rows.emplace_back(t.id(), t.points());
      }
      return frt::Status::OK();
    };
  }
};

void BM_ServeIsolationCheck(benchmark::State& state) {
  const int feeds = static_cast<int>(state.range(0));
  frt::ServiceConfig config = BaseConfig();
  config.stream.window_size = 5;
  config.stream.accounting = frt::BudgetAccounting::kPerObject;
  config.stream.per_object_budget = 2.0;

  std::vector<std::string> names = {"hog"};
  std::vector<std::vector<frt::Trajectory>> arrivals;
  arrivals.push_back(FeedArrivals(30, 5));  // ids recycle 6x: runs dry
  for (int f = 1; f < feeds; ++f) {
    names.push_back("victim" + std::to_string(f));
    arrivals.push_back(FeedArrivals(30, 0));
  }

  double identical = 1.0;
  double hog_refused = 0.0;
  for (auto _ : state) {
    // Solo baselines.
    std::vector<Capture> solo(feeds);
    for (int f = 0; f < feeds; ++f) {
      frt::ServiceDispatcher service(config, solo[f].MakeSink());
      if (!service.Start(kSeed).ok()) {
        state.SkipWithError("solo start failed");
        return;
      }
      for (const frt::Trajectory& t : arrivals[f]) {
        service.Offer(names[f], t);
      }
      if (!service.Finish().ok()) {
        state.SkipWithError("solo run failed");
        return;
      }
    }
    // Multiplexed, round-robin interleaved.
    Capture multi;
    frt::ServiceDispatcher service(config, multi.MakeSink());
    if (!service.Start(kSeed).ok()) {
      state.SkipWithError("multiplexed start failed");
      return;
    }
    for (size_t i = 0; i < arrivals[0].size(); ++i) {
      for (int f = 0; f < feeds; ++f) {
        service.Offer(names[f], arrivals[f][i]);
      }
    }
    if (!service.Finish().ok()) {
      state.SkipWithError("multiplexed run failed");
      return;
    }
    for (int f = 0; f < feeds; ++f) {
      if (multi.feeds[names[f]] != solo[f].feeds[names[f]]) {
        identical = 0.0;
      }
    }
    for (const frt::FeedReport& feed : service.report().feeds_report) {
      if (feed.feed == "hog") {
        hog_refused = static_cast<double>(feed.stream.windows_refused);
      }
    }
  }
  state.counters["feeds"] = static_cast<double>(feeds);
  state.counters["isolation_bit_identical"] = identical;
  state.counters["hog_windows_refused"] = hog_refused;
}
BENCHMARK(BM_ServeIsolationCheck)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ServeDeadlineClose(benchmark::State& state) {
  const int feeds = static_cast<int>(state.range(0));
  const int64_t deadline_ms = 150;
  frt::ServiceConfig config = BaseConfig();
  config.stream.window_size = 1000;  // count closure never fires
  config.stream.close_after_ms = deadline_ms;

  const std::vector<frt::Trajectory> arrivals = FeedArrivals(32, 0);
  std::vector<std::string> names;
  for (int f = 0; f < feeds; ++f) {
    names.push_back("live" + std::to_string(f));
  }
  double p50 = 0.0, p99 = 0.0, worst = 0.0, deadline_windows = 0.0;
  for (auto _ : state) {
    size_t published = 0;
    frt::ServiceDispatcher service(config, CountingSink(&published));
    if (!service.Start(kSeed).ok()) {
      state.SkipWithError("service failed to start");
      return;
    }
    // Trickle: one arrival per feed every 10 ms — a window would need
    // 10 s to fill by count, so only the deadline can close it.
    for (const frt::Trajectory& t : arrivals) {
      for (const std::string& name : names) {
        service.Offer(name, t);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!service.Finish().ok()) {
      state.SkipWithError("service run failed");
      return;
    }
    const frt::ServiceReport& report = service.report();
    p50 = report.close_wait_p50_ms;
    p99 = report.close_wait_p99_ms;
    worst = report.close_wait_max_ms;
    deadline_windows =
        static_cast<double>(report.windows_deadline_closed);
  }
  state.counters["feeds"] = static_cast<double>(feeds);
  state.counters["deadline_ms"] = static_cast<double>(deadline_ms);
  state.counters["close_wait_p50_ms"] = p50;
  state.counters["close_wait_p99_ms"] = p99;
  state.counters["close_wait_max_ms"] = worst;
  state.counters["windows_deadline_closed"] = deadline_windows;
  state.counters["deadline_met"] =
      (p99 > 0.0 && p99 < static_cast<double>(deadline_ms)) ? 1.0 : 0.0;
}
BENCHMARK(BM_ServeDeadlineClose)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ServeCheckpoint(benchmark::State& state) {
  const int feeds = 8;
  // Production-shaped windows (100 trajectories; the CLI default is
  // --window 1000, the scaling study above uses 10-trajectory
  // micro-windows): the write-ahead fsync is a fixed cost per publish
  // flush, so the overhead claim is stated at a window size where real
  // deployments run, not at a size that is all fsync.
  const int arrivals_per_feed = 200;
  const std::vector<frt::Trajectory> arrivals =
      FeedArrivals(arrivals_per_feed, 0);
  std::vector<std::string> names;
  names.reserve(feeds);
  for (int f = 0; f < feeds; ++f) {
    names.push_back("feed" + std::to_string(f));
  }

  // A fresh state dir per durable run: recovery is NOT part of the
  // measured path, only the write-ahead snapshot+fsync on every publish
  // flush.
  std::string templ = "/tmp/frt_bench_ckpt_XXXXXX";
  if (mkdtemp(templ.data()) == nullptr) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  const std::string state_dir = templ;

  // One service run; returns wall seconds, or < 0 on failure.
  size_t checkpoints = 0;
  auto run_once = [&](bool durable, size_t* published) -> double {
    frt::ServiceConfig config = BaseConfig();
    config.stream.window_size = 100;
    config.stream.batch.pipeline.m = 5;
    if (durable) {
      // Start cold every time (first boot, no recovery).
      ::unlink((state_dir + "/budget_ledgers.ckpt").c_str());
      config.state_dir = state_dir;
      config.checkpoint_interval_ms = 50;
    }
    frt::ServiceDispatcher service(config, CountingSink(published));
    const auto start = std::chrono::steady_clock::now();
    if (!service.Start(kSeed).ok()) return -1.0;
    for (const frt::Trajectory& t : arrivals) {
      for (const std::string& name : names) {
        if (!service.Offer(name, t)) return -1.0;
      }
    }
    if (!service.Finish().ok()) return -1.0;
    checkpoints += service.report().checkpoints_written;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // Paired off/on halves inside every iteration: scheduling drift on a
  // shared host moves both halves together, so the ratio is stable even
  // when absolute throughput wobbles run to run.
  double off_seconds = 0.0, on_seconds = 0.0;
  size_t off_published = 0, on_published = 0;
  for (auto _ : state) {
    const double off = run_once(false, &off_published);
    const double on = run_once(true, &on_published);
    if (off < 0.0 || on < 0.0) {
      state.SkipWithError("service run failed");
      return;
    }
    off_seconds += off;
    on_seconds += on;
  }
  ::unlink((state_dir + "/budget_ledgers.ckpt").c_str());
  ::rmdir(state_dir.c_str());
  state.SetItemsProcessed(
      static_cast<int64_t>(off_published + on_published));
  const double off_rate =
      off_seconds > 0.0 ? static_cast<double>(off_published) / off_seconds
                        : 0.0;
  const double on_rate =
      on_seconds > 0.0 ? static_cast<double>(on_published) / on_seconds
                       : 0.0;
  state.counters["feeds"] = static_cast<double>(feeds);
  state.counters["throughput_off_per_s"] = off_rate;
  state.counters["throughput_on_per_s"] = on_rate;
  state.counters["checkpoint_throughput_ratio"] =
      off_rate > 0.0 ? on_rate / off_rate : 0.0;
  state.counters["checkpoints_per_iter"] =
      benchmark::Counter(static_cast<double>(checkpoints),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ServeCheckpoint)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_ServeTraceOverhead(benchmark::State& state) {
  const int feeds = 8;
  // Same production-shaped workload as the checkpoint study: the span
  // emit sites fire per window stage, so overhead is stated where the
  // window-to-span ratio matches real deployments.
  const int arrivals_per_feed = 200;
  const std::vector<frt::Trajectory> arrivals =
      FeedArrivals(arrivals_per_feed, 0);
  std::vector<std::string> names;
  names.reserve(feeds);
  for (int f = 0; f < feeds; ++f) {
    names.push_back("feed" + std::to_string(f));
  }

  auto run_once = [&](size_t* published) -> double {
    frt::ServiceConfig config = BaseConfig();
    config.stream.window_size = 100;
    config.stream.batch.pipeline.m = 5;
    frt::ServiceDispatcher service(config, CountingSink(published));
    const auto start = std::chrono::steady_clock::now();
    if (!service.Start(kSeed).ok()) return -1.0;
    for (const frt::Trajectory& t : arrivals) {
      for (const std::string& name : names) {
        if (!service.Offer(name, t)) return -1.0;
      }
    }
    if (!service.Finish().ok()) return -1.0;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // Mirrored pairs per iteration (off,on then on,off — see
  // BM_ServeCheckpoint for the paired rationale): a single ~100 ms
  // service run is noisy enough (thread spawn, scheduler) to swamp the
  // span cost, and always running the armed half second would fold any
  // monotone drift (frequency throttling, cache state) into the ratio.
  // The ABBA order cancels linear drift exactly. The disabled halves
  // also document that the compiled-in instrumentation is free — compare
  // their throughput against the committed pre-obs baseline via
  // bench_report.py's speedup_vs_baseline.
  double off_seconds = 0.0, on_seconds = 0.0;
  size_t off_published = 0, on_published = 0;
  size_t spans = 0, dropped = 0;
  {
    // Untimed warmup: the first service run pays one-off costs (thread
    // spawn, allocator growth, page faults) that would bias whichever
    // half runs first.
    size_t warmup_published = 0;
    if (run_once(&warmup_published) < 0.0) {
      state.SkipWithError("service warmup run failed");
      return;
    }
  }
  for (auto _ : state) {
    double off = 0.0, on = 0.0;
    bool failed = false;
    for (const bool armed : {false, true, true, false}) {
      if (armed) {
        frt::obs::TraceRecorder::Options trace_options;
        // Production arms once per process; this study arms per ~0.2 s
        // run with freshly spawned threads, so the rings are faulted in
        // inside the timed region every time. Size them to the run's
        // actual per-thread span load (~2k spans/run total, zero drops
        // observed at 1024/thread) so the measured ratio is the
        // steady-state emit cost, not the one-off 4 MiB/thread
        // default-ring page-in that a long-lived service amortizes to
        // zero.
        trace_options.buffer_events = 1024;
        frt::obs::TraceRecorder::Get().Start(trace_options);
      }
      const double elapsed =
          run_once(armed ? &on_published : &off_published);
      if (armed) {
        const frt::obs::TraceDump dump =
            frt::obs::TraceRecorder::Get().Stop();
        spans += dump.events.size();
        dropped += dump.dropped;
      }
      if (elapsed < 0.0) failed = true;
      (armed ? on : off) += elapsed;
    }
    if (failed) {
      state.SkipWithError("service run failed");
      return;
    }
    off_seconds += off;
    on_seconds += on;
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(off_published + on_published));
  const double off_rate =
      off_seconds > 0.0 ? static_cast<double>(off_published) / off_seconds
                        : 0.0;
  const double on_rate =
      on_seconds > 0.0 ? static_cast<double>(on_published) / on_seconds
                       : 0.0;
  state.counters["feeds"] = static_cast<double>(feeds);
  state.counters["throughput_off_per_s"] = off_rate;
  state.counters["throughput_on_per_s"] = on_rate;
  state.counters["trace_throughput_ratio"] =
      off_rate > 0.0 ? on_rate / off_rate : 0.0;
  state.counters["spans_per_iter"] = benchmark::Counter(
      static_cast<double>(spans), benchmark::Counter::kAvgIterations);
  state.counters["spans_dropped_per_iter"] = benchmark::Counter(
      static_cast<double>(dropped), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ServeTraceOverhead)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// One scrape: HTTP/1.0 GET over the admin Unix socket, response drained
/// to EOF. Returns false if the connection or write failed.
bool AdminGet(const frt::net::Endpoint& endpoint,
              const std::string& target) {
  auto conn = frt::net::ConnectTo(endpoint);
  if (!conn.ok()) return false;
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  if (!frt::net::WriteAll(conn->fd(), request.data(), request.size())
           .ok()) {
    return false;
  }
  ::shutdown(conn->fd(), SHUT_WR);
  char buf[4096];
  size_t total = 0;
  for (;;) {
    const ssize_t n = ::recv(conn->fd(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    total += static_cast<size_t>(n);
  }
  return total > 0;
}

void BM_ServeAdminScrapeOverhead(benchmark::State& state) {
  // The admin plane's core contract quantified: handlers only read
  // registry atomics and SnapshotBoard copies, so a live 10 Hz scraper
  // (a Prometheus server plus a curl-happy operator) must not move
  // serving throughput. 16 feeds through one shared pool, ABBA-mirrored
  // unscraped/scraped halves per iteration (see BM_ServeTraceOverhead
  // for the pairing rationale).
  const int feeds = 16;
  const int arrivals_per_feed = 100;
  const std::vector<frt::Trajectory> arrivals =
      FeedArrivals(arrivals_per_feed, 0);
  std::vector<std::string> names;
  names.reserve(feeds);
  for (int f = 0; f < feeds; ++f) {
    names.push_back("feed" + std::to_string(f));
  }

  int round = 0;
  size_t scrapes = 0, failed_scrapes = 0;
  auto run_once = [&](bool scraped, size_t* published) -> double {
    frt::ServiceConfig config = BaseConfig();
    config.stream.window_size = 100;
    config.stream.batch.pipeline.m = 5;
    config.metrics_interval_ms = 100;  // live snapshot board ticks
    frt::ServiceDispatcher service(config, CountingSink(published));

    std::unique_ptr<frt::obs::AdminServer> admin;
    std::thread scraper;
    std::atomic<bool> stop_scraper{false};
    frt::net::Endpoint endpoint;
    if (scraped) {
      endpoint.kind = frt::net::Endpoint::Kind::kUnix;
      endpoint.path = "/tmp/frt_bench_admin_" +
                      std::to_string(::getpid()) + "_" +
                      std::to_string(round++) + ".sock";
      frt::obs::AdminServer::Options options;
      options.endpoint = endpoint;
      admin = std::make_unique<frt::obs::AdminServer>(options);
      frt::ServiceDispatcher* service_ptr = &service;
      admin->Handle(
          "GET", "/feedz",
          [service_ptr](const frt::obs::HttpRequest&) {
            frt::obs::HttpResponse response;
            response.content_type = "application/json";
            const auto intro = service_ptr->snapshots().Read();
            if (intro == nullptr) {
              response.status = 503;
              response.body = "{\"error\":\"starting\"}\n";
              return response;
            }
            std::string body = "{\"feed\":[";
            for (size_t i = 0; i < intro->feeds_detail.size(); ++i) {
              const auto& feed = intro->feeds_detail[i];
              if (i > 0) body += ',';
              body += "{\"feed\":\"" + feed.feed + "\",\"eps_spent\":" +
                      std::to_string(feed.epsilon_spent) + "}";
            }
            body += "]}\n";
            response.body = std::move(body);
            return response;
          });
      if (!admin->Start().ok()) return -1.0;
      scraper = std::thread([&endpoint, &stop_scraper, &scrapes,
                             &failed_scrapes] {
        // 10 Hz alternating /metrics and /feedz — both endpoints every
        // 200 ms, the cadence a Prometheus scrape_interval of a few
        // seconds would comfortably exceed.
        while (!stop_scraper.load(std::memory_order_relaxed)) {
          ++scrapes;
          if (!AdminGet(endpoint, "/metrics")) ++failed_scrapes;
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          if (stop_scraper.load(std::memory_order_relaxed)) break;
          ++scrapes;
          if (!AdminGet(endpoint, "/feedz")) ++failed_scrapes;
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      });
    }

    const auto start = std::chrono::steady_clock::now();
    double elapsed = -1.0;
    if (service.Start(kSeed).ok()) {
      bool offered = true;
      for (const frt::Trajectory& t : arrivals) {
        for (const std::string& name : names) {
          if (!service.Offer(name, t)) {
            offered = false;
            break;
          }
        }
        if (!offered) break;
      }
      if (offered && service.Finish().ok()) {
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      }
    }
    if (scraped) {
      stop_scraper.store(true, std::memory_order_relaxed);
      scraper.join();
      admin->Stop();
    }
    return elapsed;
  };

  {
    // Untimed warmup (see BM_ServeTraceOverhead).
    size_t warmup_published = 0;
    if (run_once(false, &warmup_published) < 0.0) {
      state.SkipWithError("service warmup run failed");
      return;
    }
  }
  double off_seconds = 0.0, on_seconds = 0.0;
  size_t off_published = 0, on_published = 0;
  for (auto _ : state) {
    double off = 0.0, on = 0.0;
    bool failed = false;
    for (const bool scraped : {false, true, true, false}) {
      const double elapsed =
          run_once(scraped, scraped ? &on_published : &off_published);
      if (elapsed < 0.0) failed = true;
      (scraped ? on : off) += elapsed;
    }
    if (failed) {
      state.SkipWithError("service run failed");
      return;
    }
    off_seconds += off;
    on_seconds += on;
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(off_published + on_published));
  const double off_rate =
      off_seconds > 0.0 ? static_cast<double>(off_published) / off_seconds
                        : 0.0;
  const double on_rate =
      on_seconds > 0.0 ? static_cast<double>(on_published) / on_seconds
                       : 0.0;
  state.counters["feeds"] = static_cast<double>(feeds);
  state.counters["throughput_off_per_s"] = off_rate;
  state.counters["throughput_on_per_s"] = on_rate;
  state.counters["admin_scrape_throughput_ratio"] =
      off_rate > 0.0 ? on_rate / off_rate : 0.0;
  state.counters["scrapes_per_iter"] = benchmark::Counter(
      static_cast<double>(scrapes), benchmark::Counter::kAvgIterations);
  state.counters["failed_scrapes_per_iter"] = benchmark::Counter(
      static_cast<double>(failed_scrapes),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ServeAdminScrapeOverhead)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DispatcherWakeup(benchmark::State& state) {
  // Deadline handling must not scale with feed count: N dormant feeds sit
  // with one partial window each and an armed (far-future) close
  // deadline, while one hot feed drives 40 count-closed windows. The old
  // dispatcher rescanned every session's deadline on each loop wakeup
  // (O(feeds) per arrival); the min-deadline heap makes the timed hot
  // phase independent of N — real_time should stay flat from 16 to 2048
  // dormant feeds.
  const int dormant_feeds = static_cast<int>(state.range(0));
  const int hot_windows = 40;
  frt::ServiceConfig config = BaseConfig();
  // Armed on every dormant feed; never due during the run.
  config.stream.close_after_ms = 60 * 1000;
  const std::vector<frt::Trajectory> hot =
      FeedArrivals(hot_windows * 10, 0);
  const frt::Trajectory dormant_arrival = FeedArrivals(1, 0)[0];
  std::vector<std::string> dormant_names;
  dormant_names.reserve(dormant_feeds);
  for (int f = 0; f < dormant_feeds; ++f) {
    dormant_names.push_back("dormant" + std::to_string(f));
  }
  size_t hot_published_total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::mutex mu;
    std::condition_variable cv;
    int hot_windows_published = 0;
    frt::ServiceDispatcher service(
        config, [&](const std::string& feed, const frt::Dataset&,
                    const frt::WindowReport&) -> frt::Status {
          if (feed == "hot") {
            std::lock_guard<std::mutex> lock(mu);
            ++hot_windows_published;
            cv.notify_all();
          }
          return frt::Status::OK();
        });
    if (!service.Start(kSeed).ok()) {
      state.SkipWithError("service failed to start");
      return;
    }
    for (const std::string& name : dormant_names) {
      if (!service.Offer(name, dormant_arrival)) {
        state.SkipWithError("offer rejected");
        return;
      }
    }
    state.ResumeTiming();
    // Timed: drive the hot feed through the dispatcher loop while N
    // armed deadlines sit in the heap, and wait until its windows land.
    for (const frt::Trajectory& t : hot) {
      if (!service.Offer("hot", t)) {
        state.SkipWithError("offer rejected");
        return;
      }
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return hot_windows_published >= hot_windows; });
    }
    state.PauseTiming();
    // Untimed: the final flush publishes the N dormant partial windows —
    // O(N) work in any implementation, not what this study measures.
    if (!service.Finish().ok()) {
      state.SkipWithError("service run failed");
      return;
    }
    hot_published_total += static_cast<size_t>(hot_windows_published);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) * hot.size());
  state.counters["dormant_feeds"] = static_cast<double>(dormant_feeds);
  state.counters["hot_windows_per_iter"] =
      static_cast<double>(hot_windows);
}
BENCHMARK(BM_DispatcherWakeup)
    ->Arg(16)
    ->Arg(256)
    ->Arg(2048)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EdgeAggregator(benchmark::State& state) {
  // The distributed ingress tier end to end on a real Unix-socket
  // loopback: E scripted edges stream pre-encoded trajectory frames into
  // one IngressServer that offers into a live dispatcher. Measures
  // framing + CRC + decode + serve throughput as the edge count grows
  // (items_per_second = trajectories received and published).
  const int edges = static_cast<int>(state.range(0));
  const int trajs_per_edge = 200;
  const std::vector<frt::Trajectory> arrivals =
      FeedArrivals(trajs_per_edge, 0);
  // Encode each edge's whole wire stream once, outside the timed loop:
  // the aggregator side is the system under test.
  std::vector<std::string> wires(static_cast<size_t>(edges));
  for (int e = 0; e < edges; ++e) {
    std::string& wire = wires[static_cast<size_t>(e)];
    frt::net::AppendFrame(&wire, frt::net::FrameType::kHello,
                          "bench-edge");
    const std::string feed = "edge" + std::to_string(e);
    for (const frt::Trajectory& t : arrivals) {
      frt::net::AppendFrame(&wire, frt::net::FrameType::kTrajectory,
                            frt::net::EncodeTrajectoryPayload(feed, t));
    }
    frt::net::AppendFrame(&wire, frt::net::FrameType::kBye, {});
  }
  size_t published = 0;
  size_t quarantines = 0;
  int round = 0;
  for (auto _ : state) {
    frt::ServiceDispatcher service(BaseConfig(), CountingSink(&published));
    if (!service.Start(kSeed).ok()) {
      state.SkipWithError("service failed to start");
      return;
    }
    frt::net::Endpoint endpoint;
    endpoint.kind = frt::net::Endpoint::Kind::kUnix;
    endpoint.path = "/tmp/frt_bench_agg_" + std::to_string(::getpid()) +
                    "_" + std::to_string(round++) + ".sock";
    frt::net::IngressServer::Options options;
    options.endpoint = endpoint;
    options.max_connections = static_cast<size_t>(edges);
    frt::net::IngressServer ingress(
        options,
        [&service](std::string feed, frt::Trajectory t) {
          return service.Offer(std::move(feed), std::move(t));
        },
        [&quarantines](const std::string&, const std::string&) {
          ++quarantines;
        });
    if (!ingress.Start().ok()) {
      state.SkipWithError("ingress failed to start");
      return;
    }
    std::vector<std::thread> senders;
    senders.reserve(static_cast<size_t>(edges));
    for (int e = 0; e < edges; ++e) {
      senders.emplace_back([&, e] {
        auto conn = frt::net::ConnectTo(endpoint);
        if (!conn.ok()) return;
        (void)frt::net::WriteAll(conn->fd(),
                                 wires[static_cast<size_t>(e)].data(),
                                 wires[static_cast<size_t>(e)].size());
      });
    }
    for (std::thread& t : senders) t.join();
    ingress.Wait();
    if (!service.Finish().ok()) {
      state.SkipWithError("service run failed");
      return;
    }
  }
  if (quarantines != 0) {
    state.SkipWithError("unexpected quarantine during clean loopback");
    return;
  }
  state.SetItemsProcessed(static_cast<int64_t>(published));
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["trajs_per_edge"] = static_cast<double>(trajs_per_edge);
}
BENCHMARK(BM_EdgeAggregator)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
