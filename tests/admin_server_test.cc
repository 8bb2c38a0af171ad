// obs::AdminServer: the HTTP/1.0 introspection endpoint end to end over
// real sockets — routing, error paths, the validate-then-apply /control
// contract, form/JSON helpers, transient-accept classification, and a
// dispatcher-backed run whose registry series, metrics-file lines and
// /feedz scrape all match the final report.

#include "obs/admin_server.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/socket.h"
#include "service/dispatcher.h"
#include "service/metrics_exporter.h"
#include "service_cli.h"
#include "stream/ingest.h"
#include "testing_util.h"

namespace frt::obs {
namespace {

using frt::testing::SyntheticCsv;

net::Endpoint LoopbackEndpoint(uint16_t port = 0) {
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::kTcp;
  endpoint.host = "127.0.0.1";
  endpoint.port = port;
  return endpoint;
}

/// One-shot HTTP/1.0 exchange: writes `request` verbatim, reads to EOF.
std::string RawExchange(uint16_t port, const std::string& request) {
  auto conn = net::ConnectTo(LoopbackEndpoint(port));
  EXPECT_TRUE(conn.ok()) << conn.status().ToString();
  if (!conn.ok()) return {};
  EXPECT_TRUE(net::WriteAll(conn->fd(), request.data(), request.size()).ok());
  ::shutdown(conn->fd(), SHUT_WR);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  return response;
}

std::string Get(uint16_t port, const std::string& target) {
  return RawExchange(port,
                     "GET " + target + " HTTP/1.0\r\n\r\n");
}

std::string Post(uint16_t port, const std::string& target,
                 const std::string& body) {
  std::ostringstream request;
  request << "POST " << target << " HTTP/1.0\r\n"
          << "Content-Length: " << body.size() << "\r\n\r\n"
          << body;
  return RawExchange(port, request.str());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string BodyOf(const std::string& response) {
  const size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? std::string() : response.substr(sep + 4);
}

TEST(AdminServerTest, ServesMetricsFromItsRegistry) {
  Registry registry;
  registry.GetCounter("frt_test_scraped_total", "demo")->Inc(9);
  AdminServer::Options options;
  options.endpoint = LoopbackEndpoint();
  options.registry = &registry;
  AdminServer admin(options);
  ASSERT_TRUE(admin.Start().ok());
  ASSERT_NE(admin.bound_port(), 0);

  const std::string response = Get(admin.bound_port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("frt_test_scraped_total 9\n"), std::string::npos);
  // The admin plane counts its own scrapes into the same registry.
  const std::string second = Get(admin.bound_port(), "/metrics");
  EXPECT_NE(second.find("frt_admin_requests_total 2\n"), std::string::npos);
}

TEST(AdminServerTest, DefaultHealthzAndErrorPaths) {
  Registry registry;
  AdminServer::Options options;
  options.endpoint = LoopbackEndpoint();
  options.registry = &registry;
  AdminServer admin(options);
  ASSERT_TRUE(admin.Start().ok());
  const uint16_t port = admin.bound_port();

  EXPECT_NE(Get(port, "/healthz").find("ok\n"), std::string::npos);
  EXPECT_NE(Get(port, "/nope").find("HTTP/1.0 404"), std::string::npos);
  // Known path, wrong method.
  EXPECT_NE(Post(port, "/metrics", "x=y").find("HTTP/1.0 405"),
            std::string::npos);
  // Garbage request line.
  EXPECT_NE(RawExchange(port, "NOT-HTTP\r\n\r\n").find("HTTP/1.0 400"),
            std::string::npos);
}

TEST(AdminServerTest, HandlerSeesQueryAndBody) {
  Registry registry;
  AdminServer::Options options;
  options.endpoint = LoopbackEndpoint();
  options.registry = &registry;
  AdminServer admin(options);
  admin.Handle("POST", "/echo", [](const HttpRequest& request) {
    HttpResponse response;
    response.body =
        request.method + "|" + request.path + "|" + request.query + "|" +
        request.body;
    return response;
  });
  ASSERT_TRUE(admin.Start().ok());
  const std::string response =
      Post(admin.bound_port(), "/echo?a=1&b=2", "hello body");
  EXPECT_NE(response.find("POST|/echo|a=1&b=2|hello body"),
            std::string::npos);
}

TEST(AdminServerTest, ControlValidatesBeforeApplyingAnyToggle) {
  Registry registry;
  AdminServer::Options options;
  options.endpoint = LoopbackEndpoint();
  options.registry = &registry;
  AdminServer admin(options);
  std::vector<int64_t> applied;
  ControlHooks hooks;
  hooks.set_metrics_interval_ms = [&applied](int64_t ms) {
    applied.push_back(ms);
    return true;
  };
  admin.Handle("POST", "/control", MakeControlHandler(std::move(hooks)));
  ASSERT_TRUE(admin.Start().ok());
  const uint16_t port = admin.bound_port();

  // A bad toggle anywhere in the batch rejects the whole batch.
  EXPECT_NE(Post(port, "/control", "metrics_interval_ms=250&bogus=1")
                .find("HTTP/1.0 400"),
            std::string::npos);
  EXPECT_NE(
      Post(port, "/control", "metrics_interval_ms=0").find("HTTP/1.0 400"),
      std::string::npos);
  EXPECT_TRUE(applied.empty());

  const std::string ok = Post(port, "/control", "metrics_interval_ms=250");
  EXPECT_NE(ok.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(ok.find("metrics_interval_ms: 250\n"), std::string::npos);
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0], 250);

  EXPECT_NE(Post(port, "/control", "").find("HTTP/1.0 400"),
            std::string::npos);
}

TEST(AdminServerTest, ControlRejectsIntervalWithoutHook) {
  Registry registry;
  AdminServer::Options options;
  options.endpoint = LoopbackEndpoint();
  options.registry = &registry;
  AdminServer admin(options);
  admin.Handle("POST", "/control", MakeControlHandler(ControlHooks{}));
  ASSERT_TRUE(admin.Start().ok());
  const std::string response =
      Post(admin.bound_port(), "/control", "metrics_interval_ms=100");
  EXPECT_NE(response.find("HTTP/1.0 400"), std::string::npos);
  EXPECT_NE(response.find("not supported here"), std::string::npos);
}

TEST(AdminServerTest, StopIsIdempotentAndRestartable) {
  Registry registry;
  AdminServer::Options options;
  options.endpoint = LoopbackEndpoint();
  options.registry = &registry;
  AdminServer admin(options);
  ASSERT_TRUE(admin.Start().ok());
  EXPECT_FALSE(admin.Start().ok());  // double start is a precondition error
  admin.Stop();
  admin.Stop();
  ASSERT_TRUE(admin.Start().ok());
  EXPECT_NE(Get(admin.bound_port(), "/healthz").find("ok\n"),
            std::string::npos);
}

TEST(ParseFormPairsTest, DecodesEscapesAndPreservesOrder) {
  const auto pairs = ParseFormPairs("a=1&b=two+words&c=%2Fpath%3D&flag");
  ASSERT_EQ(pairs.size(), 4u);
  EXPECT_EQ(pairs[0].first, "a");
  EXPECT_EQ(pairs[0].second, "1");
  EXPECT_EQ(pairs[1].second, "two words");
  EXPECT_EQ(pairs[2].second, "/path=");
  EXPECT_EQ(pairs[3].first, "flag");
  EXPECT_EQ(pairs[3].second, "");
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string("a") + '\x01' + "b"), "a\\u0001b");
}

TEST(TransientAcceptErrorTest, ClassifiesRetryableErrnos) {
  EXPECT_TRUE(net::IsTransientAcceptError(ECONNABORTED));
  EXPECT_TRUE(net::IsTransientAcceptError(EMFILE));
  EXPECT_TRUE(net::IsTransientAcceptError(ENFILE));
  EXPECT_TRUE(net::IsTransientAcceptError(ENOBUFS));
  EXPECT_FALSE(net::IsTransientAcceptError(EBADF));
  EXPECT_FALSE(net::IsTransientAcceptError(EINVAL));
}

// ---- End to end: a dispatcher publishing into a private registry, the
// admin plane scraping it live, a metrics file on the same snapshots, and
// shutdown values matching the final report exactly (one source of
// truth: every surface renders the dispatcher's shutdown snapshot). ----

/// Value of ` key=` in one metrics-file line ("" when absent).
std::string LineValue(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  const size_t begin = at + needle.size();
  return line.substr(begin, line.find(' ', begin) - begin);
}

TEST(AdminServerTest, DispatcherRegistryMatchesFinalReportAtShutdown) {
  auto registry = std::make_unique<Registry>();
  std::string state_dir = ::testing::TempDir() + "frt_admin_XXXXXX";
  ASSERT_NE(mkdtemp(state_dir.data()), nullptr);
  ServiceConfig config;
  config.stream.window_size = 10;
  config.stream.batch.shards = 2;
  config.stream.batch.pipeline.m = 3;
  config.stream.batch.pipeline.epsilon_global = 0.5;
  config.stream.batch.pipeline.epsilon_local = 0.5;
  config.pool_threads = 2;
  config.state_dir = state_dir;
  config.registry = registry.get();

  size_t windows_seen = 0;
  ServiceDispatcher service(
      config, [&windows_seen](const std::string&, const Dataset&,
                              const WindowReport&) {
        ++windows_seen;
        return Status::OK();
      });

  AdminServer::Options options;
  options.endpoint = LoopbackEndpoint();
  options.registry = registry.get();
  AdminServer admin(options);
  admin.Handle("GET", "/feedz", [&service](const HttpRequest&) {
    HttpResponse r;
    r.body = cli::RenderFeedz(*service.snapshots().Read());
    return r;
  });
  ASSERT_TRUE(admin.Start().ok());

  MetricsExporter::Options metrics_options;
  metrics_options.path = state_dir + "/metrics.log";
  metrics_options.interval_ms = 5;
  metrics_options.per_feed = true;
  metrics_options.histograms = true;
  MetricsExporter exporter(metrics_options, service.snapshots());
  ASSERT_TRUE(exporter.Start().ok());
  ASSERT_TRUE(service.Start(20260807).ok());

  std::istringstream in(SyntheticCsv(40));
  TrajectoryReader reader(in);
  for (;;) {
    auto next = reader.Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
    Trajectory t = std::move(**next);
    ASSERT_TRUE(service.Offer("alpha", t));
    ASSERT_TRUE(service.Offer("beta", std::move(t)));
  }
  ASSERT_TRUE(service.OfferQuarantine("gamma", "injected fault"));
  // A mid-run scrape must parse and show live (possibly partial) counts.
  const std::string mid = Get(admin.bound_port(), "/metrics");
  EXPECT_NE(mid.find("# TYPE frt_serve_windows_published_total counter"),
            std::string::npos);

  ASSERT_TRUE(service.Finish().ok());
  exporter.Stop();
  const ServiceReport& report = service.report();
  ASSERT_GT(report.windows_published, 0u);
  ASSERT_GT(report.checkpoints_written, 0u);
  EXPECT_EQ(report.feeds_quarantined, 1u);
  EXPECT_EQ(windows_seen, report.windows_published);

  // Quiesced: every registry counter agrees with the final report.
  const std::pair<const char*, size_t> counters[] = {
      {"frt_serve_sessions_created_total", report.sessions_created},
      {"frt_serve_sessions_evicted_total", report.sessions_evicted},
      {"frt_serve_windows_closed_total", report.windows_closed},
      {"frt_serve_windows_published_total", report.windows_published},
      {"frt_serve_windows_refused_total", report.windows_refused},
      {"frt_serve_windows_deadline_closed_total",
       report.windows_deadline_closed},
      {"frt_serve_trajectories_in_total", report.trajectories_in},
      {"frt_serve_trajectories_published_total",
       report.trajectories_published},
      {"frt_serve_feeds_quarantined_total", report.feeds_quarantined},
      {"frt_serve_checkpoints_written_total", report.checkpoints_written},
      {"frt_serve_checkpoint_errors_total", report.checkpoint_errors},
  };
  for (const auto& [name, value] : counters) {
    EXPECT_EQ(registry->GetCounter(name)->value(), value) << name;
  }

  // And the shutdown scrape carries those exact values.
  const std::string final_scrape = Get(admin.bound_port(), "/metrics");
  std::ostringstream expected;
  expected << "frt_serve_windows_published_total "
           << report.windows_published << "\n";
  EXPECT_NE(final_scrape.find(expected.str()), std::string::npos);

  // The metrics file ends with the shutdown snapshot: its last frt_metrics
  // line carries the report's counters, and the frt_feed lines after it
  // carry exactly the epsilon strings /feedz serves.
  std::istringstream log(ReadFile(metrics_options.path));
  std::string line;
  std::string last_metrics;
  std::vector<std::string> last_feeds;
  while (std::getline(log, line)) {
    if (line.rfind("frt_metrics ", 0) == 0) {
      last_metrics = line;
      last_feeds.clear();
    } else if (line.rfind("frt_feed ", 0) == 0) {
      last_feeds.push_back(line);
    }
  }
  const std::pair<const char*, size_t> line_counters[] = {
      {"feeds", report.feeds},
      {"windows_closed", report.windows_closed},
      {"windows_published", report.windows_published},
      {"windows_refused", report.windows_refused},
      {"windows_deadline_closed", report.windows_deadline_closed},
      {"trajs_in", report.trajectories_in},
      {"trajs_published", report.trajectories_published},
      {"feeds_quarantined", report.feeds_quarantined},
      {"ckpt_written", report.checkpoints_written},
      {"ckpt_errors", report.checkpoint_errors},
  };
  for (const auto& [key, value] : line_counters) {
    EXPECT_EQ(LineValue(last_metrics, key), std::to_string(value)) << key;
  }
  EXPECT_EQ(LineValue(last_metrics, "ckpt_seq"),
            std::to_string(report.checkpoint_sequence));
  const std::string feedz = BodyOf(Get(admin.bound_port(), "/feedz"));
  ASSERT_EQ(last_feeds.size(), 3u);
  for (const std::string& feed_line : last_feeds) {
    const std::string entry =
        "{\"feed\":\"" + LineValue(feed_line, "feed") + "\",\"eps_spent\":\"" +
        LineValue(feed_line, "eps_spent") + "\",\"eps_remaining\":\"" +
        LineValue(feed_line, "eps_remaining") + "\"";
    EXPECT_NE(feedz.find(entry), std::string::npos) << entry << "\n" << feedz;
  }

  // The snapshot board saw the final tick.
  auto intro = service.snapshots().Read();
  ASSERT_NE(intro, nullptr);
  EXPECT_TRUE(intro->finished);
  ASSERT_EQ(intro->feeds_detail.size(), 3u);
  for (const auto& feed : intro->feeds_detail) {
    EXPECT_EQ(feed.windows_published > 0u, !feed.quarantined) << feed.feed;
  }
  EXPECT_EQ(BodyOf(Get(admin.bound_port(), "/healthz")), "ok\n");
}

}  // namespace
}  // namespace frt::obs
