// Plumbing shared by the three serving CLIs (frt_stream, frt_serve,
// frt_edge), which all drive one ServiceDispatcher: --input specs, span
// tracing, durable ledgers + the metrics exporter, and the admin plane.
// The feed readers themselves live in the library (service/feed_ingest.h).

#ifndef FRT_TOOLS_SERVICE_CLI_H_
#define FRT_TOOLS_SERVICE_CLI_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cli_common.h"
#include "common/strings.h"
#include "obs/admin_server.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "service/dispatcher.h"
#include "service/feed_ingest.h"
#include "traj/io.h"

namespace frt::cli {

/// One `--input [NAME=]FILE` value as (feed, path); without NAME= the
/// feed is the file stem.
inline std::pair<std::string, std::string> ParseInputSpec(
    const std::string& spec) {
  const size_t eq = spec.find('=');
  if (eq != std::string::npos && eq > 0) {
    return {spec.substr(0, eq), spec.substr(eq + 1)};
  }
  return {FeedNameFromPath(spec), spec};
}

/// \brief Rejects invalid (ValidateFeedId) and duplicate feed names
/// among the --input specs. Two readers racing arrivals into one session
/// would make window composition depend on thread interleaving.
inline bool ValidateInputs(
    const std::vector<std::pair<std::string, std::string>>& inputs) {
  std::set<std::string> seen;
  for (const auto& [name, path] : inputs) {
    if (Status st = ValidateFeedId(name); !st.ok()) {
      std::fprintf(stderr, "invalid feed name for --input %s: %s\n",
                   path.c_str(), st.message().c_str());
      return false;
    }
    if (!seen.insert(name).second) {
      std::fprintf(stderr,
                   "duplicate feed name '%s' (from --input %s); use "
                   "NAME=FILE to disambiguate\n",
                   name.c_str(), path.c_str());
      return false;
    }
  }
  return true;
}

/// Arms span tracing (--trace-out) before any service thread starts, so
/// the trace covers the whole run.
inline void StartTracing(const ObservabilityArgs& obs) {
  if (obs.trace_out.empty()) return;
  obs::TraceRecorder::Options options;
  options.buffer_events = static_cast<size_t>(obs.trace_buffer_events);
  obs::TraceRecorder::Get().Start(options);
  obs::SetTraceThreadName("main");
}

/// Stops tracing and writes the Chrome trace once the service is
/// quiesced; a write failure becomes `*status` unless it already failed.
inline void FinishTracing(const ObservabilityArgs& obs, Status* status) {
  if (obs.trace_out.empty()) return;
  const obs::TraceDump dump = obs::TraceRecorder::Get().Stop();
  if (Status st = obs::WriteChromeTrace(dump, obs.trace_out); !st.ok()) {
    if (status->ok()) *status = st;
    return;
  }
  std::fprintf(stderr,
               "trace: wrote %zu span(s) from %zu thread(s) to %s (%llu "
               "dropped)\n",
               dump.events.size(), dump.threads.size(), obs.trace_out.c_str(),
               static_cast<unsigned long long>(dump.dropped));
}

/// \brief Wires the durability flags into `config`: the checkpoint
/// directory and cadence, and the metrics tick cadence, which also paces
/// /feedz and /healthz, so it is set with or without --metrics.
inline void ConfigureDurability(const DurabilityArgs& durability,
                                ServiceConfig* config) {
  config->state_dir = durability.state_dir;
  config->checkpoint_interval_ms = durability.checkpoint_interval_ms;
  config->metrics_interval_ms = durability.metrics_interval_ms;
}

/// \brief With --metrics, a started exporter reading `service`'s snapshot
/// board; nullptr without. Declare it after the service and Stop() it
/// after the service's Finish(), so the file ends with the shutdown
/// snapshot.
inline Result<std::unique_ptr<MetricsExporter>> StartMetricsExporter(
    const DurabilityArgs& durability, const ObservabilityArgs& obs,
    const ServiceDispatcher& service) {
  if (durability.metrics.empty()) return {nullptr};
  auto exporter = std::make_unique<MetricsExporter>(
      MakeMetricsOptions(durability, obs), service.snapshots());
  FRT_RETURN_IF_ERROR(exporter->Start());
  return {std::move(exporter)};
}

/// /feedz JSON from the dispatcher's snapshot board. The epsilon
/// fields are emitted as strings with the exact frt_feed line formats
/// (eps_spent %.6f, eps_remaining %g), so a scrape taken after shutdown
/// is bit-identical to the final per-feed report lines — and "inf" never
/// produces an invalid JSON number.
inline std::string RenderFeedz(const ServiceSnapshot& intro) {
  std::string out = StrFormat(
      "{\"seq\":%llu,\"uptime_ms\":%lld,\"finished\":%s,\"aborted\":%s,"
      "\"feeds\":%zu,\"active_sessions\":%zu,\"queue_depth\":%zu,"
      "\"backlog_windows\":%zu,\"in_flight\":%zu,"
      "\"feeds_quarantined\":%zu,\"feed\":[",
      static_cast<unsigned long long>(intro.seq),
      static_cast<long long>(intro.uptime_ms),
      intro.finished ? "true" : "false", intro.aborted ? "true" : "false",
      intro.feeds, intro.active_sessions, intro.queue_depth,
      intro.backlog_windows, intro.in_flight, intro.feeds_quarantined);
  bool first = true;
  for (const ServiceSnapshot::Feed& feed : intro.feeds_detail) {
    if (!first) out += ',';
    first = false;
    out += StrFormat(
        "{\"feed\":\"%s\",\"eps_spent\":\"%.6f\",\"eps_remaining\":\"%g\","
        "\"windows_published\":%zu,\"windows_refused\":%zu,\"backlog\":%zu,"
        "\"quarantined\":%s",
        obs::JsonEscape(feed.feed).c_str(), feed.epsilon_spent,
        feed.epsilon_remaining, feed.windows_published, feed.windows_refused,
        feed.backlog, feed.quarantined ? "true" : "false");
    if (feed.quarantined) {
      out += ",\"quarantine_reason\":\"" +
             obs::JsonEscape(feed.quarantine_reason) + "\"";
    }
    out += '}';
  }
  out += "]}\n";
  return out;
}

/// \brief Starts the admin plane (--admin-listen) over a started service:
/// the registry's /metrics, /healthz and /readyz with board-staleness
/// checks, /feedz, and POST /control (tracing, log level, metrics
/// cadence). Handlers read only the registry and the snapshot board.
/// Declare the result after the service so its thread joins first.
inline Result<std::unique_ptr<obs::AdminServer>> StartAdminPlane(
    const net::Endpoint& endpoint, const ObservabilityArgs& obs_args,
    const DurabilityArgs& durability, ServiceDispatcher& service,
    MetricsExporter* exporter) {
  obs::AdminServer::Options options;
  options.endpoint = endpoint;
  auto admin = std::make_unique<obs::AdminServer>(options);
  // Staleness threshold for /healthz and /readyz; follows the metrics
  // interval when /control retunes it.
  auto stale_after_ms = std::make_shared<std::atomic<int64_t>>(
      std::max<int64_t>(5 * durability.metrics_interval_ms, 5000));
  const auto board_age_ms =
      [](const std::shared_ptr<const ServiceSnapshot>& intro) {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - intro->published_at)
            .count();
      };
  admin->Handle("GET", "/healthz",
                [&service, stale_after_ms, board_age_ms](
                    const obs::HttpRequest&) {
                  obs::HttpResponse r;
                  const auto intro = service.snapshots().Read();
                  if (intro == nullptr) {
                    r.status = 503;
                    r.body = "starting\n";
                    return r;
                  }
                  const double age_ms = board_age_ms(intro);
                  if (!intro->finished &&
                      age_ms > static_cast<double>(stale_after_ms->load(
                                   std::memory_order_relaxed))) {
                    r.status = 503;
                    r.body = StrFormat(
                        "stale: snapshot board is %.0f ms old (seq "
                        "%llu)\n",
                        age_ms, static_cast<unsigned long long>(intro->seq));
                    return r;
                  }
                  r.body = "ok\n";
                  return r;
                });
  admin->Handle("GET", "/readyz",
                [&service, stale_after_ms, board_age_ms](
                    const obs::HttpRequest&) {
                  obs::HttpResponse r;
                  const auto intro = service.snapshots().Read();
                  if (intro == nullptr) {
                    r.status = 503;
                    r.body = "starting\n";
                    return r;
                  }
                  if (intro->aborted || intro->finished) {
                    r.status = 503;
                    r.body = intro->aborted ? "aborted\n" : "finished\n";
                    return r;
                  }
                  if (board_age_ms(intro) >
                      static_cast<double>(stale_after_ms->load(
                          std::memory_order_relaxed))) {
                    r.status = 503;
                    r.body = "stale\n";
                    return r;
                  }
                  r.body = "ready\n";
                  return r;
                });
  admin->Handle("GET", "/feedz", [&service](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.content_type = "application/json";
    const auto intro = service.snapshots().Read();
    if (intro == nullptr) {
      r.status = 503;
      r.body = "{\"error\":\"starting\"}\n";
      return r;
    }
    r.body = RenderFeedz(*intro);
    return r;
  });
  obs::ControlHooks hooks;
  hooks.trace_out = obs_args.trace_out;
  hooks.trace_buffer_events =
      static_cast<size_t>(obs_args.trace_buffer_events);
  ServiceDispatcher* service_ptr = &service;
  hooks.set_metrics_interval_ms = [service_ptr, exporter,
                                   stale_after_ms](int64_t ms) {
    service_ptr->SetMetricsIntervalMs(ms);
    if (exporter != nullptr) exporter->SetIntervalMs(ms);
    stale_after_ms->store(std::max<int64_t>(5 * ms, 5000),
                          std::memory_order_relaxed);
    return true;
  };
  admin->Handle("POST", "/control", obs::MakeControlHandler(std::move(hooks)));
  FRT_RETURN_IF_ERROR(admin->Start());
  return {std::move(admin)};
}

}  // namespace frt::cli

#endif  // FRT_TOOLS_SERVICE_CLI_H_
