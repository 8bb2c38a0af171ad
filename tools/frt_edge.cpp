// frt_edge — edge-side anonymizer of the distributed ingress tier.
//
// Reads local trajectory input, runs the full multi-feed anonymization
// service locally (window assembly, per-feed DP budgets, deterministic
// RNG streams — exactly what frt_serve does), and forwards every
// PUBLISHED window upstream to an frt_serve aggregator as framed binary
// trajectories (net/frame.h):
//
//   frt_serve --listen unix:/tmp/frt.sock --listen-conns 2 --output - &
//   frt_edge --feeds site_a.csv --connect unix:/tmp/frt.sock
//   frt_edge --input b=site_b.csv --connect unix:/tmp/frt.sock
//
// Only anonymized trajectories ever leave the edge — raw input never
// crosses the wire. Doubles travel as IEEE-754 bit patterns, so what the
// aggregator receives is bit-identical to the edge's local output.
// Backpressure is the kernel's: when the aggregator falls behind, its
// reader stops draining the socket and the edge's writes block.
//
//   frt_edge (--feeds FILE|- | --input [NAME=]FILE ...) --connect EP
//       [--hello NAME] [stream/pipeline/durability/observability flags]
//
// The connection opens with a kHello frame carrying --hello NAME (default
// "edge") for the aggregator's diagnostics and closes with a kBye frame;
// a missing kBye tells the aggregator the edge died mid-stream. Each
// forwarded window is wrapped in a "forward" span (category "net") when
// --trace-out is armed.
//
// --inject-corrupt-frame N is a FAULT-INJECTION TEST HOOK: it flips one
// payload byte of the Nth trajectory frame after the CRC was computed, so
// the aggregator sees a CRC mismatch and quarantines this edge's feeds.
// Never use it outside tests.
//
// Exit codes: 0 = every window published and forwarded; 3 = completed but
// at least one feed had a window refused (or object evicted) on budget,
// or was quarantined locally; 1 = runtime error (including a dead
// upstream); 2 = usage error.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cli_common.h"
#include "frt.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/trace.h"
#include "service/dispatcher.h"
#include "service/feed_ingest.h"
#include "service_cli.h"

namespace {

struct Args {
  std::string feeds;                             // --feeds FILE|-
  std::vector<std::pair<std::string, std::string>> inputs;  // name, path
  std::string hello = "edge";   // --hello NAME
  uint64_t inject_corrupt_frame = 0;  // test hook; 0 = off
  frt::cli::StreamArgs stream;
  frt::cli::PipelineArgs pipeline;
  frt::cli::DurabilityArgs durability;
  frt::cli::ObservabilityArgs obs;
  frt::cli::TransportArgs transport;
};

void Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s (--feeds FILE|- | --input [NAME=]FILE ...) --connect EP\n"
      "  --feeds FILE|-       interleaved multi-feed CSV "
      "(feed,traj_id,x,y,t)\n"
      "  --input [NAME=]FILE  one dataset CSV per feed (repeatable); feed "
      "id is\n"
      "                       NAME or the file stem\n"
      "  --hello NAME         peer name sent in the connection preamble\n"
      "                       (default 'edge')\n"
      "  --inject-corrupt-frame N\n"
      "                       TEST HOOK: corrupt one payload byte of the "
      "Nth\n"
      "                       trajectory frame after its CRC (default 0 = "
      "off)\n"
      "%s%s%s%s%s",
      prog, frt::cli::TransportUsageText(), frt::cli::DurabilityUsageText(),
      frt::cli::ObservabilityUsageText(), frt::cli::StreamUsageText(),
      frt::cli::PipelineUsageText());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    switch (frt::cli::ParsePipelineFlag(argc, argv, &i, &args->pipeline)) {
      case frt::cli::FlagParse::kConsumed:
        continue;
      case frt::cli::FlagParse::kError:
        return false;
      case frt::cli::FlagParse::kNotMine:
        break;
    }
    switch (frt::cli::ParseStreamFlag(argc, argv, &i, &args->stream)) {
      case frt::cli::FlagParse::kConsumed:
        continue;
      case frt::cli::FlagParse::kError:
        return false;
      case frt::cli::FlagParse::kNotMine:
        break;
    }
    switch (
        frt::cli::ParseDurabilityFlag(argc, argv, &i, &args->durability)) {
      case frt::cli::FlagParse::kConsumed:
        continue;
      case frt::cli::FlagParse::kError:
        return false;
      case frt::cli::FlagParse::kNotMine:
        break;
    }
    switch (frt::cli::ParseObservabilityFlag(argc, argv, &i, &args->obs)) {
      case frt::cli::FlagParse::kConsumed:
        continue;
      case frt::cli::FlagParse::kError:
        return false;
      case frt::cli::FlagParse::kNotMine:
        break;
    }
    switch (frt::cli::ParseTransportFlag(argc, argv, &i, &args->transport)) {
      case frt::cli::FlagParse::kConsumed:
        continue;
      case frt::cli::FlagParse::kError:
        return false;
      case frt::cli::FlagParse::kNotMine:
        break;
    }
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--feeds") == 0) {
      if ((v = next("--feeds")) == nullptr) return false;
      args->feeds = v;
    } else if (std::strcmp(argv[i], "--input") == 0) {
      if ((v = next("--input")) == nullptr) return false;
      args->inputs.push_back(frt::cli::ParseInputSpec(v));
    } else if (std::strcmp(argv[i], "--hello") == 0) {
      if ((v = next("--hello")) == nullptr) return false;
      args->hello = v;
    } else if (std::strcmp(argv[i], "--inject-corrupt-frame") == 0) {
      if ((v = next("--inject-corrupt-frame")) == nullptr) return false;
      if (!frt::cli::ParseFlagUint64("--inject-corrupt-frame", v,
                                     &args->inject_corrupt_frame)) {
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  if (!args->transport.listen.empty()) {
    std::fprintf(stderr,
                 "frt_edge does not take --listen (use frt_serve as the "
                 "aggregator)\n");
    return false;
  }
  if (args->transport.connect.empty()) {
    std::fprintf(stderr, "--connect EP is required (the aggregator)\n");
    return false;
  }
  if (args->feeds.empty() == args->inputs.empty()) {
    std::fprintf(stderr,
                 "exactly one of --feeds or --input (repeatable) is "
                 "required\n");
    return false;
  }
  return frt::cli::ValidateInputs(args->inputs);
}

}  // namespace

int main(int argc, char** argv) {
  std::ios::sync_with_stdio(false);
  // An aggregator vanishing mid-write must surface as an IOError from the
  // sink, never a process-wide SIGPIPE (WriteAll also sends MSG_NOSIGNAL;
  // this covers any other stray write).
  std::signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }
  frt::FrequencyRandomizerConfig pipeline_config;
  if (!frt::cli::MakePipelineConfig(args.pipeline, &pipeline_config)) {
    Usage(argv[0]);
    return 2;
  }
  auto upstream_endpoint = frt::net::ParseEndpoint(args.transport.connect);
  if (!upstream_endpoint.ok()) {
    std::fprintf(stderr, "edge: %s\n",
                 upstream_endpoint.status().ToString().c_str());
    Usage(argv[0]);
    return 2;
  }
  // A bad --admin-listen is a usage error, not a mid-run failure.
  std::optional<frt::net::Endpoint> admin_endpoint;
  if (!args.obs.admin_listen.empty()) {
    auto endpoint = frt::net::ParseEndpoint(args.obs.admin_listen);
    if (!endpoint.ok()) {
      std::fprintf(stderr, "edge: %s\n",
                   endpoint.status().ToString().c_str());
      Usage(argv[0]);
      return 2;
    }
    admin_endpoint = *std::move(endpoint);
  }
  frt::ServiceConfig config;
  if (!frt::cli::MakeStreamConfig(args.stream, args.pipeline,
                                  pipeline_config, &config.stream)) {
    Usage(argv[0]);
    return 2;
  }
  config.arrival_queue_capacity = config.stream.queue_capacity;

  frt::cli::StartTracing(args.obs);
  frt::cli::ConfigureDurability(args.durability, &config);

  // ---- Upstream connection (written by the dispatcher thread only once
  // the service starts; hello/bye bracket it from this thread while the
  // dispatcher is not running). ----
  auto conn = frt::net::ConnectTo(*upstream_endpoint);
  if (!conn.ok()) {
    std::fprintf(stderr, "edge: cannot reach aggregator: %s\n",
                 conn.status().ToString().c_str());
    return 1;
  }
  frt::net::Socket upstream = *std::move(conn);
  {
    std::string hello;
    frt::net::AppendFrame(&hello, frt::net::FrameType::kHello, args.hello);
    if (auto st = frt::net::WriteAll(upstream.fd(), hello.data(),
                                     hello.size());
        !st.ok()) {
      std::fprintf(stderr, "edge: hello failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  // ---- Forwarding sink (called from the dispatcher thread only). ----
  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t trajectory_frames = 0;  // numbering for --inject-corrupt-frame
  auto sink = [&](const std::string& feed, const frt::Dataset& published,
                  const frt::WindowReport& window) -> frt::Status {
    frt::obs::ScopedSpan span("forward", frt::obs::SpanCategory::kNet,
                              feed);
    // One buffered write per window: frames of one window arrive at the
    // aggregator back to back, and a mid-window disconnect still fails
    // this window's publish.
    std::string batch;
    for (const auto& t : published.trajectories()) {
      const size_t frame_start = batch.size();
      frt::net::AppendFrame(
          &batch, frt::net::FrameType::kTrajectory,
          frt::net::EncodeTrajectoryPayload(feed, t));
      ++trajectory_frames;
      if (args.inject_corrupt_frame != 0 &&
          trajectory_frames == args.inject_corrupt_frame) {
        // Flip one payload byte AFTER the CRC was computed: the receiver
        // must detect the mismatch and quarantine this edge's feeds.
        batch[frame_start + frt::net::kFrameHeaderSize] ^=
            static_cast<char>(0xFF);
        std::fprintf(stderr,
                     "edge: injected corrupt payload byte into trajectory "
                     "frame %llu (feed %s)\n",
                     static_cast<unsigned long long>(trajectory_frames),
                     feed.c_str());
      }
      ++frames_sent;
    }
    if (auto st = frt::net::WriteAll(upstream.fd(), batch.data(),
                                     batch.size());
        !st.ok()) {
      return frt::Status::IOError("forward to aggregator failed: " +
                                  std::string(st.message()));
    }
    bytes_sent += batch.size();
    std::fprintf(stderr,
                 "feed %s window %zu: forwarded %zu trajs, eps=%.2f "
                 "(total %.2f)\n",
                 feed.c_str(), window.index, window.trajectories,
                 window.epsilon_spent, window.epsilon_total);
    return frt::Status::OK();
  };

  frt::ServiceDispatcher service(std::move(config), sink);
  // Declared after the service so it is destroyed first; stopped after
  // Finish() so the metrics file ends with the shutdown snapshot.
  auto exporter =
      frt::cli::StartMetricsExporter(args.durability, args.obs, service);
  if (!exporter.ok()) {
    std::fprintf(stderr, "edge: %s\n", exporter.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<frt::MetricsExporter> metrics = *std::move(exporter);
  if (auto st = service.Start(args.pipeline.seed); !st.ok()) {
    std::fprintf(stderr, "edge: %s\n", st.ToString().c_str());
    return 1;
  }

  // ---- Admin plane (--admin-listen). Declared after the service so its
  // thread joins before the service goes away. ----
  std::unique_ptr<frt::obs::AdminServer> admin;
  if (admin_endpoint.has_value()) {
    auto started = frt::cli::StartAdminPlane(
        *admin_endpoint, args.obs, args.durability, service, metrics.get());
    if (!started.ok()) {
      std::fprintf(stderr, "edge: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    admin = *std::move(started);
    std::fprintf(stderr, "edge: admin plane on %s\n",
                 args.obs.admin_listen.c_str());
  }

  // ---- Ingest (same shapes as frt_serve). ----
  frt::Status ingest_status = frt::Status::OK();
  if (!args.feeds.empty()) {
    std::ifstream feeds_file;
    if (args.feeds != "-") {
      feeds_file.open(args.feeds);
      if (!feeds_file.is_open()) {
        std::fprintf(stderr, "cannot open feeds: %s\n", args.feeds.c_str());
        return 1;
      }
    }
    std::istream& in = args.feeds == "-" ? std::cin : feeds_file;
    ingest_status = frt::IngestMultiFeedCsv(in, service);
  } else {
    ingest_status = frt::IngestFeedFiles(args.inputs, service);
  }

  frt::Status run_status = service.Finish();
  // The dispatcher is joined; close the stream from this thread. A failed
  // bye is a warning, not an error — every published window already made
  // it upstream (WriteAll returned), only the goodbye was lost.
  {
    std::string bye;
    frt::net::AppendFrame(&bye, frt::net::FrameType::kBye, {});
    if (auto st = frt::net::WriteAll(upstream.fd(), bye.data(), bye.size());
        !st.ok()) {
      std::fprintf(stderr, "edge: bye failed (ignored): %s\n",
                   st.ToString().c_str());
    }
  }
  upstream.Close();

  if (metrics) metrics->Stop();
  frt::cli::FinishTracing(args.obs, &run_status);
  if (run_status.ok()) run_status = ingest_status;
  if (!run_status.ok()) {
    std::fprintf(stderr, "edge: %s\n", run_status.ToString().c_str());
    return 1;
  }

  // ---- Reports. ----
  const frt::ServiceReport& report = service.report();
  for (const frt::FeedReport& feed : report.feeds_report) {
    if (feed.quarantined) {
      std::fprintf(stderr, "quarantine: feed %s: %s\n", feed.feed.c_str(),
                   feed.quarantine_reason.c_str());
    }
  }
  std::fprintf(
      stderr,
      "edge done in %.1fs: %zu feeds, %zu windows published / %zu refused, "
      "%zu trajs in / %zu forwarded (%llu frames, %llu bytes) to %s\n",
      report.wall_seconds, report.feeds, report.windows_published,
      report.windows_refused, report.trajectories_in,
      report.trajectories_published,
      static_cast<unsigned long long>(frames_sent),
      static_cast<unsigned long long>(bytes_sent),
      args.transport.connect.c_str());
  int exit_code = 0;
  if (report.feeds_quarantined > 0) {
    std::fprintf(stderr, "%zu feed(s) quarantined locally\n",
                 report.feeds_quarantined);
    exit_code = 3;
  }
  if (frt::ServiceHadRefusals(report)) {
    std::fprintf(stderr,
                 "budget exhausted on at least one feed: %zu window(s) / "
                 "%zu trajectories refused, %zu evicted\n",
                 report.windows_refused, report.trajectories_refused,
                 report.trajectories_evicted);
    exit_code = 3;
  }
  return exit_code;
}
