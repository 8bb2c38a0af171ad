// frt_stream — long-running windowed trajectory anonymizer.
//
// Consumes the CSV dataset format (traj/io.h) from a file or stdin
// (`--input -`) incrementally, assembles windows of --window trajectories
// (advancing by --stride arrivals; stride < window gives sliding,
// overlapping windows), anonymizes each window with the paper's pipeline
// (its --shards run on a shared work-stealing pool of --threads workers),
// and appends each published window to the output as soon as it is done.
// Within a window the guarantee is eps_G + eps_L (parallel composition
// over shards); across windows spends compose sequentially under one of
// two ledgers:
//
//   --budget B            wholesale: all windows' spends sum against B.
//   --per-object-budget B per object-id: each object's own cumulative
//                         spend is capped at B (the paper's per-object
//                         guarantee); add --evict-exhausted to drop just
//                         the exhausted objects instead of whole windows.
//
// Once a window cannot be covered it is refused, not published.
//
//   frt_stream --input raw.csv|- --output published.csv|-
//       [--window 1000] [--stride N] [--budget 0 (unlimited)]
//       [--per-object-budget 0] [--evict-exhausted]
//       [--epsilon-global 0.5] [--epsilon-local 0.5] [--m 10]
//       [--strategy hg+|hgt|hgb|ug|linear] [--order global|local]
//       [--seed 42] [--shards 1] [--threads 0] [--queue 0]
//       [--stop-on-exhausted] [--close-after-ms 0] [--state-dir DIR]
//       [--metrics PATH] [--trace-out PATH] [--trace-buffer-events N]
//       [--metrics-histograms] [--admin-listen EP]
//
// The engine is the multi-feed service (service/dispatcher.h) with one
// feed named "stream": its output is byte-identical to
// `frt_serve --input stream=FILE --output-dir DIR` at the same flags and
// seed, malformed input included. Its reader pauses while a window runs
// (one closed window of read-ahead), which bounds how much input is read,
// never which windows publish. With --state-dir the budget ledger is checkpointed durably before
// every published window leaves the process and recovered on the next
// start (the conservative carry), so a crash or restart against the same
// state dir never re-grants spent epsilon.
//
// --close-after-ms is the latency SLO for live/trickle feeds: a non-empty
// window is published no later than that many milliseconds after its
// oldest pending arrival, even when the feed has not yet filled --window.
//
// Exit codes: 0 = all windows published; 3 = completed but at least one
// window was refused (or object evicted) on budget; 1 = runtime error
// (including malformed input); 2 = usage error.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "cli_common.h"
#include "frt.h"
#include "service/feed_ingest.h"
#include "service_cli.h"

namespace {

struct Args {
  std::string input;
  std::string output;
  frt::cli::StreamArgs stream;
  frt::cli::PipelineArgs pipeline;
  frt::cli::DurabilityArgs durability;
  frt::cli::ObservabilityArgs obs;
};

void Usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --input FILE|- --output FILE|- [options]\n"
               "  --input -            read the feed from stdin\n"
               "%s%s%s%s",
               prog, frt::cli::DurabilityUsageText(),
               frt::cli::ObservabilityUsageText(),
               frt::cli::StreamUsageText(), frt::cli::PipelineUsageText());
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
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--input") == 0) {
      if ((v = next("--input")) == nullptr) return false;
      args->input = v;
    } else if (std::strcmp(argv[i], "--output") == 0) {
      if ((v = next("--output")) == nullptr) return false;
      args->output = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  if (args->input.empty() || args->output.empty()) {
    std::fprintf(stderr, "--input and --output are required\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Unsynced iostreams: with C-stdio sync on, cin's streambuf never
  // buffers, which degrades the incremental reader to byte-sized refills.
  std::ios::sync_with_stdio(false);
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
  frt::StreamConfig stream_config;
  if (!frt::cli::MakeStreamConfig(args.stream, args.pipeline, pipeline_config,
                                  &stream_config)) {
    Usage(argv[0]);
    return 2;
  }
  // A bad --admin-listen is a usage error, not a mid-run failure.
  std::optional<frt::net::Endpoint> admin_endpoint;
  if (!args.obs.admin_listen.empty()) {
    auto endpoint = frt::net::ParseEndpoint(args.obs.admin_listen);
    if (!endpoint.ok()) {
      std::fprintf(stderr, "stream: %s\n",
                   endpoint.status().ToString().c_str());
      Usage(argv[0]);
      return 2;
    }
    admin_endpoint = *std::move(endpoint);
  }
  // --threads sizes the shared pool a window's shards run on.
  frt::ServiceConfig config = frt::SingleFeedServiceConfig(
      std::move(stream_config), args.pipeline.threads);

  std::ifstream input_file;
  if (args.input != "-") {
    input_file.open(args.input);
    if (!input_file.is_open()) {
      std::fprintf(stderr, "cannot open input: %s\n", args.input.c_str());
      return 1;
    }
  }
  std::istream& in = args.input == "-" ? std::cin : input_file;

  std::ofstream output_file;
  if (args.output != "-") {
    output_file.open(args.output, std::ios::trunc);
    if (!output_file.is_open()) {
      std::fprintf(stderr, "cannot open output: %s\n", args.output.c_str());
      return 1;
    }
  }
  std::ostream& out = args.output == "-" ? std::cout : output_file;

  frt::cli::StartTracing(args.obs);
  frt::cli::ConfigureDurability(args.durability, &config);

  const bool per_object =
      config.stream.accounting == frt::BudgetAccounting::kPerObject;
  const double budget = per_object ? config.stream.per_object_budget
                                   : config.stream.total_budget;
  const std::string budget_note =
      budget > 0.0 ? " of " + std::to_string(budget) : "";
  bool wrote_header = false;
  // Runs on the dispatcher thread, after the write-ahead checkpoint that
  // covers this window's spend is durable.
  auto sink = [&](const std::string&, const frt::Dataset& published,
                  const frt::WindowReport& window) -> frt::Status {
    if (!wrote_header) {
      out << "# traj_id,x,y,t\n";
      wrote_header = true;
    }
    for (const auto& t : published.trajectories()) {
      frt::WriteTrajectoryCsv(t, out);
    }
    out.flush();
    if (!out.good()) return frt::Status::IOError("write failed");
    const frt::BatchReport& batch = window.batch;
    const std::string evicted_note =
        window.trajectories_evicted > 0
            ? ", " + std::to_string(window.trajectories_evicted) + " evicted"
            : "";
    std::fprintf(stderr,
                 "window %zu: %zu trajs%s, eps=%.2f (%s %.2f%s), %.2fs "
                 "wall, shard wall min/mean/max %.3f/%.3f/%.3f s\n",
                 window.index, window.trajectories, evicted_note.c_str(),
                 window.epsilon_spent, per_object ? "max object" : "ledger",
                 window.epsilon_total, budget_note.c_str(),
                 batch.wall_seconds, batch.shard_wall_min,
                 batch.shard_wall_mean, batch.shard_wall_max);
    frt::cli::PrintAuditReport(batch.audit);
    return frt::Status::OK();
  };

  frt::ServiceDispatcher service(std::move(config), sink);
  // Declared after the service so it is destroyed first; stopped after
  // Finish() so the metrics file ends with the shutdown snapshot.
  auto exporter =
      frt::cli::StartMetricsExporter(args.durability, args.obs, service);
  if (!exporter.ok()) {
    std::fprintf(stderr, "stream: %s\n", exporter.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<frt::MetricsExporter> metrics = *std::move(exporter);
  if (auto st = service.Start(args.pipeline.seed); !st.ok()) {
    std::fprintf(stderr, "stream: %s\n", st.ToString().c_str());
    return 1;
  }
  std::unique_ptr<frt::obs::AdminServer> admin;
  if (admin_endpoint.has_value()) {
    auto started = frt::cli::StartAdminPlane(
        *admin_endpoint, args.obs, args.durability, service, metrics.get());
    if (!started.ok()) {
      std::fprintf(stderr, "stream: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    admin = *std::move(started);
    std::fprintf(stderr, "stream: admin plane on %s\n",
                 args.obs.admin_listen.c_str());
  }

  frt::Status run_status = frt::RunSingleFeed(in, service);
  if (metrics) metrics->Stop();  // flush the final frt_metrics line
  frt::cli::FinishTracing(args.obs, &run_status);
  if (!run_status.ok()) {
    std::fprintf(stderr, "stream: %s\n", run_status.ToString().c_str());
    return 1;
  }
  const frt::ServiceReport& service_report = service.report();
  if (!args.durability.state_dir.empty()) {
    std::fprintf(stderr,
                 "durability: recovered %zu feed(s) from %s, wrote %zu "
                 "checkpoint(s) (last seq %llu)\n",
                 service_report.feeds_recovered,
                 args.durability.state_dir.c_str(),
                 service_report.checkpoints_written,
                 static_cast<unsigned long long>(
                     service_report.checkpoint_sequence));
  }

  frt::StreamReport report;
  for (const frt::FeedReport& feed : service_report.feeds_report) {
    if (feed.feed == frt::kSingleFeed) report = feed.stream;
  }
  std::fprintf(stderr,
               "stream done in %.1fs: %zu trajectories in, %zu windows "
               "published (%zu trajs), eps %s %.2f\n",
               service_report.wall_seconds, report.trajectories_in,
               report.windows_published, report.trajectories_published,
               per_object ? "max object" : "ledger", report.epsilon_spent);
  if (per_object) {
    const frt::FeedSession* session =
        service.FinishedSession(frt::kSingleFeed);
    std::fprintf(stderr,
                 "per-object accounting: max object eps %.2f vs %.2f the "
                 "wholesale ledger would have charged (%zu object(s) "
                 "tracked, %zu evicted from windows)\n",
                 report.epsilon_spent, report.epsilon_wholesale_equivalent,
                 session != nullptr
                     ? session->object_accountant().tracked_objects()
                     : size_t{0},
                 report.trajectories_evicted);
  }
  if (frt::StreamHadRefusals(report)) {
    std::fprintf(stderr,
                 "budget exhausted: refused %zu window(s) / %zu "
                 "trajectories, evicted %zu trajectorie(s), after spending "
                 "%.2f of %.2f; raise the budget or lower the per-window "
                 "epsilons to cover more of the stream\n",
                 report.windows_refused, report.trajectories_refused,
                 report.trajectories_evicted, report.epsilon_spent, budget);
    return 3;
  }
  return 0;
}
