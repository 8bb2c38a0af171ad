// frt_e2e — end-to-end benchmark of the paths FRT users run.
//
//   frt_e2e --workload batch_gl|serve_fleet|serve_hotfeed --seed N
//           --seconds S --trace 0|1 --work-dir DIR [--scale full|smoke]
//
// Workloads (parameters and reasons are recorded in e2ebench/layers.json):
//   batch_gl       1000 generated taxis: CSV file -> stock GL
//                  FrequencyRandomizer -> CSV file, closed loop.
//   serve_fleet    16 Zipf(1)-skewed feeds through ServiceDispatcher,
//                  tumbling --window 50, paced by a Poisson schedule, then
//                  the same per-feed sequences drained flat-out.
//   serve_hotfeed  one feed, --window 50 --stride 25
//                  --per-object-budget 4, paced then drained.
//
// Everything derives from --seed: the generated data, the arrival
// schedule and the pipeline/service seeds. Serve configs are built with
// the same cli::MakePipelineConfig / MakeStreamConfig helpers frt_serve
// uses, so the benchmark measures what the CLI ships (audit included).
//
// The gated timing metrics (setup_s, throughput_pts_cpu_s, release_cpu_ms)
// count CPU time in units of a fixed reference kernel (see "Host speed
// reference" below), so other tenants of a shared host do not move them.
// The wall-clock figures a user sees on the host at hand (throughput_pts_s,
// publish_p50_ms, publish_p90_ms) are reported by the traced run.
//
// Output checks (any failure fails the run): batch_gl spends exactly
// eps_G + eps_L, keeps the input ids, and every same-seed rerun and staged
// replay reproduces the output digest. Serve workloads: Finish is OK, no
// window is refused or quarantined, every Offer is accepted, per-feed eps
// equals windows x 1.0 (fleet) or max per-object eps is 2.0 (hot feed),
// every count-closed drain window is bit-identical to the paced phase's,
// the load generator kept its schedule, and serial replays reproduce the
// served digests. Traced runs also fail when the named stages explain
// less than 90% of the path they break down.
//
// With --trace 1 the run also records spans around each public call it
// makes (kept in memory, written as Chrome trace-event JSON on exit) and
// replays work stage by stage for the per-layer breakdown. Spans are only
// ever recorded here, never inside the library.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "e2e": {name: {"value", "unit"}}, "layers": {name: {...}}}
// and the process exits 1 when any output check failed.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attack/linker.h"
#include "cli_common.h"
#include "core/global_mechanism.h"
#include "core/local_mechanism.h"
#include "core/pipeline.h"
#include "core/signature.h"
#include "dp/accountant.h"
#include "metrics/utility.h"
#include "runtime/window_audit.h"
#include "service/dispatcher.h"
#include "service/feed_session.h"
#include "synth/workload.h"
#include "traj/io.h"
#include "traj/quantizer.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Linearly interpolated quantile q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}
double CpuSeconds(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---- Host speed reference ----
//
// The benchmark shares a few cores of a host with other tenants. Their load
// costs it time in two ways: the scheduler gives its threads less of a core
// (wall time grows, CPU time does not), and the cores themselves run slower
// (CPU time grows too), in phases of seconds to minutes. The gated timing
// metrics therefore count CPU time, scaled by a host-speed factor:
// kReferencePassMs over the CPU time of one pass of a fixed reference kernel
// measured just before and just after the timed work. The kernel is the
// benchmark's own scalar point-to-segment distance loop over a cache-resident
// table (the kind of work the pipeline's nearest-neighbour searches do); it
// never calls the library, so only the host can move it.

/// CPU milliseconds one reference pass takes on a quiet reference host
/// (4-vCPU Xeon VM, GCC 12 Release build). Scaled CPU times are in its
/// units.
constexpr double kReferencePassMs = 7.0;
/// Threads measuring the reference at once, and passes each.
constexpr unsigned kReferenceThreads = 4;
constexpr int kReferencePasses = 5;

struct RefSegment {
  double ax, ay, bx, by;
};

const std::vector<RefSegment>& ReferenceTable() {
  static const std::vector<RefSegment> table = [] {
    std::vector<RefSegment> t(1u << 14);  // 512 KiB: stays in L2
    uint64_t state = 1;
    auto unit = [&state] {
      return static_cast<double>(frt::SplitMix64(state) >> 11) * 0x1p-53;
    };
    for (RefSegment& s : t) {
      s.ax = 1000.0 * unit();
      s.ay = 1000.0 * unit();
      s.bx = s.ax + 20.0 * unit() - 10.0;
      s.by = s.ay + 20.0 * unit() - 10.0;
    }
    return t;
  }();
  return table;
}

/// One reference pass: nearest segment to each of 48 fixed query points.
double ReferencePass() {
  const std::vector<RefSegment>& table = ReferenceTable();
  uint64_t state = 7;
  double sum = 0.0;
  for (int q = 0; q < 48; ++q) {
    const double px =
        1000.0 * static_cast<double>(frt::SplitMix64(state) >> 11) * 0x1p-53;
    const double py =
        1000.0 * static_cast<double>(frt::SplitMix64(state) >> 11) * 0x1p-53;
    double best = 1e300;
    for (const RefSegment& s : table) {
      const double dx = s.bx - s.ax, dy = s.by - s.ay;
      const double len2 = dx * dx + dy * dy;
      double t = len2 > 0.0 ? ((px - s.ax) * dx + (py - s.ay) * dy) / len2
                            : 0.0;
      t = t < 0.0 ? 0.0 : (t > 1.0 ? 1.0 : t);
      const double ex = s.ax + t * dx - px, ey = s.ay + t * dy - py;
      best = std::min(best, ex * ex + ey * ey);
    }
    sum += best;
  }
  return sum;
}

/// Median thread-CPU milliseconds of one reference pass, measured on
/// kReferenceThreads threads at once so every core the workload uses is
/// sampled.
double ReferencePassMs() {
  ReferenceTable();  // built once, outside the measurement
  std::vector<double> pass_ms(kReferenceThreads * kReferencePasses);
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kReferenceThreads; ++i) {
    threads.emplace_back([i, &pass_ms] {
      volatile double sink = 0.0;
      for (int k = 0; k < kReferencePasses; ++k) {
        const double c0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
        sink = sink + ReferencePass();
        pass_ms[i * kReferencePasses + k] =
            1e3 * (CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - c0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return Median(pass_ms);
}

/// CPU seconds `cpu_s` in reference units, given the reference pass
/// measured before and after the work.
double ReferenceCpu(double cpu_s, double ref_before_ms, double ref_after_ms) {
  return cpu_s * 2.0 * kReferencePassMs / (ref_before_ms + ref_after_ms);
}

// ---- Output digests ----

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;
  return h ^ (h >> 29);
}
uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}
/// Order-sensitive digest of every id, coordinate bit and timestamp.
uint64_t Digest(const frt::Dataset& d) {
  uint64_t h = 1469598103934665603ULL;
  for (const frt::Trajectory& t : d.trajectories()) {
    h = Mix(h, static_cast<uint64_t>(t.id()));
    h = Mix(h, t.size());
    for (const frt::TimedPoint& tp : t.points()) {
      h = Mix(h, Bits(tp.p.x));
      h = Mix(h, Bits(tp.p.y));
      h = Mix(h, static_cast<uint64_t>(tp.t));
    }
  }
  return h;
}
std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// ---- Spans (benchmark-side only) ----

uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t ordinal = next.fetch_add(1);
  return ordinal;
}

/// In-memory span recorder, written once as Chrome trace-event JSON. A
/// disabled log records nothing, so untraced runs pay one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  void Add(const char* name, const char* category, Clock::time_point start,
           Clock::time_point end) {
    if (!enabled_) return;
    const Span span{name, category, ThreadOrdinal(),
                    std::chrono::duration<double, std::micro>(start - origin_)
                        .count(),
                    std::chrono::duration<double, std::micro>(end - start)
                        .count()};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    std::lock_guard<std::mutex> lock(mu_);
    out << "{\"traceEvents\":[";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                    i == 0 ? "" : ",\n", s.name, s.category, s.tid, s.ts_us,
                    s.dur_us);
      out << buf;
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out.flush());
  }

 private:
  struct Span {
    const char* name;
    const char* category;
    uint32_t tid;
    double ts_us;
    double dur_us;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- Checks and metrics ----

class Checks {
 public:
  void Expect(bool condition, const std::string& what) {
    ++evaluated_;
    if (condition) return;
    ok_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  void ExpectOk(const frt::Status& status, const std::string& what) {
    Expect(status.ok(), what + ": " + status.ToString());
  }
  bool ok() const { return ok_; }
  int evaluated() const { return evaluated_; }

 private:
  bool ok_ = true;
  int evaluated_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  /// (label, digest) pairs of every checked output.
  std::vector<std::pair<std::string, uint64_t>> digests;

  void E2e(std::string name, double value, std::string unit) {
    e2e.push_back({std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    layers.push_back({std::move(name), value, std::move(unit)});
  }
};

/// JSON object of `metrics`; a non-finite value fails `checks`.
std::string MetricsJson(const std::vector<Metric>& metrics, Checks& checks) {
  std::string json = "{";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    checks.Expect(std::isfinite(m.value), "metric " + m.name + " is finite");
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    json += buf;
  }
  return json + "}";
}

// ---- Options ----

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".";
};

/// Sizes that differ between the measured scale and the smoke scale the
/// benchmark's own test runs in seconds.
struct Scale {
  int batch_taxis = 1000;
  int batch_points = 220;
  int serve_points = 150;
  /// Set-up repetitions whose median is setup_s.
  int setup_reps = 3;
  /// Count-closed windows the paced phase must produce, so that p90 has at
  /// least ten samples beyond it.
  size_t min_paced_windows = 100;
  /// Paced windows whose published output is scored for quality.
  size_t quality_windows = 32;
  /// Of those, windows replayed serially in the traced run.
  size_t replay_windows = 8;
  /// Minimum closed-loop iterations of batch_gl.
  int min_batch_iterations = 3;
};

Scale MakeScale(bool smoke) {
  Scale s;
  if (smoke) {
    s.batch_taxis = 40;
    s.batch_points = 60;
    s.serve_points = 100;
    s.setup_reps = 2;
    s.min_paced_windows = 3;
    s.quality_windows = 4;
    s.replay_windows = 4;
    s.min_batch_iterations = 2;
  }
  return s;
}

/// Stream of sub-seeds: data, schedule and program seeds all come from the
/// workload seed and never from the clock.
struct SeedStream {
  explicit SeedStream(uint64_t seed) : state(seed) {}
  uint64_t Next() { return frt::SplitMix64(state); }
  uint64_t state;
};

// ---- Staged replay of FrequencyRandomizer::Anonymize ----

struct StageTimes {
  double quantize_s = 0.0;
  double signature_s = 0.0;
  double global_s = 0.0;
  double local_s = 0.0;
  double Total() const { return quantize_s + signature_s + global_s + local_s; }
};

/// The stock global-first GL pipeline driven through its stage classes in
/// the pipeline's own order, so each stage can be timed. Output must be
/// bit-identical to FrequencyRandomizer::Anonymize on the same RNG state
/// (the callers check the digests).
frt::Result<frt::Dataset> StagedAnonymize(
    const frt::FrequencyRandomizerConfig& config, const frt::Dataset& input,
    frt::Rng& rng, SpanLog& spans, StageTimes* times,
    frt::RandomizerReport* report) {
  if (config.order != frt::MechanismOrder::kGlobalFirst ||
      config.epsilon_global <= 0.0 || config.epsilon_local <= 0.0) {
    return frt::Status::InvalidArgument(
        "staged replay covers the stock global-first GL pipeline only");
  }
  *report = frt::RandomizerReport{};
  const Clock::time_point t0 = Clock::now();
  frt::BBox region = input.Bounds();
  const double pad =
      std::max(1.0, 0.01 * std::max(region.Width(), region.Height()));
  region.min_x -= pad;
  region.min_y -= pad;
  region.max_x += pad;
  region.max_y += pad;
  frt::Quantizer quantizer(region, config.snap_levels);
  quantizer.RegisterDataset(input);
  const Clock::time_point t1 = Clock::now();
  spans.Add("quantize", "traj", t0, t1);

  frt::SignatureExtractor extractor(&quantizer, config.m);
  FRT_ASSIGN_OR_RETURN(const frt::SignatureSet signatures,
                       extractor.Extract(input));
  report->candidate_set_size = signatures.candidate_set.size();
  const Clock::time_point t2 = Clock::now();
  spans.Add("signature", "core", t1, t2);

  frt::PrivacyAccountant accountant(config.epsilon_global +
                                    config.epsilon_local);
  frt::Dataset current = input.Clone();
  frt::GlobalMechanismConfig global_config;
  global_config.epsilon = config.epsilon_global;
  global_config.strategy = config.strategy;
  global_config.grid_levels = config.index_levels;
  frt::GlobalMechanism global(&quantizer, global_config);
  FRT_ASSIGN_OR_RETURN(current, global.Apply(current, signatures, rng,
                                             &accountant, &report->global));
  const Clock::time_point t3 = Clock::now();
  spans.Add("global", "core", t2, t3);

  frt::LocalMechanismConfig local_config;
  local_config.epsilon = config.epsilon_local;
  local_config.strategy = config.strategy;
  local_config.grid_levels = config.index_levels;
  frt::LocalMechanism local(&quantizer, local_config);
  FRT_ASSIGN_OR_RETURN(current, local.Apply(current, signatures, rng,
                                            &accountant, &report->local));
  const Clock::time_point t4 = Clock::now();
  spans.Add("local", "core", t3, t4);

  report->epsilon_spent = accountant.spent();
  times->quantize_s = Seconds(t1 - t0);
  times->signature_s = Seconds(t2 - t1);
  times->global_s = Seconds(t3 - t2);
  times->local_s = Seconds(t4 - t3);
  return current;
}

/// Linking accuracy (spatial signatures) and information loss of one
/// published dataset against its input.
std::pair<double, double> Quality(const frt::Dataset& original,
                                  const frt::Dataset& published) {
  frt::Linker linker(original.Bounds());
  linker.Train(original);
  const double la =
      linker.LinkingAccuracy(published, frt::SignatureType::kSpatial);
  const frt::UtilityEvaluator utility(original.Bounds());
  return {la, utility.InformationLoss(original, published)};
}

bool SameIds(const frt::Dataset& a, const frt::Dataset& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id() != b[i].id()) return false;
  }
  return true;
}

frt::Result<frt::Dataset> GenerateFleet(int taxis, int points,
                                        uint64_t seed) {
  frt::WorkloadConfig config;
  config.num_taxis = taxis;
  config.target_points = points;
  FRT_ASSIGN_OR_RETURN(frt::Workload workload,
                       frt::GenerateTaxiWorkload(config, frt::RoadGenConfig{},
                                                 seed));
  if (workload.dataset.size() != static_cast<size_t>(taxis)) {
    return frt::Status::Internal("generator returned " +
                                 std::to_string(workload.dataset.size()) +
                                 " trajectories, wanted " +
                                 std::to_string(taxis));
  }
  return std::move(workload.dataset);
}

// Per-layer names every workload prints. A layer that does not run on a
// workload reads 0 there (no audit or service on batch_gl, no CSV I/O on the
// serve workloads). core.global_s / core.local_s / batch.coverage are
// batch_gl's whole-dataset figures; core.global_ms / core.local_ms /
// window.coverage the serve workloads' per-window replay; quantize,
// signature and the core counts are reported on both.
const char* const kLayerNames[][2] = {
    {"traj.load_s", "s"},
    {"traj.quantize_s", "s"},
    {"traj.save_s", "s"},
    {"core.signature_s", "s"},
    {"core.global_s", "s"},
    {"core.local_s", "s"},
    {"core.global.knn_searches", "count"},
    {"core.global.distance_evals", "count"},
    {"core.global.evals_per_search", "count"},
    {"core.local.distance_evals", "count"},
    {"core.edits", "count"},
    {"core.global_ms", "ms"},
    {"core.local_ms", "ms"},
    {"runtime.audit_ms", "ms"},
    {"runtime.audit.build_ms", "ms"},
    {"runtime.audit.evals_per_point", "count"},
    {"service.job_ms.p50", "ms"},
    {"service.job_ms.p90", "ms"},
    {"service.queue_wait_ms.p50", "ms"},
    {"service.queue_wait_ms.p90", "ms"},
    {"service.close_wait_ms.p50", "ms"},
    {"service.offer_blocked_share", "ratio"},
    {"service.offer_ms.p99", "ms"},
    {"service.paced_offer_blocked_share", "ratio"},
    {"service.paced_offer_ms.p99", "ms"},
    {"service.pool_busy_share", "ratio"},
    {"service.windows", "count"},
    {"service.traj_per_arrival", "ratio"},
    {"service.sink_ms.p50", "ms"},
    {"publish.samples", "count"},
    {"batch.coverage", "ratio"},
    {"window.coverage", "ratio"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.late_max_ms", "ms"},
    {"loadgen.latency_trend", "ratio"},
    {"proc.cpu_s", "s"},
    {"throughput_pts_s", "pts/s"},
    {"publish_p50_ms", "ms"},
    {"publish_p90_ms", "ms"},
    {"host.reference_ms", "ms"},
    {"failed_share", "ratio"},
};

/// Fills every per-layer name in `values` order, defaulting to 0.
void EmitLayers(const std::map<std::string, double>& values, Outcome* out) {
  for (const auto& entry : kLayerNames) {
    const auto it = values.find(entry[0]);
    out->Layer(entry[0], it == values.end() ? 0.0 : it->second, entry[1]);
  }
}

// Coverage below this fails the traced run: the named stages must explain
// at least 90% of the path they break down.
constexpr double kMinCoverage = 0.9;
// Staged/whole pairs per coverage estimate (per replayed window on serve).
constexpr int kCoverageRounds = 4;

// ============================ batch_gl ============================

void RunBatch(const Options& opt, const Scale& scale, Checks& checks,
              Outcome* out) {
  SpanLog spans(opt.trace);
  SeedStream seeds(opt.seed);
  const uint64_t data_seed = seeds.Next();
  frt::cli::PipelineArgs pipeline_args;
  pipeline_args.seed = seeds.Next();
  frt::FrequencyRandomizerConfig config;
  checks.Expect(frt::cli::MakePipelineConfig(pipeline_args, &config),
                "stock pipeline config");
  const std::string input_path = opt.work_dir + "/batch_input.csv";
  const std::string output_path = opt.work_dir + "/batch_published.csv";

  // Set-up: generate the fleet and write it as the CSV input, repeated so
  // setup_s is a median.
  const double setup_ref_ms = ReferencePassMs();
  std::vector<double> setup_cpu_s;
  for (int rep = 0; rep < scale.setup_reps; ++rep) {
    const double c0 = CpuSeconds();
    frt::Result<frt::Dataset> fleet =
        GenerateFleet(scale.batch_taxis, scale.batch_points, data_seed);
    if (!fleet.ok()) {
      checks.ExpectOk(fleet.status(), "generate batch fleet");
      return;
    }
    checks.ExpectOk(frt::SaveDatasetCsv(*fleet, input_path), "write input");
    setup_cpu_s.push_back(CpuSeconds() - c0);
  }

  // Timed closed loop: load -> anonymize -> save, one call at a time, with
  // a host reference measured between calls.
  double ref_before_ms = ReferencePassMs();
  const double setup_s =
      ReferenceCpu(Median(setup_cpu_s), setup_ref_ms, ref_before_ms);
  std::vector<double> ref_ms{ref_before_ms};
  std::vector<double> iter_s, load_s, anon_s, save_s, pts_per_s;
  std::vector<double> iter_cpu_s, ref_cpu_s, pts_per_cpu_s;
  frt::Dataset original;
  frt::Dataset published;
  frt::RandomizerReport report;
  uint64_t first_digest = 0;
  const Clock::time_point loop_start = Clock::now();
  int iteration = 0;
  double rss_mb = 0.0;
  while (iteration < scale.min_batch_iterations ||
         Seconds(Clock::now() - loop_start) < opt.seconds) {
    const double c0 = CpuSeconds();
    const Clock::time_point t0 = Clock::now();
    frt::Result<frt::Dataset> loaded = frt::LoadDatasetCsv(input_path);
    const Clock::time_point t1 = Clock::now();
    out->attempted += 3;
    if (!loaded.ok()) {
      ++out->failed;
      checks.ExpectOk(loaded.status(), "load input");
      return;
    }
    frt::FrequencyRandomizer randomizer(config);
    frt::Rng rng(pipeline_args.seed);
    frt::Result<frt::Dataset> result = randomizer.Anonymize(*loaded, rng);
    const Clock::time_point t2 = Clock::now();
    if (!result.ok()) {
      ++out->failed;
      checks.ExpectOk(result.status(), "anonymize");
      return;
    }
    const frt::Status saved = frt::SaveDatasetCsv(*result, output_path);
    const Clock::time_point t3 = Clock::now();
    const double c1 = CpuSeconds();
    const double ref_after_ms = ReferencePassMs();
    if (!saved.ok()) ++out->failed;
    checks.ExpectOk(saved, "save output");
    spans.Add("load", "traj", t0, t1);
    spans.Add("anonymize", "core", t1, t2);
    spans.Add("save", "traj", t2, t3);
    load_s.push_back(Seconds(t1 - t0));
    anon_s.push_back(Seconds(t2 - t1));
    save_s.push_back(Seconds(t3 - t2));
    iter_s.push_back(Seconds(t3 - t0));
    pts_per_s.push_back(static_cast<double>(loaded->TotalPoints()) /
                        Seconds(t3 - t0));
    iter_cpu_s.push_back(c1 - c0);
    ref_cpu_s.push_back(ReferenceCpu(c1 - c0, ref_before_ms, ref_after_ms));
    pts_per_cpu_s.push_back(static_cast<double>(loaded->TotalPoints()) /
                            ref_cpu_s.back());
    ref_ms.push_back(ref_after_ms);
    ref_before_ms = ref_after_ms;
    // Every iteration is a same-seed rerun: its output must repeat.
    const uint64_t digest = Digest(*result);
    if (iteration == 0) {
      first_digest = digest;
      original = std::move(*loaded);
      published = std::move(*result);
      report = randomizer.report();
    } else {
      checks.Expect(digest == first_digest,
                    "same-seed rerun " + std::to_string(iteration) +
                        " reproduces the first output digest");
    }
    ++iteration;
    // Peak RSS after a fixed number of calls: how many calls fit in
    // --seconds depends on the host, and heap growth across many calls
    // would make the figure depend on it too.
    if (iteration == scale.min_batch_iterations) rss_mb = PeakRssMb();
  }

  const double eps_target = config.epsilon_global + config.epsilon_local;
  checks.Expect(std::fabs(report.epsilon_spent - eps_target) < 1e-9,
                "batch epsilon spent equals eps_G + eps_L");
  checks.Expect(SameIds(original, published),
                "published ids equal input ids, in order");
  out->digests.push_back({"batch_gl.output", first_digest});

  std::map<std::string, double> layers;
  if (opt.trace) {
    // Staged replays alternate (ABBA) with plain Anonymize re-runs on the
    // same input and seed; coverage is the median ratio of adjacent pairs,
    // so host speed drifts between pairs cancel.
    StageTimes times;
    frt::RandomizerReport staged_report;
    std::vector<double> quantize_s, signature_s, global_s, local_s, ratios;
    auto staged = [&] {
      frt::Rng rng(pipeline_args.seed);
      frt::Result<frt::Dataset> out_staged = StagedAnonymize(
          config, original, rng, spans, &times, &staged_report);
      checks.Expect(out_staged.ok() && Digest(*out_staged) == first_digest,
                    "staged replay reproduces the Anonymize output digest");
      quantize_s.push_back(times.quantize_s);
      signature_s.push_back(times.signature_s);
      global_s.push_back(times.global_s);
      local_s.push_back(times.local_s);
      return times.Total();
    };
    auto rerun = [&] {
      frt::FrequencyRandomizer randomizer(config);
      frt::Rng rng(pipeline_args.seed);
      const Clock::time_point t0 = Clock::now();
      frt::Result<frt::Dataset> again = randomizer.Anonymize(original, rng);
      const Clock::time_point t1 = Clock::now();
      spans.Add("anonymize", "core", t0, t1);
      checks.Expect(again.ok() && Digest(*again) == first_digest,
                    "Anonymize re-run reproduces the output digest");
      return Seconds(t1 - t0);
    };
    for (int round = 0; round < kCoverageRounds; ++round) {
      double staged_s = 0.0, whole_s = 0.0;
      if (round % 2 == 0) {
        staged_s = staged();
        whole_s = rerun();
      } else {
        whole_s = rerun();
        staged_s = staged();
      }
      ratios.push_back(staged_s / whole_s);
    }
    times.quantize_s = Median(quantize_s);
    times.signature_s = Median(signature_s);
    times.global_s = Median(global_s);
    times.local_s = Median(local_s);
    layers["traj.load_s"] = Median(load_s);
    layers["traj.save_s"] = Median(save_s);
    layers["traj.quantize_s"] = times.quantize_s;
    layers["core.signature_s"] = times.signature_s;
    layers["core.global_s"] = times.global_s;
    layers["core.local_s"] = times.local_s;
    const frt::ModifierStats& g = staged_report.global.edits;
    const frt::ModifierStats& l = staged_report.local.edits;
    layers["core.global.knn_searches"] = static_cast<double>(g.knn_searches);
    layers["core.global.distance_evals"] =
        static_cast<double>(g.distance_evaluations);
    layers["core.global.evals_per_search"] =
        g.knn_searches > 0 ? static_cast<double>(g.distance_evaluations) /
                                 static_cast<double>(g.knn_searches)
                           : 0.0;
    layers["core.local.distance_evals"] =
        static_cast<double>(l.distance_evaluations);
    layers["core.edits"] = static_cast<double>(
        g.insertions + g.deletions + l.insertions + l.deletions);
    const double coverage = Median(ratios);
    layers["batch.coverage"] = coverage;
    checks.Expect(coverage >= kMinCoverage,
                  "named stages explain >= 90% of Anonymize (coverage " +
                      std::to_string(coverage) + ")");
    layers["proc.cpu_s"] = Sum(iter_cpu_s);
    layers["publish.samples"] = static_cast<double>(iter_s.size());
    layers["throughput_pts_s"] = Median(pts_per_s);
    layers["publish_p50_ms"] = 1e3 * Quantile(iter_s, 0.5);
    layers["publish_p90_ms"] = 1e3 * Quantile(iter_s, 0.9);
    layers["host.reference_ms"] = Median(ref_ms);
    layers["failed_share"] = static_cast<double>(out->failed) /
                             static_cast<double>(out->attempted);
    checks.Expect(spans.Write(opt.work_dir + "/trace_batch_gl.json"),
                  "write trace");
  }

  // Quality is deterministic per seed and measured outside the timed loop.
  const auto [la, loss] = Quality(original, published);
  std::fprintf(stderr,
               "batch_gl: %d iterations, %zu trajectories, %zu points, "
               "median %.3f s (anonymize %.3f s, %.3f CPU s), eps %.2f, "
               "reference pass %.2f ms\n",
               iteration, original.size(), original.TotalPoints(),
               Median(iter_s), Median(anon_s), Median(iter_cpu_s),
               report.epsilon_spent, Median(ref_ms));

  out->E2e("setup_s", setup_s, "s");
  out->E2e("throughput_pts_cpu_s", Median(pts_per_cpu_s), "pts/cpu-s");
  out->E2e("release_cpu_ms", 1e3 * Median(ref_cpu_s), "ms");
  out->E2e("peak_rss_mb", rss_mb, "MB");
  out->E2e("la_spatial", la, "ratio");
  out->E2e("info_loss", loss, "ratio");
  if (opt.trace) EmitLayers(layers, out);
}

// ============================ serve_* ============================

struct ServeSpec {
  const char* name;
  int feeds;
  size_t window;
  size_t stride;  ///< 0 = tumbling
  double per_object_budget;
  /// Pinned paced arrival rate (arrivals/s over all feeds), about half
  /// (fleet) / 60% (hot feed) of the drain capacity measured on the
  /// reference host. Never adapted at run time.
  double rate;
  /// Drain capacity measured on the reference host (arrivals/s); only
  /// used to split --seconds between the paced and the drain phase.
  double capacity;
};

// Rates are pinned from the drain capacity of a 4-CPU host (see
// e2ebench/layers.json); they are constants, not run-time adaptations.
constexpr ServeSpec kFleet{"serve_fleet", 16, 50, 0, 0.0, 800.0, 1600.0};
constexpr ServeSpec kHotFeed{"serve_hotfeed", 1, 50, 25, 4.0, 165.0, 285.0};

constexpr unsigned kPoolThreads = 4;
/// Taxis per generated road network in a serve feed (a multiple of the
/// window and the stride, so tumbling windows never straddle two).
constexpr uint32_t kChunkTaxis = 250;

struct ArrivalSlot {
  uint32_t feed;
  uint32_t seq;   ///< position in the feed's own sequence
  double due_s;   ///< scheduled send time after the phase start
};

/// Generated inputs of one serve workload.
struct ServeInput {
  std::vector<std::string> names;
  std::vector<frt::Dataset> fleets;  ///< per feed, in arrival order
  std::vector<ArrivalSlot> schedule;
  size_t points = 0;
};

frt::Result<ServeInput> MakeServeInput(const ServeSpec& spec, size_t arrivals,
                                       int points, uint64_t schedule_seed,
                                       uint64_t data_seed) {
  ServeInput in;
  frt::Rng rng(schedule_seed);
  // Zipf(1) feed weights: feed i carries a share proportional to 1/(i+1).
  std::vector<double> cdf(spec.feeds);
  double total = 0.0;
  for (int i = 0; i < spec.feeds; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf[i] = total;
  }
  std::vector<uint32_t> counts(spec.feeds, 0);
  double t = 0.0;
  in.schedule.reserve(arrivals);
  for (size_t i = 0; i < arrivals; ++i) {
    t += rng.Exponential(spec.rate);
    const double u = rng.Uniform() * total;
    const uint32_t feed = static_cast<uint32_t>(
        std::min<ptrdiff_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                cdf.begin(),
                            spec.feeds - 1));
    in.schedule.push_back({feed, counts[feed]++, t});
  }
  SeedStream feed_seeds(data_seed);
  for (int f = 0; f < spec.feeds; ++f) {
    char name[16];
    std::snprintf(name, sizeof(name), "feed%02d", f);
    in.names.push_back(spec.feeds == 1 ? "hot" : name);
    const uint64_t seed = feed_seeds.Next();
    if (counts[f] == 0) {
      in.fleets.emplace_back();
      continue;
    }
    // A feed's sequence is built from fleets of kChunkTaxis, each on its
    // own generated road network, so a seed's cost averages over many
    // networks instead of resting on one. Ids stay distinct per feed.
    SeedStream chunk_seeds(seed);
    frt::Dataset fleet;
    for (uint32_t begin = 0; begin < counts[f]; begin += kChunkTaxis) {
      const uint32_t n = std::min(kChunkTaxis, counts[f] - begin);
      FRT_ASSIGN_OR_RETURN(frt::Dataset chunk,
                           GenerateFleet(static_cast<int>(n), points,
                                         chunk_seeds.Next()));
      for (frt::Trajectory& t : chunk.mutable_trajectories()) {
        t.set_id(static_cast<frt::TrajId>(fleet.size()));
        FRT_RETURN_IF_ERROR(fleet.Add(std::move(t)));
      }
    }
    in.points += fleet.TotalPoints();
    in.fleets.push_back(std::move(fleet));
  }
  return in;
}

/// What the sink saw for one published window.
struct WindowRecord {
  uint32_t feed = 0;
  size_t index = 0;
  frt::WindowClose reason = frt::WindowClose::kCount;
  Clock::time_point sink_at{};
  uint64_t digest = 0;
  double job_ms = 0.0;
  double close_wait_ms = 0.0;
  double sink_ms = 0.0;
  size_t trajectories = 0;
};

using WindowKey = std::pair<uint32_t, size_t>;  // (feed, per-feed index)

/// Result of driving one dispatcher through the whole schedule.
struct PhaseResult {
  frt::Status finish = frt::Status::OK();
  frt::ServiceReport report;
  std::vector<WindowRecord> windows;
  std::map<WindowKey, frt::Dataset> kept;  ///< published copies of samples
  std::vector<double> offer_ms;
  std::vector<double> late_ms;  ///< generator oversleep, paced phase only
  uint64_t offers_refused = 0;
  Clock::time_point start{};
  double wall_s = 0.0;
};

frt::ServiceConfig MakeServiceConfig(
    const ServeSpec& spec, const frt::cli::PipelineArgs& pipeline_args,
    Checks& checks) {
  frt::cli::StreamArgs stream_args;
  stream_args.window = spec.window;
  stream_args.stride = spec.stride;
  stream_args.per_object_budget = spec.per_object_budget;
  frt::FrequencyRandomizerConfig pipeline;
  frt::ServiceConfig config;
  checks.Expect(frt::cli::MakePipelineConfig(pipeline_args, &pipeline) &&
                    frt::cli::MakeStreamConfig(stream_args, pipeline_args,
                                               pipeline, &config.stream),
                "stock serve config");
  // As frt_serve wires it: --queue bounds the arrival queue.
  config.arrival_queue_capacity = config.stream.queue_capacity;
  config.pool_threads = kPoolThreads;
  return config;
}

/// Offers the schedule to a started dispatcher — on the schedule when
/// `paced`, flat-out otherwise — then finishes it. One generator thread
/// (the caller's).
void DrivePhase(frt::ServiceDispatcher& service, const ServeInput& in,
                bool paced, SpanLog& spans, PhaseResult* phase) {
  phase->offer_ms.reserve(in.schedule.size());
  // A short lead so the first due time is in the future.
  phase->start = Clock::now() + std::chrono::milliseconds(2);
  for (const ArrivalSlot& a : in.schedule) {
    if (paced) {
      const Clock::time_point due =
          phase->start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(a.due_s));
      if (Clock::now() < due) {
        std::this_thread::sleep_until(due);
        phase->late_ms.push_back(Ms(Clock::now() - due));
      }
    }
    frt::Trajectory t = in.fleets[a.feed][a.seq];
    const Clock::time_point o0 = Clock::now();
    const bool accepted = service.Offer(in.names[a.feed], std::move(t));
    const Clock::time_point o1 = Clock::now();
    spans.Add("offer", "ingest", o0, o1);
    phase->offer_ms.push_back(Ms(o1 - o0));
    if (!accepted) ++phase->offers_refused;
  }
  const Clock::time_point f0 = Clock::now();
  phase->finish = service.Finish();
  const Clock::time_point f1 = Clock::now();
  spans.Add("finish", "service", f0, f1);
  phase->wall_s = Seconds(f1 - phase->start);
  phase->report = service.report();
}

void RunServe(const ServeSpec& spec, const Options& opt, const Scale& scale,
              Checks& checks, Outcome* out) {
  SpanLog spans(opt.trace);
  SeedStream seeds(opt.seed);
  const uint64_t schedule_seed = seeds.Next();
  const uint64_t data_seed = seeds.Next();
  frt::cli::PipelineArgs pipeline_args;
  pipeline_args.seed = seeds.Next();
  const frt::ServiceConfig config =
      MakeServiceConfig(spec, pipeline_args, checks);
  const size_t stride = config.stream.window_stride == 0
                            ? config.stream.window_size
                            : config.stream.window_stride;
  const size_t window = config.stream.window_size;

  // --seconds is split between the paced phase and the drain phase in the
  // ratio of their expected durations at the pinned rate and capacity.
  const double paced_share = 1.0 / (1.0 + spec.rate / spec.capacity);
  const size_t arrivals = static_cast<size_t>(
      std::llround(spec.rate * opt.seconds * paced_share));

  // Set-up: schedule + fleets + Start(), repeated; the last repetition's
  // dispatcher serves the paced phase.
  const double setup_ref_ms = ReferencePassMs();
  std::vector<double> setup_cpu_s;
  ServeInput in;
  PhaseResult paced;
  // Windows whose output the sink keeps. Filled before the first Offer;
  // the arrival queue orders that write before the sink's reads.
  std::set<WindowKey> sampled;
  auto make_sink = [&](PhaseResult* phase, bool keep) {
    return [&, phase, keep](const std::string& feed,
                            const frt::Dataset& published,
                            const frt::WindowReport& report) -> frt::Status {
      const Clock::time_point t0 = Clock::now();
      WindowRecord rec;
      rec.feed = static_cast<uint32_t>(
          std::find(in.names.begin(), in.names.end(), feed) -
          in.names.begin());
      rec.index = report.index;
      rec.reason = report.close_reason;
      rec.sink_at = t0;
      rec.digest = Digest(published);
      rec.job_ms = 1e3 * report.batch.wall_seconds;
      rec.close_wait_ms = report.close_wait_ms;
      rec.trajectories = published.size();
      if (keep && sampled.count({rec.feed, rec.index}) > 0) {
        phase->kept.emplace(WindowKey{rec.feed, rec.index}, published);
      }
      const Clock::time_point t1 = Clock::now();
      rec.sink_ms = Ms(t1 - t0);
      phase->windows.push_back(rec);
      spans.Add("sink", "service", t0, t1);
      return frt::Status::OK();
    };
  };
  std::unique_ptr<frt::ServiceDispatcher> service;
  for (int rep = 0; rep < scale.setup_reps; ++rep) {
    const double c0 = CpuSeconds();
    frt::Result<ServeInput> made = MakeServeInput(
        spec, arrivals, scale.serve_points, schedule_seed, data_seed);
    if (!made.ok()) {
      checks.ExpectOk(made.status(), "generate serve input");
      return;
    }
    in = std::move(*made);
    if (service) checks.ExpectOk(service->Finish(), "idle set-up Finish");
    service = std::make_unique<frt::ServiceDispatcher>(
        config, make_sink(&paced, /*keep=*/true));
    checks.ExpectOk(service->Start(pipeline_args.seed), "Start");
    setup_cpu_s.push_back(CpuSeconds() - c0);
  }

  // Count-closed windows are fixed by the sequences alone; choose the
  // replay/quality sample among them up front, evenly spaced.
  std::vector<WindowKey> count_windows;
  for (uint32_t f = 0; f < in.fleets.size(); ++f) {
    const size_t n = in.fleets[f].size();
    for (size_t k = 0; n >= window && k <= (n - window) / stride; ++k) {
      count_windows.push_back({f, k});
    }
  }
  checks.Expect(count_windows.size() >= scale.min_paced_windows,
                "paced phase yields >= " +
                    std::to_string(scale.min_paced_windows) +
                    " count-closed windows (got " +
                    std::to_string(count_windows.size()) + ")");
  auto spaced = [](const std::vector<WindowKey>& from, size_t n) {
    std::vector<WindowKey> picked;
    n = std::min(n, from.size());
    for (size_t i = 0; i < n; ++i) picked.push_back(from[i * from.size() / n]);
    return picked;
  };
  const std::vector<WindowKey> quality_sample =
      spaced(count_windows, scale.quality_windows);
  const std::vector<WindowKey> sample =
      spaced(quality_sample, scale.replay_windows);
  sampled.insert(quality_sample.begin(), quality_sample.end());
  auto window_input = [&](const WindowKey& key) {
    frt::Dataset d;
    const frt::Dataset& fleet = in.fleets[key.first];
    for (size_t j = key.second * stride;
         j < key.second * stride + window && j < fleet.size(); ++j) {
      d.Add(fleet[j]).ok();  // ids are distinct within a feed
    }
    return d;
  };

  // The host reference is measured before, between and after the phases.
  std::vector<double> ref_ms{ReferencePassMs()};
  const double setup_s =
      ReferenceCpu(Median(setup_cpu_s), setup_ref_ms, ref_ms.back());
  // ---- Paced phase: open loop on the Poisson schedule. ----
  const double paced_c0 = CpuSeconds();
  DrivePhase(*service, in, /*paced=*/true, spans, &paced);
  service.reset();
  const double paced_cpu_s = CpuSeconds() - paced_c0;
  ref_ms.push_back(ReferencePassMs());
  // ---- Drain phase: the same per-feed sequences, flat-out. ----
  PhaseResult drain;
  const double drain_c0 = CpuSeconds();
  {
    frt::ServiceDispatcher drain_service(config,
                                         make_sink(&drain, /*keep=*/false));
    checks.ExpectOk(drain_service.Start(pipeline_args.seed), "drain Start");
    DrivePhase(drain_service, in, /*paced=*/false, spans, &drain);
  }
  const double drain_cpu_s = CpuSeconds() - drain_c0;
  ref_ms.push_back(ReferencePassMs());
  const double rss_mb = PeakRssMb();

  // ---- Output checks. ----
  std::map<WindowKey, uint64_t> paced_digest;
  for (const WindowRecord& w : paced.windows) {
    paced_digest[{w.feed, w.index}] = w.digest;
  }
  for (const PhaseResult* phase : {&paced, &drain}) {
    const char* label = phase == &paced ? "paced" : "drain";
    checks.ExpectOk(phase->finish, std::string(label) + " Finish");
    checks.Expect(phase->offers_refused == 0,
                  std::string(label) + ": Offer never returned false");
    const frt::ServiceReport& r = phase->report;
    checks.Expect(r.windows_refused == 0 && r.feeds_quarantined == 0 &&
                      r.trajectories_refused == 0 &&
                      r.trajectories_evicted == 0,
                  std::string(label) + ": no refused or quarantined windows");
    checks.Expect(r.trajectories_in == in.schedule.size(),
                  std::string(label) + ": every arrival routed");
    for (const frt::FeedReport& feed : r.feeds_report) {
      const double eps = feed.stream.epsilon_spent;
      if (spec.per_object_budget > 0.0) {
        checks.Expect(std::fabs(eps - 2.0) < 1e-9,
                      std::string(label) + ": max per-object eps of feed " +
                          feed.feed + " is 2.0 (got " + std::to_string(eps) +
                          ")");
      } else {
        const double want =
            static_cast<double>(feed.stream.windows_published) * 1.0;
        checks.Expect(std::fabs(eps - want) < 1e-9,
                      std::string(label) + ": eps of feed " + feed.feed +
                          " equals windows x 1.0");
      }
    }
    out->attempted += in.schedule.size() + r.windows_closed;
    out->failed += phase->offers_refused + r.windows_refused +
                   r.feeds_quarantined + (phase->finish.ok() ? 0 : 1);
  }
  size_t drain_count_windows = 0;
  for (const WindowRecord& w : drain.windows) {
    if (w.reason != frt::WindowClose::kCount) continue;
    ++drain_count_windows;
    const auto it = paced_digest.find({w.feed, w.index});
    checks.Expect(it != paced_digest.end() && it->second == w.digest,
                  "drain window " + in.names[w.feed] + "/" +
                      std::to_string(w.index) +
                      " is bit-identical to the paced phase's");
  }
  checks.Expect(drain_count_windows == count_windows.size(),
                "drain closes every count window");
  // In (feed, window) order: the order windows complete in varies run to
  // run across feeds, the digests do not.
  for (const auto& [key, digest] : paced_digest) {
    out->digests.push_back(
        {in.names[key.first] + "/" + std::to_string(key.second), digest});
  }

  // ---- End-to-end metrics. ----
  // Publish latency: scheduled send of the window's last contributing
  // arrival -> sink callback; count-closed windows of the paced phase only.
  std::vector<std::vector<double>> due_by_seq(in.fleets.size());
  for (const ArrivalSlot& a : in.schedule) {
    due_by_seq[a.feed].push_back(a.due_s);
  }
  std::vector<const WindowRecord*> paced_count;
  for (const WindowRecord& w : paced.windows) {
    if (w.reason == frt::WindowClose::kCount) paced_count.push_back(&w);
  }
  std::sort(paced_count.begin(), paced_count.end(),
            [](const WindowRecord* a, const WindowRecord* b) {
              return a->sink_at < b->sink_at;
            });
  std::vector<double> latency_ms, job_ms, queue_wait_ms, close_wait_ms,
      sink_ms;
  for (const WindowRecord* w : paced_count) {
    const double due_s = due_by_seq[w->feed][w->index * stride + window - 1];
    const double latency = Ms(w->sink_at - paced.start) - 1e3 * due_s;
    latency_ms.push_back(latency);
    job_ms.push_back(w->job_ms);
    queue_wait_ms.push_back(latency - w->job_ms);
    close_wait_ms.push_back(w->close_wait_ms);
  }
  for (const WindowRecord& w : paced.windows) sink_ms.push_back(w.sink_ms);

  // Quality of the sampled windows (deterministic per seed).
  double la_sum = 0.0, loss_sum = 0.0;
  for (const WindowKey& key : quality_sample) {
    const auto it = paced.kept.find(key);
    if (it == paced.kept.end()) {
      checks.Expect(false, "sampled window was published");
      continue;
    }
    const auto [la, loss] = Quality(window_input(key), it->second);
    la_sum += la;
    loss_sum += loss;
  }
  const double n_quality =
      std::max<double>(1.0, static_cast<double>(quality_sample.size()));

  out->E2e("setup_s", setup_s, "s");
  out->E2e("throughput_pts_cpu_s",
           static_cast<double>(in.points) /
               ReferenceCpu(drain_cpu_s, ref_ms[1], ref_ms[2]),
           "pts/cpu-s");
  out->E2e("release_cpu_ms",
           1e3 * ReferenceCpu(paced_cpu_s, ref_ms[0], ref_ms[1]) /
               static_cast<double>(std::max<size_t>(1, paced.windows.size())),
           "ms");
  out->E2e("peak_rss_mb", rss_mb, "MB");
  out->E2e("la_spatial", la_sum / n_quality, "ratio");
  out->E2e("info_loss", loss_sum / n_quality, "ratio");

  const double late_p99 = Quantile(paced.late_ms, 0.99);
  const double late_max =
      paced.late_ms.empty() ? 0.0
                            : *std::max_element(paced.late_ms.begin(),
                                                paced.late_ms.end());
  // The generator itself fell behind: the run's open-loop premise broke.
  constexpr double kMaxLateP99Ms = 25.0;
  checks.Expect(late_p99 <= kMaxLateP99Ms,
                "load generator kept its schedule (oversleep p99 " +
                    std::to_string(late_p99) + " ms)");
  std::fprintf(stderr,
               "%s: %zu arrivals over %zu feeds, %zu points; paced %.2f s "
               "(%zu count windows, %.2f CPU s), drain %.2f s (%.0f traj/s, "
               "%.2f CPU s); publish p50/p90 %.1f/%.1f ms; job p50 %.1f ms; "
               "reference pass %.2f ms\n",
               spec.name, in.schedule.size(), in.fleets.size(), in.points,
               paced.wall_s, paced_count.size(), paced_cpu_s, drain.wall_s,
               static_cast<double>(in.schedule.size()) / drain.wall_s,
               drain_cpu_s, Quantile(latency_ms, 0.5),
               Quantile(latency_ms, 0.9), Median(job_ms), Median(ref_ms));

  if (!opt.trace) return;
  std::map<std::string, double> layers;
  layers["service.job_ms.p50"] = Quantile(job_ms, 0.5);
  layers["service.job_ms.p90"] = Quantile(job_ms, 0.9);
  layers["service.queue_wait_ms.p50"] = Quantile(queue_wait_ms, 0.5);
  layers["service.queue_wait_ms.p90"] = Quantile(queue_wait_ms, 0.9);
  layers["service.close_wait_ms.p50"] = Quantile(close_wait_ms, 0.5);
  layers["service.offer_blocked_share"] =
      Sum(drain.offer_ms) / (1e3 * drain.wall_s);
  layers["service.offer_ms.p99"] = Quantile(drain.offer_ms, 0.99);
  layers["service.paced_offer_blocked_share"] =
      Sum(paced.offer_ms) / (1e3 * paced.wall_s);
  layers["service.paced_offer_ms.p99"] = Quantile(paced.offer_ms, 0.99);
  double drain_job_ms = 0.0;
  for (const WindowRecord& w : drain.windows) drain_job_ms += w.job_ms;
  layers["service.pool_busy_share"] =
      drain_job_ms / (1e3 * drain.wall_s * kPoolThreads);
  layers["service.windows"] = static_cast<double>(paced_count.size());
  size_t published_traj = 0;
  for (const WindowRecord& w : paced.windows) published_traj += w.trajectories;
  layers["service.traj_per_arrival"] =
      static_cast<double>(published_traj) /
      static_cast<double>(in.schedule.size());
  layers["service.sink_ms.p50"] = Quantile(sink_ms, 0.5);
  layers["publish.samples"] = static_cast<double>(latency_ms.size());
  layers["loadgen.late_p99_ms"] = late_p99;
  layers["loadgen.late_max_ms"] = late_max;
  // Latency of the last third of the paced windows over the first third:
  // ~1 below capacity, growing with the backlog above it.
  const size_t third = latency_ms.size() / 3;
  if (third > 0) {
    layers["loadgen.latency_trend"] =
        Median({latency_ms.end() - third, latency_ms.end()}) /
        Median({latency_ms.begin(), latency_ms.begin() + third});
  }
  layers["proc.cpu_s"] = paced_cpu_s + drain_cpu_s;
  layers["throughput_pts_s"] = static_cast<double>(in.points) / drain.wall_s;
  layers["publish_p50_ms"] = Quantile(latency_ms, 0.5);
  layers["publish_p90_ms"] = Quantile(latency_ms, 0.9);
  layers["host.reference_ms"] = Median(ref_ms);
  layers["failed_share"] = static_cast<double>(out->failed) /
                           static_cast<double>(out->attempted);

  // ---- Serial replay of the sampled windows through the job's layers:
  // the pipeline stages, then RunWindowAudit on the stock audit config with
  // no pool, as a window job runs them. ----
  // The window job as the dispatcher runs it: one inline shard, no pool.
  frt::BatchRunnerConfig job_config = config.stream.batch;
  job_config.pool = nullptr;
  job_config.dispatch = frt::ShardDispatch::kStatic;
  job_config.threads = 1;
  std::vector<double> quantize_ms, signature_ms, global_ms, local_ms,
      audit_ms, build_ms, evals_per_point;
  std::vector<double> coverage_ratios;
  frt::ModifierStats global_edits, local_edits;
  for (size_t i = 0; i < sample.size(); ++i) {
    const WindowKey& key = sample[i];
    const std::string label =
        in.names[key.first] + "/" + std::to_string(key.second);
    const uint64_t served = paced_digest[key];
    const frt::Dataset input = window_input(key);
    // The job's RNG: the feed's session stream (generation 0) forked once
    // per closed window; BatchRunner then forks its single shard stream.
    frt::Rng session(
        frt::FeedStreamSeed(pipeline_args.seed, in.names[key.first], 0));
    frt::Rng job_rng = session.Fork();
    for (size_t k = 0; k < key.second; ++k) job_rng = session.Fork();

    // Staged replay + audit, and a serial re-run of the whole job on the
    // same thread, alternating (ABBA): coverage is the median ratio of
    // adjacent pairs, so host speed drifts between pairs cancel.
    frt::RandomizerReport report;
    auto staged = [&]() -> double {
      StageTimes times;
      frt::Rng shard = frt::Rng(job_rng).Fork();
      frt::Result<frt::Dataset> published =
          StagedAnonymize(config.stream.batch.pipeline, input, shard, spans,
                          &times, &report);
      checks.Expect(published.ok() && Digest(*published) == served,
                    "staged replay of window " + label +
                        " reproduces the served digest");
      if (!published.ok()) return 0.0;
      const Clock::time_point a0 = Clock::now();
      const frt::WindowAuditReport audit = frt::RunWindowAudit(
          input, *published, config.stream.batch.audit, /*pool=*/nullptr);
      const Clock::time_point a1 = Clock::now();
      spans.Add("audit", "runtime", a0, a1);
      checks.Expect(audit.ran, "stock config runs the window audit");
      quantize_ms.push_back(1e3 * times.quantize_s);
      signature_ms.push_back(1e3 * times.signature_s);
      global_ms.push_back(1e3 * times.global_s);
      local_ms.push_back(1e3 * times.local_s);
      audit_ms.push_back(Ms(a1 - a0));
      build_ms.push_back(1e3 * audit.build_seconds);
      evals_per_point.push_back(
          audit.points_audited > 0
              ? static_cast<double>(audit.distance_evaluations) /
                    static_cast<double>(audit.points_audited)
              : 0.0);
      return 1e3 * times.Total() + Ms(a1 - a0);
    };
    auto rerun = [&]() -> double {
      frt::Rng rng(job_rng);
      frt::BatchRunner runner(job_config);
      const Clock::time_point j0 = Clock::now();
      frt::Result<frt::Dataset> published = runner.Anonymize(input, rng);
      const Clock::time_point j1 = Clock::now();
      spans.Add("window_job", "runtime", j0, j1);
      checks.Expect(published.ok() && Digest(*published) == served,
                    "serial re-run of window job " + label +
                        " reproduces the served digest");
      return Ms(j1 - j0);
    };
    for (int round = 0; round < kCoverageRounds; ++round) {
      double staged_ms = 0.0, whole_ms = 0.0;
      if ((i + round) % 2 == 0) {
        staged_ms = staged();
        whole_ms = rerun();
      } else {
        whole_ms = rerun();
        staged_ms = staged();
      }
      coverage_ratios.push_back(staged_ms / whole_ms);
    }
    global_edits.MergeFrom(report.global.edits);
    local_edits.MergeFrom(report.local.edits);
  }
  layers["traj.quantize_s"] = 1e-3 * Median(quantize_ms);
  layers["core.signature_s"] = 1e-3 * Median(signature_ms);
  layers["core.global_ms"] = Median(global_ms);
  layers["core.local_ms"] = Median(local_ms);
  layers["runtime.audit_ms"] = Median(audit_ms);
  layers["runtime.audit.build_ms"] = Median(build_ms);
  layers["runtime.audit.evals_per_point"] = Median(evals_per_point);
  layers["core.global.knn_searches"] =
      static_cast<double>(global_edits.knn_searches);
  layers["core.global.distance_evals"] =
      static_cast<double>(global_edits.distance_evaluations);
  layers["core.global.evals_per_search"] =
      global_edits.knn_searches > 0
          ? static_cast<double>(global_edits.distance_evaluations) /
                static_cast<double>(global_edits.knn_searches)
          : 0.0;
  layers["core.local.distance_evals"] =
      static_cast<double>(local_edits.distance_evaluations);
  layers["core.edits"] = static_cast<double>(
      global_edits.insertions + global_edits.deletions +
      local_edits.insertions + local_edits.deletions);
  const double window_coverage = Median(coverage_ratios);
  layers["window.coverage"] = window_coverage;
  checks.Expect(window_coverage >= kMinCoverage,
                "named stages explain >= 90% of the window job (coverage " +
                    std::to_string(window_coverage) + ")");
  checks.Expect(spans.Write(opt.work_dir + "/trace_" + spec.name + ".json"),
                "write trace");
  EmitLayers(layers, out);
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      opt->workload = v;
    } else if (flag == "--seed") {
      if (!frt::cli::ParseFlagUint64("--seed", v, &opt->seed)) return false;
    } else if (flag == "--seconds") {
      if (!frt::cli::ParseFlagDouble("--seconds", v, &opt->seconds) ||
          !(opt->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      opt->trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--scale") {
      if (std::strcmp(v, "smoke") != 0 && std::strcmp(v, "full") != 0) {
        std::fprintf(stderr, "--scale must be full or smoke\n");
        return false;
      }
      opt->smoke = std::strcmp(v, "smoke") == 0;
    } else if (flag == "--work-dir") {
      opt->work_dir = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload batch_gl|serve_fleet|serve_hotfeed "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR "
                 "[--scale full|smoke]\n",
                 argv[0]);
    return 2;
  }
  const Scale scale = MakeScale(opt.smoke);
  Checks checks;
  Outcome out;
  if (opt.workload == "batch_gl") {
    RunBatch(opt, scale, checks, &out);
  } else if (opt.workload == "serve_fleet") {
    RunServe(kFleet, opt, scale, checks, &out);
  } else if (opt.workload == "serve_hotfeed") {
    RunServe(kHotFeed, opt, scale, checks, &out);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  const std::string digest_path = opt.work_dir + "/digests_" + opt.workload +
                                  "_seed" + std::to_string(opt.seed) + ".txt";
  if (std::FILE* f = std::fopen(digest_path.c_str(), "w")) {
    for (const auto& [label, digest] : out.digests) {
      std::fprintf(f, "%s %s\n", label.c_str(), Hex(digest).c_str());
    }
    std::fclose(f);
  }
  const std::string e2e = MetricsJson(out.e2e, checks);
  const std::string layers = MetricsJson(out.layers, checks);
  std::fprintf(stderr, "%d checks evaluated, %s\n", checks.evaluated(),
               checks.ok() ? "all passed" : "SOME FAILED");
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"e2e\": %s, \"layers\": %s}\n",
              checks.ok() ? "true" : "false", out.attempted, out.failed,
              e2e.c_str(), layers.c_str());
  std::fflush(stdout);
  return checks.ok() ? 0 : 1;
}
