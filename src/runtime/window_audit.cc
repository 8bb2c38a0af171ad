#include "runtime/window_audit.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/stopwatch.h"
#include "index/search_context.h"
#include "index/segment_index.h"

namespace frt {

namespace {

/// Per-range partial aggregate; merged in range order so the report is a
/// pure function of the datasets and the range count.
struct RangePartial {
  uint64_t points = 0;
  double sum = 0.0;
  double max = 0.0;
};

std::vector<SegmentEntry> CollectEntries(const Dataset& original) {
  std::vector<SegmentEntry> entries;
  SegmentHandle handle = 0;
  for (const Trajectory& t : original.trajectories()) {
    for (size_t i = 0; i < t.NumSegments(); ++i) {
      entries.push_back(SegmentEntry{handle++, t.id(), t.SegmentAt(i)});
    }
  }
  return entries;
}

/// Sweeps published trajectories [begin, end) against `index`, k=1.
void SweepRange(const Dataset& published, size_t begin, size_t end,
                const SegmentIndex& index, SearchContext* ctx,
                RangePartial* out) {
  SearchOptions options;
  options.k = 1;
  options.group_by = GroupBy::kSegment;
  for (size_t t = begin; t < end; ++t) {
    for (const TimedPoint& tp : published[t].points()) {
      const Span<const Neighbor> hits = index.KNearest(tp.p, options, ctx);
      if (hits.empty()) continue;
      ++out->points;
      out->sum += hits[0].dist;
      out->max = std::max(out->max, hits[0].dist);
    }
  }
}

}  // namespace

WindowAuditReport RunWindowAudit(const Dataset& original,
                                 const Dataset& published,
                                 const WindowAuditConfig& config,
                                 WorkStealingPool* pool) {
  WindowAuditReport report;
  if (!config.enabled || original.empty() || published.empty()) {
    return report;
  }

  const std::vector<SegmentEntry> entries = CollectEntries(original);
  if (entries.empty()) return report;

  BBox region = BBox::Empty();
  for (const SegmentEntry& e : entries) {
    region.Extend(e.geom.a);
    region.Extend(e.geom.b);
  }
  const GridSpec grid(region, config.index_levels);

  // Fixed range split (independent of worker count): contiguous
  // trajectory ranges, remainder spread over the leading ranges.
  const size_t n = published.size();
  const size_t ranges =
      std::clamp<size_t>(static_cast<size_t>(config.ranges), 1, n);
  std::vector<RangePartial> partials(ranges);
  const size_t base = n / ranges;
  const size_t extra = n % ranges;
  const auto range_bounds = [&](size_t r) {
    const size_t begin = r * base + std::min(r, extra);
    const size_t end = begin + base + (r < extra ? 1 : 0);
    return std::pair<size_t, size_t>(begin, end);
  };

  // One build; every range reads it through its own context.
  Stopwatch build_watch;
  std::unique_ptr<SegmentIndex> index = MakeSegmentIndex(config.strategy, grid);
  const Status built = index->Build(Span<const SegmentEntry>(entries));
  report.build_seconds = build_watch.ElapsedSeconds();
  if (!built.ok()) return report;
  report.index_builds = 1;
  const auto range_task = [&](size_t r) {
    SearchContext ctx;
    const auto [begin, end] = range_bounds(r);
    SweepRange(published, begin, end, *index, &ctx, &partials[r]);
  };
  if (pool != nullptr) {
    pool->Run(ranges, range_task);
  } else {
    for (size_t r = 0; r < ranges; ++r) range_task(r);
  }
  report.distance_evaluations = index->distance_evaluations();

  // Fixed-order merge: every aggregate below is independent of worker
  // scheduling.
  report.ran = true;
  for (const RangePartial& p : partials) {
    report.points_audited += p.points;
    report.mean_displacement += p.sum;
    report.max_displacement = std::max(report.max_displacement, p.max);
  }
  if (report.points_audited > 0) {
    report.mean_displacement /= static_cast<double>(report.points_audited);
  }
  return report;
}

}  // namespace frt
