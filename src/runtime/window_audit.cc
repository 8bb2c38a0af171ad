#include "runtime/window_audit.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/stopwatch.h"
#include "geo/segment.h"
#include "index/search_context.h"
#include "index/segment_index.h"

namespace frt {

namespace {

/// Per-range partial aggregate; merged in range order so the report is a
/// pure function of the datasets and the range count.
struct RangePartial {
  uint64_t points = 0;
  uint64_t exact = 0;
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

/// Read-only set of the original vertices whose Eq. (3) distance to their
/// own segment is exactly 0 under the index's kernel. Keys are the raw bit
/// patterns of (x, y): a published point that bit-equals a member feeds the
/// kernel the very operands the membership check did, so the k=1 search
/// would return dist2 == 0 for it. Open addressing, linear probing, load
/// factor at most 3/4 (the lookups that probe to an empty slot are the
/// few published points that are not vertices).
class ZeroDistanceVertices {
 public:
  ZeroDistanceVertices(const std::vector<SegmentEntry>& entries,
                       size_t trajectories)
      : slots_(TableSize(entries.size() + trajectories)),
        mask_(slots_.size() - 1) {
    for (const SegmentEntry& e : entries) {
      // Endpoint a always passes for finite geometry (r = 0, t = 0); b
      // only when t rounds to exactly 1. NaN or overflow never passes,
      // which also keeps the NaN empty marker out of the table.
      if (PointSegmentDistance2(e.geom.a, e.geom) == 0.0) Insert(e.geom.a);
      if (PointSegmentDistance2(e.geom.b, e.geom) == 0.0) Insert(e.geom.b);
    }
  }

  bool Contains(const Point& p) const {
    const Key key = KeyOf(p);
    if (key.x == kEmpty) return false;
    for (size_t i = Hash(key);; i = (i + 1) & mask_) {
      if (slots_[i] == key) return true;
      if (slots_[i].x == kEmpty) return false;
    }
  }

 private:
  /// Raw bits of (x, y); a default-constructed Key marks an empty slot.
  struct Key {
    uint64_t x = kEmpty;
    uint64_t y = 0;
    bool operator==(const Key& o) const { return x == o.x && y == o.y; }
  };
  /// A quiet-NaN pattern: no member has a NaN coordinate.
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  /// Power of two at least 4/3 of `members`, and above it so that a probe
  /// always meets an empty slot. A trajectory of n segments has at most
  /// n + 1 distinct vertices, so segments + trajectories bounds the member
  /// count.
  static size_t TableSize(size_t members) {
    size_t size = 2;
    while (3 * size < 4 * members) size *= 2;
    return size;
  }

  static Key KeyOf(const Point& p) {
    Key key;
    std::memcpy(&key.x, &p.x, sizeof(key.x));
    std::memcpy(&key.y, &p.y, sizeof(key.y));
    return key;
  }

  size_t Hash(const Key& key) const {
    // murmur3 fmix64 over both words: grid-aligned coordinates differ
    // mostly in high mantissa bits, so the low bits must be mixed in.
    uint64_t h = key.x ^ (key.y * 0x9e3779b97f4a7c15ULL);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return static_cast<size_t>(h) & mask_;
  }

  void Insert(const Point& p) {
    const Key key = KeyOf(p);
    size_t i = Hash(key);
    while (slots_[i].x != kEmpty && !(slots_[i] == key)) i = (i + 1) & mask_;
    slots_[i] = key;
  }

  std::vector<Key> slots_;
  size_t mask_;
};

/// Sweeps published trajectories [begin, end) against `index`, k=1. A
/// point in `exact` is answered without a search: its displacement is
/// exactly 0, and sum + 0.0 and max(max, 0.0) leave both aggregates
/// bit-unchanged, so only the point count moves.
void SweepRange(const Dataset& published, size_t begin, size_t end,
                const ZeroDistanceVertices& exact, const SegmentIndex& index,
                SearchContext* ctx, RangePartial* out) {
  SearchOptions options;
  options.k = 1;
  options.group_by = GroupBy::kSegment;
  for (size_t t = begin; t < end; ++t) {
    for (const TimedPoint& tp : published[t].points()) {
      if (exact.Contains(tp.p)) {
        ++out->points;
        ++out->exact;
        continue;
      }
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
  const ZeroDistanceVertices exact(entries, original.size());
  const auto range_task = [&](size_t r) {
    SearchContext ctx;
    const auto [begin, end] = range_bounds(r);
    SweepRange(published, begin, end, exact, *index, &ctx, &partials[r]);
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
    report.points_exact += p.exact;
    report.mean_displacement += p.sum;
    report.max_displacement = std::max(report.max_displacement, p.max);
  }
  if (report.points_audited > 0) {
    report.mean_displacement /= static_cast<double>(report.points_audited);
  }
  return report;
}

}  // namespace frt
