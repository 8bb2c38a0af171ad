// Window audit: a read-only displacement report over one publishing window,
// and the runtime consumer of the shared-index concurrency contract.
//
// After a window is anonymized, the audit measures how far the published
// points moved: for every point of every published trajectory it finds the
// nearest original segment (k=1 KNearest against an index over the
// *input* dataset) and aggregates mean / max displacement. This is a pure
// utility diagnostic — it reads both datasets and writes nothing.
//
// Because KNearest is read-only and thread-safe (index/segment_index.h),
// the audit builds the segment index ONCE per window and fans the worker
// pool out over it — the published trajectories are split into fixed
// ranges, each worker sweeps ranges with its own SearchContext against the
// one shared index, and per-range partial aggregates are merged in range
// order. Searches are deterministic, so the report is bit-identical with
// or without a pool and at any worker count.

#ifndef FRT_RUNTIME_WINDOW_AUDIT_H_
#define FRT_RUNTIME_WINDOW_AUDIT_H_

#include <cstdint>

#include "core/pipeline.h"
#include "runtime/work_stealing_pool.h"
#include "traj/dataset.h"

namespace frt {

/// Configuration of the per-window displacement audit.
struct WindowAuditConfig {
  /// Audits run only when enabled (they cost one index build plus one
  /// k=1 query per published point).
  bool enabled = false;
  /// kNN strategy of the audit index.
  SearchStrategy strategy = SearchStrategy::kBottomUpDown;
  /// Dyadic levels of the audit index grid (512x512 finest by default).
  int index_levels = 10;
  /// Number of trajectory ranges the published dataset is split into.
  /// Fixed (not derived from the worker count) so aggregates are
  /// bit-identical across thread counts; clamped to the trajectory count.
  int ranges = 8;
};

/// Aggregates of one audit run. All fields except build_seconds are
/// deterministic given the two datasets and the config — independent of
/// the thread count.
struct WindowAuditReport {
  bool ran = false;
  /// Published points measured (sum over trajectories of size()).
  uint64_t points_audited = 0;
  /// Index constructions (one per audited window).
  int index_builds = 0;
  /// Wall seconds spent constructing the index.
  double build_seconds = 0.0;
  /// Mean / max distance from a published point to the nearest original
  /// segment (meters in the paper's datasets). 0 when no points audited.
  double mean_displacement = 0.0;
  double max_displacement = 0.0;
  /// Exact distance evaluations of the audit index.
  uint64_t distance_evaluations = 0;
};

/// \brief Runs the displacement audit of `published` against `original`.
///
/// `pool` supplies the workers that share the index; pass nullptr to run
/// the ranges serially on the calling thread (results are identical).
/// Returns a report with ran=false when the config disables the audit or
/// either dataset has no usable geometry.
WindowAuditReport RunWindowAudit(const Dataset& original,
                                 const Dataset& published,
                                 const WindowAuditConfig& config,
                                 WorkStealingPool* pool);

}  // namespace frt

#endif  // FRT_RUNTIME_WINDOW_AUDIT_H_
