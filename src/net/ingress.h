// IngressServer: the aggregator side of the distributed ingress tier.
//
// Accepts framed edge connections (net/frame.h) on one listen endpoint and
// pumps every decoded trajectory into the service through an OfferFn —
// normally ServiceDispatcher::Offer, whose bounded arrival queue is the
// backpressure: when the dispatcher falls behind, Offer blocks, the reader
// thread stops draining its socket, the kernel buffers fill, and the edge's
// WriteAll blocks in turn. No acks, no windowed flow control protocol.
//
// Error containment is two-tiered, mirroring the frame format's contract:
//
//   - Framing-level faults (bad magic/version/type, oversized length, CRC
//     mismatch, EOF mid-frame, disconnect without a kBye) mean the byte
//     stream can no longer be trusted. The connection is torn down and
//     every feed it had delivered is reported through QuarantineFn — the
//     service quarantines those feeds (drops their backlog, refuses further
//     arrivals) but keeps serving everyone else.
//   - Semantic faults (a CRC-clean kTrajectory payload that fails strict
//     decoding) leave the stream aligned: only the feed named in the
//     payload is quarantined and the connection keeps going. When even the
//     feed id is unreadable the fault degrades to framing-level.
//
// One reader thread per connection; a process that expects N edges can set
// Options::max_connections = N and Wait() returns once all N streams end.
// Readers emit "frame_read" (blocking socket read) and "frame_decode"
// (CRC + payload decode) spans under the "net" trace category.

#ifndef FRT_NET_INGRESS_H_
#define FRT_NET_INGRESS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "net/socket.h"
#include "obs/registry.h"
#include "traj/trajectory.h"

namespace frt::net {

/// Sinks one decoded arrival into the service. Blocking is the
/// backpressure; returning false means the service is finishing and the
/// connection should wind down.
using OfferFn = std::function<bool(std::string feed, Trajectory t)>;

/// Reports a feed whose stream can no longer be trusted. Must be
/// idempotent per feed (multiple edges, or a framing fault after a
/// semantic one, may report the same feed twice).
using QuarantineFn =
    std::function<void(const std::string& feed, const std::string& reason)>;

class IngressServer {
 public:
  struct Options {
    Endpoint endpoint;
    /// Stop accepting after this many connections (0 = accept until
    /// Stop()); Wait() then returns once the last reader drains.
    size_t max_connections = 0;
    int backlog = 16;
    /// Registry the frt_ingress_* counters register into. Stats stays
    /// per-instance; the registry mirror is the scrapeable home.
    obs::Registry* registry = &obs::Registry::Default();
  };

  struct Stats {
    uint64_t connections = 0;
    uint64_t frames = 0;        ///< frames fully read and CRC-verified
    uint64_t trajectories = 0;  ///< trajectories offered downstream
    uint64_t quarantine_events = 0;  ///< QuarantineFn invocations
    /// Connections that sent at least one byte and were cut by a
    /// framing-level fault before delivering any valid trajectory: a whole
    /// edge stream lost with no feed to quarantine.
    uint64_t connections_lost = 0;
  };

  IngressServer(Options options, OfferFn offer, QuarantineFn quarantine);
  ~IngressServer();

  IngressServer(const IngressServer&) = delete;
  IngressServer& operator=(const IngressServer&) = delete;

  /// \brief Binds the listen endpoint and spawns the accept thread.
  Status Start();

  /// \brief Blocks until the accept loop ends (max_connections reached or
  /// Stop()) and every reader thread drains, then returns. Never returns
  /// a per-connection error — those became quarantine reports.
  void Wait();

  /// \brief Asynchronously stops accepting and unblocks Wait(). In-flight
  /// readers finish their current frame and exit. Touches only an atomic
  /// flag and an eventfd write, so it is async-signal-safe and never races
  /// the accept thread, which alone closes the listener.
  void Stop();

  /// Valid after Wait().
  const Stats& stats() const { return stats_; }

 private:
  void AcceptLoop();
  void ReadConnection(Socket conn, size_t index);

  Options options_;
  OfferFn offer_;
  QuarantineFn quarantine_;
  /// Owned and closed by the accept thread only.
  Socket listener_;
  /// eventfd Stop() writes to wake the accept thread's poll; open from
  /// construction to destruction so a late Stop() never sees a reused fd.
  Socket wakeup_;
  std::thread accept_thread_;
  std::vector<std::thread> readers_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  Stats stats_;
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> trajectories_{0};
  std::atomic<uint64_t> quarantine_events_{0};
  std::atomic<uint64_t> connections_lost_{0};
  /// Registry mirrors of the per-instance counters above, plus the
  /// transient accept-retry count (which has no per-instance twin).
  obs::Counter* connections_total_ = nullptr;
  obs::Counter* frames_total_ = nullptr;
  obs::Counter* trajectories_total_ = nullptr;
  obs::Counter* quarantine_total_ = nullptr;
  obs::Counter* connections_lost_total_ = nullptr;
  obs::Counter* accept_retries_ = nullptr;
};

}  // namespace frt::net

#endif  // FRT_NET_INGRESS_H_
