// Feed readers shared by the serving CLIs (frt_stream, frt_serve,
// frt_edge): they turn local CSV input into ServiceDispatcher arrivals.
//
//   IngestFeedCsv       one dataset CSV (traj/io.h format) as one feed —
//                       frt_stream's input, and each --input FILE
//   IngestFeedFiles     several of those, one reader thread per file
//   IngestMultiFeedCsv  the interleaved `feed,traj_id,x,y,t` format
//                       (--feeds), trajectories contiguous per feed
//
// A parse error is a per-feed fault: the reader ends the input of the
// feeds it delivered (ServiceDispatcher::OfferInputFault) before returning
// the error. Every window that closed by count before the bad line still
// publishes; the arrivals read after the last closed window are dropped,
// never published as a trailing partial window or charged to a budget;
// the feed is reported as quarantined. Readers stop quietly when the
// service refuses further arrivals (abort or stop_when_exhausted).
//
// frt_stream is the service with exactly one feed, kSingleFeed; the
// SingleFeedServiceConfig / RunSingleFeed pair is its whole engine.

#ifndef FRT_SERVICE_FEED_INGEST_H_
#define FRT_SERVICE_FEED_INGEST_H_

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "service/dispatcher.h"
#include "stream/stream_config.h"

namespace frt {

/// Feed id a `--input FILE` gets without an explicit NAME=: the file
/// stem ("data/taxi_a.csv" -> "taxi_a").
std::string FeedNameFromPath(const std::string& path);

/// \brief Streams one dataset CSV into `service` as feed `feed`. On a
/// parse error the feed's input ends at the fault (see above) and the
/// error is returned.
Status IngestFeedCsv(std::istream& in, const std::string& feed,
                     ServiceDispatcher& service);

/// \brief Opens every (feed, path) input and streams it on its own thread
/// (IngestFeedCsv). Returns the first error; a file that cannot be opened
/// is an IOError and delivers nothing.
Status IngestFeedFiles(
    const std::vector<std::pair<std::string, std::string>>& inputs,
    ServiceDispatcher& service);

/// \brief Streams the interleaved multi-feed CSV (`feed,traj_id,x,y,t`).
/// Per feed, consecutive same-id lines form one trajectory, so distinct
/// feeds may interleave freely. A feed id failing ValidateFeedId
/// (traj/io.h) makes its line malformed. On a parse error the input of
/// every feed it delivered ends at the fault and the error is returned.
Status IngestMultiFeedCsv(std::istream& in, ServiceDispatcher& service);

/// The one feed of the single-feed service. Its --state-dir snapshots name
/// this feed, and its RNG stream is FeedStreamSeed(seed, "stream",
/// generation).
inline constexpr char kSingleFeed[] = "stream";

/// \brief Service config of the single-feed service: `stream` on a pool of
/// `pool_threads` workers (0 = the service default), with at most one
/// closed window waiting behind the running one. Ingress then pauses
/// while a window runs, the way a synchronous window loop reads: the
/// reader stays at most one window plus the arrival queue ahead, so a
/// stop_when_exhausted run stops reading right after the refused window.
/// This bounds read-ahead only: the published windows are the same as
/// `frt_serve --input stream=FILE` publishes, clean input or not.
ServiceConfig SingleFeedServiceConfig(StreamConfig stream,
                                      unsigned pool_threads);

/// \brief Streams `in` through the started `service` as kSingleFeed, then
/// finishes the service. Returns the first failure: the parse error, the
/// service error, or — a lone feed's quarantine ends the whole run — the
/// quarantine (a duplicate object id inside a window) as
/// InvalidArgument. Budget refusals are not errors; see the report.
Status RunSingleFeed(std::istream& in, ServiceDispatcher& service);

}  // namespace frt

#endif  // FRT_SERVICE_FEED_INGEST_H_
