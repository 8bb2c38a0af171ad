#include "service/feed_ingest.h"

#include <fstream>
#include <istream>
#include <map>
#include <optional>
#include <string_view>
#include <thread>

#include "stream/ingest.h"
#include "traj/io.h"

namespace frt {

std::string FeedNameFromPath(const std::string& path) {
  size_t begin = path.find_last_of("/\\");
  begin = begin == std::string::npos ? 0 : begin + 1;
  size_t end = path.rfind('.');
  if (end == std::string::npos || end <= begin) end = path.size();
  return path.substr(begin, end - begin);
}

Status IngestFeedCsv(std::istream& in, const std::string& feed,
                     ServiceDispatcher& service) {
  TrajectoryReader reader(in);
  for (;;) {
    Result<std::optional<Trajectory>> next = reader.Next();
    if (!next.ok()) {
      service.OfferInputFault(feed, next.status().ToString());
      return next.status();
    }
    if (!next->has_value()) return Status::OK();
    if (!service.Offer(feed, std::move(**next))) return Status::OK();
  }
}

Status IngestFeedFiles(
    const std::vector<std::pair<std::string, std::string>>& inputs,
    ServiceDispatcher& service) {
  std::vector<Status> statuses(inputs.size());
  std::vector<std::thread> readers;
  readers.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    readers.emplace_back([&, i] {
      const auto& [feed, path] = inputs[i];
      std::ifstream file(path);
      if (!file.is_open()) {
        statuses[i] = Status::IOError("cannot open input: " + path);
        return;
      }
      statuses[i] = IngestFeedCsv(file, feed, service);
    });
  }
  for (auto& t : readers) t.join();
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status IngestMultiFeedCsv(std::istream& in, ServiceDispatcher& service) {
  struct Assembly {
    Trajectory current{0};
    bool has_current = false;
  };
  std::map<std::string, Assembly> assemblies;
  std::vector<std::string> order;
  // The whole input is one stream: a malformed line cuts off every feed
  // it carried, and their buffered partial trajectories are dropped.
  const auto fail = [&](Status st) {
    for (const auto& feed : order) service.OfferInputFault(feed, st.ToString());
    return st;
  };
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const size_t comma = line.find(',');
    if (comma == std::string::npos || comma == 0) {
      return fail(Status::InvalidArgument(
          "line " + std::to_string(lineno) + ": expected feed,traj_id,x,y,t"));
    }
    const std::string feed = line.substr(0, comma);
    Result<std::optional<CsvRecord>> record =
        ParseCsvRecord(std::string_view(line).substr(comma + 1), lineno);
    if (!record.ok()) return fail(record.status());
    if (!record->has_value()) continue;
    auto [it, inserted] = assemblies.try_emplace(feed);
    if (inserted) order.push_back(feed);
    Assembly& assembly = it->second;
    if (assembly.has_current && assembly.current.id() != (*record)->id) {
      if (!service.Offer(feed, std::move(assembly.current))) {
        return Status::OK();  // the service stopped taking arrivals
      }
      assembly.has_current = false;
    }
    if (!assembly.has_current) {
      assembly.current = Trajectory((*record)->id);
      assembly.has_current = true;
    }
    assembly.current.Append((*record)->p, (*record)->t);
  }
  for (const auto& feed : order) {
    Assembly& assembly = assemblies[feed];
    if (assembly.has_current && !assembly.current.empty()) {
      if (!service.Offer(feed, std::move(assembly.current))) break;
    }
  }
  return Status::OK();
}

ServiceConfig SingleFeedServiceConfig(StreamConfig stream,
                                      unsigned pool_threads) {
  ServiceConfig config;
  config.stream = std::move(stream);
  config.pool_threads = pool_threads;
  config.arrival_queue_capacity = config.stream.queue_capacity;
  config.max_backlog_windows = 1;
  return config;
}

Status RunSingleFeed(std::istream& in, ServiceDispatcher& service) {
  const Status ingest = IngestFeedCsv(in, kSingleFeed, service);
  const Status finish = service.Finish();
  if (!ingest.ok()) return ingest;
  if (!finish.ok()) return finish;
  for (const FeedReport& feed : service.report().feeds_report) {
    if (feed.quarantined) {
      return Status::InvalidArgument("feed " + feed.feed +
                                     " quarantined: " +
                                     feed.quarantine_reason);
    }
  }
  return Status::OK();
}

}  // namespace frt
