// TraceRecorder: emit/drain round-trips, exact drop counters on ring
// overflow, concurrent emitters (exercised under ASan/TSan in CI), and
// the Chrome trace-event JSON exporter.

#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/trace_export.h"

namespace frt::obs {
namespace {

using Clock = std::chrono::steady_clock;

/// The recorder is a process-wide singleton; every test leaves it
/// stopped so suites stay order-independent.
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override { (void)TraceRecorder::Get().Stop(); }
};

void EmitOne(const char* name, SpanCategory cat, std::string_view feed,
             int64_t dur_us = 5) {
  const Clock::time_point end = Clock::now();
  EmitSpan(name, cat, feed, end - std::chrono::microseconds(dur_us), end);
}

TEST_F(TraceTest, DisabledRecorderRecordsNothing) {
  EXPECT_FALSE(TraceEnabled());
  EmitOne("ghost", SpanCategory::kPool, "");
  { ScopedSpan span("ghost2", SpanCategory::kPool); }
  const TraceDump dump = TraceRecorder::Get().Stop();
  EXPECT_TRUE(dump.events.empty());
  EXPECT_EQ(dump.dropped, 0u);
}

TEST_F(TraceTest, EmitDrainRoundTrip) {
  ASSERT_TRUE(TraceRecorder::Get().Start({/*buffer_events=*/1024}));
  EXPECT_TRUE(TraceEnabled());
  EXPECT_FALSE(TraceRecorder::Get().Start({1024}))
      << "double Start must be refused";
  const Clock::time_point t0 = Clock::now();
  EmitSpan("anonymize", SpanCategory::kAnonymize, "alpha", t0,
           t0 + std::chrono::microseconds(250));
  EmitSpan("checkpoint_write", SpanCategory::kDurability, "", t0,
           t0 + std::chrono::milliseconds(3));
  const TraceDump dump = TraceRecorder::Get().Stop();
  ASSERT_EQ(dump.events.size(), 2u);
  EXPECT_EQ(dump.dropped, 0u);
  EXPECT_EQ(dump.events[0].name, "anonymize");
  EXPECT_EQ(dump.events[0].feed, "alpha");
  EXPECT_EQ(dump.events[0].category, SpanCategory::kAnonymize);
  EXPECT_NEAR(static_cast<double>(dump.events[0].dur_ns), 250e3, 1.0);
  EXPECT_EQ(dump.events[1].name, "checkpoint_write");
  EXPECT_TRUE(dump.events[1].feed.empty());
  EXPECT_NEAR(static_cast<double>(dump.events[1].dur_ns), 3e6, 1.0);
  EXPECT_FALSE(TraceEnabled());
}

TEST_F(TraceTest, StopIsIdempotentAndRestartable) {
  ASSERT_TRUE(TraceRecorder::Get().Start({256}));
  EmitOne("first_session", SpanCategory::kPool, "");
  TraceDump first = TraceRecorder::Get().Stop();
  ASSERT_EQ(first.events.size(), 1u);
  EXPECT_TRUE(TraceRecorder::Get().Stop().events.empty());
  // A later session must not resurrect the first session's events.
  ASSERT_TRUE(TraceRecorder::Get().Start({256}));
  EmitOne("second_session", SpanCategory::kPool, "");
  TraceDump second = TraceRecorder::Get().Stop();
  ASSERT_EQ(second.events.size(), 1u);
  EXPECT_EQ(second.events[0].name, "second_session");
}

TEST_F(TraceTest, DropCounterIsExactOnOverflow) {
  constexpr size_t kCapacity = 64;  // the enforced minimum
  constexpr size_t kEmitted = 300;
  ASSERT_TRUE(TraceRecorder::Get().Start({kCapacity}));
  const Clock::time_point base = Clock::now();
  for (size_t i = 0; i < kEmitted; ++i) {
    EmitSpan("overflow", SpanCategory::kPool, "",
             base + std::chrono::microseconds(i),
             base + std::chrono::microseconds(i + 1));
  }
  const TraceDump dump = TraceRecorder::Get().Stop();
  EXPECT_EQ(dump.events.size(), kCapacity);
  EXPECT_EQ(dump.dropped, kEmitted - kCapacity);
  ASSERT_EQ(dump.threads.size(), 1u);
  EXPECT_EQ(dump.threads[0].dropped, kEmitted - kCapacity);
  // Overwrite-oldest: the survivors are the newest kCapacity events.
  for (size_t i = 1; i < dump.events.size(); ++i) {
    EXPECT_LT(dump.events[i - 1].start_ns, dump.events[i].start_ns);
  }
  const int64_t oldest_expected_ns =
      dump.events.back().start_ns -
      static_cast<int64_t>((kCapacity - 1) * 1000);
  EXPECT_EQ(dump.events.front().start_ns, oldest_expected_ns);
}

TEST_F(TraceTest, LongNamesAndFeedsTruncateSafely) {
  ASSERT_TRUE(TraceRecorder::Get().Start({64}));
  const std::string long_name(100, 'n');
  const std::string long_feed(100, 'f');
  EmitOne(long_name.c_str(), SpanCategory::kIngest, long_feed);
  const TraceDump dump = TraceRecorder::Get().Stop();
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_EQ(dump.events[0].name, std::string(23, 'n'));
  EXPECT_EQ(dump.events[0].feed, std::string(15, 'f'));
}

TEST_F(TraceTest, EmptyNameAndFeedRecordEmptyFields) {
  // A default-constructed string_view carries a null data pointer; the
  // recorder must not hand it to memcpy (UBSan rejects that even for a
  // zero-byte copy).
  ASSERT_TRUE(TraceRecorder::Get().Start({64}));
  const Clock::time_point t0 = Clock::now();
  EmitSpan(nullptr, SpanCategory::kIndex, std::string_view(), t0,
           t0 + std::chrono::microseconds(1));
  const TraceDump dump = TraceRecorder::Get().Stop();
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_TRUE(dump.events[0].name.empty());
  EXPECT_TRUE(dump.events[0].feed.empty());
  EXPECT_EQ(dump.events[0].category, SpanCategory::kIndex);
}

TEST_F(TraceTest, ThreadNamesAndTidsSurviveDrain) {
  ASSERT_TRUE(TraceRecorder::Get().Start({256}));
  SetTraceThreadName("main-thread");
  EmitOne("main_span", SpanCategory::kWindow, "");
  std::thread worker([] {
    SetTraceThreadName("worker-7");
    EmitOne("worker_span", SpanCategory::kPool, "");
  });
  worker.join();
  const TraceDump dump = TraceRecorder::Get().Stop();
  ASSERT_EQ(dump.events.size(), 2u);
  ASSERT_EQ(dump.threads.size(), 2u);
  EXPECT_NE(dump.threads[0].tid, dump.threads[1].tid);
  std::vector<std::string> names;
  for (const TraceThreadInfo& t : dump.threads) names.push_back(t.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "main-thread"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "worker-7"), names.end());
}

TEST_F(TraceTest, ConcurrentEmittersAccountForEveryEvent) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 5000;
  constexpr size_t kCapacity = 1024;  // forces overflow in every ring
  ASSERT_TRUE(TraceRecorder::Get().Start({kCapacity}));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      SetTraceThreadName("emitter-" + std::to_string(t));
      for (size_t i = 0; i < kPerThread; ++i) {
        EmitOne("burst", SpanCategory::kPool, "feed");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const TraceDump dump = TraceRecorder::Get().Stop();
  // Quiesced drain: kept + dropped accounts for every emitted event.
  EXPECT_EQ(dump.events.size() + dump.dropped, kThreads * kPerThread);
  EXPECT_EQ(dump.events.size(), kThreads * kCapacity);
  EXPECT_EQ(dump.threads.size(), kThreads);
  for (const TraceThreadInfo& t : dump.threads) {
    EXPECT_EQ(t.dropped, kPerThread - kCapacity);
  }
}

TEST_F(TraceTest, StopWhileEmittersRunIsSafe) {
  // Writers keep emitting straight through Stop(): nothing may crash,
  // tear (the seqlock skips torn slots), or deadlock. ASan/TSan CI jobs
  // give this test its teeth.
  ASSERT_TRUE(TraceRecorder::Get().Start({128}));
  std::atomic<bool> quit{false};
  std::atomic<uint64_t> emitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (!quit.load(std::memory_order_relaxed)) {
        EmitOne("live", SpanCategory::kPool, "f");
        emitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (emitted.load(std::memory_order_relaxed) < 1000) {
    std::this_thread::yield();
  }
  const TraceDump dump = TraceRecorder::Get().Stop();
  quit.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(TraceEnabled());
  EXPECT_LE(dump.events.size(), 4u * 128u);
  for (const TraceEvent& e : dump.events) {
    EXPECT_EQ(e.name, "live");  // no torn slot ever decodes as garbage
    EXPECT_GE(e.dur_ns, 0);
  }
}

TEST_F(TraceTest, ChromeExportShapesValidJson) {
  ASSERT_TRUE(TraceRecorder::Get().Start({256}));
  SetTraceThreadName("exporter-test");
  EmitOne("anonymize", SpanCategory::kAnonymize, "feed\"quoted");
  const TraceDump dump = TraceRecorder::Get().Stop();
  const std::string json = ChromeTraceJson(dump);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"anonymize\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
  // The quote in the feed id must have been escaped.
  EXPECT_NE(json.find("feed\\\"quoted"), std::string::npos);

  const std::string path =
      ::testing::TempDir() + "/obs_trace_export_test.json";
  ASSERT_TRUE(WriteChromeTrace(dump, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents(json.size(), '\0');
  const size_t read = std::fread(contents.data(), 1, contents.size(), f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(read, json.size());
  EXPECT_EQ(contents, json);
}

TEST_F(TraceTest, ScopedSpanEmitsOnDestruction) {
  ASSERT_TRUE(TraceRecorder::Get().Start({64}));
  {
    ScopedSpan span("scoped_work", SpanCategory::kIngest, "beta");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const TraceDump dump = TraceRecorder::Get().Stop();
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_EQ(dump.events[0].name, "scoped_work");
  EXPECT_EQ(dump.events[0].feed, "beta");
  EXPECT_GE(dump.events[0].dur_ns, 150 * 1000);
}

}  // namespace
}  // namespace frt::obs
