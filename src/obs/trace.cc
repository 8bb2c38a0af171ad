#include "obs/trace.h"

#include <algorithm>
#include <cstring>

#include "obs/registry.h"

namespace frt::obs {

namespace {

/// Fixed wire format of one ring slot: 64 bytes, serialized through
/// atomic words so a draining reader can never tear a read invisibly.
struct PackedEvent {
  char name[24];
  char feed[16];
  int64_t start_ns;
  int64_t dur_ns;
  uint64_t category;
};
constexpr size_t kSlotWords = sizeof(PackedEvent) / sizeof(uint64_t);
static_assert(sizeof(PackedEvent) == kSlotWords * sizeof(uint64_t),
              "PackedEvent must be whole atomic words");

void CopyTruncated(char* dst, size_t cap, std::string_view src) {
  const size_t n = std::min(cap - 1, src.size());
  // An empty view may carry a null data pointer, which memcpy must never
  // see, even for a zero-byte copy.
  if (n > 0) std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

std::string DecodeField(const char* src, size_t cap) {
  return std::string(src, strnlen(src, cap));
}

}  // namespace

const char* SpanCategoryName(SpanCategory category) {
  switch (category) {
    case SpanCategory::kIngest: return "ingest";
    case SpanCategory::kWindow: return "window";
    case SpanCategory::kQueue: return "queue";
    case SpanCategory::kAnonymize: return "anonymize";
    case SpanCategory::kIndex: return "index";
    case SpanCategory::kDurability: return "durability";
    case SpanCategory::kPublish: return "publish";
    case SpanCategory::kPool: return "pool";
    case SpanCategory::kNet: return "net";
  }
  return "?";
}

/// Per-slot seqlock: odd seq = write in progress. The single writer
/// bumps seq odd, stores the payload words, then bumps it even with
/// release; a reader that sees an odd or changed seq skips the slot.
struct Slot {
  std::atomic<uint32_t> seq{0};
  std::atomic<uint64_t> words[kSlotWords] = {};
};

struct TraceRecorder::ThreadBuffer {
  explicit ThreadBuffer(size_t cap)
      : capacity(cap), slots(new Slot[cap]) {}

  const size_t capacity;
  uint32_t tid = 0;
  std::string name;          ///< guarded by the recorder's mu_
  int64_t base_steady_ns = 0;
  /// Events ever emitted into this ring; the ring holds the newest
  /// min(head, capacity) of them.
  std::atomic<uint64_t> head{0};
  std::unique_ptr<Slot[]> slots;
};

struct TraceRecorder::Tls {
  std::shared_ptr<ThreadBuffer> buffer;
  uint64_t generation = 0;
  std::string pending_name;  ///< name set before the thread registered
};

TraceRecorder& TraceRecorder::Get() {
  // Leaked on purpose: detached threads may still emit during static
  // destruction.
  static TraceRecorder* instance = new TraceRecorder();
  return *instance;
}

TraceRecorder::Tls& TraceRecorder::GetTls() {
  static thread_local Tls tls;
  return tls;
}

bool TraceRecorder::Start(const Options& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return false;
  capacity_ = std::max<size_t>(options.buffer_events, 64);
  start_time_ = std::chrono::steady_clock::now();
  start_unix_us_ = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
  // A new generation invalidates every thread's cached ring from prior
  // sessions; threads re-register lazily on their next Emit.
  generation_.fetch_add(1, std::memory_order_release);
  running_ = true;
  enabled_.store(true, std::memory_order_release);
  return true;
}

void TraceRecorder::SetCurrentThreadName(std::string_view name) {
  Tls& tls = GetTls();
  tls.pending_name.assign(name);
  if (tls.buffer != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    tls.buffer->name.assign(name);
  }
}

void TraceRecorder::RegisterThread(Tls* tls, uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!running_) return;  // raced with Stop; the event is simply lost
  (void)generation;
  auto buffer = std::make_shared<ThreadBuffer>(capacity_);
  buffer->tid = next_tid_++;
  buffer->name = tls->pending_name;
  buffer->base_steady_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          start_time_.time_since_epoch())
          .count();
  buffers_.push_back(buffer);
  tls->buffer = std::move(buffer);
  tls->generation = generation_.load(std::memory_order_relaxed);
}

void TraceRecorder::Emit(const char* name, SpanCategory category,
                         std::string_view feed,
                         std::chrono::steady_clock::time_point start,
                         std::chrono::steady_clock::time_point end) {
  if (!enabled()) return;
  Tls& tls = GetTls();
  const uint64_t generation = generation_.load(std::memory_order_acquire);
  if (tls.buffer == nullptr || tls.generation != generation) {
    RegisterThread(&tls, generation);
    if (tls.buffer == nullptr || tls.generation != generation) return;
  }
  ThreadBuffer& buffer = *tls.buffer;

  PackedEvent event{};
  CopyTruncated(event.name, sizeof(event.name),
                name != nullptr ? std::string_view(name)
                                : std::string_view());
  CopyTruncated(event.feed, sizeof(event.feed), feed);
  int64_t start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          start.time_since_epoch())
          .count() -
      buffer.base_steady_ns;
  int64_t dur_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       end - start)
                       .count();
  if (start_ns < 0) start_ns = 0;  // span began before the recorder did
  if (dur_ns < 0) dur_ns = 0;
  event.start_ns = start_ns;
  event.dur_ns = dur_ns;
  event.category = static_cast<uint64_t>(category);

  const uint64_t head = buffer.head.load(std::memory_order_relaxed);
  Slot& slot = buffer.slots[head % buffer.capacity];
  const uint32_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);  // odd: writing
  std::atomic_thread_fence(std::memory_order_release);
  uint64_t words[kSlotWords];
  std::memcpy(words, &event, sizeof(event));
  for (size_t i = 0; i < kSlotWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.seq.store(seq + 2, std::memory_order_release);
  buffer.head.store(head + 1, std::memory_order_release);
}

namespace {

bool ReadSlot(const Slot& slot, PackedEvent* out) {
  const uint32_t seq_before = slot.seq.load(std::memory_order_acquire);
  if ((seq_before & 1u) != 0) return false;  // writer mid-flight
  uint64_t words[kSlotWords];
  for (size_t i = 0; i < kSlotWords; ++i) {
    words[i] = slot.words[i].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.seq.load(std::memory_order_relaxed) != seq_before) return false;
  std::memcpy(out, words, sizeof(*out));
  return true;
}

}  // namespace

TraceDump TraceRecorder::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  TraceDump dump;
  if (!running_) return dump;
  enabled_.store(false, std::memory_order_release);
  dump.start_unix_us = start_unix_us_;
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers_) {
    TraceThreadInfo info;
    info.tid = buffer->tid;
    info.name = buffer->name;
    const uint64_t head = buffer->head.load(std::memory_order_acquire);
    const uint64_t kept = std::min<uint64_t>(head, buffer->capacity);
    uint64_t dropped = head - kept;  // overwritten before the drain
    for (uint64_t i = head - kept; i < head; ++i) {
      PackedEvent packed;
      if (!ReadSlot(buffer->slots[i % buffer->capacity], &packed)) {
        ++dropped;  // torn by a still-running writer
        continue;
      }
      TraceEvent event;
      event.name = DecodeField(packed.name, sizeof(packed.name));
      event.feed = DecodeField(packed.feed, sizeof(packed.feed));
      event.category = static_cast<SpanCategory>(
          packed.category <= static_cast<uint64_t>(SpanCategory::kPool)
              ? packed.category
              : static_cast<uint64_t>(SpanCategory::kPool));
      event.tid = buffer->tid;
      event.start_ns = packed.start_ns;
      event.dur_ns = packed.dur_ns;
      dump.events.push_back(std::move(event));
    }
    info.dropped = dropped;
    dump.dropped += dropped;
    dump.threads.push_back(std::move(info));
  }
  buffers_.clear();  // thread-local shared_ptrs keep live writers safe
  running_ = false;
  if (dump.dropped > 0) {
    // Ring overwrites are otherwise only visible in the dump itself;
    // the registry counter makes them scrapeable across sessions.
    Registry::Default()
        .GetCounter("frt_trace_dropped_total",
                    "Trace spans overwritten before the ring was drained")
        ->Inc(dump.dropped);
  }
  std::sort(dump.events.begin(), dump.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.tid < b.tid;
            });
  return dump;
}

}  // namespace frt::obs
