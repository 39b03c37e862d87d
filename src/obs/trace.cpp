#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>

#include "obs/json.h"
#include "obs/metrics.h"

namespace ppsc {
namespace obs {

void TraceEvent::add_arg(const char* key, std::uint64_t value) {
  if (num_args >= kMaxArgs) return;
  args[num_args].key = key;
  args[num_args].value = value;
  ++num_args;
}

// Events cross the ring as relaxed/release atomic words, so they must
// be bit-copyable into a word buffer.
static_assert(std::is_trivially_copyable<TraceEvent>::value,
              "TraceEvent is memcpy'd through the ring slots");

// Single-producer seqlock ring. Each slot is an atomic sequence word
// plus the event payload spread over atomic words; for the event with
// global index i the writer publishes
//
//   seq: 2i+1 (relaxed)  ->  payload words (release)  ->  seq: 2i+2
//   (release)            ->  head: i+1 (release)
//
// The odd store cannot be overtaken by the payload stores (they are
// release, so they cannot move above a prior store in their own
// thread's order as observed through the final release/acquire pair),
// and the even store cannot move above them. A collector reads seq
// (acquire), the payload words (acquire, so the re-read below cannot
// be hoisted above them), then re-reads seq (relaxed): the slot holds
// a consistent event #i iff both reads returned 2i+2. Anything else
// means mid-write or overwritten-by-wrap and the slot is skipped.
// Every access is atomic, so concurrent collect-vs-append is
// data-race-free; completeness still requires quiescent writers (the
// documented export contract). Overwritten slots (head past capacity)
// are the dropped window.
struct TraceRegistry::Ring {
  // Payload words per slot.
  static constexpr std::size_t kSlotWords =
      (sizeof(TraceEvent) + sizeof(std::uint64_t) - 1) /
      sizeof(std::uint64_t);

  // No member initialisers, so that starting a slot's lifetime writes
  // nothing (see zeroed_slots).
  struct Slot {
    std::atomic<std::uint64_t> seq;
    std::atomic<std::uint64_t> words[kSlotWords];
  };
  static_assert(std::is_trivially_default_constructible<Slot>::value &&
                    std::is_trivially_destructible<Slot>::value,
                "a ring's slots live in a calloc block, untouched until "
                "written");

  struct FreeSlots {
    void operator()(Slot* slots) const { std::free(slots); }
  };

  // The slots are one calloc block, and a default-initialising
  // placement new begins each slot's lifetime without a store, so a
  // thread's first span faults in no page, and the pages of slots it
  // never writes stay out of the resident set. No slot is read before
  // its first write (collect() reads indices below head only); were
  // one read, its zero bytes would be an empty slot (seq 0 is no
  // event's 2i + 2).
  static Slot* zeroed_slots() {
    void* block = std::calloc(kRingCapacity, sizeof(Slot));
    if (block == nullptr) throw std::bad_alloc();
    Slot* slots = static_cast<Slot*>(block);
    for (std::size_t i = 0; i < kRingCapacity; ++i) new (slots + i) Slot;
    return slots;
  }

  explicit Ring(std::uint32_t ring_id) : id(ring_id), slots(zeroed_slots()) {}

  // Publishes `event` as global index `index` (the pre-increment head
  // value). Single producer: only the owning thread calls this.
  void publish(std::uint64_t index, const TraceEvent& event) {
    std::uint64_t packed[kSlotWords] = {};
    std::memcpy(packed, &event, sizeof(TraceEvent));
    Slot& slot = slots[index % kRingCapacity];
    slot.seq.store(2 * index + 1, std::memory_order_relaxed);
    for (std::size_t w = 0; w < kSlotWords; ++w) {
      slot.words[w].store(packed[w], std::memory_order_release);
    }
    slot.seq.store(2 * index + 2, std::memory_order_release);
  }

  // Reads the event with global index `index`; returns false when the
  // slot is mid-write or no longer holds that event.
  bool read(std::uint64_t index, TraceEvent* out) const {
    const Slot& slot = slots[index % kRingCapacity];
    const std::uint64_t want = 2 * index + 2;
    if (slot.seq.load(std::memory_order_acquire) != want) return false;
    std::uint64_t packed[kSlotWords];
    for (std::size_t w = 0; w < kSlotWords; ++w) {
      packed[w] = slot.words[w].load(std::memory_order_acquire);
    }
    if (slot.seq.load(std::memory_order_relaxed) != want) return false;
    std::memcpy(out, packed, sizeof(TraceEvent));
    return true;
  }

  std::uint32_t id;
  std::atomic<std::uint64_t> head{0};
  std::unique_ptr<Slot[], FreeSlots> slots;
};

#if PPSC_OBS_ENABLED
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace
#endif  // PPSC_OBS_ENABLED

TraceRegistry::TraceRegistry() {
#if PPSC_OBS_ENABLED
  // Asking for a trace file implies tracing; PPSC_OBS_TRACE alone
  // arms the spans for in-process consumers (tests, future tooling).
  enabled_.store(env_truthy("PPSC_OBS_TRACE") || trace_json_env() != nullptr,
                 std::memory_order_relaxed);
#endif
}

TraceRegistry& TraceRegistry::global() {
  static TraceRegistry* registry = new TraceRegistry();
  return *registry;
}

#if PPSC_OBS_ENABLED

TraceRegistry::Ring& TraceRegistry::local_ring() {
  // One ring per thread, owned by the registry and kept alive after
  // the thread exits so its events survive into the export. The
  // registry is a leaked singleton, so the cached pointer cannot
  // dangle.
  thread_local Ring* ring = nullptr;
  if (ring == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    rings_.push_back(
        std::make_unique<Ring>(static_cast<std::uint32_t>(rings_.size())));
    ring = rings_.back().get();
  }
  return *ring;
}

void TraceRegistry::append(TraceEvent event) {
  if (!enabled()) return;
  Ring& ring = local_ring();
  event.thread_id = ring.id;
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  ring.publish(head, event);
  ring.head.store(head + 1, std::memory_order_release);
}

std::vector<TraceEvent> TraceRegistry::collect() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) {
      const std::uint64_t head = ring->head.load(std::memory_order_acquire);
      const std::uint64_t kept = std::min<std::uint64_t>(head, kRingCapacity);
      TraceEvent event;
      for (std::uint64_t i = head - kept; i < head; ++i) {
        // read() fails exactly for slots the owning thread is writing
        // or has lapped since the head load; with quiescent writers it
        // always succeeds, so exports stay complete.
        if (ring->read(i, &event)) events.push_back(event);
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.thread_id != b.thread_id) return a.thread_id < b.thread_id;
              if (a.t_start_ns != b.t_start_ns) {
                return a.t_start_ns < b.t_start_ns;
              }
              if (a.depth != b.depth) return a.depth < b.depth;
              return std::strcmp(a.name, b.name) < 0;
            });
  return events;
}

std::uint64_t TraceRegistry::dropped() const {
  std::uint64_t lost = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head > kRingCapacity) lost += head - kRingCapacity;
  }
  return lost;
}

void TraceRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    ring->head.store(0, std::memory_order_release);
  }
}

#else  // !PPSC_OBS_ENABLED

void TraceRegistry::append(TraceEvent event) { (void)event; }

std::vector<TraceEvent> TraceRegistry::collect() const { return {}; }

std::uint64_t TraceRegistry::dropped() const { return 0; }

void TraceRegistry::reset() {}

#endif  // PPSC_OBS_ENABLED

std::string TraceRegistry::to_chrome_json() const {
  const std::vector<TraceEvent> events = collect();
  // Rebase to the earliest start so timestamps are small and the
  // output is deterministic for injected (fixed-clock) events.
  std::uint64_t base = 0;
  if (!events.empty()) {
    base = events.front().t_start_ns;
    for (const TraceEvent& e : events) base = std::min(base, e.t_start_ns);
  }
  // The trace-event format fixes ts/dur in microseconds; fractional
  // values carry the nanoseconds.
  const auto to_us = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1000.0;
  };
  JsonWriter json;
  json.begin_object();
  json.key("traceEvents").begin_array();
  for (const TraceEvent& e : events) {
    json.begin_object();
    json.key("name").value(e.name);
    json.key("cat").value(e.category);
    json.key("ph").value("X");
    json.key("ts").value(to_us(e.t_start_ns - base));
    json.key("dur").value(to_us(e.t_end_ns - e.t_start_ns));
    json.key("pid").value(1);
    json.key("tid").value(static_cast<std::uint64_t>(e.thread_id));
    if (e.num_args > 0) {
      json.key("args").begin_object();
      for (std::uint32_t a = 0; a < e.num_args; ++a) {
        json.key(e.args[a].key).value(e.args[a].value);
      }
      json.end_object();
    }
    json.end_object();
  }
  json.end_array();
  json.key("displayTimeUnit").value("ns");
  json.end_object();
  return json.str();
}

bool TraceRegistry::write_chrome_json(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "obs::TraceRegistry: cannot open %s\n", path.c_str());
    return false;
  }
  const std::string json = to_chrome_json();
  std::fputs(json.c_str(), file);
  std::fputc('\n', file);
  std::fclose(file);
  return true;
}

#if PPSC_OBS_ENABLED

namespace {

// Nesting depth of the spans currently open on this thread.
thread_local std::uint32_t span_depth = 0;

}  // namespace

ScopedSpan::ScopedSpan(const char* name, const char* category) {
  TraceRegistry& registry = TraceRegistry::global();
  if (!registry.enabled()) return;
  // A thread's first span allocates its ring (one calloc of
  // kRingCapacity slots, well under a millisecond). Doing it here,
  // before the clock is read and at depth 0, keeps that cost out of
  // every span's duration.
  registry.local_ring();
  armed_ = true;
  event_.name = name;
  event_.category = category;
  event_.depth = span_depth++;
  event_.t_start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!armed_) return;
  event_.t_end_ns = now_ns();
  --span_depth;
  TraceRegistry::global().append(event_);
}

#endif  // PPSC_OBS_ENABLED

std::map<std::string, SpanProfile> profile(
    const std::vector<TraceEvent>& events) {
  std::map<std::string, SpanProfile> totals;
  // child_ns[i]: inclusive ns of event i's direct children, which are
  // disjoint and inside it. open[d] is the latest span at depth d on
  // the current thread; spans at one depth are disjoint, so it is the
  // only candidate parent at d + 1.
  std::vector<std::uint64_t> child_ns(events.size(), 0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i == 0 || e.thread_id != events[i - 1].thread_id) open.clear();
    if (open.size() <= e.depth) open.resize(e.depth + 1, events.size());
    open[e.depth] = i;
    if (e.depth == 0) continue;
    const std::size_t parent = open[e.depth - 1];
    if (parent < events.size() &&
        events[parent].t_start_ns <= e.t_start_ns &&
        e.t_end_ns <= events[parent].t_end_ns) {
      child_ns[parent] += e.t_end_ns - e.t_start_ns;
    }
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    const std::uint64_t inclusive = e.t_end_ns - e.t_start_ns;
    SpanProfile& total = totals[e.name];
    ++total.count;
    total.inclusive_ns += inclusive;
    total.self_ns += inclusive - child_ns[i];
  }
  return totals;
}

const char* trace_json_env() {
  const char* env = std::getenv("PPSC_TRACE_JSON");
  return (env != nullptr && *env != '\0') ? env : nullptr;
}

bool write_trace_if_requested() {
  const char* path = trace_json_env();
  if (path == nullptr) return false;
  return TraceRegistry::global().write_chrome_json(path);
}

}  // namespace obs
}  // namespace ppsc
