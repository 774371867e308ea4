#include "obs/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <tuple>

#include "obs/json_writer.h"

namespace redo::obs {

const char* FlightEventName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kSessionOp: return "session.op";
    case FlightEventType::kLatchWait: return "session.latch_wait";
    case FlightEventType::kTxnBegin: return "txn.begin";
    case FlightEventType::kTxnCommit: return "txn.commit";
    case FlightEventType::kTxnAbort: return "txn.abort";
    case FlightEventType::kGcStageWait: return "gc.stage_wait";
    case FlightEventType::kGcWindow: return "gc.window";
    case FlightEventType::kGcForce: return "gc.force";
    case FlightEventType::kGcAckWait: return "gc.ack_wait";
    case FlightEventType::kCkptBarrier: return "ckpt.barrier";
    case FlightEventType::kRedoTask: return "redo.task";
    case FlightEventType::kRedoHandoff: return "redo.handoff";
    case FlightEventType::kInstantDrain: return "instant.drain";
    case FlightEventType::kSlowOp: return "watchdog.slow_op";
    case FlightEventType::kIoBatch: return "io.batch";
    case FlightEventType::kGateWait: return "gate.wait";
  }
  return "?";
}

const char* FlightEventCategory(FlightEventType type) {
  switch (type) {
    case FlightEventType::kSessionOp:
    case FlightEventType::kLatchWait:
    case FlightEventType::kCkptBarrier:
    case FlightEventType::kGateWait:
      return "engine";
    case FlightEventType::kTxnBegin:
    case FlightEventType::kTxnCommit:
    case FlightEventType::kTxnAbort:
      return "txn";
    case FlightEventType::kGcStageWait:
    case FlightEventType::kGcWindow:
    case FlightEventType::kGcForce:
    case FlightEventType::kGcAckWait:
      return "wal";
    case FlightEventType::kRedoTask:
    case FlightEventType::kRedoHandoff:
    case FlightEventType::kInstantDrain:
      return "redo";
    case FlightEventType::kSlowOp:
      return "obs";
    case FlightEventType::kIoBatch:
      return "storage";
  }
  return "?";
}

FlightRecorder& FlightRecorder::Global() {
  // Intentionally leaked: worker threads return their rings through a
  // thread_local destructor, which on the main thread may run after
  // function-local statics are torn down.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::FlightRecorder() = default;

/// Binds a thread to its ring; the destructor returns the ring to the
/// recorder's free list so short-lived worker threads recycle storage
/// instead of growing rings_ without bound. Rings bind a thread to ONE
/// recorder for the thread's lifetime — in practice Global().
struct ThreadRingHandle {
  FlightRecorder* owner = nullptr;
  FlightRecorder::ThreadRing* ring = nullptr;
  ~ThreadRingHandle() {
    if (owner != nullptr && ring != nullptr) {
      std::lock_guard<std::mutex> lock(owner->registry_mu_);
      owner->free_rings_.push_back(ring);
    }
  }
};

FlightRecorder::ThreadRing* FlightRecorder::Ring() {
  thread_local ThreadRingHandle handle;
  if (handle.ring == nullptr || handle.owner != this) {
    std::lock_guard<std::mutex> lock(registry_mu_);
    if (!free_rings_.empty()) {
      handle.ring = free_rings_.back();
      free_rings_.pop_back();
    } else {
      rings_.push_back(std::make_unique<ThreadRing>());
      rings_.back()->events.resize(kRingCapacity);
      handle.ring = rings_.back().get();
    }
    handle.owner = this;
  }
  return handle.ring;
}

uint64_t FlightRecorder::NowTick() {
  if (virtual_ticks_.load(std::memory_order_relaxed)) {
    return virtual_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void FlightRecorder::UseVirtualTicks(bool virtual_ticks) {
  virtual_ticks_.store(virtual_ticks, std::memory_order_relaxed);
  virtual_tick_.store(0, std::memory_order_relaxed);
}

void FlightRecorder::Push(FlightEventType type, char phase, uint64_t tick,
                          uint64_t dur, uint64_t a0, uint64_t a1,
                          uint64_t a2) {
  ThreadRing* ring = Ring();
  std::lock_guard<std::mutex> lock(ring->mu);
  const uint64_t generation = generation_.load(std::memory_order_relaxed);
  if (ring->generation != generation) {
    // First event on this thread since construction or the last
    // Reset(): claim a fresh thread id (1-based, in first-event order).
    ring->generation = generation;
    ring->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  }
  size_t index;
  if (ring->size == kRingCapacity) {
    index = ring->head;  // overwrite the oldest
    ring->head = (ring->head + 1) % kRingCapacity;
    events_dropped_.fetch_add(1, std::memory_order_relaxed);
  } else {
    index = (ring->head + ring->size) % kRingCapacity;
    ++ring->size;
  }
  FlightEvent& event = ring->events[index];
  event.type = type;
  event.phase = phase;
  event.tid = ring->tid;
  event.seq = ring->seq++;
  event.tick = tick;
  event.dur = dur;
  event.a0 = a0;
  event.a1 = a1;
  event.a2 = a2;
  events_recorded_.fetch_add(1, std::memory_order_relaxed);
}

void FlightRecorder::EndSpan(FlightEventType type, uint64_t begin_tick,
                             uint64_t a0, uint64_t a1, uint64_t a2) {
  if (!enabled()) return;
  const uint64_t end = NowTick();
  const uint64_t dur = end >= begin_tick ? end - begin_tick : 0;
  Push(type, 'X', begin_tick, dur, a0, a1, a2);
  const uint64_t threshold = slow_op_threshold_.load(std::memory_order_relaxed);
  if (threshold != 0 && dur >= threshold) {
    slow_ops_.fetch_add(1, std::memory_order_relaxed);
    FlightEvent detail;
    detail.type = type;
    detail.phase = 'X';
    detail.tick = begin_tick;
    detail.dur = dur;
    detail.a0 = a0;
    detail.a1 = a1;
    detail.a2 = a2;
    {
      std::lock_guard<std::mutex> lock(registry_mu_);
      if (slow_op_details_.size() == kSlowOpDetailCapacity) {
        slow_op_details_.pop_front();
      }
      slow_op_details_.push_back(detail);
    }
    // Leave a marker in the stream too, so the promotion is visible in
    // the exported trace even if the span itself later wraps away.
    Push(FlightEventType::kSlowOp, 'i', NowTick(), 0,
         static_cast<uint64_t>(type), dur, 0);
  }
}

void FlightRecorder::Instant(FlightEventType type, uint64_t a0, uint64_t a1,
                             uint64_t a2) {
  if (!enabled()) return;
  Push(type, 'i', NowTick(), 0, a0, a1, a2);
}

std::vector<FlightEvent> FlightRecorder::Drain() {
  std::vector<FlightEvent> out;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (const std::unique_ptr<ThreadRing>& ring : rings_) {
      std::lock_guard<std::mutex> ring_lock(ring->mu);
      for (size_t i = 0; i < ring->size; ++i) {
        out.push_back(ring->events[(ring->head + i) % kRingCapacity]);
      }
      ring->size = 0;
      ring->head = 0;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return std::tie(a.tick, a.tid, a.seq) <
                     std::tie(b.tick, b.tid, b.seq);
            });
  return out;
}

void FlightRecorder::Reset() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const std::unique_ptr<ThreadRing>& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    ring->size = 0;
    ring->head = 0;
    ring->seq = 0;
  }
  slow_op_details_.clear();
  events_recorded_.store(0, std::memory_order_relaxed);
  events_dropped_.store(0, std::memory_order_relaxed);
  slow_ops_.store(0, std::memory_order_relaxed);
  virtual_tick_.store(0, std::memory_order_relaxed);
  next_tid_.store(1, std::memory_order_relaxed);
  // Invalidate every ring's cached tid; threads re-claim on next push.
  generation_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<FlightEvent> FlightRecorder::SlowOpDetails() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return {slow_op_details_.begin(), slow_op_details_.end()};
}

void FlightRecorder::RegisterMetrics(MetricsRegistry& registry,
                                     const std::string& prefix) {
  registry.Register(
      prefix,
      [this](MetricEmitter& emit) {
        emit.Counter("events", events_recorded());
        emit.Counter("dropped", events_dropped());
        emit.Counter("slow_ops", slow_ops());
      },
      [this] {
        events_recorded_.store(0, std::memory_order_relaxed);
        events_dropped_.store(0, std::memory_order_relaxed);
        slow_ops_.store(0, std::memory_order_relaxed);
      });
}

std::string ToChromeTraceJson(const std::vector<FlightEvent>& events) {
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (const FlightEvent& event : events) {
    w.BeginObject();
    w.Key("name");
    w.String(FlightEventName(event.type));
    w.Key("cat");
    w.String(FlightEventCategory(event.type));
    w.Key("ph");
    w.String(std::string(1, event.phase));
    w.Key("ts");
    w.UInt(event.tick);
    if (event.phase == 'X') {
      w.Key("dur");
      w.UInt(event.dur);
    }
    if (event.phase == 'i') {
      w.Key("s");
      w.String("t");  // thread-scoped instant
    }
    w.Key("pid");
    w.UInt(1);
    w.Key("tid");
    w.UInt(event.tid);
    w.Key("args");
    w.BeginObject();
    w.Key("a0");
    w.UInt(event.a0);
    w.Key("a1");
    w.UInt(event.a1);
    w.Key("a2");
    w.UInt(event.a2);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

std::string ToText(const std::vector<FlightEvent>& events) {
  std::string out;
  for (const FlightEvent& event : events) {
    out += std::to_string(event.tick);
    out += " +";
    out += std::to_string(event.dur);
    out += " t";
    out += std::to_string(event.tid);
    out += ' ';
    out += FlightEventName(event.type);
    out += ' ';
    out += std::to_string(event.a0);
    out += ' ';
    out += std::to_string(event.a1);
    out += ' ';
    out += std::to_string(event.a2);
    out += '\n';
  }
  return out;
}

}  // namespace redo::obs
