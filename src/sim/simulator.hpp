// Discrete-event simulation kernel.
//
// The Simulator owns the single simulated clock and an ordered event queue.
// Every other dynaplat subsystem (network media, ECU schedulers, middleware
// timers, fault injectors) expresses behaviour as events scheduled here, so a
// whole-vehicle scenario executes as one deterministic event-driven program.
//
// Determinism contract: two events at the same timestamp fire in scheduling
// order (FIFO tie-break by a monotonically increasing sequence number). This
// makes a scenario a pure function of (models, seed), which DESIGN.md relies
// on for backend schedule validation.
//
// Internals (DESIGN.md §10): events live as slab-allocated nodes in a
// chunked free-list pool — node addresses are stable, callbacks up to
// InlineFunction::kInlineCapacity bytes are stored inline in the node, and
// steady-state scheduling performs no heap allocation. Ordering is an
// index-tracked 4-ary min-heap of slot indices over the slab, so cancelling
// a heap event removes it immediately in O(log n). EventIds carry a
// per-slot generation counter, so a stale handle — to an event that
// already fired, was cancelled, or whose slot was reused — is detected and
// cancel() safely no-ops. Recurrences re-arm in place with zero callback
// copies.
//
// Lanes keep same-delay timers out of the heap: a lane is a FIFO of events
// whose (at, seq) keys arrive in non-decreasing order, and only its first
// live event sits in the heap. Sequence numbers stay global, so the firing
// order is exactly the all-heap (at, seq) order. An event that would break
// its lane's order goes to the heap instead. Cancelling an event queued
// behind its lane's head only bumps the slot generation (O(1)); the stale
// entry is dropped when it reaches the front, and a lane whose stale
// entries outnumber its live ones is compacted, so a cancel-heavy lane
// stays flat.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace dynaplat::sim {

/// Handle for a scheduled event; usable to cancel it before it fires.
/// Generation-checked: a handle outliving its event stays safe to cancel().
struct EventId {
  std::uint64_t value = 0;
  bool valid() const { return value != 0; }
};

/// Handle for a lane made by Simulator::make_lane().
struct LaneId {
  std::uint32_t value = 0xFFFFFFFFu;
  bool valid() const { return value != 0xFFFFFFFFu; }
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (must be >= now()).
  EventId schedule_at(Time at, InlineFunction fn) {
    return enqueue(at, 0, std::move(fn));
  }

  /// Schedules `fn` to run `delay` nanoseconds from now (delay >= 0).
  EventId schedule_in(Duration delay, InlineFunction fn);

  /// Schedules `fn` every `period` starting at `first`. The callback runs
  /// until cancelled. Returns the id of the *recurrence*, which stays valid
  /// across firings.
  EventId schedule_every(Time first, Duration period, InlineFunction fn);

  /// Makes an empty lane. Lanes live as long as the simulator.
  LaneId make_lane();

  /// schedule_in() through `lane`. Meant for a stream of timers with one
  /// constant delay: their deadlines arrive in order, so the lane holds
  /// them in a FIFO and the heap holds only the earliest. Fires exactly
  /// when schedule_in() would; an event due before the lane's latest one
  /// simply goes to the heap.
  EventId schedule_in_lane(LaneId lane, Duration delay, InlineFunction fn);

  /// schedule_every() through `lane`. Each firing re-arms onto the lane's
  /// tail, so recurrences sharing one period keep the lane in order.
  EventId schedule_every_in_lane(LaneId lane, Time first, Duration period,
                                 InlineFunction fn);

  /// Cancels a pending event or recurrence. Cancelling an already-fired or
  /// unknown id is a no-op. Returns true if something was cancelled.
  bool cancel(EventId id);

  /// Runs events until the queue is empty or `stop()` is called.
  void run();

  /// Runs events with timestamp <= `until`, then advances the clock to
  /// `until` (even if the queue drained earlier).
  void run_until(Time until);

  /// Executes the single next event, if any. Returns false when idle.
  bool step();

  /// Requests `run()` / `run_until()` to return after the current event.
  void stop() { stopped_ = true; }

  /// Number of events executed so far (for tests and cost accounting).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Number of events currently pending.
  std::size_t pending() const { return live_; }

  /// Total event-node capacity the slab has allocated (for tests/benches:
  /// a cancel-heavy workload must not grow this without bound).
  std::size_t slab_capacity() const { return chunks_.size() * kChunkSize; }

  /// Entries queued behind `lane`'s head, stale ones included (for
  /// tests/benches: a cancel-heavy lane must not grow this without bound).
  std::size_t lane_backlog(LaneId lane) const {
    return lanes_[lane.value].waiting.size();
  }

 private:
  static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;
  static constexpr std::size_t kChunkSize = 256;
  // Stale lane entries tolerated beyond the live count before compaction.
  static constexpr std::size_t kLaneSlack = 16;

  struct Node {
    Time at = 0;
    std::uint64_t seq = 0;
    Duration period = 0;            // 0 => one-shot
    std::uint32_t gen = 1;          // bumped on every slot release
    std::uint32_t heap_pos = kNpos; // kNpos when not queued
    std::uint32_t next_free = kNpos;
    std::uint32_t lane = kNpos;     // kNpos when not queued on a lane
    InlineFunction fn;
  };

  // A lane entry names its node; the (at, seq) key lives in the node. The
  // entry is stale once the slot's generation moved on (cancelled).
  struct LaneEntry {
    std::uint32_t slot;
    std::uint32_t gen;
  };

  struct Lane {
    std::deque<LaneEntry> waiting;  // behind the head, in (at, seq) order
    Time tail_at = 0;               // latest `at` the lane accepted
    std::size_t dead = 0;           // stale entries in `waiting`
    bool has_head = false;          // first live event sits in the heap
  };

  Node& node(std::uint32_t slot) {
    return chunks_[slot / kChunkSize][slot % kChunkSize];
  }
  const Node& node(std::uint32_t slot) const {
    return chunks_[slot / kChunkSize][slot % kChunkSize];
  }

  // Heap entries carry the (at, seq) ordering key alongside the slot index,
  // so sift comparisons scan the contiguous heap array and never chase into
  // the slab; the slab node is only touched to maintain heap_pos.
  struct HeapEntry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool heap_less(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  EventId enqueue(Time at, Duration period, InlineFunction fn);
  EventId enqueue_in_lane(std::uint32_t lane, Time at, Duration period,
                          InlineFunction fn);
  EventId make_handle(std::uint32_t slot) const {
    return EventId{(static_cast<std::uint64_t>(slot) + 1) << 32 |
                   node(slot).gen};
  }
  HeapEntry key_of(std::uint32_t slot) const {
    const Node& n = node(slot);
    return HeapEntry{n.at, n.seq, slot};
  }
  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);

  void heap_push(HeapEntry entry);
  void heap_remove(std::uint32_t pos);
  void sift_up(std::uint32_t pos, HeapEntry entry);
  void sift_down(std::uint32_t pos, HeapEntry entry);

  /// Drops stale entries off the front of `lane.waiting`.
  void drop_stale(Lane& lane);
  /// The lane head at heap position `pos` leaves: its next live entry takes
  /// the position (one sift_down), or the lane goes idle.
  void advance_lane(std::uint32_t pos, Lane& lane);
  /// Re-arms the laned recurrence at the heap root onto its lane's tail.
  void rearm_in_lane(std::uint32_t slot);

  Time now_ = 0;
  bool stopped_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::size_t live_ = 0;

  // Slab: chunked so node addresses stay stable while a resident callback
  // executes (a callback scheduling new events may grow the pool).
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::uint32_t free_head_ = kNpos;

  // 4-ary min-heap ordered by (at, seq); each slab node tracks its heap
  // position for O(log n) arbitrary removal.
  std::vector<HeapEntry> heap_;

  std::vector<Lane> lanes_;

  // Slot whose recurrence callback is executing right now; if it cancels
  // itself mid-fire, reclamation is deferred until the callback returns.
  std::uint32_t firing_ = kNpos;
  bool firing_cancelled_ = false;
};

}  // namespace dynaplat::sim
