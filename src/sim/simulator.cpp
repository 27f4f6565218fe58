#include "sim/simulator.hpp"

#include <cassert>
#include <utility>

namespace dynaplat::sim {

// --- Slab -------------------------------------------------------------------

std::uint32_t Simulator::alloc_slot() {
  if (free_head_ == kNpos) {
    const std::uint32_t base =
        static_cast<std::uint32_t>(chunks_.size() * kChunkSize);
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
    Node* chunk = chunks_.back().get();
    // Thread the fresh nodes onto the free list so low slots pop first.
    for (std::uint32_t i = kChunkSize; i-- > 0;) {
      chunk[i].next_free = free_head_;
      free_head_ = base + i;
    }
  }
  const std::uint32_t slot = free_head_;
  free_head_ = node(slot).next_free;
  return slot;
}

void Simulator::free_slot(std::uint32_t slot) {
  Node& n = node(slot);
  n.fn.reset();
  ++n.gen;  // all outstanding handles to this slot go stale
  n.heap_pos = kNpos;
  n.lane = kNpos;
  n.next_free = free_head_;
  free_head_ = slot;
}

// --- Indexed 4-ary min-heap -------------------------------------------------

void Simulator::sift_up(std::uint32_t pos, HeapEntry entry) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) >> 2;
    if (!heap_less(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    node(heap_[pos].slot).heap_pos = pos;
    pos = parent;
  }
  heap_[pos] = entry;
  node(entry.slot).heap_pos = pos;
}

void Simulator::sift_down(std::uint32_t pos, HeapEntry entry) {
  const std::uint32_t size = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint32_t first_child = (pos << 2) + 1;
    if (first_child >= size) break;
    std::uint32_t best = first_child;
    const std::uint32_t last_child =
        first_child + 3 < size ? first_child + 3 : size - 1;
    for (std::uint32_t c = first_child + 1; c <= last_child; ++c) {
      if (heap_less(heap_[c], heap_[best])) best = c;
    }
    if (!heap_less(heap_[best], entry)) break;
    heap_[pos] = heap_[best];
    node(heap_[pos].slot).heap_pos = pos;
    pos = best;
  }
  heap_[pos] = entry;
  node(entry.slot).heap_pos = pos;
}

void Simulator::heap_push(HeapEntry entry) {
  heap_.push_back(entry);  // placeholder; sift_up writes the final position
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1), entry);
}

void Simulator::heap_remove(std::uint32_t pos) {
  node(heap_[pos].slot).heap_pos = kNpos;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail entry
  if (pos > 0 && heap_less(last, heap_[(pos - 1) >> 2])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

// --- Lanes ------------------------------------------------------------------
// Invariant: a lane with no head in the heap has an empty `waiting` queue,
// and every live entry in `waiting` orders after the head and after every
// entry in front of it.

void Simulator::drop_stale(Lane& lane) {
  while (!lane.waiting.empty()) {
    const LaneEntry front = lane.waiting.front();
    if (node(front.slot).gen == front.gen) return;
    lane.waiting.pop_front();
    --lane.dead;
  }
}

void Simulator::advance_lane(std::uint32_t pos, Lane& lane) {
  drop_stale(lane);
  if (lane.waiting.empty()) {
    lane.has_head = false;
    heap_remove(pos);
    return;
  }
  const std::uint32_t next = lane.waiting.front().slot;
  lane.waiting.pop_front();
  node(heap_[pos].slot).heap_pos = kNpos;
  // The successor's key is no smaller than the head it replaces.
  sift_down(pos, key_of(next));
}

void Simulator::rearm_in_lane(std::uint32_t slot) {
  Node& n = node(slot);
  Lane& lane = lanes_[n.lane];
  drop_stale(lane);
  if (lane.waiting.empty()) {
    // Alone in its lane: stays the head under its new key.
    lane.tail_at = n.at;
    sift_down(0, key_of(slot));
    return;
  }
  const std::uint32_t next = lane.waiting.front().slot;
  lane.waiting.pop_front();
  if (n.at >= lane.tail_at) {
    lane.waiting.push_back(LaneEntry{slot, n.gen});
    lane.tail_at = n.at;
    n.heap_pos = kNpos;
    sift_down(0, key_of(next));
  } else {
    // Due before the lane's tail: it leaves the lane for the heap.
    n.lane = kNpos;
    sift_down(0, key_of(next));
    heap_push(key_of(slot));
  }
}

LaneId Simulator::make_lane() {
  lanes_.emplace_back();
  return LaneId{static_cast<std::uint32_t>(lanes_.size() - 1)};
}

EventId Simulator::enqueue_in_lane(std::uint32_t lane_index, Time at,
                                   Duration period, InlineFunction fn) {
  assert(at >= now_ && "cannot schedule into the past");
  Lane& lane = lanes_[lane_index];
  if (lane.has_head && at < lane.tail_at) {
    return enqueue(at, period, std::move(fn));
  }
  const std::uint32_t slot = alloc_slot();
  Node& n = node(slot);
  n.at = at;
  n.seq = next_seq_++;
  n.period = period;
  n.lane = lane_index;
  n.fn = std::move(fn);
  lane.tail_at = at;
  if (lane.has_head) {
    lane.waiting.push_back(LaneEntry{slot, n.gen});
  } else {
    lane.has_head = true;
    heap_push(HeapEntry{at, n.seq, slot});
  }
  ++live_;
  return make_handle(slot);
}

EventId Simulator::schedule_in_lane(LaneId lane, Duration delay,
                                    InlineFunction fn) {
  assert(delay >= 0);
  return enqueue_in_lane(lane.value, now_ + delay, 0, std::move(fn));
}

EventId Simulator::schedule_every_in_lane(LaneId lane, Time first,
                                          Duration period, InlineFunction fn) {
  assert(period > 0);
  return enqueue_in_lane(lane.value, first, period, std::move(fn));
}

// --- Scheduling API ---------------------------------------------------------

EventId Simulator::enqueue(Time at, Duration period, InlineFunction fn) {
  assert(at >= now_ && "cannot schedule into the past");
  const std::uint32_t slot = alloc_slot();
  Node& n = node(slot);
  n.at = at;
  n.seq = next_seq_++;
  n.period = period;
  n.fn = std::move(fn);
  heap_push(HeapEntry{at, n.seq, slot});
  ++live_;
  return make_handle(slot);
}

EventId Simulator::schedule_in(Duration delay, InlineFunction fn) {
  assert(delay >= 0);
  return enqueue(now_ + delay, 0, std::move(fn));
}

EventId Simulator::schedule_every(Time first, Duration period,
                                  InlineFunction fn) {
  assert(period > 0);
  return enqueue(first, period, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>((id.value >> 32) - 1);
  const std::uint32_t gen = static_cast<std::uint32_t>(id.value);
  if (slot >= slab_capacity()) return false;
  Node& n = node(slot);
  if (n.gen != gen) return false;  // already fired, cancelled, or slot reused
  Lane* behind_head = nullptr;
  if (n.heap_pos != kNpos) {
    if (n.lane == kNpos) {
      heap_remove(n.heap_pos);
    } else {
      advance_lane(n.heap_pos, lanes_[n.lane]);
    }
  } else if (n.lane != kNpos) {
    // Queued behind its lane's head: the generation bump below turns its
    // entry stale, to be dropped at the front or by compaction.
    behind_head = &lanes_[n.lane];
  } else if (slot != firing_) {
    return false;  // not queued and not firing: nothing to cancel
  }
  --live_;
  if (slot == firing_) {
    // A recurrence callback cancelled itself mid-fire: its callable is the
    // one executing right now, so invalidate the handle immediately but
    // defer destroying the callable until step() regains control.
    firing_cancelled_ = true;
    ++n.gen;
  } else {
    free_slot(slot);
  }
  if (behind_head != nullptr) {
    Lane& lane = *behind_head;
    ++lane.dead;
    // Compact once stale entries outnumber live ones (plus slack), so the
    // lane stays O(live) under any cancel pattern at amortized O(1) per
    // cancel.
    if (lane.dead > lane.waiting.size() - lane.dead + kLaneSlack) {
      std::erase_if(lane.waiting, [this](const LaneEntry& entry) {
        return node(entry.slot).gen != entry.gen;
      });
      lane.dead = 0;
    }
  }
  return true;
}

// --- Execution --------------------------------------------------------------

bool Simulator::step() {
  if (heap_.empty()) return false;
  const std::uint32_t slot = heap_[0].slot;
  Node& n = node(slot);
  now_ = n.at;
  ++events_executed_;
  if (n.period > 0) {
    // Re-arm in place before invoking (zero callback copies) so the
    // callback may cancel its own recurrence.
    n.at += n.period;
    n.seq = next_seq_++;
    if (n.lane == kNpos) {
      sift_down(0, HeapEntry{n.at, n.seq, slot});
    } else {
      rearm_in_lane(slot);
    }
    firing_ = slot;
    firing_cancelled_ = false;
    n.fn();
    firing_ = kNpos;
    if (firing_cancelled_) {
      // cancel() already unqueued the node and bumped the generation; now
      // that the callable finished executing, reclaim its storage.
      n.fn.reset();
      n.heap_pos = kNpos;
      n.lane = kNpos;
      n.next_free = free_head_;
      free_head_ = slot;
    }
  } else {
    if (n.lane == kNpos) {
      heap_remove(0);
    } else {
      advance_lane(0, lanes_[n.lane]);
    }
    --live_;
    // Move the callback out and release the slot before invoking, so the
    // callback may safely schedule/cancel anything (including reusing this
    // very slot).
    InlineFunction fn = std::move(n.fn);
    free_slot(slot);
    fn();
  }
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulator::run_until(Time until) {
  stopped_ = false;
  while (!stopped_ && !heap_.empty() && heap_[0].at <= until) {
    step();
  }
  if (now_ < until) now_ = until;
}

}  // namespace dynaplat::sim
