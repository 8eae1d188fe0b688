//! The pending-event set of the discrete-event kernel.
//!
//! Events are ordered by `(time, sequence)`: ties in virtual time are broken
//! by insertion order, which makes every simulation run fully deterministic
//! for a given seed and schedule of calls.
//!
//! # Implementation
//!
//! One-shot events sit in the kernel's packed min-heap (`heap.rs`):
//! 16-byte `(time, seq·slot)` entries over a [`GenSlab`] of payloads, so
//! sift operations move 16-byte records instead of whole `(time, seq,
//! (Addr, Msg))` entries. A token is the payload's [`SlabKey`]: cancelling
//! checks its generation and retires the cell in O(1), with no hashing,
//! and slots recycle through the slab's free list, so a steady-state run
//! performs no per-event allocation once the high-water mark is reached.
//!
//! Cancellation stays *lazy*: [`EventQueue::cancel`] retires the cell and
//! the entry is dropped when it reaches the head of the heap — right for
//! one-shot events that are rarely cancelled. To bound the garbage a
//! cancel-heavy workload can accumulate, the queue *compacts* (filters
//! cancelled entries and re-heapifies in O(n)) whenever more than half of
//! a non-trivial heap is dead. That bounds the resident entries at
//! 2·live + 64, however many timers are pushed and cancelled, which is
//! why coarse deadlines (think times, patience timers that are almost
//! always cancelled, periodic ticks) share the heap with precise events:
//! no experiment keeps more than a few thousand of them pending.
//!
//! # Keyed timers
//!
//! A timer that is re-armed far more often than it fires — the
//! processor-sharing CPU model moves its one next-completion timer per
//! node on every job arrival and departure — would turn most heap pushes
//! into tombstones. [`EventQueue::arm`] keeps such timers in a second lane
//! instead: one timer per caller-chosen `key`, overwritten in place, with
//! no slab slot, no token and nothing left behind by a re-arm or a
//! [`EventQueue::disarm`]. `arm` draws its sequence number from the same
//! counter as `push`, so `arm(key, t, p)` fires exactly where "cancel the
//! key's previous token, then `push(t, p)`" would have: which lane held an
//! event is unobservable.
//!
//! The lane is a dense unsorted array of the heap's 16-byte entries (the
//! payloads in a parallel array), a position per key and the cached
//! position of the minimum. Arming a key that is not the minimum is O(1);
//! popping, disarming or postponing the minimum rescans the armed
//! entries, O(armed). Armed timers are bounded by the key space — for CPU
//! timers, nodes with a resident job, at most the allocated nodes (4 to 9
//! in every shipped scenario; two or three armed at a typical pop) — and
//! at that size the scan beat an indexed binary heap and an indexed 8-ary
//! heap, which pay a back-pointer write per level on every re-arm.
//! Revisit if a topology ever keeps hundreds of keys armed at once.

// jade-audit: allow-file(hot-panic): hand-audited lane core — every index
// is a keyed-lane position kept in `pos`, a key below `pos.len()`, or a
// position below the length of the array it indexes.
use crate::heap::{HeapEntry, PackedHeap};
use crate::slab::{GenSlab, SlabKey};
use crate::time::SimTime;

/// Token identifying a scheduled event, usable to cancel it: the key of
/// the event's payload cell, so cancelling an event that has already
/// fired (and whose slot was recycled) is detected and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken(SlabKey);

/// Position marker of a key with no armed timer.
const UNARMED: u32 = u32::MAX;

/// The keyed-timer lane: at most one pending timer per key, re-armed in
/// place (see the module docs). `armed` entries pack `(seq << 32) | key`
/// where heap entries pack the slot, `payloads` runs parallel to `armed`,
/// `pos[key]` is the key's position in both (or `UNARMED`), and `min` is
/// the position of the smallest entry, 0 when nothing is armed. Every
/// operation that can move the minimum either proves the new one in O(1)
/// or rescans — O(armed), the cost to revisit if a topology ever keeps
/// hundreds of keys armed.
#[derive(Clone)]
struct KeyedLane<T> {
    armed: Vec<HeapEntry>,
    payloads: Vec<T>,
    pos: Vec<u32>,
    min: usize,
}

impl<T> KeyedLane<T> {
    #[inline]
    fn min_entry(&self) -> Option<&HeapEntry> {
        self.armed.get(self.min)
    }

    fn rescan_min(&mut self) {
        let mut best = 0;
        let mut best_key = u128::MAX;
        for (i, e) in self.armed.iter().enumerate() {
            let k = e.order();
            if k < best_key {
                best = i;
                best_key = k;
            }
        }
        self.min = best;
    }

    // Growth: `pos` reaches the largest key ever armed, `armed`/`payloads`
    // the number of keys armed at once — both bounded by the caller's key
    // space (the node pool, fixed at configuration time), not run length.
    fn arm_key(&mut self, key: u32, entry: HeapEntry, payload: T) {
        if key as usize >= self.pos.len() {
            self.pos.resize(key as usize + 1, UNARMED);
        }
        let at = self.pos[key as usize] as usize;
        if at == UNARMED as usize {
            self.pos[key as usize] = self.armed.len() as u32;
            if self.min_entry().is_none_or(|m| entry.order() < m.order()) {
                self.min = self.armed.len();
            }
            self.armed.push(entry);
            self.payloads.push(payload);
            return;
        }
        let old = std::mem::replace(&mut self.armed[at], entry);
        self.payloads[at] = payload;
        if at != self.min {
            if entry.order() < self.armed[self.min].order() {
                self.min = at;
            }
        } else if entry.order() > old.order() {
            // The minimum moved later; any entry may have overtaken it.
            self.rescan_min();
        }
    }

    /// Clears `key`'s timer, if one is armed.
    fn disarm_key(&mut self, key: u32) {
        if let Some(&at) = self.pos.get(key as usize) {
            if at != UNARMED {
                self.take_at(at as usize);
            }
        }
    }

    /// Removes the armed entry at position `at`, returning its payload.
    fn take_at(&mut self, at: usize) -> T {
        let entry = self.armed.swap_remove(at);
        let payload = self.payloads.swap_remove(at);
        self.pos[entry.payload_slot() as usize] = UNARMED;
        if let Some(moved) = self.armed.get(at) {
            self.pos[moved.payload_slot() as usize] = at as u32;
        }
        if at == self.min {
            self.rescan_min();
        } else if self.min == self.armed.len() {
            // The minimum was the tail entry swap_remove moved into `at`.
            self.min = at;
        }
        payload
    }
}

/// Deterministic pending-event set: a heap with lazy cancellation and a
/// lane of keyed re-armable timers, merged by one `(time, seq)` order.
#[derive(Clone)]
pub struct EventQueue<T> {
    heap: PackedHeap,
    /// Payloads of the heap's entries.
    payloads: GenSlab<T>,
    /// The one sequence counter `push` and `arm` draw from.
    next_seq: u64,
    /// Cancelled-but-unswept entries in the heap.
    cancelled: usize,
    keyed: KeyedLane<T>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: PackedHeap::default(),
            payloads: GenSlab::new(),
            next_seq: 0,
            cancelled: 0,
            keyed: KeyedLane {
                armed: Vec::new(),
                payloads: Vec::new(),
                pos: Vec::new(),
                min: 0,
            },
        }
    }

    /// Draws the next insertion sequence number, renumbering first if
    /// the counter is about to outgrow its 32 bits of the packed word.
    #[inline]
    fn draw_seq(&mut self) -> u64 {
        if self.next_seq > u32::MAX as u64 {
            self.renumber();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` at `time`, returning a cancellation token.
    pub fn push(&mut self, time: SimTime, payload: T) -> EventToken {
        let seq = self.draw_seq();
        let key = self.payloads.insert(payload);
        self.heap
            .sift_in(HeapEntry::new(time.as_micros(), seq, key.slot()));
        EventToken(key)
    }

    /// The same as [`EventQueue::push`]: coarse deadlines share the heap
    /// (see the module docs). A shim kept only for the repository
    /// benchmark's queue probes, which call it; ROADMAP item 1a retires it.
    pub fn push_coarse(&mut self, time: SimTime, payload: T) -> EventToken {
        self.push(time, payload)
    }

    /// Sets the one timer of `key` to fire `payload` at `time`, replacing
    /// whatever the key had armed. Observably identical to cancelling the
    /// key's previous event and [`EventQueue::push`]ing a new one — same
    /// sequence number drawn, same place in same-instant order — without
    /// a slot, a token or a tombstone. Keys index a dense table: use small
    /// integers (the simulator uses node ids).
    pub fn arm(&mut self, key: u32, time: SimTime, payload: T) {
        let seq = self.draw_seq();
        self.keyed
            .arm_key(key, HeapEntry::new(time.as_micros(), seq, key), payload);
    }

    /// Clears the timer of `key`; a no-op if none is armed (never armed,
    /// already fired, or already disarmed).
    pub fn disarm(&mut self, key: u32) {
        self.keyed.disarm_key(key);
    }

    /// Reassigns pending sequence numbers to `0..n` in key order — across
    /// the heap and the keyed lane jointly — so `seq` keeps fitting in 32
    /// bits no matter how many events a run schedules. The remap is
    /// monotone in the old global key, so relative order — and hence
    /// determinism — is untouched, and the heap property is preserved in
    /// place.
    // jade-audit: allow(hot-alloc): runs once per 2^32 scheduled events
    // (sequence-counter wrap), amortized to nothing per event.
    fn renumber(&mut self) {
        let heap = self.heap.entries().iter().map(|e| (e.order(), false));
        let keyed = self.keyed.armed.iter().map(|e| (e.order(), true));
        let mut all: Vec<(u128, bool, usize)> = heap
            .enumerate()
            .chain(keyed.enumerate())
            .map(|(i, (order, is_keyed))| (order, is_keyed, i))
            .collect();
        all.sort_unstable_by_key(|&(order, ..)| order);
        for (new_seq, &(_, is_keyed, i)) in (0u64..).zip(&all) {
            if is_keyed {
                // Monotone remap: the cached minimum stays the minimum.
                self.keyed.armed[i].set_seq(new_seq);
            } else {
                self.heap.entries_mut()[i].set_seq(new_seq);
            }
        }
        self.next_seq = all.len() as u64;
    }

    /// Cancels a previously scheduled event. Cancelling an event that has
    /// already fired (or was already cancelled) is a no-op.
    pub fn cancel(&mut self, token: EventToken) {
        if self.payloads.retire(token.0).is_none() {
            return;
        }
        self.cancelled += 1;
        if self.heap.mostly_dead(self.cancelled) {
            self.heap
                .compact_retain(|e| self.payloads.keep_if_live(e.payload_slot()));
            self.cancelled = 0;
        }
    }

    /// Pops the earliest non-cancelled event, merging the two lanes: ties
    /// in time resolve by the shared insertion seq.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Pops the earliest non-cancelled event only if it fires at or
    /// before `horizon`; a live event beyond the horizon stays resident
    /// and `None` is returned. Cancelled entries are swept regardless of
    /// their time, so a `None` with [`EventQueue::is_empty`] false means
    /// the next live event is strictly past the horizon. This fuses the
    /// engine's former peek-then-pop pair into one traversal per event.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, T)> {
        let horizon = horizon.as_micros();
        loop {
            // An empty heap reads as u128::MAX and the comparison is
            // strict; live keys never tie (sequence numbers are unique).
            let heap_key = self.heap.peek_root().map_or(u128::MAX, HeapEntry::order);
            if let Some(&head) = self.keyed.min_entry().filter(|e| e.order() < heap_key) {
                if head.hi > horizon {
                    return None;
                }
                let payload = self.keyed.take_at(self.keyed.min);
                return Some((SimTime::from_micros(head.hi), payload));
            }
            // The heap head is next, or both lanes are empty.
            let head = self.heap.peek_root()?;
            let slot = head.payload_slot();
            if head.hi > horizon && self.payloads.live_at(slot).is_some() {
                return None;
            }
            self.heap.pop_root();
            match self.payloads.release_slot(slot) {
                Some(payload) => return Some((SimTime::from_micros(head.hi), payload)),
                None => self.cancelled -= 1,
            }
        }
    }

    /// Time of the earliest non-cancelled event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(head) = self.heap.peek_root() {
            if self.payloads.live_at(head.payload_slot()).is_some() {
                break;
            }
            self.heap.pop_root();
            self.cancelled -= 1;
            self.payloads.release_slot(head.payload_slot());
        }
        let heap_time = self.heap.peek_root().map(|e| e.hi);
        let keyed_time = self.keyed.min_entry().map(|e| e.hi);
        heap_time
            .into_iter()
            .chain(keyed_time)
            .min()
            .map(SimTime::from_micros)
    }

    /// Number of events still resident (cancelled-but-unswept events
    /// included; use only as a capacity heuristic).
    pub fn raw_len(&self) -> usize {
        self.heap.entries().len() + self.keyed.armed.len()
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.payloads.len() + self.keyed.armed.len()
    }

    /// True when no live event remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn cancellation_drops_events() {
        let mut q = EventQueue::new();
        let tok = q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        q.cancel(tok);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let tok = q.push(SimTime::from_secs(1), 1u8);
        assert!(q.pop().is_some());
        q.cancel(tok); // must not affect future events
        q.push(SimTime::from_secs(2), 2u8);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 2u8)));
    }

    #[test]
    fn cancel_after_fire_does_not_kill_recycled_slot() {
        let mut q = EventQueue::new();
        let stale = q.push(SimTime::from_secs(1), 1u8);
        assert!(q.pop().is_some());
        // The popped slot is recycled for the next push.
        let _fresh = q.push(SimTime::from_secs(2), 2u8);
        q.cancel(stale); // generation mismatch: must be a no-op
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 2u8)));
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q = EventQueue::new();
        let tok = q.push(SimTime::from_secs(1), 1u8);
        q.push(SimTime::from_secs(2), 2u8);
        q.cancel(tok);
        q.cancel(tok);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 2u8)));
    }

    #[test]
    fn peek_skips_cancelled_heads() {
        let mut q = EventQueue::new();
        let t1 = q.push(SimTime::from_secs(1), 1u8);
        let t2 = q.push(SimTime::from_secs(2), 2u8);
        q.push(SimTime::from_secs(3), 3u8);
        q.cancel(t1);
        q.cancel(t2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), 3u8)));
        assert!(q.is_empty());
    }

    #[test]
    fn compaction_preserves_order_and_tokens() {
        let mut q = EventQueue::new();
        let mut live = Vec::new();
        let mut tokens = Vec::new();
        for i in 0..500u64 {
            let tok = q.push(SimTime::from_micros(1_000 - i), i);
            if i % 3 == 0 {
                live.push((1_000 - i, i));
            } else {
                tokens.push(tok);
            }
        }
        // Cancelling 2/3 of the heap forces at least one compaction.
        for tok in tokens {
            q.cancel(tok);
        }
        assert_eq!(q.len(), live.len());
        assert!(q.raw_len() < 500, "compaction must have swept the heap");
        live.sort_unstable();
        let mut popped = Vec::new();
        while let Some((t, v)) = q.pop() {
            popped.push((t.as_micros(), v));
        }
        assert_eq!(popped, live);
    }

    #[test]
    fn renumbering_preserves_order_and_fifo_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        // Ties in time, plus earlier and later events, pushed interleaved.
        q.push(SimTime::from_secs(9), 90u64);
        for i in 0..50u64 {
            q.push(t, i);
        }
        q.push(SimTime::from_secs(1), 10u64);
        // Force the seq-overflow path directly.
        q.renumber();
        assert_eq!(q.next_seq, 52);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 10u64)));
        for i in 0..50u64 {
            assert_eq!(q.pop(), Some((t, i)), "FIFO tie order must survive");
        }
        assert_eq!(q.pop(), Some((SimTime::from_secs(9), 90u64)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn coarse_and_precise_events_interleave_by_push_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(500);
        // Alternate structures at one instant: the shared seq counter
        // must make the structure choice unobservable.
        for i in 0..40u64 {
            if i % 2 == 0 {
                q.push(t, i);
            } else {
                q.push_coarse(t, i);
            }
        }
        q.push(SimTime::from_millis(400), 100);
        q.push_coarse(SimTime::from_millis(300), 200);
        assert_eq!(q.pop(), Some((SimTime::from_millis(300), 200)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(400), 100)));
        for i in 0..40u64 {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn coarse_cancellation_and_stale_tokens() {
        let mut q = EventQueue::new();
        let a = q.push_coarse(SimTime::from_secs(1), 1u8);
        let b = q.push_coarse(SimTime::from_secs(2), 2u8);
        q.push(SimTime::from_secs(3), 3u8);
        q.cancel(a);
        q.cancel(a); // double cancel is a no-op
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 2u8)));
        q.cancel(b); // already fired: no-op
                     // b's recycled slot must not be killable through the stale token.
        let _fresh = q.push_coarse(SimTime::from_secs(4), 4u8);
        q.cancel(b);
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), 3u8)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(4), 4u8)));
        assert!(q.is_empty());
    }

    #[test]
    fn coarse_peek_matches_pop() {
        let mut q = EventQueue::new();
        let mut times = Vec::new();
        // Times spread over five seconds, pushed out of order.
        for i in 0..200u64 {
            let t = SimTime::from_micros((i * i * 37) % 5_000_000);
            if i % 5 == 0 {
                q.push(t, i);
            } else {
                q.push_coarse(t, i);
            }
            times.push(t);
        }
        times.sort_unstable();
        for expect in times {
            assert_eq!(q.peek_time(), Some(expect));
            let (t, _) = q.pop().unwrap();
            assert_eq!(t, expect);
        }
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pop_at_or_before_respects_the_horizon() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), 1u8);
        q.push_coarse(SimTime::from_secs(2), 2u8);
        q.push(SimTime::from_secs(5), 5u8);
        // Horizon is inclusive; the t=5 event stays resident.
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(2)),
            Some((SimTime::from_secs(1), 1u8))
        );
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(2)),
            Some((SimTime::from_secs(2), 2u8))
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(2)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), 5u8)));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_at_or_before_sweeps_cancelled_entries_past_the_horizon() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_secs(9), 9u8);
        let b = q.push_coarse(SimTime::from_secs(8), 8u8);
        q.cancel(a);
        q.cancel(b);
        // Both events are beyond the horizon but cancelled: the probe
        // sweeps them and reports the queue truly empty.
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(1)), None);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pop_at_or_before_matches_pop_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(3);
        for i in 0..20u64 {
            if i % 2 == 0 {
                q.push(t, i);
            } else {
                q.push_coarse(t, i);
            }
        }
        // FIFO tie order through the horizon-bounded pop.
        for i in 0..20u64 {
            assert_eq!(q.pop_at_or_before(t), Some((t, i)));
        }
        assert_eq!(q.pop_at_or_before(t), None);
    }

    #[test]
    fn arm_fires_where_a_push_at_that_point_would() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, 0u32);
        q.arm(7, t, 1);
        q.push_coarse(t, 2);
        // Re-arming draws a fresh seq: key 7 now fires after the coarse
        // push, exactly like cancel + push.
        q.arm(7, t, 3);
        q.push(t, 4);
        q.arm(2, SimTime::from_secs(2), 5);
        q.arm(2, SimTime::ZERO, 6); // re-arm earlier: becomes the minimum
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, [6, 0, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn disarm_clears_only_an_armed_key() {
        let mut q = EventQueue::new();
        q.disarm(3); // never armed: no-op, table untouched
        q.arm(0, SimTime::from_secs(1), 10u32);
        q.arm(1, SimTime::from_secs(2), 11);
        q.arm(2, SimTime::from_secs(3), 12);
        q.disarm(0); // the minimum: the next one takes over
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        q.disarm(0); // already clear
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 11)));
        q.disarm(1); // already fired
        q.arm(1, SimTime::from_secs(9), 13); // the key that just fired
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), 12)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(9), 13)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn renumbering_at_the_seq_wrap_keeps_armed_keys_in_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        q.push(SimTime::from_secs(9), 90u64);
        q.arm(0, t, 0);
        q.push(t, 1);
        q.push_coarse(t, 2);
        q.arm(1, t, 3);
        q.arm(2, SimTime::from_secs(1), 10);
        // The next draw would not fit 32 bits: `arm` must renumber all
        // three lanes first, then take its seq after every survivor.
        q.next_seq = u32::MAX as u64 + 1;
        q.arm(0, t, 4);
        assert_eq!(q.next_seq, 7);
        q.push(t, 5);
        assert_eq!(q.len(), 7);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 10)));
        for i in 1..=5u64 {
            assert_eq!(q.pop(), Some((t, i)), "FIFO tie order must survive");
        }
        assert_eq!(q.pop(), Some((SimTime::from_secs(9), 90)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn slots_are_recycled_without_growth() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            for i in 0..10 {
                q.push(SimTime::from_micros(round * 10 + i), i);
            }
            for _ in 0..10 {
                q.pop().unwrap();
            }
        }
        // The slab never needs to exceed the high-water mark of 10.
        assert!(
            q.payloads.high_water() <= 10,
            "slab grew to {}",
            q.payloads.high_water()
        );
    }

    #[test]
    fn cancel_churn_keeps_residency_bounded_by_live_timers() {
        let mut q = EventQueue::new();
        let live = 1_000u64;
        for i in 0..live {
            q.push(SimTime::from_secs(3_600 + i), i);
        }
        let bound = 2 * live as usize + 64;
        // A patience timer's life: pushed 10 s ahead, then cancelled.
        for round in 0..200_000u64 {
            let now = SimTime::from_micros(round);
            let tok = q.push(now + SimDuration::from_secs(10), round);
            q.cancel(tok);
            assert!(
                q.raw_len() <= bound && q.payloads.high_water() <= bound,
                "round {round}: {} resident, {} slots",
                q.raw_len(),
                q.payloads.high_water()
            );
        }
        assert_eq!(q.len(), live as usize);
    }
}
