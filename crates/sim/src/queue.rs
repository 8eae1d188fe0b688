//! The pending-event set of the discrete-event kernel.
//!
//! Events are ordered by `(time, sequence)`: ties in virtual time are broken
//! by insertion order, which makes every simulation run fully deterministic
//! for a given seed and schedule of calls.
//!
//! # Implementation
//!
//! Precise events sit in the kernel's packed min-heap (`heap.rs`):
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
//! a non-trivial heap is dead.
//!
//! # Keyed timers
//!
//! A timer that is re-armed far more often than it fires — the
//! processor-sharing CPU model moves its one next-completion timer per
//! node on every job arrival and departure — would turn most heap pushes
//! into tombstones. [`EventQueue::arm`] keeps such timers in a third lane
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
//!
//! # Coarse deadlines
//!
//! [`EventQueue::push_coarse`] routes an event to a hierarchical timer
//! wheel (see [`crate::wheel`]) instead of the heap: O(1) insert and
//! cancel regardless of how many timers are resident, which is what
//! million-client think-time and patience timers need. The wheel is
//! *exact* — entries fire at their precise microsecond timestamp — and it
//! shares this queue's payload slab, token generations, and the single
//! global sequence counter, so heap, wheel and keyed events at the same
//! instant interleave by insertion order exactly as if all sat in one
//! heap. Which structure held a timer is unobservable to the simulation;
//! only the constant factors differ.

// jade-audit: allow-file(hot-panic): hand-audited lane core — every index
// is a slab slot minted by the payload slab, a keyed-lane position kept in
// `pos`, or a wheel node id owned by the wheel's free list; the expect()
// unpacks a lane head tested non-empty on the preceding line.
use crate::heap::{pack_lo, slot_of, HeapEntry, PackedHeap};
use crate::slab::{GenSlab, SlabKey};
use crate::time::SimTime;
use crate::wheel::TimerWheel;
use std::collections::VecDeque;

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

/// Deterministic pending-event set: a heap with lazy cancellation, a
/// timer wheel for coarse deadlines and a lane of keyed re-armable
/// timers, merged by one `(time, seq)` order.
pub struct EventQueue<T> {
    heap: PackedHeap,
    /// Payloads of the heap's, the wheel's and `ready`'s entries, tagged
    /// when the entry is wheel-side (so cancelling it leaves the heap's
    /// garbage count alone).
    payloads: GenSlab<T>,
    /// The one sequence counter `push`, `push_coarse` and `arm` draw from.
    next_seq: u64,
    /// Cancelled-but-unswept entries in the heap.
    cancelled: usize,
    /// Coarse-deadline side: the wheel plus the drain buffer holding the
    /// current minimal wheel timestamp's entries, sorted by seq.
    wheel: TimerWheel,
    ready: VecDeque<u64>,
    ready_time: SimTime,
    /// Scratch for wheel drains, reused across calls.
    drain_scratch: Vec<(u64, u64)>,
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
            wheel: TimerWheel::new(),
            ready: VecDeque::new(),
            ready_time: SimTime::ZERO,
            drain_scratch: Vec::new(),
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

    /// Schedules `payload` at `time` on the timer wheel: O(1) insert and
    /// cancel independent of the resident-timer population, at the cost
    /// of amortized cascade work as the deadline approaches. Semantics
    /// are identical to [`EventQueue::push`] — exact fire time, shared
    /// seq ordering against heap events at the same instant, and a token
    /// with the same cancel/reuse behaviour. Use it for coarse deadlines
    /// (think times, patience timers, periodic ticks) that dominate the
    /// pending set at scale; keep precise, short-lived completions on
    /// the heap.
    // jade-audit: allow(unbounded-growth): wheel nodes are recycled
    // through the wheel's own free list when a timer fires or is
    // cancelled (TimerWheel::free); residency is bounded by the number
    // of concurrently armed timers, not by run length.
    pub fn push_coarse(&mut self, time: SimTime, payload: T) -> EventToken {
        if time.as_micros() < self.wheel.cursor() {
            // The wheel cannot hold entries behind its cursor (possible
            // when a caller schedules against a clock that lags a peek).
            // The heap can, and the two are observably identical.
            return self.push(time, payload);
        }
        let seq = self.draw_seq();
        let key = self.payloads.insert_tagged(payload);
        self.wheel.push(time.as_micros(), pack_lo(seq, key.slot()));
        EventToken(key)
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
    /// the heap, the keyed lane, the wheel, and the wheel's drain buffer
    /// jointly — so
    /// `seq` keeps fitting in 32 bits no matter how many events a run
    /// schedules. The remap is monotone in the old global key, so
    /// relative order — and hence determinism — is untouched, and the
    /// heap property is preserved in place.
    // jade-audit: allow(hot-alloc): runs once per 2^32 scheduled events
    // (sequence-counter wrap), amortized to nothing per event.
    fn renumber(&mut self) {
        enum Src {
            Heap(u32),
            Node(u32),
            Over(u32),
            Ready(u32),
            Keyed(u32),
        }
        let key_of = |time: u64, packed: u64| ((time as u128) << 64) | packed as u128;
        let mut all: Vec<(u128, Src)> = Vec::with_capacity(self.raw_len());
        for (i, e) in self.heap.entries().iter().enumerate() {
            all.push((e.order(), Src::Heap(i as u32)));
        }
        for (i, n) in self.wheel.nodes.iter().enumerate() {
            if n.live {
                all.push((key_of(n.time, n.packed), Src::Node(i as u32)));
            }
        }
        for (i, &(t, p)) in self.wheel.overflow.iter().enumerate() {
            all.push((key_of(t, p), Src::Over(i as u32)));
        }
        for (i, &p) in self.ready.iter().enumerate() {
            all.push((key_of(self.ready_time.as_micros(), p), Src::Ready(i as u32)));
        }
        for (i, e) in self.keyed.armed.iter().enumerate() {
            all.push((e.order(), Src::Keyed(i as u32)));
        }
        all.sort_unstable_by_key(|&(k, _)| k);
        for (new_seq, (_, src)) in all.iter().enumerate() {
            let reseq = |packed: u64| ((new_seq as u64) << 32) | (packed & u32::MAX as u64);
            match *src {
                Src::Heap(i) => self.heap.entries_mut()[i as usize].set_seq(new_seq as u64),
                Src::Node(i) => {
                    let n = &mut self.wheel.nodes[i as usize];
                    n.packed = reseq(n.packed);
                }
                Src::Over(i) => {
                    let o = &mut self.wheel.overflow[i as usize];
                    o.1 = reseq(o.1);
                }
                Src::Ready(i) => {
                    let p = &mut self.ready[i as usize];
                    *p = reseq(*p);
                }
                // Monotone remap: the cached minimum stays the minimum.
                Src::Keyed(i) => self.keyed.armed[i as usize].set_seq(new_seq as u64),
            }
        }
        self.next_seq = all.len() as u64;
    }

    /// Cancels a previously scheduled event. Cancelling an event that has
    /// already fired (or was already cancelled) is a no-op.
    pub fn cancel(&mut self, token: EventToken) {
        // A wheel-side entry is swept when it surfaces; only the heap
        // compacts.
        let coarse = self.payloads.tagged_at(token.0.slot());
        if self.payloads.retire(token.0).is_none() || coarse {
            return;
        }
        self.cancelled += 1;
        if self.heap.mostly_dead(self.cancelled) {
            self.heap
                .compact_retain(|e| self.payloads.keep_if_live(e.payload_slot()));
            self.cancelled = 0;
        }
    }

    /// Refills the wheel's drain buffer: advances the wheel (cascading
    /// and draining buckets) until either the minimal wheel timestamp's
    /// entries sit in `ready` sorted by seq, the wheel is exhausted, or
    /// the wheel provably cannot beat the earlier of the heap head and
    /// the keyed minimum. Runs on every pop; all but the wheel's own
    /// advances leave after two length checks and the memoized candidate.
    #[inline]
    fn fill_ready(&mut self) {
        while self.ready.is_empty() && !self.wheel.is_empty() {
            // A cancelled heap head only makes this bound conservative:
            // the pop/peek loop removes it and comes back here.
            let bound = match (self.heap.peek_root(), self.keyed.min_entry()) {
                (Some(h), Some(k)) => h.hi.min(k.hi),
                (Some(h), None) => h.hi,
                (None, Some(k)) => k.hi,
                (None, None) => u64::MAX,
            };
            match self.wheel.next_candidate() {
                Some(cand) if cand <= bound => self.advance_wheel(),
                _ => break,
            }
        }
    }

    /// One unit of wheel progress; a drained bucket lands in `ready`
    /// sorted by seq, its cancelled entries swept as they surface.
    #[inline(never)]
    fn advance_wheel(&mut self) {
        self.drain_scratch.clear();
        self.wheel.advance_once(&mut self.drain_scratch);
        if self.drain_scratch.is_empty() {
            return; // cascaded or migrated; the caller keeps advancing
        }
        self.drain_scratch.sort_unstable_by_key(|&(_, p)| p);
        self.ready_time = SimTime::from_micros(self.drain_scratch[0].0);
        let scratch = std::mem::take(&mut self.drain_scratch);
        for &(_, p) in &scratch {
            if self.payloads.live_at(slot_of(p)).is_some() {
                self.ready.push_back(p);
            } else {
                self.payloads.release_slot(slot_of(p));
            }
        }
        self.drain_scratch = scratch;
    }

    /// Pops the earliest non-cancelled event, merging the three lanes:
    /// ties in time resolve by the shared insertion seq.
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
            self.fill_ready();
            // An absent lane reads as u128::MAX and the comparisons are
            // strict, so a lane is only taken when it holds an entry;
            // live keys never tie (sequence numbers are unique).
            let heap_key = self.heap.peek_root().map_or(u128::MAX, HeapEntry::order);
            let ready_time = self.ready_time.as_micros();
            let wheel_key = self.ready.front().map_or(u128::MAX, |&p| {
                HeapEntry {
                    hi: ready_time,
                    lo: p,
                }
                .order()
            });
            let other = heap_key.min(wheel_key);
            if let Some(&head) = self.keyed.min_entry().filter(|e| e.order() < other) {
                if head.hi > horizon {
                    return None;
                }
                let payload = self.keyed.take_at(self.keyed.min);
                return Some((SimTime::from_micros(head.hi), payload));
            }
            if wheel_key < heap_key {
                let slot = slot_of(*self.ready.front().expect("key below u128::MAX"));
                if ready_time > horizon && self.payloads.live_at(slot).is_some() {
                    return None;
                }
                self.ready.pop_front();
                // `None`: cancelled while in `ready` (fill_ready sweeps
                // the entries cancelled before the drain).
                if let Some(payload) = self.payloads.release_slot(slot) {
                    return Some((self.ready_time, payload));
                }
            } else {
                // The heap head is next, or every lane is empty.
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
    }

    /// Time of the earliest non-cancelled event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            if let Some(head) = self.heap.peek_root() {
                if self.payloads.live_at(head.payload_slot()).is_none() {
                    self.heap.pop_root();
                    self.cancelled -= 1;
                    self.payloads.release_slot(head.payload_slot());
                    continue;
                }
            }
            self.fill_ready();
            let mut swept_ready = false;
            while let Some(&p) = self.ready.front() {
                if self.payloads.live_at(slot_of(p)).is_some() {
                    break;
                }
                self.ready.pop_front();
                self.payloads.release_slot(slot_of(p));
                swept_ready = true;
            }
            if swept_ready && self.ready.is_empty() && !self.wheel.is_empty() {
                // The whole drained batch turned out to be cancelled;
                // advance the wheel further. (Without the sweep check
                // this would spin: `fill_ready` legitimately leaves
                // `ready` empty when the heap head is earlier than any
                // wheel entry.)
                continue;
            }
            let heap_time = self.heap.peek_root().map(|e| e.hi);
            let wheel_time = (!self.ready.is_empty()).then_some(self.ready_time.as_micros());
            let keyed_time = self.keyed.min_entry().map(|e| e.hi);
            return [heap_time, wheel_time, keyed_time]
                .into_iter()
                .flatten()
                .min()
                .map(SimTime::from_micros);
        }
    }

    /// Number of events still resident (cancelled-but-unswept events
    /// included; use only as a capacity heuristic).
    pub fn raw_len(&self) -> usize {
        self.heap.entries().len() + self.wheel.len() + self.ready.len() + self.keyed.armed.len()
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
        // Spread across wheel levels, with a few precise events mixed in.
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
    fn peek_skips_fully_cancelled_coarse_batches() {
        let mut q = EventQueue::new();
        let a = q.push_coarse(SimTime::from_secs(1), 1u8);
        let b = q.push_coarse(SimTime::from_secs(1), 2u8);
        q.push_coarse(SimTime::from_secs(5), 3u8);
        // Cancel the entire earliest batch after it may have drained.
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        q.cancel(a);
        q.cancel(b);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), 3u8)));
        assert!(q.is_empty());
    }

    #[test]
    fn renumbering_covers_the_wheel() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        q.push(SimTime::from_secs(9), 90u64);
        for i in 0..50u64 {
            if i % 2 == 0 {
                q.push_coarse(t, i);
            } else {
                q.push(t, i);
            }
        }
        q.push_coarse(SimTime::from_secs(1), 10u64);
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
    fn coarse_push_behind_cursor_falls_back_to_heap() {
        let mut q = EventQueue::new();
        q.push_coarse(SimTime::from_secs(10), 1u8);
        // Draining advances the wheel cursor to t=10s.
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), 1u8)));
        // An earlier coarse push must still fire at its exact time.
        q.push_coarse(SimTime::from_secs(4), 2u8);
        q.push_coarse(SimTime::from_secs(12), 3u8);
        assert_eq!(q.pop(), Some((SimTime::from_secs(4), 2u8)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(12), 3u8)));
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
}
