//! Hierarchical timer wheel for coarse-deadline events.
//!
//! The event kernel keeps three pending-event lanes behind one facade
//! (see [`crate::queue::EventQueue`]): the slab min-heap for *precise*
//! one-shot events (network hops, dispatches — short-lived, dense in
//! time), the keyed lane for timers that are re-armed in place (one CPU
//! completion timer per node), and this wheel for *coarse* deadlines
//! (client think times, patience timers, periodic sensor ticks —
//! long-lived, sparse, and at million-client scale vastly outnumbering
//! everything else). Insert and cancel on the wheel are O(1) regardless
//! of population, where every heap insert pays O(log n) sift work
//! against a million resident timers.
//!
//! # Exactness
//!
//! Unlike the classic kernel timer wheel, this one is *exact*: entries
//! fire at their precise microsecond timestamp, not rounded to a slot
//! boundary. Levels only bound how far an entry sits from the cursor —
//! level `L` buckets span `64^L` µs — and an entry cascades to lower
//! levels as the cursor approaches, reaching level 0 (1 µs buckets)
//! before it fires. Because a level-0 bucket is 1 µs wide, every entry
//! in the minimal level-0 bucket shares one exact timestamp, and the
//! queue facade merges those entries against the heap by the global
//! `(time, seq)` key. Rerouting a timer from heap to wheel therefore
//! cannot change any simulation outcome — the determinism tests and
//! `tests/wheel_prop.rs` hold the two structures to byte-identical fire
//! order.
//!
//! # Invariants
//!
//! * `cursor` never exceeds the timestamp of any resident entry; it
//!   advances only to the span start of the minimal occupied bucket.
//! * An entry inserted at delta `d` from the cursor lands on level
//!   `⌊log64 d⌋`; since the cursor only advances by processing minimal
//!   buckets, a bucket at level `L` always holds entries within
//!   `[cursor, cursor + 64^(L+1))` — exactly one "lap", so a bucket
//!   index maps to a single span start and no aliasing is possible.
//! * On span-start ties the *highest* level is processed first, so
//!   same-timestamp entries parked at different levels are merged down
//!   into one level-0 bucket before that bucket is drained.
//! * `next`, unless stale, equals what a fresh scan of `cursor`,
//!   `occupied` and `overflow` would return. Only [`TimerWheel::push`]
//!   and [`TimerWheel::advance_once`] mutate those three, and both clear
//!   it; the queue facade asks for the candidate on every pop, while the
//!   wheel changes on a small fraction of them.
//!
//! Deltas of 2^42 µs (~51 days of virtual time) or more park in an
//! unsorted overflow list and migrate into the levels when the wheel
//! drains down to them; no experiment in this repository comes within
//! three orders of magnitude of needing it, but the path keeps the
//! structure total.

// jade-audit: allow-file(hot-panic): hand-audited intrusive-list slab —
// every index is a node id minted by alloc and owned by exactly one
// bucket list or the free list, or a bucket index masked to LEVEL_BITS;
// the expect()s unpack list heads tested non-NONE on the previous line.

/// Number of levels; level `L` buckets are `64^L` µs wide.
pub(crate) const LEVELS: usize = 7;
/// Buckets per level.
const BUCKETS: usize = 64;
/// Bits of timestamp consumed per level.
const LEVEL_BITS: u32 = 6;
/// Deltas at or beyond `64^LEVELS` µs go to the overflow list.
const SPAN: u64 = 1 << (LEVEL_BITS * LEVELS as u32);
/// Intrusive-list terminator.
const NONE: u32 = u32::MAX;

/// One resident wheel entry. `packed` carries the queue's `(seq << 32) |
/// slot` word verbatim — the wheel never unpacks it, it only hands it
/// back so the facade can order same-instant entries by insertion seq.
pub(crate) struct WheelNode {
    pub(crate) time: u64,
    pub(crate) packed: u64,
    next: u32,
    pub(crate) live: bool,
}

/// The wheel proper. Owned by [`crate::queue::EventQueue`]; all public
/// surface goes through the queue facade.
pub(crate) struct TimerWheel {
    /// All resident entries are at times `>= cursor`.
    cursor: u64,
    /// Intrusive singly-linked bucket heads, `heads[level][bucket]`.
    heads: [[u32; BUCKETS]; LEVELS],
    /// Per-level occupancy bitmaps (bit `b` set ⇔ `heads[level][b]` non-empty).
    occupied: [u64; LEVELS],
    /// Node slab with an intrusive free list threaded through `next`.
    pub(crate) nodes: Vec<WheelNode>,
    free_head: u32,
    /// Entries further than `SPAN` µs out, unsorted.
    pub(crate) overflow: Vec<(u64, u64)>,
    /// Resident entries (buckets + overflow; drained entries excluded).
    len: usize,
    /// Memoized [`TimerWheel::scan_next`].
    next: Next,
}

/// What the cursor will do next, as one scan of the levels finds it.
/// Small enough to travel in registers: the queue reads it on every pop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Next {
    /// [`TimerWheel::advance_once`] will process this bucket.
    Bucket { span: u64, level: u8 },
    /// Every level is empty; the earliest overflow entry is at this time.
    Overflow(u64),
    /// Nothing resident.
    Empty,
    /// A mutation invalidated the memo; the next reader rescans.
    Stale,
}

/// Level for an entry `delta` µs ahead of the cursor (`delta < SPAN`).
#[inline]
fn level_for(delta: u64) -> usize {
    if delta == 0 {
        0
    } else {
        (63 - delta.leading_zeros() as usize) / LEVEL_BITS as usize
    }
}

/// Bucket index of timestamp `time` at `level`.
#[inline]
fn bucket_of(time: u64, level: usize) -> usize {
    ((time >> (LEVEL_BITS * level as u32)) & (BUCKETS as u64 - 1)) as usize
}

impl TimerWheel {
    pub(crate) fn new() -> Self {
        TimerWheel {
            cursor: 0,
            heads: [[NONE; BUCKETS]; LEVELS],
            occupied: [0; LEVELS],
            nodes: Vec::new(),
            free_head: NONE,
            overflow: Vec::new(),
            len: 0,
            next: Next::Stale,
        }
    }

    /// Resident entry count (cancelled-but-unswept entries included).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current cursor position. Entries below this time cannot be
    /// inserted (the queue facade falls back to the heap for them).
    pub(crate) fn cursor(&self) -> u64 {
        self.cursor
    }

    // jade-audit: allow(unbounded-growth): the node slab grows to the
    // high-water mark of concurrently armed timers; release() returns
    // retired nodes to free_head and the branch above reuses them.
    fn alloc(&mut self, time: u64, packed: u64, next: u32) -> u32 {
        if self.free_head != NONE {
            let at = self.free_head;
            let n = &mut self.nodes[at as usize];
            self.free_head = n.next;
            *n = WheelNode {
                time,
                packed,
                next,
                live: true,
            };
            at
        } else {
            self.nodes.push(WheelNode {
                time,
                packed,
                next,
                live: true,
            });
            (self.nodes.len() - 1) as u32
        }
    }

    fn release(&mut self, at: u32) {
        let n = &mut self.nodes[at as usize];
        n.live = false;
        n.next = self.free_head;
        self.free_head = at;
    }

    fn link(&mut self, time: u64, packed: u64) {
        let delta = time - self.cursor;
        if delta >= SPAN {
            self.overflow.push((time, packed));
            return;
        }
        let level = level_for(delta);
        let b = bucket_of(time, level);
        let at = self.alloc(time, packed, self.heads[level][b]);
        self.heads[level][b] = at;
        self.occupied[level] |= 1 << b;
    }

    /// Inserts an entry. Caller guarantees `time >= cursor` (the queue
    /// facade routes earlier times to the heap).
    pub(crate) fn push(&mut self, time: u64, packed: u64) {
        debug_assert!(time >= self.cursor);
        if self.len == 0 {
            // Empty wheel: snap the cursor forward so a long heap-only
            // stretch does not leave new entries cascading from stale
            // high levels.
            self.cursor = time;
        }
        self.link(time, packed);
        self.len += 1;
        self.next = Next::Stale;
    }

    /// Span start and level of the next bucket the cursor will process:
    /// minimal span start, ties to the highest level (so same-timestamp
    /// entries merge down before the level-0 drain). `None` when every
    /// level is empty (the overflow list may still hold entries).
    fn next_bucket(&self) -> Option<(u64, usize)> {
        let mut best: Option<(u64, usize)> = None;
        for level in 0..LEVELS {
            let bits = self.occupied[level];
            if bits == 0 {
                continue;
            }
            let unit = 1u64 << (LEVEL_BITS * level as u32);
            let at = bucket_of(self.cursor, level);
            let span = if level == 0 {
                // Bit at ring distance d from the cursor bucket is the
                // single timestamp `cursor + d` (level-0 buckets are
                // 1 µs wide and hold one "lap" only).
                self.cursor + bits.rotate_right(at as u32).trailing_zeros() as u64
            } else if self.cursor.is_multiple_of(unit) && bits & (1 << at) != 0 {
                // Cursor sits exactly on this bucket's base: the bucket
                // is wholly ahead and its span starts here.
                self.cursor
            } else {
                // Ring distance 1..=64; distance 64 (bit lands back on
                // the cursor bucket) is the *next* lap — a partially
                // elapsed cursor bucket cannot hold current-lap entries,
                // because the cursor only enters a bucket's interior by
                // first processing (and thus emptying) that bucket.
                let rot = bits.rotate_right(((at + 1) % BUCKETS) as u32);
                let dist = rot.trailing_zeros() as u64 + 1;
                (self.cursor - self.cursor % unit) + dist * unit
            };
            best = match best {
                Some((s, _)) if s < span => best,
                // `>=` so a span tie prefers the higher (later) level.
                _ => Some((span, level)),
            };
        }
        best
    }

    /// Lower bound on the earliest resident entry's timestamp (exact
    /// when the next bucket is at level 0). `None` when the wheel is
    /// empty. The queue facade compares this against the heap head to
    /// decide whether advancing the wheel can be deferred. Memoized:
    /// the level scan runs once per wheel mutation, not once per pop.
    #[inline]
    pub(crate) fn next_candidate(&mut self) -> Option<u64> {
        match self.peek_next() {
            Next::Bucket { span: at, .. } | Next::Overflow(at) => Some(at),
            Next::Empty | Next::Stale => None,
        }
    }

    #[inline]
    fn peek_next(&mut self) -> Next {
        debug_assert!(self.next == Next::Stale || self.next == self.scan_next());
        if self.next == Next::Stale {
            self.refresh_next();
        }
        self.next
    }

    #[inline(never)]
    fn refresh_next(&mut self) {
        self.next = self.scan_next();
    }

    #[inline]
    fn scan_next(&self) -> Next {
        match self.next_bucket() {
            Some((span, level)) => Next::Bucket {
                span,
                level: level as u8,
            },
            None => match self.overflow.iter().map(|&(t, _)| t).min() {
                Some(min) => Next::Overflow(min),
                None => Next::Empty,
            },
        }
    }

    /// Performs one unit of cursor progress: migrates the overflow list,
    /// cascades one bucket to lower levels, or drains the minimal
    /// level-0 bucket into `out` as `(time, packed)` pairs (all sharing
    /// one exact timestamp). Callers loop until `out` is non-empty or
    /// the wheel empties; each call strictly reduces remaining work
    /// (cascades move entries to strictly lower levels), so the loop
    /// terminates.
    pub(crate) fn advance_once(&mut self, out: &mut Vec<(u64, u64)>) {
        debug_assert!(self.len > 0);
        let bucket = match self.peek_next() {
            Next::Bucket { span, level } => Some((span, level as usize)),
            Next::Overflow(_) | Next::Empty | Next::Stale => None,
        };
        self.next = Next::Stale;
        if !self.overflow.is_empty() {
            let over_min = self
                .overflow
                .iter()
                .map(|&(t, _)| t)
                .min()
                .expect("overflow checked non-empty");
            if bucket.is_none_or(|(span, _)| over_min < span) {
                // All level entries are at or beyond their bucket span
                // starts, so jumping the cursor to the overflow minimum
                // cannot pass any of them.
                self.cursor = over_min;
                let pending = std::mem::take(&mut self.overflow);
                for (t, p) in pending {
                    self.link(t, p);
                }
                return;
            }
        }
        let (span, level) = bucket.expect("advance_once on an empty wheel");
        self.cursor = span;
        let b = bucket_of(span, level);
        let mut at = std::mem::replace(&mut self.heads[level][b], NONE);
        self.occupied[level] &= !(1 << b);
        if level == 0 {
            while at != NONE {
                let n = &self.nodes[at as usize];
                let (t, p, nxt) = (n.time, n.packed, n.next);
                debug_assert_eq!(t, span, "level-0 bucket holds one timestamp");
                out.push((t, p));
                self.release(at);
                self.len -= 1;
                at = nxt;
            }
        } else {
            // Cascade: relink every entry at its new delta, which is
            // now strictly below this level's reach.
            while at != NONE {
                let nxt = self.nodes[at as usize].next;
                let t = self.nodes[at as usize].time;
                debug_assert!(t >= self.cursor);
                debug_assert!(level_for(t - self.cursor) < level);
                let nl = level_for(t - self.cursor);
                let nb = bucket_of(t, nl);
                self.nodes[at as usize].next = self.heads[nl][nb];
                self.heads[nl][nb] = at;
                self.occupied[nl] |= 1 << nb;
                at = nxt;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(w: &mut TimerWheel) -> Vec<(u64, u64)> {
        let mut fired = Vec::new();
        let mut out = Vec::new();
        while !w.is_empty() {
            out.clear();
            w.advance_once(&mut out);
            out.sort_unstable_by_key(|&(_, p)| p);
            fired.extend(out.iter().copied());
        }
        fired
    }

    #[test]
    fn fires_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        // Deliberately adversarial: mixed magnitudes, duplicate times.
        let times = [5u64, 1 << 20, 63, 64, 65, 5, 4096, (1 << 18) + 7, 5];
        for (i, &t) in times.iter().enumerate() {
            w.push(t, (i as u64) << 32);
        }
        let fired = drain_all(&mut w);
        let mut expect: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, (i as u64) << 32))
            .collect();
        expect.sort_unstable();
        assert_eq!(fired, expect);
    }

    #[test]
    fn overflow_entries_migrate_and_fire() {
        let mut w = TimerWheel::new();
        w.push(10, 1 << 32);
        w.push(SPAN + 77, 2 << 32); // parks in overflow
        assert_eq!(w.overflow.len(), 1);
        let fired = drain_all(&mut w);
        assert_eq!(fired, vec![(10, 1 << 32), (SPAN + 77, 2 << 32)]);
    }

    #[test]
    fn cursor_snaps_forward_when_empty() {
        let mut w = TimerWheel::new();
        w.push(1_000_000, 0);
        assert_eq!(w.cursor(), 1_000_000);
        let fired = drain_all(&mut w);
        assert_eq!(fired, vec![(1_000_000, 0)]);
        // After draining, a much later push re-snaps rather than
        // cascading down from a stale high level.
        w.push(u64::from(u32::MAX) * 1_000, 7);
        assert_eq!(w.cursor(), u64::from(u32::MAX) * 1_000);
    }

    #[test]
    fn same_time_entries_across_levels_merge() {
        let mut w = TimerWheel::new();
        // First entry fixes the cursor at 0; the same timestamp is then
        // pushed at a high level (large delta) and after the cursor has
        // moved (small delta) — all three must drain together.
        w.push(0, 9);
        let t = 100_000; // level 2 from cursor 0
        w.push(t, 1 << 32);
        let mut out = Vec::new();
        w.advance_once(&mut out); // drains the t=0 bucket
        assert_eq!(out, vec![(0, 9)]);
        w.push(t, 2 << 32); // still level >= 1 from cursor 0
        let fired = drain_all(&mut w);
        assert_eq!(fired, vec![(t, 1 << 32), (t, 2 << 32)]);
    }
}
