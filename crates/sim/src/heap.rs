//! The packed min-heap under the kernel's event queue and PS-CPU.
//!
//! Entries are 16-byte `Copy` records `{hi, lo}` compared as one `u128`,
//! so four share a cache line and the sift loops compare branch-free. `hi`
//! is the primary key — a time in µs for [`crate::queue::EventQueue`], the
//! `f64::to_bits` of a completion key for [`crate::cpu::PsCpu`] (keys are
//! positive and finite, and non-negative doubles order like their bit
//! patterns). `lo` packs `(seq << 32) | slot`: the owner's insertion
//! sequence number, then the [`crate::slab::GenSlab`] slot holding the
//! payload, which the heap never sees. Sequence numbers are unique among
//! resident entries, so no two entries compare equal, any correct heap
//! pops them in the same order, and the slot bits never decide; owners
//! renumber before a sequence number outgrows its 32 bits.
//!
//! Cancellation is lazy and the owner's: it retires the entry's slab cell
//! and counts the dead entry, drops it when it surfaces at the root, and
//! compacts once [`PackedHeap::mostly_dead`] says so.

// jade-audit: allow-file(hot-panic): hand-audited heap core — every index
// is a position below entries.len() maintained by the sift loops.

/// Compact when at least this many entries are resident and more than
/// half of them are dead.
const COMPACT_MIN: usize = 64;

/// Packs a sequence number and a slab slot into an entry's low word.
#[inline]
fn pack_lo(seq: u64, slot: u32) -> u64 {
    (seq << 32) | u64::from(slot)
}

/// The slab slot packed into a low word.
#[inline]
fn slot_of(lo: u64) -> u32 {
    lo as u32
}

/// One heap record; see the module docs for the layout.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeapEntry {
    /// Primary key: a time in µs, or the bits of a non-negative `f64`.
    pub(crate) hi: u64,
    /// `(seq << 32) | slot`.
    pub(crate) lo: u64,
}

impl HeapEntry {
    #[inline]
    pub(crate) fn new(hi: u64, seq: u64, slot: u32) -> Self {
        HeapEntry {
            hi,
            lo: pack_lo(seq, slot),
        }
    }

    /// Total order as a single scalar: `(hi, seq, slot)` lexicographic.
    #[inline]
    pub(crate) fn order(self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }

    /// The slab slot holding the entry's payload.
    #[inline]
    pub(crate) fn payload_slot(self) -> u32 {
        slot_of(self.lo)
    }

    #[inline]
    pub(crate) fn seq(self) -> u64 {
        self.lo >> 32
    }

    pub(crate) fn set_seq(&mut self, seq: u64) {
        self.lo = pack_lo(seq, self.payload_slot());
    }
}

/// Binary min-heap of [`HeapEntry`]s by [`HeapEntry::order`].
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedHeap {
    entries: Vec<HeapEntry>,
}

impl PackedHeap {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        PackedHeap {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// The entries in heap (not sorted) order.
    pub(crate) fn entries(&self) -> &[HeapEntry] {
        &self.entries
    }

    /// Mutable entries, for rewrites that keep every pair's relative
    /// order (a monotone renumbering), which keeps the heap property.
    pub(crate) fn entries_mut(&mut self) -> &mut [HeapEntry] {
        &mut self.entries
    }

    /// The smallest entry.
    #[inline]
    pub(crate) fn peek_root(&self) -> Option<HeapEntry> {
        self.entries.first().copied()
    }

    /// Inserts `entry`.
    #[inline]
    pub(crate) fn sift_in(&mut self, entry: HeapEntry) {
        self.entries.push(entry);
        self.sift_up(self.entries.len() - 1);
    }

    /// Removes and returns the smallest entry. Sifts the hole to the
    /// bottom level and re-inserts the tail there, as `std`'s
    /// `BinaryHeap` does: the tail almost always belongs near the bottom,
    /// so this moves one entry per level and skips the compare against
    /// the tail's key on the way down.
    pub(crate) fn pop_root(&mut self) -> Option<HeapEntry> {
        let tail = self.entries.pop()?;
        let Some(&root) = self.entries.first() else {
            return Some(tail);
        };
        let n = self.entries.len();
        let mut hole = 0;
        while let Some(child) = self.min_child(hole, n) {
            self.entries[hole] = self.entries[child];
            hole = child;
        }
        self.entries[hole] = tail;
        self.sift_up(hole);
        Some(root)
    }

    /// Whether `dead` of the resident entries make compaction due: more
    /// than half of a heap of at least `COMPACT_MIN` entries.
    #[inline]
    pub(crate) fn mostly_dead(&self, dead: usize) -> bool {
        dead * 2 > self.entries.len() && self.entries.len() >= COMPACT_MIN
    }

    /// Keeps the entries `keep` accepts, visiting every entry once, then
    /// restores the heap property in O(n) (Floyd: sift down every parent,
    /// bottom-up).
    pub(crate) fn compact_retain(&mut self, mut keep: impl FnMut(HeapEntry) -> bool) {
        self.entries.retain(|&e| keep(e));
        for parent in (0..self.entries.len() / 2).rev() {
            self.sift_down(parent);
        }
    }

    /// Empties the heap smallest first; the allocation stays for reuse.
    pub(crate) fn drain_sorted(&mut self) -> std::vec::Drain<'_, HeapEntry> {
        self.entries.sort_unstable_by_key(|e| e.order());
        self.entries.drain(..)
    }

    /// Reassigns sequence numbers `0..n` in entry order and returns `n`,
    /// the owner's next sequence number. The remap is monotone, so the
    /// heap property and every relative order survive.
    pub(crate) fn renumber_seqs(&mut self) -> u64 {
        let mut by_order: Vec<usize> = (0..self.entries.len()).collect();
        by_order.sort_unstable_by_key(|&i| self.entries[i].order());
        for (seq, &i) in (0u64..).zip(&by_order) {
            self.entries[i].set_seq(seq);
        }
        by_order.len() as u64
    }

    /// Index of the smaller child of `hole` among the first `n` entries,
    /// or `None` for a leaf.
    #[inline]
    fn min_child(&self, hole: usize, n: usize) -> Option<usize> {
        let first = 2 * hole + 1;
        if first >= n {
            return None;
        }
        let second = first + 1;
        let right_wins = second < n && self.entries[second].order() < self.entries[first].order();
        Some(first + usize::from(right_wins))
    }

    fn sift_up(&mut self, mut hole: usize) {
        let entry = self.entries[hole];
        let key = entry.order();
        while hole > 0 {
            let parent = (hole - 1) / 2;
            if key < self.entries[parent].order() {
                self.entries[hole] = self.entries[parent];
                hole = parent;
            } else {
                break;
            }
        }
        self.entries[hole] = entry;
    }

    fn sift_down(&mut self, mut hole: usize) {
        let entry = self.entries[hole];
        let key = entry.order();
        let n = self.entries.len();
        while let Some(child) = self.min_child(hole, n) {
            if self.entries[child].order() < key {
                self.entries[hole] = self.entries[child];
                hole = child;
            } else {
                break;
            }
        }
        self.entries[hole] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_keeps_exactly_the_accepted_entries_in_order() {
        let keys: Vec<(u64, u64)> = (0..200u64).map(|i| ((i * 7919) % 97, i)).collect();
        let mut h = PackedHeap::default();
        for (slot, &(hi, seq)) in (0u32..).zip(&keys) {
            h.sift_in(HeapEntry::new(hi, seq, slot));
        }
        assert!(h.mostly_dead(101) && !h.mostly_dead(100));
        h.compact_retain(|e| e.seq() % 3 == 0);
        let mut expect: Vec<(u64, u64)> = keys.into_iter().filter(|k| k.1 % 3 == 0).collect();
        expect.sort_unstable();
        let popped: Vec<(u64, u64)> =
            std::iter::from_fn(|| h.pop_root().map(|e| (e.hi, e.seq()))).collect();
        assert_eq!(popped, expect);
    }
}
