//! Generational slab arena: O(1) insert/lookup/remove with stale-key
//! detection — the one payload store of the kernel.
//!
//! A [`SlabKey`] packs `(generation << 32) | slot` into one `u64`, vacant
//! slots chain through an intrusive free list, and each slot's generation
//! is bumped when it is freed so a key held across a free/reuse cycle no
//! longer resolves. Callers that already traffic in `u64` ids (request
//! ids, job ids) can round-trip through [`SlabKey::raw`] /
//! [`SlabKey::from_raw`] without widening their id types.
//!
//! Owners that name a cell from a packed-heap entry (`heap.rs`) — the event
//! queue's payloads (an [`crate::EventToken`] is the payload's key) and
//! the PS-CPU's jobs — keep only the slot there and use the crate-private
//! slot-indexed half: `retire` cancels lazily (the value is dropped, the
//! slot stays reserved for the heap entry that still names it),
//! `live_at` reads a slot, and `release_slot` frees it once the entry
//! leaves the heap. A cell also keeps one bit the owner sets at insertion
//! (`insert_tagged`), in the cell's padding: the queue records there
//! whether the wheel, not the heap, holds the entry.

use crate::pack::id_u32;

/// Packed handle to an occupied slab slot: low 32 bits slot index, high
/// 32 bits the slot's generation at insertion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlabKey(u64);

impl SlabKey {
    fn new(slot: u32, generation: u32) -> Self {
        SlabKey(((generation as u64) << 32) | slot as u64)
    }

    /// Reconstructs a key from its packed `u64` representation.
    pub fn from_raw(raw: u64) -> Self {
        SlabKey(raw)
    }

    /// The packed `u64` representation (round-trips via [`from_raw`]).
    ///
    /// [`from_raw`]: SlabKey::from_raw
    pub fn raw(self) -> u64 {
        self.0
    }

    pub(crate) fn slot(self) -> u32 {
        self.0 as u32
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Sentinel terminating the intrusive free list.
const NO_FREE: u32 = u32::MAX;

/// One slab cell. Every state carries the generation (and `Occupied` the
/// owner's bit) next to the enum tag, so a cell costs its value plus one
/// word: 32 bytes for a 24-byte value.
#[derive(Debug, Clone)]
enum Entry<T> {
    /// Free; `next` is the next free slot index (or `NO_FREE`).
    Vacant { generation: u32, next: u32 },
    Occupied {
        generation: u32,
        tag: bool,
        value: T,
    },
    /// Cancelled: the value is gone, but a heap entry still names the
    /// slot, so it stays off the free list until `release_slot`.
    Retired { generation: u32 },
}

impl<T> Entry<T> {
    #[inline]
    fn current_generation(&self) -> u32 {
        match *self {
            Entry::Vacant { generation, .. }
            | Entry::Occupied { generation, .. }
            | Entry::Retired { generation } => generation,
        }
    }
}

/// A slab of `T` addressed by generational [`SlabKey`]s.
///
/// All operations are O(1); memory is proportional to the high-water
/// occupancy, and freed slots are recycled most-recently-freed first.
#[derive(Debug, Clone)]
pub struct GenSlab<T> {
    entries: Vec<Entry<T>>,
    free_head: u32,
    /// Occupied slots (retired ones excluded).
    len: usize,
}

impl<T> Default for GenSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> GenSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty slab with room for `capacity` values.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        GenSlab {
            entries: Vec::with_capacity(capacity),
            free_head: NO_FREE,
            len: 0,
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value, returning the key addressing it.
    pub fn insert(&mut self, value: T) -> SlabKey {
        self.occupy(value, false)
    }

    /// [`GenSlab::insert`] with the owner's bit set.
    pub(crate) fn insert_tagged(&mut self, value: T) -> SlabKey {
        self.occupy(value, true)
    }

    // jade-audit: allow(unbounded-growth): the slab grows to the
    // high-water mark of concurrently live values (pending events,
    // resident jobs, in-flight requests) and then recycles freed slots
    // through the free list (release_slot pushes them onto free_head).
    #[inline]
    fn occupy(&mut self, value: T, tag: bool) -> SlabKey {
        self.len += 1;
        // `NO_FREE` indexes nothing: `id_u32` keeps the slab below it.
        if let Some(entry) = self.entries.get_mut(self.free_head as usize) {
            let slot = self.free_head;
            let Entry::Vacant { generation, next } = *entry else {
                unreachable!("free list points at a live slot");
            };
            self.free_head = next;
            *entry = Entry::Occupied {
                generation,
                tag,
                value,
            };
            return SlabKey::new(slot, generation);
        }
        let slot = id_u32(self.entries.len());
        self.entries.push(Entry::Occupied {
            generation: 0,
            tag,
            value,
        });
        SlabKey::new(slot, 0)
    }

    /// True when `key` addresses a live value.
    pub fn contains(&self, key: SlabKey) -> bool {
        self.get(key).is_some()
    }

    /// The value addressed by `key`, unless removed or stale.
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        match self.entries.get(key.slot() as usize)? {
            Entry::Occupied {
                generation, value, ..
            } if *generation == key.generation() => Some(value),
            _ => None,
        }
    }

    /// Mutable access to the value addressed by `key`.
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        match self.entries.get_mut(key.slot() as usize)? {
            Entry::Occupied {
                generation, value, ..
            } if *generation == key.generation() => Some(value),
            _ => None,
        }
    }

    /// Removes and returns the value addressed by `key`; the slot's
    /// generation is bumped so the key (and any copy of it) goes stale.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        self.get(key)?;
        self.release_slot(key.slot())
    }

    /// Iterates over occupied slots in slot (not insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = (SlabKey, &T)> {
        (0u32..).zip(&self.entries).filter_map(|(slot, e)| match e {
            Entry::Occupied {
                generation, value, ..
            } => Some((SlabKey::new(slot, *generation), value)),
            _ => None,
        })
    }

    /// Cancels the value addressed by `key` lazily, returning it: the
    /// slot leaves the count but stays reserved, with its generation, until
    /// [`GenSlab::release_slot`]. `None` (and no change) unless `key` is live.
    pub(crate) fn retire(&mut self, key: SlabKey) -> Option<T> {
        let entry = self.entries.get_mut(key.slot() as usize)?;
        if !matches!(entry, Entry::Occupied { generation, .. } if *generation == key.generation()) {
            return None;
        }
        let retired = Entry::Retired {
            generation: key.generation(),
        };
        let Entry::Occupied { value, .. } = std::mem::replace(entry, retired) else {
            unreachable!("checked occupied above");
        };
        self.len -= 1;
        Some(value)
    }

    /// The value in `slot`, unless it is retired (or vacant).
    #[inline]
    pub(crate) fn live_at(&self, slot: u32) -> Option<&T> {
        match self.entries.get(slot as usize)? {
            Entry::Occupied { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Whether `slot` is live, releasing it if it is retired: the filter
    /// that compacts a heap over this slab.
    pub(crate) fn keep_if_live(&mut self, slot: u32) -> bool {
        let live = self.live_at(slot).is_some();
        if !live {
            self.release_slot(slot);
        }
        live
    }

    /// The owner's bit of the value in `slot` (`false` unless occupied).
    #[inline]
    pub(crate) fn tagged_at(&self, slot: u32) -> bool {
        matches!(
            self.entries.get(slot as usize),
            Some(Entry::Occupied { tag: true, .. })
        )
    }

    /// Frees an occupied or retired `slot`, bumping its generation, and
    /// returns the value unless the slot was retired.
    #[inline]
    pub(crate) fn release_slot(&mut self, slot: u32) -> Option<T> {
        let entry = self.entries.get_mut(slot as usize)?;
        let vacant = Entry::Vacant {
            generation: entry.current_generation().wrapping_add(1),
            next: self.free_head,
        };
        self.free_head = slot;
        match std::mem::replace(entry, vacant) {
            Entry::Occupied { value, .. } => {
                self.len -= 1;
                Some(value)
            }
            Entry::Retired { .. } => None,
            Entry::Vacant { .. } => unreachable!("released a vacant slot"),
        }
    }

    /// Slots ever allocated: the high-water occupancy.
    #[cfg(test)]
    pub(crate) fn high_water(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = GenSlab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.get(b), Some(&"b"));
        *slab.get_mut(a).unwrap() = "a2";
        assert_eq!(slab.remove(a), Some("a2"));
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.get(a), None);
        assert!(!slab.contains(a));
        assert!(slab.contains(b));
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn stale_key_is_rejected_after_slot_reuse() {
        let mut slab = GenSlab::new();
        let a = slab.insert(1u32);
        slab.remove(a);
        // LIFO free list: the next insert reuses a's slot.
        let b = slab.insert(2u32);
        assert_eq!(b.raw() as u32, a.raw() as u32, "slot reused");
        assert_ne!(b.raw(), a.raw(), "generation differs");
        assert_eq!(slab.get(a), None, "stale key must miss");
        assert_eq!(slab.remove(a), None, "stale remove must be a no-op");
        assert_eq!(slab.get(b), Some(&2));
    }

    #[test]
    fn keys_roundtrip_through_raw() {
        let mut slab = GenSlab::new();
        let k = slab.insert(7i64);
        let k2 = SlabKey::from_raw(k.raw());
        assert_eq!(slab.get(k2), Some(&7));
    }

    #[test]
    fn iter_yields_occupied_in_slot_order() {
        let mut slab = GenSlab::new();
        let a = slab.insert(10);
        let b = slab.insert(20);
        let c = slab.insert(30);
        slab.remove(b);
        let seen: Vec<_> = slab.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(seen, vec![(a, 10), (c, 30)]);
    }

    #[test]
    fn retired_slots_stay_reserved_until_released() {
        let mut slab = GenSlab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.retire(a), Some("a"));
        assert_eq!(slab.retire(a), None, "already retired");
        assert_eq!(
            (slab.len(), slab.get(a), slab.live_at(a.slot())),
            (1, None, None)
        );
        assert_eq!(slab.remove(a), None, "a retired slot is the heap's to free");
        // Still reserved: the next insert takes a fresh slot.
        let c = slab.insert("c");
        assert!(c.slot() != a.slot());
        assert_eq!(slab.release_slot(a.slot()), None);
        assert_eq!(slab.release_slot(b.slot()), Some("b"));
        assert_eq!(slab.len(), 1);
        // Released slots recycle with a new generation and the new bit.
        assert!(!slab.tagged_at(c.slot()));
        let d = slab.insert_tagged("d");
        assert!(slab.tagged_at(d.slot()));
        assert_eq!(d.slot(), b.slot());
        assert_eq!(slab.get(b), None);
        assert_eq!(slab.live_at(d.slot()), Some(&"d"));
    }

    #[test]
    fn a_cell_is_its_value_plus_one_word() {
        assert_eq!(std::mem::size_of::<Entry<[u64; 3]>>(), 32);
    }

    #[test]
    fn free_list_recycles_most_recently_freed_first() {
        let mut slab = GenSlab::new();
        let keys: Vec<_> = (0..4).map(|i| slab.insert(i)).collect();
        slab.remove(keys[1]);
        slab.remove(keys[3]);
        let reused = slab.insert(99);
        assert_eq!(reused.raw() as u32, keys[3].raw() as u32);
        let reused2 = slab.insert(98);
        assert_eq!(reused2.raw() as u32, keys[1].raw() as u32);
    }
}
