//! Processor-sharing CPU model in **virtual time** (attained service).
//!
//! Each simulated node has one CPU that serves all resident jobs in
//! processor-sharing fashion: with `n` active jobs each job progresses at
//! `speed * efficiency(n) / n` demand-seconds per second. The *efficiency*
//! hook models thrashing: the paper's unmanaged database "saturates … this
//! results in a thrashing of the database" (§5.2, Fig. 6); a sub-unit
//! efficiency at high multiprogramming levels collapses throughput and
//! produces exactly the runaway latencies of Figure 8.
//!
//! # The virtual-time formulation
//!
//! The original model stored each job's *remaining* demand and, on every
//! `submit`/`abort`/`next_completion`/`collect_completions`, subtracted the
//! interval's progress from **every** resident job — an O(n) scan that made
//! the saturated-tier scenarios (hundreds of jobs piled on one unmanaged
//! MySQL) quadratic overall.
//!
//! Observe that under processor sharing every resident job attains service
//! at the *same* rate. Define the **virtual clock**
//!
//! ```text
//! V(t) = ∫₀ᵗ speed · efficiency(n(τ)) / n(τ) dτ      (0 when n = 0)
//! ```
//!
//! i.e. the cumulative per-job attained service. `n(τ)` only changes at
//! submit/abort/completion instants — all of which are driver calls — so
//! `V` is piecewise linear and advancing it is O(1) per interval:
//! `V += elapsed · speed · efficiency(n) / n`.
//!
//! A job submitted with demand `d` when the virtual clock reads `Vₛ`
//! completes exactly when `V` reaches its **completion key** `Vₛ + d`; its
//! remaining demand at any later instant is recovered on demand as
//! `d − (V − Vₛ)` — no per-job state is ever updated. Jobs therefore
//! complete in key order and the whole model reduces to a min-heap of
//! `(key, seq)` pairs:
//!
//! * `submit` — advance `V`, push `(V + d, seq)` — O(log n);
//! * `next_completion` — advance `V`, peek the minimum key `k`, report
//!   `now + (k − V) / rate` — O(1) amortised;
//! * `collect_completions` — advance `V`, pop every entry with
//!   `key ≤ V + ε` — O(log n) per completion;
//! * `abort` — O(1) lazy cancellation of the job's slab slot (the heap
//!   entry is swept when it surfaces, exactly like the event queue's
//!   timers).
//!
//! The heap reuses the packed-entry design of [`crate::queue::EventQueue`]:
//! 16-byte `Copy` entries `(key_bits, seq·slot)` compared as one `u128`
//! (non-negative IEEE-754 doubles order identically to their bit patterns,
//! and keys are always > 0), payloads parked in a slab with an intrusive
//! free list, and compaction when cancelled entries dominate.
//!
//! Because the efficiency curve only changes the virtual-clock *rate* at
//! job-count boundaries — which are all driver-call times — the trajectory
//! is the same piecewise-linear one the naive per-job-scan model produced
//! (associativity of float accumulation aside), including the `Thrashing`
//! knee. The bench crate keeps the original implementation as
//! `NaivePsCpu`; `tests/cpu_prop.rs` checks the two agree on completion
//! sets, order and times within 1e-6 s under random interleavings.
//!
//! The owner (a server actor) drives the model: it calls [`PsCpu::submit`]
//! on arrival, asks for [`PsCpu::next_completion`], arms one timer with the
//! engine, and on the timer calls [`PsCpu::collect_completions`]. The timer
//! moves on every arrival and departure, so the owner keeps it in the event
//! queue's keyed lane ([`crate::Ctx::arm_timer`]), which re-arms in place.

// jade-audit: allow-file(hot-panic): hand-audited slab/heap core — every
// index is a heap position < heap.len() maintained by sift_down/min_child,
// or a job-slot id minted by the slab's free list; the expect() unpacks a
// heap head tested non-empty on the previous line.
use crate::det::DetHashMap;
use crate::metrics::UtilizationTracker;
use crate::time::{SimDuration, SimTime};

/// Identifier the owner attaches to a job (e.g. a request id).
///
/// Ids must be unique among *resident* jobs of one CPU (the system model's
/// global job counter guarantees this); an id may be reused after the job
/// completed or was aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Degradation law: maps the number of resident jobs to an efficiency in
/// `(0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EfficiencyCurve {
    /// Ideal processor sharing: no degradation.
    Ideal,
    /// Thrashing: full speed up to `knee` jobs, then efficiency decays as
    /// `1 / (1 + slope * (n - knee))`. Models memory pressure / context
    /// switch storms on an overloaded server.
    Thrashing {
        /// Multiprogramming level up to which the CPU runs at full speed.
        knee: usize,
        /// Decay rate of efficiency beyond the knee.
        slope: f64,
    },
}

impl EfficiencyCurve {
    /// Efficiency for `n` resident jobs.
    pub fn efficiency(&self, n: usize) -> f64 {
        match *self {
            EfficiencyCurve::Ideal => 1.0,
            EfficiencyCurve::Thrashing { knee, slope } => {
                if n <= knee {
                    1.0
                } else {
                    1.0 / (1.0 + slope * (n - knee) as f64)
                }
            }
        }
    }
}

/// Remaining demand below this is considered complete (guards float error).
const EPSILON_SECS: f64 = 1e-9;

/// Heap entry: completion key plus the slab slot holding the job, packed
/// into 16 bytes so four entries share a cache line (same layout as the
/// event queue's entries).
///
/// `packed` holds `(seq << 32) | slot`; sequence numbers are unique among
/// resident jobs (renumbered before they can exceed 32 bits), so comparing
/// the composite `u128` orders equal keys by submission exactly as a
/// separate tie-break field would.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    /// `f64::to_bits` of the completion key. Keys are always positive and
    /// finite, and non-negative doubles order identically to their bit
    /// patterns, so integer comparison is exact.
    key_bits: u64,
    packed: u64,
}

impl HeapEntry {
    #[inline]
    fn new(key: f64, seq: u64, slot: u32) -> Self {
        debug_assert!(key > 0.0 && key.is_finite());
        HeapEntry {
            key_bits: key.to_bits(),
            packed: (seq << 32) | slot as u64,
        }
    }
    /// Total order as a single scalar: `(key, seq, slot)` lexicographic.
    #[inline]
    fn sort_key(&self) -> u128 {
        ((self.key_bits as u128) << 64) | self.packed as u128
    }
    /// Completion key (virtual-clock reading at completion).
    #[inline]
    fn key(&self) -> f64 {
        f64::from_bits(self.key_bits)
    }
    #[inline]
    fn slot(&self) -> u32 {
        self.packed as u32
    }
    #[inline]
    fn seq(&self) -> u64 {
        self.packed >> 32
    }
}

/// One slab cell.
#[derive(Debug, Clone)]
enum Slot {
    /// Free cell; holds the next free slot index (`NO_FREE` terminates),
    /// forming an intrusive free list with no side allocation.
    Vacant(u32),
    /// Resident job. `vsubmit` is the virtual-clock reading at submission
    /// and `demand` the total demand in seconds: remaining demand is
    /// `demand - (vclock - vsubmit)`. Keeping both (instead of only the
    /// rounded sum in the heap key) makes the remaining-demand arithmetic
    /// associate the same way the naive per-job-subtraction model's does,
    /// so completion timers land on the same microsecond.
    Occupied {
        /// Job identifier the owner attached.
        id: JobId,
        /// Virtual clock at submission.
        vsubmit: f64,
        /// Total demand, seconds.
        demand: f64,
    },
    /// Aborted but not yet swept out of the heap.
    Aborted,
}

/// Free-list terminator.
const NO_FREE: u32 = u32::MAX;

/// Compact when at least this many entries are in the heap and more than
/// half of them are aborted.
const COMPACT_MIN: usize = 64;

/// A processor-sharing CPU with utilization accounting.
///
/// All mutating operations are O(log n) in the number of resident jobs;
/// see the module docs for the virtual-time formulation.
#[derive(Debug, Clone)]
pub struct PsCpu {
    speed: f64,
    curve: EfficiencyCurve,
    /// Virtual clock: cumulative per-job attained service, in
    /// demand-seconds.
    vclock: f64,
    /// Upper bound on the completion keys in the heap (monotone per
    /// population epoch; reset when the heap empties out via `abort_all`).
    /// Once the clock passes it the whole heap is mature and can be
    /// drained in one sorted pass instead of n root-pops.
    vmax: f64,
    last_update: SimTime,
    /// Min-heap of completion keys over the slab.
    heap: Vec<HeapEntry>,
    slots: Vec<Slot>,
    free_head: u32,
    next_seq: u64,
    /// Resident (non-aborted, incomplete) jobs.
    live: usize,
    /// Aborted entries still in the heap.
    aborted: usize,
    /// Resident jobs whose demand was clamped up to `EPSILON_SECS` (i.e.
    /// zero-demand submissions). These are mature the moment they are
    /// submitted, so while any is resident the completion sweep must run
    /// even when no simulated time has passed; when none is, an
    /// `elapsed == 0` advance can return immediately — the previous sweep
    /// at the same virtual-clock reading already drained everything.
    zero_demand: usize,
    /// Job id -> slab slot, for O(1) abort. Built lazily: the map only
    /// exists (and is maintained) once an id lookup has actually been
    /// needed, so the pure submit/complete path — the saturated-tier hot
    /// loop — never hashes at all. Uses the workspace-wide deterministic
    /// fx hasher ([`crate::det`]); the map is never iterated, so hash
    /// order can't leak into simulation results.
    index: DetHashMap<JobId, u32>,
    /// Whether `index` is currently materialized and being maintained.
    index_live: bool,
    util: UtilizationTracker,
    completed: Vec<JobId>,
}

impl PsCpu {
    /// Creates a CPU with `speed` demand-seconds/second capacity (1.0 = one
    /// reference core) and the given degradation curve.
    pub fn new(speed: f64, curve: EfficiencyCurve) -> Self {
        assert!(speed > 0.0);
        PsCpu {
            speed,
            curve,
            vclock: 0.0,
            vmax: 0.0,
            last_update: SimTime::ZERO,
            // One CPU exists per simulated node; pre-sizing the slab past
            // the common multiprogramming levels keeps the submit burst of
            // a saturating tier out of the allocator.
            heap: Vec::with_capacity(128),
            slots: Vec::with_capacity(128),
            free_head: NO_FREE,
            next_seq: 0,
            live: 0,
            aborted: 0,
            zero_demand: 0,
            index: DetHashMap::default(),
            index_live: false,
            util: UtilizationTracker::new(),
            completed: Vec::with_capacity(32),
        }
    }

    /// Number of resident (incomplete) jobs.
    pub fn load(&self) -> usize {
        self.live
    }

    /// Per-job progress rate right now, in demand-seconds per second.
    fn rate(&self) -> f64 {
        if self.live == 0 {
            0.0
        } else {
            self.speed * self.curve.efficiency(self.live) / self.live as f64
        }
    }

    /// Advances the virtual clock to `now` and sweeps completed jobs into
    /// the completion buffer.
    ///
    /// The clock advances at the rate implied by the population *over the
    /// whole interval* and completions are detected at its end — the same
    /// event-boundary semantics as the per-job-scan model it replaced. The
    /// owner's completion timer guarantees an advance at (within 1 µs
    /// after) every completion, so rate changes are never late by more
    /// than the timer rounding.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update);
        if now == self.last_update && self.zero_demand == 0 {
            // The virtual clock cannot have moved and nothing matures at a
            // standstill: the sweep below already ran at this instant.
            if self.live == 0 {
                self.util.set_idle(now);
            }
            return;
        }
        let elapsed = (now - self.last_update).as_secs_f64();
        if elapsed > 0.0 && self.live > 0 {
            self.vclock += elapsed * self.rate();
        }
        self.last_update = now;
        if self.vclock + EPSILON_SECS >= self.vmax && !self.heap.is_empty() {
            self.drain_all();
        } else {
            self.sweep_pops();
        }
        if self.live == 0 {
            self.util.set_idle(now);
        }
    }

    /// Pops every job whose remaining demand the clock has exhausted,
    /// along with any aborted entries that surface on the way. The heap
    /// key (the rounded `vsubmit + demand`) only *orders* the sweep; the
    /// completion test recomputes remaining demand from the slot so it
    /// rounds identically to the naive model's per-job subtraction.
    fn sweep_pops(&mut self) {
        while let Some(&head) = self.heap.first() {
            match self.slots[head.slot() as usize] {
                Slot::Aborted => {
                    self.remove_root();
                    self.free_slot(head.slot());
                    self.aborted -= 1;
                }
                Slot::Occupied {
                    id,
                    vsubmit,
                    demand,
                } => {
                    if demand - (self.vclock - vsubmit) > EPSILON_SECS {
                        break;
                    }
                    self.remove_root();
                    self.free_slot(head.slot());
                    if self.index_live {
                        self.index.remove(&id);
                    }
                    if demand <= EPSILON_SECS {
                        self.zero_demand -= 1;
                    }
                    self.live -= 1;
                    self.completed.push(id);
                }
                Slot::Vacant(_) => unreachable!("heap entry points at vacant slot"),
            }
        }
    }

    /// Drains the whole heap in one sorted pass — the virtual clock has
    /// passed every completion key, so every resident job is done and the
    /// O(n log n) sort beats n root-pops by a large constant factor (the
    /// saturated-tier burst pattern). `vmax` is the rounded-key bound;
    /// the slot-derived remaining demand is re-checked first and any
    /// near-boundary stragglers are handed back to the exact sweep.
    fn drain_all(&mut self) {
        for e in &self.heap {
            if let Slot::Occupied {
                vsubmit, demand, ..
            } = self.slots[e.slot() as usize]
            {
                if demand - (self.vclock - vsubmit) > EPSILON_SECS {
                    self.sweep_pops();
                    return;
                }
            }
        }
        let mut entries = std::mem::take(&mut self.heap);
        entries.sort_unstable_by_key(HeapEntry::sort_key);
        self.completed.reserve(self.live);
        for e in entries.drain(..) {
            match self.slots[e.slot() as usize] {
                Slot::Aborted => self.aborted -= 1,
                Slot::Occupied { id, demand, .. } => {
                    if self.index_live {
                        self.index.remove(&id);
                    }
                    if demand <= EPSILON_SECS {
                        self.zero_demand -= 1;
                    }
                    self.live -= 1;
                    self.completed.push(id);
                }
                Slot::Vacant(_) => unreachable!("heap entry points at vacant slot"),
            }
            self.free_slot(e.slot());
        }
        // Hand the (empty) allocation back to the heap for reuse.
        self.heap = entries;
    }

    /// Submits a job with the given total demand.
    #[inline]
    pub fn submit(&mut self, now: SimTime, id: JobId, demand: SimDuration) {
        self.advance(now);
        if self.next_seq > u32::MAX as u64 {
            self.renumber();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let d = demand.as_secs_f64().max(EPSILON_SECS);
        if d <= EPSILON_SECS {
            self.zero_demand += 1;
        }
        let key = self.vclock + d;
        if key > self.vmax {
            self.vmax = key;
        }
        let slot = self.alloc_slot(id, d);
        if self.index_live {
            let prev = self.index.insert(id, slot);
            debug_assert!(prev.is_none(), "job id {id:?} already resident");
        }
        self.live += 1;
        if self.live == 1 {
            self.util.set_busy(now);
        }
        self.heap.push(HeapEntry::new(key, seq, slot));
        self.sift_up(self.heap.len() - 1);
    }

    /// Forcibly removes a job (e.g. its server was stopped). Returns true
    /// if the job was resident. O(1): the heap entry is cancelled lazily.
    pub fn abort(&mut self, now: SimTime, id: JobId) -> bool {
        self.advance(now);
        self.ensure_index();
        let Some(slot) = self.index.remove(&id) else {
            return false;
        };
        if let Slot::Occupied { demand, .. } = self.slots[slot as usize] {
            if demand <= EPSILON_SECS {
                self.zero_demand -= 1;
            }
        }
        self.slots[slot as usize] = Slot::Aborted;
        self.aborted += 1;
        self.live -= 1;
        if self.live == 0 {
            self.util.set_idle(now);
        }
        if self.aborted * 2 > self.heap.len() && self.heap.len() >= COMPACT_MIN {
            self.compact();
        }
        true
    }

    /// Removes all jobs, returning their ids in submission order (server
    /// crash/stop).
    pub fn abort_all(&mut self, now: SimTime) -> Vec<JobId> {
        self.advance(now);
        let mut residents: Vec<(u64, JobId)> = self
            .heap
            .iter()
            .filter_map(|e| match self.slots[e.slot() as usize] {
                Slot::Occupied { id, .. } => Some((e.seq(), id)),
                _ => None,
            })
            .collect();
        residents.sort_unstable_by_key(|&(seq, _)| seq);
        self.heap.clear();
        self.slots.clear();
        self.free_head = NO_FREE;
        self.index.clear();
        self.index_live = false;
        self.live = 0;
        self.aborted = 0;
        self.zero_demand = 0;
        self.vmax = self.vclock;
        self.util.set_idle(now);
        residents.into_iter().map(|(_, id)| id).collect()
    }

    /// Time of the next job completion given the current population, or
    /// `None` when idle. The owner should arm a timer at this instant.
    #[inline]
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.advance(now);
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        // Sweep aborted entries off the top so the peek is live.
        let head = loop {
            let &head = self.heap.first()?;
            if matches!(self.slots[head.slot() as usize], Slot::Aborted) {
                self.remove_root();
                self.free_slot(head.slot());
                self.aborted -= 1;
                continue;
            }
            break head;
        };
        let min_remaining = match self.slots[head.slot() as usize] {
            Slot::Occupied {
                vsubmit, demand, ..
            } => demand - (self.vclock - vsubmit),
            _ => unreachable!("head entry is live after the aborted sweep"),
        };
        // Round *up* to the next microsecond so the timer never fires
        // before the job is actually done.
        let micros = (min_remaining / rate * 1e6).ceil() as u64;
        Some(now + SimDuration::from_micros(micros.max(1)))
    }

    /// Advances to `now` and drains the jobs that have completed, in
    /// completion order (ties in completion time by submission order).
    #[inline]
    pub fn collect_completions(&mut self, now: SimTime) -> Vec<JobId> {
        self.advance(now);
        std::mem::take(&mut self.completed)
    }

    /// Like [`PsCpu::collect_completions`], but appends into a
    /// caller-provided buffer so a hot completion path can recycle one
    /// allocation across timer fires.
    pub fn collect_completions_into(&mut self, now: SimTime, out: &mut Vec<JobId>) {
        self.advance(now);
        out.append(&mut self.completed);
    }

    /// Remaining demand of a resident job, recovered from the virtual
    /// clock (`None` when the job is not resident).
    pub fn remaining_demand(&mut self, now: SimTime, id: JobId) -> Option<SimDuration> {
        self.advance(now);
        self.ensure_index();
        let slot = *self.index.get(&id)?;
        match self.slots[slot as usize] {
            Slot::Occupied {
                vsubmit, demand, ..
            } => Some(SimDuration::from_secs_f64(
                (demand - (self.vclock - vsubmit)).max(0.0),
            )),
            _ => unreachable!("indexed job has an occupied slot"),
        }
    }

    /// CPU utilization since the previous call (see
    /// [`UtilizationTracker::sample`]).
    pub fn sample_utilization(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        self.util.sample(now)
    }

    /// Total busy time up to `now`.
    pub fn busy_time(&mut self, now: SimTime) -> SimDuration {
        self.advance(now);
        self.util.busy_time(now)
    }

    /// True when the CPU holds nothing — no resident, aborted-but-unswept
    /// or undelivered job — and has logged no busy time since the last
    /// sample, so [`PsCpu::sample_utilization`] is a no-op that reads
    /// exactly `0.0`. A quiet CPU stays quiet until the next `submit`.
    pub fn is_quiet(&self) -> bool {
        self.heap.is_empty() && self.completed.is_empty() && self.util.is_quiet()
    }

    /// Brings a quiet CPU to the state sampling it at every instant up to
    /// `now` would have left: the utilization window restarts at `now`.
    pub fn rebase_idle_window(&mut self, now: SimTime) {
        debug_assert!(self.is_quiet() && now >= self.last_update);
        self.last_update = now;
        self.util.rebase_idle_window(now);
    }

    // ------------------------------------------------------------------
    // Slab + heap plumbing (packed entries, intrusive free list, lazy
    // cancellation — the event queue's design, keyed by f64 bits).
    // ------------------------------------------------------------------

    /// Materializes the id → slot map from the slab, once, on the first
    /// operation that needs a lookup. From then on `submit`/completion
    /// sweeps keep it current. Amortized O(1) per resident job.
    fn ensure_index(&mut self) {
        if self.index_live {
            return;
        }
        self.index.clear();
        self.index.reserve(self.live);
        for (i, s) in self.slots.iter().enumerate() {
            if let Slot::Occupied { id, .. } = *s {
                self.index.insert(id, i as u32);
            }
        }
        self.index_live = true;
    }

    fn alloc_slot(&mut self, id: JobId, demand: f64) -> u32 {
        let occupied = Slot::Occupied {
            id,
            vsubmit: self.vclock,
            demand,
        };
        if self.free_head != NO_FREE {
            let slot = self.free_head;
            match self.slots[slot as usize] {
                Slot::Vacant(next) => self.free_head = next,
                _ => unreachable!("free list points at a live slot"),
            }
            self.slots[slot as usize] = occupied;
            slot
        } else {
            self.slots.push(occupied);
            (self.slots.len() - 1) as u32
        }
    }

    fn free_slot(&mut self, slot: u32) {
        self.slots[slot as usize] = Slot::Vacant(self.free_head);
        self.free_head = slot;
    }

    /// Reassigns pending sequence numbers to `0..n` in key order so `seq`
    /// keeps fitting in 32 bits. The remap is monotone in the old
    /// composite key, so relative order — and hence determinism — is
    /// untouched and the heap property is preserved in place.
    fn renumber(&mut self) {
        let mut order: Vec<u32> = (0..self.heap.len() as u32).collect();
        order.sort_unstable_by_key(|&i| self.heap[i as usize].sort_key());
        for (new_seq, &i) in order.iter().enumerate() {
            let e = &mut self.heap[i as usize];
            *e = HeapEntry::new(e.key(), new_seq as u64, e.slot());
        }
        self.next_seq = self.heap.len() as u64;
    }

    /// Drops aborted entries and restores the heap property in O(n).
    fn compact(&mut self) {
        let mut heap = std::mem::take(&mut self.heap);
        let mut kept = Vec::with_capacity(heap.len() - self.aborted);
        for entry in heap.drain(..) {
            match self.slots[entry.slot() as usize] {
                Slot::Aborted => self.free_slot(entry.slot()),
                Slot::Occupied { .. } => kept.push(entry),
                Slot::Vacant(_) => unreachable!("heap entry points at vacant slot"),
            }
        }
        self.heap = kept;
        self.aborted = 0;
        if self.heap.len() > 1 {
            let last_parent = (self.heap.len() - 2) / 2;
            for i in (0..=last_parent).rev() {
                self.sift_down(i);
            }
        }
    }

    /// Index of the smaller child of `hole`, or `None` for a leaf.
    #[inline]
    fn min_child(&self, hole: usize, n: usize) -> Option<usize> {
        let first = 2 * hole + 1;
        if first >= n {
            return None;
        }
        let mut best = first;
        if first + 1 < n && self.heap[first + 1].sort_key() < self.heap[first].sort_key() {
            best = first + 1;
        }
        Some(best)
    }

    /// Removes the root entry, restoring the heap property: the tail moves
    /// to the root and sifts down with early stop. (A hole-based removal
    /// that always descends to a leaf is slower for this heap: completion
    /// batches pop runs of near-equal keys, where the early stop exits on
    /// the first comparison.)
    fn remove_root(&mut self) {
        let tail = self.heap.pop().expect("remove_root on empty heap");
        if self.heap.is_empty() {
            return;
        }
        self.heap[0] = tail;
        self.sift_down(0);
    }

    fn sift_up(&mut self, mut hole: usize) {
        let entry = self.heap[hole];
        let key = entry.sort_key();
        while hole > 0 {
            let parent = (hole - 1) / 2;
            if key < self.heap[parent].sort_key() {
                self.heap[hole] = self.heap[parent];
                hole = parent;
            } else {
                break;
            }
        }
        self.heap[hole] = entry;
    }

    fn sift_down(&mut self, mut hole: usize) {
        let entry = self.heap[hole];
        let key = entry.sort_key();
        let n = self.heap.len();
        while let Some(child) = self.min_child(hole, n) {
            if self.heap[child].sort_key() < key {
                self.heap[hole] = self.heap[child];
                hole = child;
            } else {
                break;
            }
        }
        self.heap[hole] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }
    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn single_job_runs_at_full_speed() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), d(100));
        let done_at = cpu.next_completion(t(0)).unwrap();
        assert_eq!(done_at, t(100));
        let done = cpu.collect_completions(done_at);
        assert_eq!(done, vec![JobId(1)]);
        assert_eq!(cpu.load(), 0);
    }

    #[test]
    fn two_jobs_share_the_processor() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), d(100));
        cpu.submit(t(0), JobId(2), d(100));
        // Each runs at half speed: both finish at 200ms.
        let done_at = cpu.next_completion(t(0)).unwrap();
        assert_eq!(done_at, t(200));
        let done = cpu.collect_completions(done_at);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn late_arrival_slows_the_first_job() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), d(100));
        // At t=50 half the demand is done; a second job arrives.
        cpu.submit(t(50), JobId(2), d(100));
        // Job 1 has 50ms left at half speed -> completes at t=150.
        let next = cpu.next_completion(t(50)).unwrap();
        assert_eq!(next, t(150));
        assert_eq!(cpu.collect_completions(t(150)), vec![JobId(1)]);
        // Job 2 then has 50ms left at full speed -> completes at t=200.
        let next = cpu.next_completion(t(150)).unwrap();
        assert_eq!(next, t(200));
        assert_eq!(cpu.collect_completions(t(200)), vec![JobId(2)]);
    }

    #[test]
    fn faster_cpu_finishes_sooner() {
        let mut cpu = PsCpu::new(2.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), d(100));
        assert_eq!(cpu.next_completion(t(0)).unwrap(), t(50));
    }

    #[test]
    fn thrashing_curve_degrades_throughput() {
        let curve = EfficiencyCurve::Thrashing {
            knee: 2,
            slope: 0.5,
        };
        assert_eq!(curve.efficiency(1), 1.0);
        assert_eq!(curve.efficiency(2), 1.0);
        assert!((curve.efficiency(4) - 0.5).abs() < 1e-12);
        let mut cpu = PsCpu::new(1.0, curve);
        for i in 0..4 {
            cpu.submit(t(0), JobId(i), d(100));
        }
        // 4 jobs, efficiency 0.5: per-job rate 0.125 -> 100ms demand takes 800ms.
        assert_eq!(cpu.next_completion(t(0)).unwrap(), t(800));
    }

    #[test]
    fn abort_removes_jobs_and_frees_capacity() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), d(100));
        cpu.submit(t(0), JobId(2), d(100));
        assert!(cpu.abort(t(0), JobId(2)));
        assert!(!cpu.abort(t(0), JobId(2)));
        assert_eq!(cpu.next_completion(t(0)).unwrap(), t(100));
    }

    #[test]
    fn abort_all_drains_everything() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), d(10));
        cpu.submit(t(0), JobId(2), d(20));
        let mut ids = cpu.abort_all(t(5));
        ids.sort();
        assert_eq!(ids, vec![JobId(1), JobId(2)]);
        assert!(cpu.next_completion(t(5)).is_none());
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), d(250));
        cpu.collect_completions(t(250));
        // Busy 250ms out of a 1000ms window.
        let u = cpu.sample_utilization(t(1000));
        assert!((u - 0.25).abs() < 1e-6, "utilization was {u}");
    }

    #[test]
    fn completion_timer_never_fires_early() {
        // Adversarial demands that don't divide evenly.
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), SimDuration::from_micros(3333));
        cpu.submit(t(0), JobId(2), SimDuration::from_micros(7777));
        let t1 = cpu.next_completion(SimTime::ZERO).unwrap();
        let done = cpu.collect_completions(t1);
        assert_eq!(done, vec![JobId(1)]);
        let t2 = cpu.next_completion(t1).unwrap();
        assert!(t2 > t1);
        assert_eq!(cpu.collect_completions(t2), vec![JobId(2)]);
    }

    #[test]
    fn completions_drain_in_key_then_submission_order() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(10), d(30));
        cpu.submit(t(0), JobId(11), d(10));
        cpu.submit(t(0), JobId(12), d(30));
        // Collect far past all completions in one call: shortest job
        // first, then equal keys in submission order.
        let done = cpu.collect_completions(t(1000));
        assert_eq!(done, vec![JobId(11), JobId(10), JobId(12)]);
    }

    #[test]
    fn collect_into_reuses_buffer() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        let mut buf = Vec::new();
        cpu.submit(t(0), JobId(1), d(10));
        cpu.collect_completions_into(t(10), &mut buf);
        assert_eq!(buf, vec![JobId(1)]);
        buf.clear();
        cpu.submit(t(10), JobId(2), d(10));
        cpu.collect_completions_into(t(20), &mut buf);
        assert_eq!(buf, vec![JobId(2)]);
    }

    #[test]
    fn remaining_demand_is_recovered_from_the_virtual_clock() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        cpu.submit(t(0), JobId(1), d(100));
        cpu.submit(t(0), JobId(2), d(40));
        // Two jobs share the CPU: after 40ms each attained 20ms.
        let rem = cpu.remaining_demand(t(40), JobId(1)).unwrap();
        assert!((rem.as_secs_f64() - 0.080).abs() < 1e-9, "rem {rem}");
        assert!(cpu.remaining_demand(t(40), JobId(99)).is_none());
    }

    #[test]
    fn heavy_abort_churn_compacts_and_stays_consistent() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        for i in 0..500u64 {
            cpu.submit(t(0), JobId(i), d(1000 + i));
        }
        // Abort 80% of them: forces at least one compaction.
        for i in 0..500u64 {
            if i % 5 != 0 {
                assert!(cpu.abort(t(1), JobId(i)));
            }
        }
        assert_eq!(cpu.load(), 100);
        assert!(cpu.heap.len() < 500, "compaction must have swept the heap");
        // The survivors all complete, in submission (= key) order.
        let mut now = t(1);
        let mut done = Vec::new();
        while let Some(next) = cpu.next_completion(now) {
            now = next;
            done.extend(cpu.collect_completions(now));
        }
        let expect: Vec<JobId> = (0..500).step_by(5).map(JobId).collect();
        assert_eq!(done, expect);
    }

    #[test]
    fn slots_are_recycled_without_growth() {
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        let mut now = SimTime::ZERO;
        for round in 0..100u64 {
            for i in 0..10u64 {
                cpu.submit(now, JobId(round * 10 + i), d(5));
            }
            while let Some(next) = cpu.next_completion(now) {
                now = next;
                cpu.collect_completions(now);
            }
        }
        assert!(cpu.slots.len() <= 10, "slab grew to {}", cpu.slots.len());
    }
}
