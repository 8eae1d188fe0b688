//! # jade-sim — deterministic discrete-event kernel
//!
//! The substrate that replaces the paper's physical cluster: a
//! single-threaded, deterministic discrete-event simulator with
//!
//! * a virtual clock with microsecond resolution ([`SimTime`],
//!   [`SimDuration`]),
//! * a pending-event set with FIFO tie-breaking ([`queue::EventQueue`]):
//!   a packed min-heap with lazy cancellation for one-shot events, and a
//!   keyed lane for timers that are re-armed in place, merged by one
//!   `(time, seq)` order,
//! * a generational slab arena for O(1) id-addressed state with stale-id
//!   detection ([`slab::GenSlab`]),
//! * an application-routing engine ([`Engine`], [`App`], [`Ctx`]),
//! * a processor-sharing CPU model with a thrashing law ([`cpu::PsCpu`]),
//! * under both the queue and the CPU model, one packed 16-byte-entry
//!   min-heap (the private `heap` module) whose entries name their
//!   payload's slot in a `GenSlab`: neither keeps a heap or a free list
//!   of its own,
//! * measurement infrastructure ([`metrics`]) including the time-windowed
//!   moving averages used by Jade's CPU sensors,
//! * seeded, forkable randomness ([`rng::SimRng`]).
//!
//! Determinism is a feature, not a limitation: it is what lets the
//! reproduction property-test *entire experiments* (e.g. "the managed
//! system never exceeds the node pool" for arbitrary workload ramps) and
//! run parameter sweeps with common random numbers. Parallelism lives at
//! the experiment-harness level (one engine per thread).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod det;
pub mod digest;
pub mod engine;
mod heap;
pub mod metrics;
pub mod pack;
pub mod queue;
pub mod rng;
pub mod slab;
pub mod time;
pub mod trace;

pub use cpu::{EfficiencyCurve, JobId, PsCpu};
pub use det::{DetHashMap, DetHashSet, DetState, FxHasher};
pub use digest::{digest_str, Digest};
pub use engine::{Addr, App, Ctx, Engine, RunOutcome};
pub use metrics::{
    CounterId, Histogram, HistogramId, MetricsHub, MovingAverage, SeriesCursor, SeriesId,
    TimeSeries, UtilizationTracker,
};
pub use pack::{id_u16, id_u32};
pub use queue::{EventQueue, EventToken};
pub use rng::SimRng;
pub use slab::{GenSlab, SlabKey};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TraceLevel, Tracer};
