//! # jade-rubis — the RUBiS auction-site workload
//!
//! Reimplementation of the paper's testbed application and client emulator
//! (§5.2): RUBiS, "a J2EE application benchmark based on servlets, which
//! implements an auction site modeled over eBay".
//!
//! * [`schema`] — the auction-site schema and deterministic dataset
//!   generator,
//! * [`interactions`] — the 26 web interactions with the default bidding
//!   mix and calibrated CPU demands,
//! * [`client`] — emulated clients with exponential think times,
//! * [`workload`] — the 80 → 500 → 80 client ramp (+21/minute),
//! * [`stats`] — windowed throughput/latency statistics (Figures 8–9,
//!   Table 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod interactions;
pub mod pool;
pub mod schema;
pub mod stats;
pub mod transitions;
pub mod workload;

pub use client::{EmulatedClient, DEFAULT_THINK_TIME};
pub use interactions::{
    compiled_plans, generate_plan_compiled_into, InteractionKind, InteractionMix, InteractionType,
    INTERACTIONS,
};
pub use pool::{ClientPool, FRESH_BUCKET};
pub use schema::{
    dataset_statements, load_dataset, rubis_ids, rubis_schema, schema_statements, DatasetSpec,
    KeySpace, RubisIds,
};
pub use stats::{InteractionStats, StatsCollector, WindowStats};
pub use transitions::{StateId, TransitionMatrix};
pub use workload::WorkloadRamp;
