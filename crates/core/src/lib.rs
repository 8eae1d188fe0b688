//! # jade — middleware for autonomic management of clustered applications
//!
//! Rust reproduction of *"Autonomic Management of Clustered Applications"*
//! (Bouchenak, De Palma, Hagimont, Taton — IEEE CLUSTER 2006): **Jade**, a
//! middleware that wraps legacy software in components with a uniform
//! management interface and closes feedback control loops over them.
//!
//! The crate assembles the substrates into the paper's system:
//!
//! * [`adl`] — the XML architecture description language and its
//!   interpretation (paper §3.3),
//! * [`control`] — sensors and threshold reactors (paper §3.4, §4.1),
//! * [`system`] — the managed J2EE system as a deterministic
//!   discrete-event application: legacy layer + management layer +
//!   RUBiS clients + autonomic managers,
//! * [`config`] — experiment/manager configuration with the paper's
//!   calibrated defaults,
//! * [`experiment`] — run harness extracting the measurements of the
//!   paper's Figures 5–9 and Table 1.
//!
//! ## Quick start
//!
//! ```
//! use jade::config::SystemConfig;
//! use jade::experiment::run_experiment;
//! use jade::system::ManagedTier;
//! use jade_sim::SimDuration;
//! use jade_rubis::WorkloadRamp;
//!
//! let mut cfg = SystemConfig::paper_managed();
//! cfg.ramp = WorkloadRamp::constant(80);
//! let out = run_experiment(cfg, SimDuration::from_secs(120));
//! assert_eq!(out.app.running_replicas(ManagedTier::Application), 1);
//! assert!(out.app.stats.total_completed() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adl;
pub mod arbitration;
pub mod config;
pub mod control;
pub mod experiment;
pub mod planner;
pub mod system;

pub use adl::{AdlError, J2eeDescription, TierKind, TierSpec};
pub use config::{ClientMode, JadeConfig, SystemConfig, TierLoopConfig};
pub use control::{CpuAvgSensor, Decision, InhibitionWindow, Sensor, ThresholdReactor};
pub use experiment::{run_experiment, ExperimentOutput};
pub use system::{J2eeApp, Jade, ManagedTier, Msg};
