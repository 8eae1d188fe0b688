//! The control-loop framework (paper §3.4): autonomic managers are
//! feedback loops built from three kinds of components — sensors,
//! analysis/decision reactors, and actuators. Sensors and reactors are
//! pure logic and live here; actuators perform multi-step reconfiguration
//! workflows against the managed system and are implemented by the
//! simulation application ([`crate::system`]).

pub mod reactor;
pub mod sensor;

pub use reactor::{AdaptiveThresholds, Decision, InhibitionWindow, ThresholdReactor};
pub use sensor::{CpuAvgSensor, Sensor};
