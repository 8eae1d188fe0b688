//! # jade-fractal — a Fractal-style reflective component model
//!
//! Rust reimplementation of the component model Jade builds on (paper
//! §3.1, Bruneton et al.'s Fractal): components are run-time entities with
//! distinct identities, primitive components encapsulate a program (here: a
//! [`wrapper::Wrapper`] that reflects control operations onto a legacy
//! environment), composite components assemble sub-components, and
//! communication paths are explicit *bindings* between client and server
//! interfaces.
//!
//! The model's controllers give the management layer its uniform
//! interface:
//!
//! * attribute controller — configurable properties,
//! * binding controller — (un)bind client interfaces,
//! * content controller — list/add/remove sub-components,
//! * life-cycle controller — start/stop/state.
//!
//! All of it is mediated by [`registry::Registry`], which validates every
//! operation against the architecture before delegating to the wrapper,
//! and journals it for auditing (and for the paper's §5.1 qualitative
//! comparison of reconfiguration effort).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod component;
pub mod error;
pub mod interface;
pub mod registry;
pub mod wrapper;

pub use attr::AttrValue;
pub use component::{ComponentId, ComponentInfo, Endpoint, LifecycleState};
pub use error::{FractalError, Result};
pub use interface::{Cardinality, Contingency, InterfaceDecl, Role};
pub use registry::{JournalOp, Registry};
pub use wrapper::{ArchView, NullWrapper, Wrapper};
