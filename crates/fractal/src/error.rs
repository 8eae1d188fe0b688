//! Error type for component-model operations.

use crate::component::{ComponentId, LifecycleState};
use std::fmt;

/// Errors raised by the management layer.
#[derive(Debug, Clone, PartialEq)]
pub enum FractalError {
    /// The component id does not exist (or was removed).
    NoSuchComponent(ComponentId),
    /// No component with this name exists under the given parent.
    NoSuchName(String),
    /// The named interface is not declared on the component.
    NoSuchInterface {
        /// Component carrying the declaration.
        component: ComponentId,
        /// Interface name looked up.
        interface: String,
    },
    /// Binding endpoints have incompatible roles or signatures.
    IncompatibleBinding {
        /// Why the binding was rejected.
        reason: String,
    },
    /// Interface already bound (single cardinality) or not bound on unbind.
    BindingState {
        /// Description of the conflict.
        reason: String,
    },
    /// Operation illegal in the component's current life-cycle state.
    InvalidLifecycle {
        /// Component involved.
        component: ComponentId,
        /// State the component was in.
        state: LifecycleState,
        /// Operation attempted.
        operation: &'static str,
    },
    /// A mandatory client interface is unbound at start time.
    UnboundMandatory {
        /// Component being started.
        component: ComponentId,
        /// The unbound interface.
        interface: String,
    },
    /// The attribute is not supported by the component.
    NoSuchAttribute {
        /// Component involved.
        component: ComponentId,
        /// Attribute looked up.
        attribute: String,
    },
    /// Attribute value has the wrong type or an illegal value.
    InvalidAttribute {
        /// Attribute involved.
        attribute: String,
        /// Why the value was rejected.
        reason: String,
    },
    /// Content-controller operation applied to a primitive component.
    NotComposite(ComponentId),
    /// Wrapper-specific failure surfaced through the uniform interface.
    Wrapper {
        /// Human-readable wrapper diagnostic.
        reason: String,
    },
}

impl fmt::Display for FractalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FractalError::NoSuchComponent(id) => write!(f, "no such component: {id:?}"),
            FractalError::NoSuchName(name) => write!(f, "no component named '{name}'"),
            FractalError::NoSuchInterface {
                component,
                interface,
            } => write!(f, "component {component:?} has no interface '{interface}'"),
            FractalError::IncompatibleBinding { reason } => {
                write!(f, "incompatible binding: {reason}")
            }
            FractalError::BindingState { reason } => write!(f, "binding state error: {reason}"),
            FractalError::InvalidLifecycle {
                component,
                state,
                operation,
            } => write!(
                f,
                "cannot {operation} component {component:?} in state {state:?}"
            ),
            FractalError::UnboundMandatory {
                component,
                interface,
            } => write!(
                f,
                "component {component:?}: mandatory interface '{interface}' is unbound"
            ),
            FractalError::NoSuchAttribute {
                component,
                attribute,
            } => write!(f, "component {component:?} has no attribute '{attribute}'"),
            FractalError::InvalidAttribute { attribute, reason } => {
                write!(f, "invalid value for attribute '{attribute}': {reason}")
            }
            FractalError::NotComposite(id) => {
                write!(f, "component {id:?} is primitive, not composite")
            }
            FractalError::Wrapper { reason } => write!(f, "wrapper error: {reason}"),
        }
    }
}

impl std::error::Error for FractalError {}

/// Convenience alias.
pub type Result<T, E = FractalError> = std::result::Result<T, E>;
