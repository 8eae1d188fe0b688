//! Wrappers: the component-specific implementation behind the uniform
//! management interface (paper §3.2).
//!
//! "In the management layer, all components provide the same (uniform)
//! management interface for the encapsulated software, and the
//! corresponding implementation (the wrapper) is specific to each software."
//!
//! A wrapper receives an *environment* `E` — in the J2EE reproduction this
//! is the simulated legacy layer (nodes, server processes, configuration
//! files) — and reflects control operations onto it, exactly as Jade's
//! wrappers edited `httpd.conf` / `worker.properties` and invoked the
//! legacy start/stop scripts.

use crate::attr::AttrValue;
use crate::component::{ComponentId, Endpoint};
use crate::error::Result;
use std::sync::Arc;

/// Read-only view of the rest of the management layer handed to a wrapper
/// during a control operation (so e.g. Apache's `bind` can look up the
/// target Tomcat's `host`/`port` attributes to render `worker.properties`).
pub trait ArchView {
    /// Attribute of another component, if set.
    fn attr_of(&self, id: ComponentId, name: &str) -> Option<AttrValue>;
    /// Name of another component. Returns the interned name — a shared
    /// `Arc<str>`, not a fresh allocation.
    fn name_of(&self, id: ComponentId) -> Option<Arc<str>>;
    /// Current endpoints bound to `(id, client_itf)`.
    fn bound_to(&self, id: ComponentId, client_itf: &str) -> Vec<Endpoint>;
}

/// The behaviour a primitive component delegates to.
///
/// No method mutates the wrapper: what a control operation changes lives
/// in `E`. Every method defaults to a no-op success.
#[allow(unused_variables)]
pub trait Wrapper<E> {
    /// Reflects an attribute write onto the legacy layer. The registry has
    /// already stored the value; wrappers only need side effects.
    fn on_set_attr(
        &self,
        env: &mut E,
        view: &dyn ArchView,
        me: ComponentId,
        name: &str,
        value: &AttrValue,
    ) -> Result<()> {
        Ok(())
    }

    /// Validates an attribute name/value before it is stored. Returning an
    /// error rejects the write.
    fn validate_attr(&self, name: &str, value: &AttrValue) -> Result<()> {
        Ok(())
    }

    /// Reflects a new binding onto the legacy layer (e.g. add a worker
    /// entry to `worker.properties`).
    fn on_bind(
        &self,
        env: &mut E,
        view: &dyn ArchView,
        me: ComponentId,
        client_itf: &str,
        target: &Endpoint,
    ) -> Result<()> {
        Ok(())
    }

    /// Reflects a binding removal onto the legacy layer.
    fn on_unbind(
        &self,
        env: &mut E,
        view: &dyn ArchView,
        me: ComponentId,
        client_itf: &str,
        target: &Endpoint,
    ) -> Result<()> {
        Ok(())
    }

    /// Starts the legacy entity (e.g. run the `httpd` script).
    fn on_start(&self, env: &mut E, view: &dyn ArchView, me: ComponentId) -> Result<()> {
        Ok(())
    }

    /// Stops the legacy entity (e.g. run the shutdown script).
    fn on_stop(&self, env: &mut E, view: &dyn ArchView, me: ComponentId) -> Result<()> {
        Ok(())
    }
}

/// A wrapper with no legacy counterpart.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullWrapper;

impl<E> Wrapper<E> for NullWrapper {}

/// The boxed form the benchmark's management probe passes to
/// `new_primitive`; ROADMAP 1a retires it.
impl From<Box<NullWrapper>> for Option<NullWrapper> {
    fn from(w: Box<NullWrapper>) -> Self {
        Some(*w)
    }
}
