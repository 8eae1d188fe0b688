//! Component records and life-cycle states (paper §3.1).

use crate::attr::AttrValue;
use crate::interface::InterfaceDecl;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Opaque component identity ("a run-time entity … that has a distinct
/// identity").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub u32);

/// Life-cycle controller states.
///
/// The paper's life-cycle controller exposes start/stop and a running /
/// stopped state; we add `Failed` so the self-recovery manager (paper §3.4,
/// reference \[4\]) can observe and repair broken components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifecycleState {
    /// Not running; attributes and bindings may be changed freely.
    Stopped,
    /// Running.
    Started,
    /// Crashed or declared failed by a failure detector.
    Failed,
}

/// Primitive components encapsulate a wrapper (or none); composites
/// contain sub-components (content controller).
#[derive(Clone)]
pub(crate) enum Kind<W> {
    Primitive(Option<W>),
    Composite(Vec<ComponentId>),
}

/// One endpoint of a binding: `(component, interface-name)`.
///
/// The interface name is an interned `Arc<str>` (see
/// `Registry::intern`), so cloning an endpoint — which the binding
/// controller and journal do on every bind/unbind — is two pointer-sized
/// copies, not a string allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// Component holding the interface.
    pub component: ComponentId,
    /// Interface name on that component.
    pub interface: Arc<str>,
}

/// Internal component record; accessed through the registry's controllers.
/// Names and map keys are interned `Arc<str>`s shared with the journal.
#[derive(Clone)]
pub(crate) struct Component<W> {
    pub(crate) name: Arc<str>,
    pub(crate) parent: Option<ComponentId>,
    pub(crate) kind: Kind<W>,
    pub(crate) interfaces: Vec<InterfaceDecl>,
    /// client interface name -> bound server endpoints (len <= 1 unless the
    /// interface has collection cardinality).
    pub(crate) bindings: BTreeMap<Arc<str>, Vec<Endpoint>>,
    pub(crate) attrs: BTreeMap<Arc<str>, AttrValue>,
    pub(crate) state: LifecycleState,
}

impl<W> Component<W> {
    pub(crate) fn interface(&self, name: &str) -> Option<&InterfaceDecl> {
        self.interfaces.iter().find(|i| i.name == name)
    }
}

/// Public, introspectable snapshot of one component (introspection
/// interface, paper §3.2: "an administration program can inspect an Apache
/// web server component … to discover that this server runs on node1:port
/// 80 and is bound to a Tomcat server running on node2:port 66").
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentInfo {
    /// Component identity.
    pub id: ComponentId,
    /// Name unique among siblings.
    pub name: String,
    /// Enclosing composite, if any.
    pub parent: Option<ComponentId>,
    /// True for composites.
    pub composite: bool,
    /// Sub-components (composites only).
    pub children: Vec<ComponentId>,
    /// Declared interfaces.
    pub interfaces: Vec<InterfaceDecl>,
    /// Current bindings: client interface -> endpoints.
    pub bindings: Vec<(String, Vec<Endpoint>)>,
    /// Current attributes.
    pub attributes: Vec<(String, AttrValue)>,
    /// Life-cycle state.
    pub state: LifecycleState,
}
