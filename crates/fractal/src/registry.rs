//! The component registry: holds the management layer's architecture and
//! implements the four Fractal controllers through a uniform interface
//! (paper §3.1–§3.2):
//!
//! * **attribute controller** — [`Registry::set_attr`] / [`Registry::get_attr`],
//! * **binding controller** — [`Registry::bind`] / [`Registry::unbind`],
//! * **content controller** — [`Registry::add_child`] / [`Registry::remove_child`],
//! * **life-cycle controller** — [`Registry::start`] / [`Registry::stop`] /
//!   [`Registry::state`].
//!
//! Every control operation is validated against the architecture (roles,
//! signatures, cardinalities, life-cycle legality) *before* being delegated
//! to the component's wrapper, which reflects it onto the legacy layer.
//! All operations are journaled; the journal is what the qualitative
//! evaluation (paper §5.1) counts when comparing Jade reconfiguration
//! scripts against manual procedures.

use crate::attr::AttrValue;
use crate::component::{Component, ComponentId, ComponentInfo, Endpoint, Kind, LifecycleState};
use crate::error::{FractalError, Result};
use crate::interface::{Cardinality, Contingency, InterfaceDecl, Role};
use crate::wrapper::{ArchView, NullWrapper, Wrapper};
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::sync::Arc;

/// Checked narrowing of a component slot index into the `u32` id space.
/// `jade-fractal` sits below `jade-sim` in the dependency order, so it
/// carries its own helper instead of `jade_sim::pack::id_u32`; the
/// behaviour is identical (panic instead of silent wrap-around).
#[inline]
#[track_caller]
fn comp_idx(i: usize) -> u32 {
    u32::try_from(i).expect("component count exceeds the u32 id space")
}

/// One journaled management operation.
///
/// Names are interned `Arc<str>`s shared with the component records, so
/// journaling an operation never allocates a string.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// Component created.
    Create(ComponentId, Arc<str>),
    /// Child added to a composite.
    AddChild(ComponentId, ComponentId),
    /// Child removed from a composite.
    RemoveChild(ComponentId, ComponentId),
    /// Attribute written.
    SetAttr(ComponentId, Arc<str>, AttrValue),
    /// Binding established.
    Bind(ComponentId, Arc<str>, Endpoint),
    /// Binding removed.
    Unbind(ComponentId, Arc<str>, Endpoint),
    /// Component started.
    Start(ComponentId),
    /// Component stopped.
    Stop(ComponentId),
    /// Component marked failed.
    Fail(ComponentId),
    /// Failed component repaired back to Stopped.
    Repair(ComponentId),
    /// Component destroyed.
    Remove(ComponentId),
}

/// The management-layer architecture over the legacy environment `E`, with
/// one wrapper type `W` for its primitives. The default `W = NullWrapper`
/// keeps the benchmark's `Registry<()>` compiling until ROADMAP 1a.
#[derive(Clone)]
pub struct Registry<E, W = NullWrapper> {
    components: Vec<Option<Component<W>>>,
    journal: Vec<JournalOp>,
    /// Interned names (components, interfaces, attributes). Management
    /// vocabularies are tiny and highly repetitive ("port", "host",
    /// "workers", …), so the hot control operations reuse one allocation
    /// per distinct name for the lifetime of the registry.
    interner: BTreeSet<Arc<str>>,
    env: PhantomData<fn(&mut E)>,
}

impl<E, W: Wrapper<E>> Default for Registry<E, W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E, W: Wrapper<E>> ArchView for Registry<E, W> {
    fn attr_of(&self, id: ComponentId, name: &str) -> Option<AttrValue> {
        self.comp(id).ok()?.attrs.get(name).cloned()
    }
    fn name_of(&self, id: ComponentId) -> Option<Arc<str>> {
        Some(self.comp(id).ok()?.name.clone())
    }
    fn bound_to(&self, id: ComponentId, client_itf: &str) -> Vec<Endpoint> {
        self.comp(id)
            .ok()
            .and_then(|c| c.bindings.get(client_itf).cloned())
            .unwrap_or_default()
    }
}

impl<E, W: Wrapper<E>> Registry<E, W> {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry {
            components: Vec::new(),
            journal: Vec::new(),
            interner: BTreeSet::new(),
            env: PhantomData,
        }
    }

    /// Returns the shared `Arc<str>` for `s`, allocating only on first
    /// sight of a name.
    fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(existing) = self.interner.get(s) {
            return existing.clone();
        }
        let arc: Arc<str> = Arc::from(s);
        self.interner.insert(arc.clone());
        arc
    }

    fn comp(&self, id: ComponentId) -> Result<&Component<W>> {
        self.components
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(FractalError::NoSuchComponent(id))
    }

    fn comp_mut(&mut self, id: ComponentId) -> Result<&mut Component<W>> {
        self.components
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(FractalError::NoSuchComponent(id))
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    fn insert(&mut self, c: Component<W>) -> ComponentId {
        let id = ComponentId(comp_idx(self.components.len()));
        self.journal.push(JournalOp::Create(id, c.name.clone()));
        self.components.push(Some(c));
        id
    }

    /// Creates a primitive component around `wrapper` (`None`: no effect).
    #[cold]
    pub fn new_primitive(
        &mut self,
        name: &str,
        interfaces: Vec<InterfaceDecl>,
        wrapper: impl Into<Option<W>>,
    ) -> ComponentId {
        let name = self.intern(name);
        self.insert(Component {
            name,
            parent: None,
            kind: Kind::Primitive(wrapper.into()),
            interfaces,
            bindings: BTreeMap::new(),
            attrs: BTreeMap::new(),
            state: LifecycleState::Stopped,
        })
    }

    /// Creates a composite component.
    #[cold]
    pub fn new_composite(&mut self, name: &str, interfaces: Vec<InterfaceDecl>) -> ComponentId {
        let name = self.intern(name);
        self.insert(Component {
            name,
            parent: None,
            kind: Kind::Composite(Vec::new()),
            interfaces,
            bindings: BTreeMap::new(),
            attrs: BTreeMap::new(),
            state: LifecycleState::Stopped,
        })
    }

    /// Destroys a stopped, fully unbound component. Fails when other
    /// components still hold bindings toward it.
    #[cold]
    pub fn remove(&mut self, id: ComponentId) -> Result<()> {
        let c = self.comp(id)?;
        if c.state == LifecycleState::Started {
            return Err(FractalError::InvalidLifecycle {
                component: id,
                state: c.state,
                operation: "remove",
            });
        }
        if let Some(parent) = c.parent {
            return Err(FractalError::BindingState {
                reason: format!("component is still contained in composite {parent:?}"),
            });
        }
        let inbound = self.incoming_bindings(id);
        if !inbound.is_empty() {
            return Err(FractalError::BindingState {
                reason: format!(
                    "{} inbound binding(s) still target the component",
                    inbound.len()
                ),
            });
        }
        self.components[id.0 as usize] = None;
        self.journal.push(JournalOp::Remove(id));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Content controller
    // ------------------------------------------------------------------

    /// Adds `child` to composite `parent`.
    #[cold]
    pub fn add_child(&mut self, parent: ComponentId, child: ComponentId) -> Result<()> {
        // Validate both ends first.
        self.comp(child)?;
        let pc = self.comp(parent)?;
        match &pc.kind {
            Kind::Composite(kids) => {
                if kids.contains(&child) {
                    return Err(FractalError::BindingState {
                        reason: "child already contained".into(),
                    });
                }
            }
            Kind::Primitive(_) => return Err(FractalError::NotComposite(parent)),
        }
        if self.comp(child)?.parent.is_some() {
            return Err(FractalError::BindingState {
                reason: "child already has a parent".into(),
            });
        }
        if let Kind::Composite(kids) = &mut self.comp_mut(parent)?.kind {
            kids.push(child);
        }
        self.comp_mut(child)?.parent = Some(parent);
        self.journal.push(JournalOp::AddChild(parent, child));
        Ok(())
    }

    /// Removes `child` from composite `parent`.
    #[cold]
    pub fn remove_child(&mut self, parent: ComponentId, child: ComponentId) -> Result<()> {
        match &mut self.comp_mut(parent)?.kind {
            Kind::Composite(kids) => {
                let before = kids.len();
                kids.retain(|&k| k != child);
                if kids.len() == before {
                    return Err(FractalError::BindingState {
                        reason: "child not contained in composite".into(),
                    });
                }
            }
            Kind::Primitive(_) => return Err(FractalError::NotComposite(parent)),
        }
        self.comp_mut(child)?.parent = None;
        self.journal.push(JournalOp::RemoveChild(parent, child));
        Ok(())
    }

    /// Children of a composite (empty for primitives).
    pub fn children(&self, id: ComponentId) -> Vec<ComponentId> {
        match self.comp(id) {
            Ok(c) => match &c.kind {
                Kind::Composite(kids) => kids.clone(),
                Kind::Primitive(_) => Vec::new(),
            },
            Err(_) => Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Attribute controller
    // ------------------------------------------------------------------

    /// Writes an attribute, then reflects it through the wrapper.
    #[cold]
    pub fn set_attr(
        &mut self,
        env: &mut E,
        id: ComponentId,
        name: &str,
        value: impl Into<AttrValue>,
    ) -> Result<()> {
        let value = value.into();
        // Validation hook first (primitive components only).
        if let Kind::Primitive(Some(w)) = &self.comp(id)?.kind {
            w.validate_attr(name, &value)?;
        }
        let name_arc = self.intern(name);
        self.comp_mut(id)?
            .attrs
            .insert(name_arc.clone(), value.clone());
        self.journal
            .push(JournalOp::SetAttr(id, name_arc, value.clone()));
        self.reflect(env, id, |w, env, view| {
            w.on_set_attr(env, view, id, name, &value)
        })
    }

    /// Reads an attribute.
    pub fn get_attr(&self, id: ComponentId, name: &str) -> Result<AttrValue> {
        self.comp(id)?
            .attrs
            .get(name)
            .cloned()
            .ok_or_else(|| FractalError::NoSuchAttribute {
                component: id,
                attribute: name.to_owned(),
            })
    }

    // ------------------------------------------------------------------
    // Binding controller
    // ------------------------------------------------------------------

    /// Binds `(id, client_itf)` to `(target, server_itf)`.
    ///
    /// Validates: both interfaces exist, roles are client/server, the
    /// signatures match, and single-cardinality interfaces are not already
    /// bound.
    #[cold]
    pub fn bind(
        &mut self,
        env: &mut E,
        id: ComponentId,
        client_itf: &str,
        target: ComponentId,
        server_itf: &str,
    ) -> Result<()> {
        let (signature, cardinality) = {
            let c = self.comp(id)?;
            let decl = c
                .interface(client_itf)
                .ok_or_else(|| FractalError::NoSuchInterface {
                    component: id,
                    interface: client_itf.to_owned(),
                })?;
            if decl.role != Role::Client {
                return Err(FractalError::IncompatibleBinding {
                    reason: format!("'{client_itf}' is not a client interface"),
                });
            }
            (decl.signature.clone(), decl.cardinality)
        };
        {
            let t = self.comp(target)?;
            let sdecl = t
                .interface(server_itf)
                .ok_or_else(|| FractalError::NoSuchInterface {
                    component: target,
                    interface: server_itf.to_owned(),
                })?;
            if sdecl.role != Role::Server {
                return Err(FractalError::IncompatibleBinding {
                    reason: format!("'{server_itf}' is not a server interface"),
                });
            }
            if sdecl.signature != signature {
                return Err(FractalError::IncompatibleBinding {
                    reason: format!(
                        "signature mismatch: client '{signature}' vs server '{}'",
                        sdecl.signature
                    ),
                });
            }
        }
        let endpoint = Endpoint {
            component: target,
            interface: self.intern(server_itf),
        };
        let client_arc = self.intern(client_itf);
        {
            let c = self.comp_mut(id)?;
            let slot = c.bindings.entry(client_arc.clone()).or_default();
            if cardinality == Cardinality::Single && !slot.is_empty() {
                return Err(FractalError::BindingState {
                    reason: format!("interface '{client_itf}' is already bound"),
                });
            }
            if slot.contains(&endpoint) {
                return Err(FractalError::BindingState {
                    reason: "endpoint already bound".into(),
                });
            }
            slot.push(endpoint.clone());
        }
        self.journal
            .push(JournalOp::Bind(id, client_arc, endpoint.clone()));
        self.reflect(env, id, |w, env, view| {
            w.on_bind(env, view, id, client_itf, &endpoint)
        })
    }

    /// Removes the binding from `(id, client_itf)` to `target`; with a
    /// `None` target, removes the single existing binding (convenience for
    /// single-cardinality interfaces, as in the paper's
    /// `Apache1.unbind("ajp-itf")`).
    #[cold]
    pub fn unbind(
        &mut self,
        env: &mut E,
        id: ComponentId,
        client_itf: &str,
        target: Option<ComponentId>,
    ) -> Result<()> {
        let endpoint = {
            let c = self.comp_mut(id)?;
            let slot = c
                .bindings
                .get_mut(client_itf)
                .filter(|v| !v.is_empty())
                .ok_or_else(|| FractalError::BindingState {
                    reason: format!("interface '{client_itf}' is not bound"),
                })?;
            let idx = match target {
                None => {
                    if slot.len() > 1 {
                        return Err(FractalError::BindingState {
                            reason: format!(
                                "interface '{client_itf}' has {} bindings; name the target",
                                slot.len()
                            ),
                        });
                    }
                    0
                }
                Some(t) => slot.iter().position(|e| e.component == t).ok_or_else(|| {
                    FractalError::BindingState {
                        reason: format!("interface '{client_itf}' is not bound to {t:?}"),
                    }
                })?,
            };
            slot.remove(idx)
        };
        let client_arc = self.intern(client_itf);
        self.journal
            .push(JournalOp::Unbind(id, client_arc, endpoint.clone()));
        self.reflect(env, id, |w, env, view| {
            w.on_unbind(env, view, id, client_itf, &endpoint)
        })
    }

    /// Endpoints currently bound to `(id, client_itf)`.
    pub fn bindings_of(&self, id: ComponentId, client_itf: &str) -> Vec<Endpoint> {
        self.comp(id)
            .ok()
            .and_then(|c| c.bindings.get(client_itf).cloned())
            .unwrap_or_default()
    }

    /// All `(component, client_itf)` pairs bound *to* `target`. Interface
    /// names are the interned `Arc<str>`s — no per-call allocations beyond
    /// the result vector.
    pub fn incoming_bindings(&self, target: ComponentId) -> Vec<(ComponentId, Arc<str>)> {
        let mut result = Vec::new();
        for (idx, slot) in self.components.iter().enumerate() {
            let Some(c) = slot else { continue };
            for (itf, eps) in &c.bindings {
                if eps.iter().any(|e| e.component == target) {
                    result.push((ComponentId(comp_idx(idx)), itf.clone()));
                }
            }
        }
        result
    }

    // ------------------------------------------------------------------
    // Life-cycle controller
    // ------------------------------------------------------------------

    /// Starts a component. For composites, starts all children first (in
    /// containment order). Mandatory client interfaces must be bound.
    #[cold]
    pub fn start(&mut self, env: &mut E, id: ComponentId) -> Result<()> {
        let state = self.comp(id)?.state;
        match state {
            LifecycleState::Started => return Ok(()), // idempotent
            LifecycleState::Failed => {
                return Err(FractalError::InvalidLifecycle {
                    component: id,
                    state,
                    operation: "start",
                })
            }
            LifecycleState::Stopped => {}
        }
        // Check mandatory client interfaces.
        {
            let c = self.comp(id)?;
            for decl in &c.interfaces {
                if decl.role == Role::Client && decl.contingency == Contingency::Mandatory {
                    let bound = c.bindings.get(decl.name.as_str()).map_or(0, Vec::len);
                    if bound == 0 {
                        return Err(FractalError::UnboundMandatory {
                            component: id,
                            interface: decl.name.clone(),
                        });
                    }
                }
            }
        }
        for child in self.children(id) {
            self.start(env, child)?;
        }
        self.reflect(env, id, |w, env, view| w.on_start(env, view, id))?;
        self.comp_mut(id)?.state = LifecycleState::Started;
        self.journal.push(JournalOp::Start(id));
        Ok(())
    }

    /// Stops a component. For composites, stops children afterwards in
    /// reverse containment order. Stopping a `Failed` component is allowed
    /// (cleanup path used by the repair manager).
    #[cold]
    pub fn stop(&mut self, env: &mut E, id: ComponentId) -> Result<()> {
        let state = self.comp(id)?.state;
        if state == LifecycleState::Stopped {
            return Ok(()); // idempotent
        }
        self.reflect(env, id, |w, env, view| w.on_stop(env, view, id))?;
        self.comp_mut(id)?.state = LifecycleState::Stopped;
        self.journal.push(JournalOp::Stop(id));
        for child in self.children(id).into_iter().rev() {
            self.stop(env, child)?;
        }
        Ok(())
    }

    /// Current life-cycle state.
    pub fn state(&self, id: ComponentId) -> Result<LifecycleState> {
        Ok(self.comp(id)?.state)
    }

    /// Marks a component failed (called by failure detectors).
    #[cold]
    pub fn mark_failed(&mut self, id: ComponentId) -> Result<()> {
        self.comp_mut(id)?.state = LifecycleState::Failed;
        self.journal.push(JournalOp::Fail(id));
        Ok(())
    }

    /// Returns a failed component to `Stopped` so it can be restarted
    /// (repair path of the self-recovery manager).
    #[cold]
    pub fn repair(&mut self, id: ComponentId) -> Result<()> {
        let state = self.comp(id)?.state;
        if state != LifecycleState::Failed {
            return Err(FractalError::InvalidLifecycle {
                component: id,
                state,
                operation: "repair",
            });
        }
        self.comp_mut(id)?.state = LifecycleState::Stopped;
        self.journal.push(JournalOp::Repair(id));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Full snapshot of one component.
    pub fn info(&self, id: ComponentId) -> Result<ComponentInfo> {
        let c = self.comp(id)?;
        Ok(ComponentInfo {
            id,
            name: c.name.to_string(),
            parent: c.parent,
            composite: matches!(c.kind, Kind::Composite(_)),
            children: self.children(id),
            interfaces: c.interfaces.clone(),
            bindings: c
                .bindings
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            attributes: c
                .attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            state: c.state,
        })
    }

    /// Component name (the interned `Arc<str>`; cloning it is free).
    pub fn name(&self, id: ComponentId) -> Result<Arc<str>> {
        Ok(self.comp(id)?.name.clone())
    }

    /// Ids of all live components.
    pub fn ids(&self) -> Vec<ComponentId> {
        self.components
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|_| ComponentId(comp_idx(i))))
            .collect()
    }

    /// Number of live components.
    pub fn len(&self) -> usize {
        self.components.iter().filter(|c| c.is_some()).count()
    }

    /// True when the registry holds no component.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finds a direct child of `parent` by name.
    pub fn child_by_name(&self, parent: ComponentId, name: &str) -> Result<ComponentId> {
        self.children(parent)
            .into_iter()
            .find(|&c| self.comp(c).map(|cc| &*cc.name == name).unwrap_or(false))
            .ok_or_else(|| FractalError::NoSuchName(name.to_owned()))
    }

    /// Resolves a `/`-separated path of names starting at `root`.
    pub fn resolve_path(&self, root: ComponentId, path: &str) -> Result<ComponentId> {
        let mut cur = root;
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            cur = self.child_by_name(cur, seg)?;
        }
        Ok(cur)
    }

    /// Renders the architecture below `root` as an indented tree, the way
    /// an administrator would inspect "the overall J2EE infrastructure,
    /// considered as a single composite component" (paper §3.2).
    pub fn render_tree(&self, root: ComponentId) -> String {
        let mut out = String::new();
        self.render_into(root, 0, &mut out);
        out
    }

    fn render_into(&self, id: ComponentId, depth: usize, out: &mut String) {
        let Ok(c) = self.comp(id) else { return };
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&c.name);
        out.push_str(match c.state {
            LifecycleState::Started => " [started]",
            LifecycleState::Stopped => " [stopped]",
            LifecycleState::Failed => " [FAILED]",
        });
        for (itf, eps) in &c.bindings {
            for ep in eps {
                let target = self
                    .comp(ep.component)
                    .map(|t| t.name.to_string())
                    .unwrap_or_else(|_| format!("{:?}", ep.component));
                out.push_str(&format!(" ({itf} -> {target})"));
            }
        }
        out.push('\n');
        for child in self.children(id) {
            self.render_into(child, depth + 1, out);
        }
    }

    /// The journal of all management operations so far.
    pub fn journal(&self) -> &[JournalOp] {
        &self.journal
    }

    /// Number of journaled operations (reconfiguration cost metric for the
    /// qualitative evaluation).
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    // ------------------------------------------------------------------
    // Wrapper delegation
    // ------------------------------------------------------------------

    /// Hands the wrapper of `id` a view of the registry; for a composite or
    /// a primitive without a wrapper the operation is a validated no-op.
    fn reflect(
        &self,
        env: &mut E,
        id: ComponentId,
        f: impl FnOnce(&W, &mut E, &dyn ArchView) -> Result<()>,
    ) -> Result<()> {
        match &self.comp(id)?.kind {
            Kind::Primitive(Some(w)) => f(w, env, self),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrapper::NullWrapper;

    type Reg = Registry<()>;

    fn server_decl() -> Vec<InterfaceDecl> {
        vec![InterfaceDecl::server("http", "http")]
    }

    fn client_decl() -> Vec<InterfaceDecl> {
        vec![
            InterfaceDecl::server("http", "http"),
            InterfaceDecl::client("backend", "http"),
        ]
    }

    #[test]
    fn create_and_introspect() {
        let mut reg = Reg::new();
        let a = reg.new_primitive("apache", server_decl(), NullWrapper);
        let info = reg.info(a).unwrap();
        assert_eq!(info.name, "apache");
        assert!(!info.composite);
        assert_eq!(info.state, LifecycleState::Stopped);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn bind_validates_roles_and_signatures() {
        let mut reg = Reg::new();
        let front = reg.new_primitive("front", client_decl(), NullWrapper);
        let back = reg.new_primitive("back", server_decl(), NullWrapper);
        let mut env = ();
        reg.bind(&mut env, front, "backend", back, "http").unwrap();
        assert_eq!(reg.bindings_of(front, "backend").len(), 1);

        // Binding a server interface as client fails.
        let err = reg.bind(&mut env, front, "http", back, "http").unwrap_err();
        assert!(matches!(err, FractalError::IncompatibleBinding { .. }));

        // Signature mismatch fails.
        let odd = reg.new_primitive(
            "odd",
            vec![InterfaceDecl::server("sql", "jdbc")],
            NullWrapper,
        );
        let err = reg
            .bind(&mut env, front, "backend", odd, "sql")
            .unwrap_err();
        assert!(matches!(err, FractalError::IncompatibleBinding { .. }));
    }

    #[test]
    fn single_cardinality_rejects_second_binding() {
        let mut reg = Reg::new();
        let front = reg.new_primitive("front", client_decl(), NullWrapper);
        let b1 = reg.new_primitive("b1", server_decl(), NullWrapper);
        let b2 = reg.new_primitive("b2", server_decl(), NullWrapper);
        let mut env = ();
        reg.bind(&mut env, front, "backend", b1, "http").unwrap();
        let err = reg
            .bind(&mut env, front, "backend", b2, "http")
            .unwrap_err();
        assert!(matches!(err, FractalError::BindingState { .. }));
    }

    #[test]
    fn collection_cardinality_accepts_many() {
        let mut reg = Reg::new();
        let lb = reg.new_primitive(
            "lb",
            vec![InterfaceDecl::collection_client("workers", "http")],
            NullWrapper,
        );
        let mut env = ();
        for i in 0..3 {
            let b = reg.new_primitive(&format!("b{i}"), server_decl(), NullWrapper);
            reg.bind(&mut env, lb, "workers", b, "http").unwrap();
        }
        assert_eq!(reg.bindings_of(lb, "workers").len(), 3);
        // Unbind by target.
        let victim = reg.bindings_of(lb, "workers")[1].component;
        reg.unbind(&mut env, lb, "workers", Some(victim)).unwrap();
        assert_eq!(reg.bindings_of(lb, "workers").len(), 2);
        // Ambiguous unbind without target fails.
        let err = reg.unbind(&mut env, lb, "workers", None).unwrap_err();
        assert!(matches!(err, FractalError::BindingState { .. }));
    }

    #[test]
    fn duplicate_endpoint_rejected() {
        let mut reg = Reg::new();
        let lb = reg.new_primitive(
            "lb",
            vec![InterfaceDecl::collection_client("workers", "http")],
            NullWrapper,
        );
        let b = reg.new_primitive("b", server_decl(), NullWrapper);
        let mut env = ();
        reg.bind(&mut env, lb, "workers", b, "http").unwrap();
        assert!(reg.bind(&mut env, lb, "workers", b, "http").is_err());
    }

    #[test]
    fn start_requires_mandatory_bindings() {
        let mut reg = Reg::new();
        let front = reg.new_primitive("front", client_decl(), NullWrapper);
        let mut env = ();
        let err = reg.start(&mut env, front).unwrap_err();
        assert!(matches!(err, FractalError::UnboundMandatory { .. }));
        let back = reg.new_primitive("back", server_decl(), NullWrapper);
        reg.bind(&mut env, front, "backend", back, "http").unwrap();
        reg.start(&mut env, front).unwrap();
        assert_eq!(reg.state(front).unwrap(), LifecycleState::Started);
        // Idempotent start.
        reg.start(&mut env, front).unwrap();
    }

    #[test]
    fn composite_lifecycle_cascades() {
        let mut reg = Reg::new();
        let top = reg.new_composite("j2ee", vec![]);
        let a = reg.new_primitive("apache", server_decl(), NullWrapper);
        let b = reg.new_primitive("tomcat", server_decl(), NullWrapper);
        reg.add_child(top, a).unwrap();
        reg.add_child(top, b).unwrap();
        let mut env = ();
        reg.start(&mut env, top).unwrap();
        assert_eq!(reg.state(a).unwrap(), LifecycleState::Started);
        assert_eq!(reg.state(b).unwrap(), LifecycleState::Started);
        reg.stop(&mut env, top).unwrap();
        assert_eq!(reg.state(a).unwrap(), LifecycleState::Stopped);
        assert_eq!(reg.state(b).unwrap(), LifecycleState::Stopped);
    }

    #[test]
    fn content_controller_validates() {
        let mut reg = Reg::new();
        let top = reg.new_composite("top", vec![]);
        let other = reg.new_composite("other", vec![]);
        let p = reg.new_primitive("p", vec![], NullWrapper);
        reg.add_child(top, p).unwrap();
        // Double containment rejected.
        assert!(reg.add_child(other, p).is_err());
        assert!(reg.add_child(top, p).is_err());
        // Children list queries.
        assert_eq!(reg.children(top), vec![p]);
        // add_child on a primitive fails.
        assert!(matches!(
            reg.add_child(p, other).unwrap_err(),
            FractalError::NotComposite(_)
        ));
        reg.remove_child(top, p).unwrap();
        assert!(reg.children(top).is_empty());
        assert!(reg.remove_child(top, p).is_err());
    }

    #[test]
    fn failed_components_must_be_repaired_before_start() {
        let mut reg = Reg::new();
        let a = reg.new_primitive("a", vec![], NullWrapper);
        let mut env = ();
        reg.start(&mut env, a).unwrap();
        reg.mark_failed(a).unwrap();
        assert!(reg.start(&mut env, a).is_err());
        // Stop from Failed is allowed (cleanup), then repair.
        reg.stop(&mut env, a).unwrap();
        assert!(reg.repair(a).is_err()); // already stopped
        reg.mark_failed(a).unwrap();
        reg.repair(a).unwrap();
        reg.start(&mut env, a).unwrap();
        assert_eq!(reg.state(a).unwrap(), LifecycleState::Started);
    }

    #[test]
    fn remove_guards_against_dangling_references() {
        let mut reg = Reg::new();
        let front = reg.new_primitive("front", client_decl(), NullWrapper);
        let back = reg.new_primitive("back", server_decl(), NullWrapper);
        let mut env = ();
        reg.bind(&mut env, front, "backend", back, "http").unwrap();
        // back is referenced: removal fails.
        assert!(reg.remove(back).is_err());
        reg.unbind(&mut env, front, "backend", None).unwrap();
        reg.remove(back).unwrap();
        assert!(reg.info(back).is_err());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn attributes_roundtrip_and_journal() {
        let mut reg = Reg::new();
        let a = reg.new_primitive("apache", vec![], NullWrapper);
        let mut env = ();
        reg.set_attr(&mut env, a, "port", 80i64).unwrap();
        assert_eq!(reg.get_attr(a, "port").unwrap(), AttrValue::Int(80));
        assert!(reg.get_attr(a, "absent").is_err());
        let ops: Vec<_> = reg.journal().iter().collect();
        assert!(ops
            .iter()
            .any(|op| matches!(op, JournalOp::SetAttr(id, n, _) if *id == a && &**n == "port")));
    }

    #[test]
    fn path_resolution() {
        let mut reg = Reg::new();
        let root = reg.new_composite("j2ee", vec![]);
        let web = reg.new_composite("web", vec![]);
        let apache = reg.new_primitive("apache-0", vec![], NullWrapper);
        reg.add_child(root, web).unwrap();
        reg.add_child(web, apache).unwrap();
        assert_eq!(reg.resolve_path(root, "web/apache-0").unwrap(), apache);
        assert_eq!(reg.resolve_path(root, "").unwrap(), root);
        assert!(reg.resolve_path(root, "web/nope").is_err());
    }

    #[test]
    fn render_tree_shows_bindings_and_states() {
        let mut reg = Reg::new();
        let root = reg.new_composite("j2ee", vec![]);
        let front = reg.new_primitive("apache", client_decl(), NullWrapper);
        let back = reg.new_primitive("tomcat", server_decl(), NullWrapper);
        reg.add_child(root, front).unwrap();
        reg.add_child(root, back).unwrap();
        let mut env = ();
        reg.bind(&mut env, front, "backend", back, "http").unwrap();
        let tree = reg.render_tree(root);
        assert!(tree.contains("j2ee [stopped]"));
        assert!(tree.contains("apache [stopped] (backend -> tomcat)"));
        assert!(tree.contains("  tomcat"));
    }

    /// A clone is a fork of the architecture: control operations on
    /// either copy leave the other's journal, bindings, attributes and
    /// states as they were.
    #[test]
    fn cloned_registry_is_independent() {
        let mut reg = Reg::new();
        let lb = reg.new_primitive(
            "lb",
            vec![InterfaceDecl::collection_client("workers", "http")],
            NullWrapper,
        );
        let b1 = reg.new_primitive("b1", server_decl(), NullWrapper);
        let b2 = reg.new_primitive("b2", server_decl(), NullWrapper);
        let mut env = ();
        reg.bind(&mut env, lb, "workers", b1, "http").unwrap();
        reg.set_attr(&mut env, lb, "port", 80i64).unwrap();
        let observe = |r: &Reg| {
            (
                r.journal().to_vec(),
                r.bindings_of(lb, "workers"),
                r.get_attr(lb, "port").unwrap(),
                r.state(b1).unwrap(),
            )
        };
        let mut fork = reg.clone();
        let (before, forked) = (observe(&reg), observe(&fork));
        assert_eq!(before, forked);

        fork.bind(&mut env, lb, "workers", b2, "http").unwrap();
        fork.unbind(&mut env, lb, "workers", Some(b1)).unwrap();
        fork.set_attr(&mut env, lb, "port", 81i64).unwrap();
        fork.mark_failed(b1).unwrap();
        assert_eq!(
            observe(&reg),
            before,
            "the fork wrote through to the original"
        );
        let after_fork = observe(&fork);
        assert_ne!(after_fork, before);

        reg.unbind(&mut env, lb, "workers", None).unwrap();
        reg.set_attr(&mut env, lb, "port", 82i64).unwrap();
        reg.mark_failed(b2).unwrap();
        assert_eq!(
            observe(&fork),
            after_fork,
            "the original wrote through to the fork"
        );
        assert_eq!(fork.state(b2).unwrap(), LifecycleState::Stopped);
        assert_eq!(reg.state(b1).unwrap(), LifecycleState::Stopped);
    }

    /// Wrapper that records control operations, verifying delegation order.
    #[derive(Default)]
    struct Recording;
    impl Wrapper<Vec<String>> for Recording {
        fn on_set_attr(
            &self,
            env: &mut Vec<String>,
            _view: &dyn ArchView,
            _me: ComponentId,
            name: &str,
            value: &AttrValue,
        ) -> Result<()> {
            env.push(format!("set {name}={value}"));
            Ok(())
        }
        fn on_bind(
            &self,
            env: &mut Vec<String>,
            view: &dyn ArchView,
            _me: ComponentId,
            itf: &str,
            target: &Endpoint,
        ) -> Result<()> {
            let tname = view.name_of(target.component).unwrap();
            env.push(format!("bind {itf} -> {tname}"));
            Ok(())
        }
        fn on_start(
            &self,
            env: &mut Vec<String>,
            _view: &dyn ArchView,
            _me: ComponentId,
        ) -> Result<()> {
            env.push("start".into());
            Ok(())
        }
        fn on_stop(
            &self,
            env: &mut Vec<String>,
            _view: &dyn ArchView,
            _me: ComponentId,
        ) -> Result<()> {
            env.push("stop".into());
            Ok(())
        }
    }

    #[test]
    fn wrapper_sees_operations_and_can_introspect_targets() {
        let mut reg: Registry<Vec<String>, Recording> = Registry::new();
        let front = reg.new_primitive(
            "apache",
            vec![InterfaceDecl::optional_client("ajp-itf", "ajp")],
            Recording,
        );
        let back = reg.new_primitive("tomcat2", vec![InterfaceDecl::server("ajp", "ajp")], None);
        let mut env: Vec<String> = Vec::new();
        reg.set_attr(&mut env, front, "port", 80i64).unwrap();
        reg.bind(&mut env, front, "ajp-itf", back, "ajp").unwrap();
        reg.start(&mut env, front).unwrap();
        reg.stop(&mut env, front).unwrap();
        assert_eq!(
            env,
            vec!["set port=80", "bind ajp-itf -> tomcat2", "start", "stop"]
        );
    }

    /// Wrapper whose validation rejects negative ports.
    struct Picky;
    impl Wrapper<()> for Picky {
        fn validate_attr(&self, name: &str, value: &AttrValue) -> Result<()> {
            if name == "port" && value.as_int().is_none_or(|p| p <= 0) {
                return Err(FractalError::InvalidAttribute {
                    attribute: name.to_owned(),
                    reason: "port must be a positive integer".into(),
                });
            }
            Ok(())
        }
    }

    #[test]
    fn attribute_validation_rejects_bad_values() {
        let mut reg: Registry<(), Picky> = Registry::new();
        let a = reg.new_primitive("a", vec![], Picky);
        let mut env = ();
        assert!(reg.set_attr(&mut env, a, "port", -1i64).is_err());
        assert!(
            reg.get_attr(a, "port").is_err(),
            "rejected write must not persist"
        );
        reg.set_attr(&mut env, a, "port", 8080i64).unwrap();
    }
}
