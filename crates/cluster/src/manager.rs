//! The Cluster Manager: node-pool allocation (paper §3.3).
//!
//! "A Cluster Manager component is responsible for the allocation of nodes
//! (from a pool of available nodes) which will host the replicated servers
//! of each tier." Allocation is deterministic (lowest free node id first)
//! so experiment runs are reproducible.

use crate::node::{Node, NodeId, NodeSpec};
use jade_sim::SimTime;
use std::collections::BTreeSet;

/// Errors from the cluster substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// No free node remains in the pool.
    PoolExhausted,
    /// Unknown node id.
    NoSuchNode(NodeId),
    /// Operation requires the node to be allocated / free.
    WrongAllocationState(NodeId),
    /// Node is crashed.
    NodeDown(NodeId),
    /// Installation failure (memory exhausted, unknown package…).
    Install(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::PoolExhausted => write!(f, "no free node in the pool"),
            ClusterError::NoSuchNode(id) => write!(f, "no such node: {id:?}"),
            ClusterError::WrongAllocationState(id) => {
                write!(f, "node {id:?} is not in the required allocation state")
            }
            ClusterError::NodeDown(id) => write!(f, "node {id:?} is crashed"),
            ClusterError::Install(msg) => write!(f, "installation failed: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// The node pool plus allocation bookkeeping.
///
/// # Probe bookkeeping
///
/// [`ClusterManager::sample_cpus_into`] costs time in proportion to the
/// nodes that did something since the previous probe, not to the pool.
/// Every node is either *dirty* (listed in `dirty`, sampled on each
/// probe) or *clean*. The invariant: a clean node is Up and its CPU is
/// quiet ([`jade_sim::PsCpu::is_quiet`]), so each probe would read exactly
/// `0.0` from it and only move its utilization window to the probe
/// instant; that instant is kept once for all clean nodes in `synced_to`.
/// `nodes` is private and [`ClusterManager::node_mut`] is the only `&mut`
/// path to a [`Node`], so it is the complete hook: it moves a clean node's
/// window to `synced_to` and re-lists it as dirty before handing it out.
/// Crashed nodes never become clean (a crashed node's window must not
/// advance), and on a manager that is never probed every node stays dirty.
#[derive(Clone, Debug)]
pub struct ClusterManager {
    nodes: Vec<Node>,
    free: BTreeSet<NodeId>,
    allocated: BTreeSet<NodeId>,
    /// Nodes the next probe samples; order carries no meaning.
    dirty: Vec<NodeId>,
    /// `clean[i]` ⇔ `NodeId(i)` is not in `dirty`.
    clean: Vec<bool>,
    /// Instant of the latest probe: clean nodes count as sampled then.
    synced_to: SimTime,
}

impl ClusterManager {
    /// Builds a pool of `count` identical nodes named `node1..nodeN`.
    pub fn homogeneous(count: usize, spec: NodeSpec, base_mem_mb: u64) -> Self {
        let nodes: Vec<Node> = (0..count)
            .map(|i| {
                Node::new(
                    NodeId(jade_sim::id_u32(i)),
                    &format!("node{}", i + 1),
                    spec,
                    base_mem_mb,
                )
            })
            .collect();
        let free = nodes.iter().map(Node::id).collect();
        let dirty = nodes.iter().map(Node::id).collect();
        ClusterManager {
            clean: vec![false; nodes.len()],
            nodes,
            free,
            allocated: BTreeSet::new(),
            dirty,
            synced_to: SimTime::ZERO,
        }
    }

    /// Allocates the lowest-id free, up node. Crashed free nodes are
    /// skipped (they stay in the pool until repaired).
    pub fn allocate(&mut self) -> Result<NodeId, ClusterError> {
        let pick = self
            .free
            .iter()
            .copied()
            .find(|&id| self.nodes[id.0 as usize].is_up())
            .ok_or(ClusterError::PoolExhausted)?;
        self.free.remove(&pick);
        self.allocated.insert(pick);
        Ok(pick)
    }

    /// Returns a node to the free pool.
    pub fn release(&mut self, id: NodeId) -> Result<(), ClusterError> {
        if !self.allocated.remove(&id) {
            return Err(ClusterError::WrongAllocationState(id));
        }
        self.free.insert(id);
        Ok(())
    }

    /// Shared access to a node.
    pub fn node(&self, id: NodeId) -> Result<&Node, ClusterError> {
        self.nodes
            .get(id.0 as usize)
            .ok_or(ClusterError::NoSuchNode(id))
    }

    /// Mutable access to a node. A node the probe had stopped sampling is
    /// first caught up with the probes it was skipped on.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut Node, ClusterError> {
        let i = id.0 as usize;
        if self.clean.get(i) == Some(&true) {
            self.mark_dirty(id);
        }
        self.nodes.get_mut(i).ok_or(ClusterError::NoSuchNode(id))
    }

    /// Re-lists a clean node for sampling, leaving it as per-probe
    /// sampling of its quiet CPU would have: window restarted at the
    /// latest probe instant.
    #[cold]
    fn mark_dirty(&mut self, id: NodeId) {
        let i = id.0 as usize;
        self.clean[i] = false;
        self.dirty.push(id);
        self.nodes[i].cpu.rebase_idle_window(self.synced_to);
    }

    /// All node ids (allocated and free).
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(Node::id).collect()
    }

    /// Probes the pool into a dense array: `out[i]` is the utilization of
    /// `NodeId(i)` since the previous probe, bit-for-bit what sampling
    /// each entry of [`ClusterManager::node_ids`] through
    /// [`ClusterManager::node_mut`] would read. Only dirty nodes are
    /// visited (see the type docs); a node sampled here leaves the dirty
    /// list when it is Up and its CPU quiet. Allocates nothing once `out`
    /// has the pool's length.
    // jade-audit: allow(hot-panic): dirty holds ids of this pool's nodes,
    // and out, nodes and clean all have the pool's length.
    pub fn sample_cpus_into(&mut self, now: SimTime, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.nodes.len(), 0.0);
        let (nodes, clean) = (&mut self.nodes, &mut self.clean);
        self.dirty.retain(|&id| {
            let i = id.0 as usize;
            let n = &mut nodes[i];
            out[i] = n.sample_cpu(now);
            clean[i] = n.is_up() && n.cpu.is_quiet();
            !clean[i]
        });
        self.synced_to = now;
    }

    /// Currently allocated nodes, in id order.
    pub fn allocated(&self) -> Vec<NodeId> {
        self.allocated.iter().copied().collect()
    }

    /// Fills `out` with the currently allocated nodes in id order — the
    /// same sequence as [`ClusterManager::allocated`] — reusing the
    /// caller's buffer.
    pub fn fill_allocated(&self, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.allocated.iter().copied());
    }

    /// Currently free nodes, in id order.
    pub fn free(&self) -> Vec<NodeId> {
        self.free.iter().copied().collect()
    }

    /// Number of free, up nodes.
    pub fn free_count(&self) -> usize {
        self.free
            .iter()
            .filter(|&&id| self.nodes[id.0 as usize].is_up())
            .count()
    }

    /// Total pool size.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the pool has no node.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True when the node is currently allocated.
    pub fn is_allocated(&self, id: NodeId) -> bool {
        self.allocated.contains(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_sim::{JobId, SimDuration};

    fn pool(n: usize) -> ClusterManager {
        ClusterManager::homogeneous(n, NodeSpec::default(), 128)
    }

    #[test]
    fn allocation_is_deterministic_and_exclusive() {
        let mut cm = pool(3);
        let a = cm.allocate().unwrap();
        let b = cm.allocate().unwrap();
        assert_eq!(a, NodeId(0));
        assert_eq!(b, NodeId(1));
        assert!(cm.is_allocated(a));
        assert_eq!(cm.free_count(), 1);
        cm.allocate().unwrap();
        assert_eq!(cm.allocate(), Err(ClusterError::PoolExhausted));
    }

    #[test]
    fn release_returns_to_pool_lowest_first() {
        let mut cm = pool(3);
        let a = cm.allocate().unwrap();
        let _b = cm.allocate().unwrap();
        cm.release(a).unwrap();
        // Released node is picked again (lowest id).
        assert_eq!(cm.allocate().unwrap(), a);
        // Double release rejected.
        assert_eq!(
            cm.release(NodeId(2)),
            Err(ClusterError::WrongAllocationState(NodeId(2)))
        );
    }

    #[test]
    fn crashed_free_nodes_are_skipped() {
        let mut cm = pool(2);
        cm.node_mut(NodeId(0)).unwrap().crash(SimTime::ZERO);
        assert_eq!(cm.allocate().unwrap(), NodeId(1));
        assert_eq!(cm.allocate(), Err(ClusterError::PoolExhausted));
        cm.node_mut(NodeId(0)).unwrap().repair();
        assert_eq!(cm.allocate().unwrap(), NodeId(0));
    }

    /// Samples every node through `node_mut`. On a manager that is never
    /// probed with `sample_cpus_into` all nodes stay dirty, so this is the
    /// every-node-every-tick oracle.
    fn sample_each(cm: &mut ClusterManager, now: SimTime) -> Vec<u64> {
        (0..cm.len())
            .map(|i| {
                let n = cm.node_mut(NodeId(jade_sim::id_u32(i))).unwrap();
                n.sample_cpu(now).to_bits()
            })
            .collect()
    }

    fn probe(cm: &mut ClusterManager, now: SimTime) -> Vec<u64> {
        let mut out = vec![f64::NAN; 1]; // stale content must be replaced
        cm.sample_cpus_into(now, &mut out);
        out.into_iter().map(f64::to_bits).collect()
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    #[test]
    fn idle_nodes_leave_the_probe_and_wake_with_the_eager_window() {
        let (mut lazy, mut eager) = (pool(4), pool(4));
        for k in 1..=5 {
            assert_eq!(
                probe(&mut lazy, ms(100 * k)),
                sample_each(&mut eager, ms(100 * k))
            );
            assert!(lazy.dirty.is_empty(), "idle pool is not sampled");
        }
        // allocate() does not wake the node; the first submit does, and the
        // first sample after it spans one probe period, not the idle gap.
        for cm in [&mut lazy, &mut eager] {
            let n = cm.allocate().unwrap();
            let cpu = &mut cm.node_mut(n).unwrap().cpu;
            cpu.submit(ms(550), JobId(1), SimDuration::from_millis(200));
        }
        assert_eq!(lazy.dirty, vec![NodeId(0)]);
        let got = probe(&mut lazy, ms(600));
        assert_eq!(got, sample_each(&mut eager, ms(600)));
        assert_eq!(f64::from_bits(got[0]), 0.5);
        assert_eq!(got[1..], [0.0f64.to_bits(); 3]);
    }

    #[test]
    fn released_busy_node_is_sampled_until_it_drains() {
        let (mut lazy, mut eager) = (pool(2), pool(2));
        for cm in [&mut lazy, &mut eager] {
            let n = cm.allocate().unwrap();
            let cpu = &mut cm.node_mut(n).unwrap().cpu;
            cpu.submit(ms(0), JobId(1), SimDuration::from_millis(250));
            cm.release(n).unwrap();
        }
        for k in 1..=2 {
            assert_eq!(
                probe(&mut lazy, ms(100 * k)),
                sample_each(&mut eager, ms(100 * k))
            );
            assert_eq!(lazy.dirty, vec![NodeId(0)], "resident job keeps it listed");
        }
        // Done at 250 ms but undelivered: still listed. Delivered: unlisted
        // by the next probe, which still reads the busy half of its window.
        assert_eq!(probe(&mut lazy, ms(300)), sample_each(&mut eager, ms(300)));
        assert_eq!(lazy.dirty, vec![NodeId(0)]);
        for cm in [&mut lazy, &mut eager] {
            let done = cm
                .node_mut(NodeId(0))
                .unwrap()
                .cpu
                .collect_completions(ms(300));
            assert_eq!(done, vec![JobId(1)]);
        }
        assert_eq!(probe(&mut lazy, ms(400)), sample_each(&mut eager, ms(400)));
        assert!(lazy.dirty.is_empty());
        let end = ms(450);
        assert_eq!(
            lazy.node_mut(NodeId(0)).unwrap().cpu_busy_time(end),
            eager.node_mut(NodeId(0)).unwrap().cpu_busy_time(end)
        );
    }

    #[test]
    fn crashed_free_node_keeps_its_window_until_repaired() {
        let (mut lazy, mut eager) = (pool(2), pool(2));
        assert_eq!(probe(&mut lazy, ms(100)), sample_each(&mut eager, ms(100)));
        for cm in [&mut lazy, &mut eager] {
            let n = cm.node_mut(NodeId(1)).unwrap();
            n.cpu
                .submit(ms(100), JobId(7), SimDuration::from_millis(500));
            n.crash(ms(150));
        }
        // A crashed node reads 0.0 and its window does not advance, so it
        // is never dropped from the probe.
        for k in 2..=4 {
            assert_eq!(
                probe(&mut lazy, ms(100 * k)),
                sample_each(&mut eager, ms(100 * k))
            );
            assert_eq!(lazy.dirty, vec![NodeId(1)]);
        }
        for cm in [&mut lazy, &mut eager] {
            cm.node_mut(NodeId(1)).unwrap().repair();
        }
        // First sample after repair spans 100..500 ms with 50 ms busy.
        let got = probe(&mut lazy, ms(500));
        assert_eq!(got, sample_each(&mut eager, ms(500)));
        assert_eq!(f64::from_bits(got[1]), 0.05 / 0.4);
        assert!(lazy.dirty.is_empty());
        assert_eq!(probe(&mut lazy, ms(600)), sample_each(&mut eager, ms(600)));
    }

    #[test]
    fn names_follow_the_paper_convention() {
        let cm = pool(2);
        assert_eq!(cm.node(NodeId(0)).unwrap().name(), "node1");
        assert_eq!(cm.node(NodeId(1)).unwrap().name(), "node2");
    }
}
