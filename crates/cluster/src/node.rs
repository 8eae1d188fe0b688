//! Simulated cluster nodes.
//!
//! A node is an x86 machine of the paper's testbed: one processor-sharing
//! CPU, a fixed amount of memory, and a set of installed software packages.
//! The evaluation's "up to 9 machines … connected through a 100Mbps
//! Ethernet LAN" (paper §5.2) becomes a pool of these.

use jade_sim::{EfficiencyCurve, PsCpu, SimDuration, SimTime};
use std::collections::BTreeSet;

/// Node identity within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Hardware description of a node.
#[derive(Debug, Clone, Copy)]
pub struct NodeSpec {
    /// CPU capacity in reference-core units (1.0 = the paper's x86 node).
    pub cpu_speed: f64,
    /// Physical memory in MB.
    pub memory_mb: u64,
    /// CPU degradation law under overload (thrashing model).
    pub curve: EfficiencyCurve,
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec {
            cpu_speed: 1.0,
            memory_mb: 1024,
            curve: EfficiencyCurve::Ideal,
        }
    }
}

/// Whether the machine is reachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Powered and reachable.
    Up,
    /// Crashed (failure injection); repair returns it to `Up`.
    Crashed,
}

/// A machine in the simulated cluster.
#[derive(Clone, Debug)]
pub struct Node {
    id: NodeId,
    name: String,
    spec: NodeSpec,
    /// The node's CPU; server actors submit jobs here.
    pub cpu: PsCpu,
    state: NodeState,
    installed: BTreeSet<String>,
    mem_used_mb: u64,
    /// Memory permanently consumed by the OS and base system.
    base_mem_mb: u64,
}

impl Node {
    /// Creates an `Up` node with the given spec. `base_mem_mb` models the
    /// OS-resident footprint included in memory-usage percentages.
    pub fn new(id: NodeId, name: &str, spec: NodeSpec, base_mem_mb: u64) -> Self {
        Node {
            id,
            name: name.to_owned(),
            spec,
            cpu: PsCpu::new(spec.cpu_speed, spec.curve),
            state: NodeState::Up,
            installed: BTreeSet::new(),
            mem_used_mb: base_mem_mb,
            base_mem_mb,
        }
    }

    /// Node identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Host name (`node1`, `node2`, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Hardware description.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// Current availability.
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// True when the node is reachable.
    pub fn is_up(&self) -> bool {
        self.state == NodeState::Up
    }

    /// Crashes the node, dropping all in-flight CPU jobs. Returns the ids
    /// of the aborted jobs so their requests can be failed.
    pub fn crash(&mut self, now: SimTime) -> Vec<jade_sim::JobId> {
        self.state = NodeState::Crashed;
        // Jobs that finished since the last completion-timer fire are still
        // undelivered; the crash loses those responses too, so hand them to
        // the caller to fail rather than leaking them into a post-repair
        // drain.
        let mut lost = self.cpu.collect_completions(now);
        lost.extend(self.cpu.abort_all(now));
        lost
    }

    /// Repairs a crashed node (reboot): memory returns to the base
    /// footprint and installed software is considered lost (a fresh node,
    /// as when the cluster manager re-allocates a machine).
    pub fn repair(&mut self) {
        self.state = NodeState::Up;
        self.installed.clear();
        self.mem_used_mb = self.base_mem_mb;
    }

    /// Records installation of a software package consuming `mem_mb`.
    /// Fails when memory would be exhausted; idempotent per package name.
    pub fn install(&mut self, package: &str, mem_mb: u64) -> Result<(), String> {
        if self.installed.contains(package) {
            return Ok(());
        }
        if self.mem_used_mb + mem_mb > self.spec.memory_mb {
            return Err(format!(
                "node {}: out of memory installing {package} ({} + {mem_mb} > {} MB)",
                self.name, self.mem_used_mb, self.spec.memory_mb
            ));
        }
        self.installed.insert(package.to_owned());
        self.mem_used_mb += mem_mb;
        Ok(())
    }

    /// Removes a package, releasing its memory.
    pub fn uninstall(&mut self, package: &str, mem_mb: u64) {
        if self.installed.remove(package) {
            self.mem_used_mb = self.mem_used_mb.saturating_sub(mem_mb);
        }
    }

    /// True when the package is installed.
    pub fn has_package(&self, package: &str) -> bool {
        self.installed.contains(package)
    }

    /// Installed package names (deterministic order).
    pub fn packages(&self) -> impl Iterator<Item = &str> {
        self.installed.iter().map(String::as_str)
    }

    /// Memory in use, MB.
    pub fn memory_used_mb(&self) -> u64 {
        self.mem_used_mb
    }

    /// Memory utilization in `[0, 1]`.
    pub fn memory_utilization(&self) -> f64 {
        self.mem_used_mb as f64 / self.spec.memory_mb as f64
    }

    /// CPU utilization since the last sample (probe read).
    pub fn sample_cpu(&mut self, now: SimTime) -> f64 {
        if self.state == NodeState::Crashed {
            return 0.0;
        }
        self.cpu.sample_utilization(now)
    }

    /// Total CPU busy time.
    pub fn cpu_busy_time(&mut self, now: SimTime) -> SimDuration {
        self.cpu.busy_time(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_sim::JobId;

    fn node() -> Node {
        Node::new(NodeId(0), "node1", NodeSpec::default(), 128)
    }

    #[test]
    fn install_and_memory_accounting() {
        let mut n = node();
        assert_eq!(n.memory_used_mb(), 128);
        n.install("tomcat", 256).unwrap();
        assert_eq!(n.memory_used_mb(), 384);
        // Idempotent.
        n.install("tomcat", 256).unwrap();
        assert_eq!(n.memory_used_mb(), 384);
        assert!(n.has_package("tomcat"));
        n.uninstall("tomcat", 256);
        assert_eq!(n.memory_used_mb(), 128);
        assert!(!n.has_package("tomcat"));
    }

    #[test]
    fn install_rejects_memory_exhaustion() {
        let mut n = node();
        assert!(n.install("huge", 10_000).is_err());
        assert!(!n.has_package("huge"));
    }

    #[test]
    fn crash_aborts_jobs_and_repair_wipes_software() {
        let mut n = node();
        n.install("mysql", 200).unwrap();
        n.cpu
            .submit(SimTime::ZERO, JobId(1), SimDuration::from_millis(50));
        let aborted = n.crash(SimTime::from_millis(10));
        assert_eq!(aborted, vec![JobId(1)]);
        assert_eq!(n.state(), NodeState::Crashed);
        assert_eq!(n.sample_cpu(SimTime::from_millis(20)), 0.0);
        n.repair();
        assert!(n.is_up());
        assert!(!n.has_package("mysql"));
        assert_eq!(n.memory_used_mb(), 128);
    }

    #[test]
    fn memory_utilization_fraction() {
        let mut n = node();
        n.install("x", 384).unwrap();
        assert!((n.memory_utilization() - 0.5).abs() < 1e-9);
    }
}
