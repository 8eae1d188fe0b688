//! The Software Installation Service (paper §3.3).
//!
//! "A Software Installation Service component allows retrieving the
//! encapsulated software resources involved in the multi-tier J2EE
//! application (e.g., Apache Web server software, MySQL database server
//! software, etc.) and installing them on nodes of the cluster."
//!
//! Installation has a latency (copying binaries over the LAN, unpacking):
//! it is part of why adding a replica is not instantaneous in Figure 5.

use crate::manager::{ClusterError, ClusterManager};
use crate::node::NodeId;
use jade_sim::SimDuration;
use std::collections::BTreeMap;

/// Description of a deployable software package.
#[derive(Debug, Clone)]
pub struct PackageDef {
    /// Package name (e.g. `"tomcat"`).
    pub name: String,
    /// Displayed version (e.g. `"3.3.2"` — the paper's versions).
    pub version: String,
    /// Resident memory footprint once installed, MB.
    pub memory_mb: u64,
    /// Time to fetch + install the package on a node.
    pub install_latency: SimDuration,
    /// Time for the server to boot once started.
    pub startup_latency: SimDuration,
}

/// Repository of packages known to the installation service.
#[derive(Clone, Debug, Default)]
pub struct SoftwareRepository {
    packages: BTreeMap<String, PackageDef>,
}

impl SoftwareRepository {
    /// Creates an empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a package definition.
    pub fn register(&mut self, def: PackageDef) {
        self.packages.insert(def.name.clone(), def);
    }

    /// Looks up a package.
    pub fn get(&self, name: &str) -> Option<&PackageDef> {
        self.packages.get(name)
    }

    /// Package names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.packages.keys().map(String::as_str).collect()
    }

    /// The standard catalogue of the paper's software environment (§5.2):
    /// Tomcat 3.3.2, MySQL 4.0.17, C-JDBC 2.0.2, PLB 0.3, Apache, plus the
    /// Jade management daemon deployed on every managed node.
    pub fn j2ee_catalogue() -> Self {
        let mut repo = Self::new();
        let defs = [
            ("apache", "1.3", 48, 8, 2),
            ("tomcat", "3.3.2", 128, 15, 6),
            ("mysql", "4.0.17", 160, 20, 5),
            ("cjdbc", "2.0.2", 96, 12, 4),
            ("plb", "0.3", 24, 5, 1),
            ("jade-daemon", "1.0", 28, 4, 1),
        ];
        for (name, version, mem, install_s, boot_s) in defs {
            repo.register(PackageDef {
                name: name.to_owned(),
                version: version.to_owned(),
                memory_mb: mem,
                install_latency: SimDuration::from_secs(install_s),
                startup_latency: SimDuration::from_secs(boot_s),
            });
        }
        repo
    }
}

/// Installs packages from a repository onto cluster nodes.
#[derive(Clone, Debug)]
pub struct SoftwareInstallationService {
    repo: SoftwareRepository,
}

impl SoftwareInstallationService {
    /// Wraps a repository.
    pub fn new(repo: SoftwareRepository) -> Self {
        SoftwareInstallationService { repo }
    }

    /// Read access to the repository.
    pub fn repository(&self) -> &SoftwareRepository {
        &self.repo
    }

    /// Installs `package` on `node`, returning the installation latency the
    /// caller must wait before the software is usable. Installing an
    /// already-present package is free (latency zero).
    pub fn install(
        &self,
        cluster: &mut ClusterManager,
        node: NodeId,
        package: &str,
    ) -> Result<SimDuration, ClusterError> {
        let def = self
            .repo
            .get(package)
            .ok_or_else(|| ClusterError::Install(format!("unknown package '{package}'")))?;
        let n = cluster.node_mut(node)?;
        if !n.is_up() {
            return Err(ClusterError::NodeDown(node));
        }
        if n.has_package(package) {
            return Ok(SimDuration::ZERO);
        }
        n.install(package, def.memory_mb)
            .map_err(ClusterError::Install)?;
        Ok(def.install_latency)
    }

    /// Uninstalls `package` from `node` (no-op when absent).
    pub fn uninstall(
        &self,
        cluster: &mut ClusterManager,
        node: NodeId,
        package: &str,
    ) -> Result<(), ClusterError> {
        let mem = self.repo.get(package).map(|d| d.memory_mb).unwrap_or(0);
        cluster.node_mut(node)?.uninstall(package, mem);
        Ok(())
    }

    /// Boot latency of a package's server process.
    pub fn startup_latency(&self, package: &str) -> SimDuration {
        self.repo
            .get(package)
            .map(|d| d.startup_latency)
            .unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSpec;

    fn service() -> (SoftwareInstallationService, ClusterManager) {
        (
            SoftwareInstallationService::new(SoftwareRepository::j2ee_catalogue()),
            ClusterManager::homogeneous(2, NodeSpec::default(), 128),
        )
    }

    #[test]
    fn catalogue_has_the_papers_stack() {
        let repo = SoftwareRepository::j2ee_catalogue();
        for pkg in ["apache", "tomcat", "mysql", "cjdbc", "plb", "jade-daemon"] {
            assert!(repo.get(pkg).is_some(), "missing {pkg}");
        }
        assert_eq!(repo.get("mysql").unwrap().version, "4.0.17");
        assert_eq!(repo.get("cjdbc").unwrap().version, "2.0.2");
    }

    #[test]
    fn install_consumes_memory_and_returns_latency() {
        let (svc, mut cm) = service();
        let node = cm.allocate().unwrap();
        let lat = svc.install(&mut cm, node, "mysql").unwrap();
        assert_eq!(lat, SimDuration::from_secs(20));
        assert!(cm.node(node).unwrap().has_package("mysql"));
        // Re-install is free.
        let lat2 = svc.install(&mut cm, node, "mysql").unwrap();
        assert_eq!(lat2, SimDuration::ZERO);
        svc.uninstall(&mut cm, node, "mysql").unwrap();
        assert!(!cm.node(node).unwrap().has_package("mysql"));
    }

    #[test]
    fn unknown_package_rejected() {
        let (svc, mut cm) = service();
        let node = cm.allocate().unwrap();
        assert!(matches!(
            svc.install(&mut cm, node, "websphere"),
            Err(ClusterError::Install(_))
        ));
    }

    #[test]
    fn crashed_node_rejects_install() {
        let (svc, mut cm) = service();
        let node = cm.allocate().unwrap();
        cm.node_mut(node).unwrap().crash(jade_sim::SimTime::ZERO);
        assert_eq!(
            svc.install(&mut cm, node, "tomcat"),
            Err(ClusterError::NodeDown(node))
        );
    }
}
