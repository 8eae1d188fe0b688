//! Fractal wrappers for the J2EE legacy software (paper §3.2).
//!
//! Each wrapper implements the uniform management interface for one legacy
//! server and reflects control operations onto the [`LegacyLayer`]:
//! attribute writes rewrite the legacy configuration file, `bind`/`unbind`
//! rewrite connection descriptors (`worker.properties`, the PLB worker
//! list, the C-JDBC virtual-database descriptor), and `start`/`stop`
//! invoke the legacy start/stop procedures.
//!
//! The component carrying a wrapper must expose a `server-id` attribute
//! (set at deployment) so that wrappers can resolve binding targets to
//! legacy processes.

use crate::config::{render_cjdbc_xml, WorkerEntry};
use crate::config::{render_httpd_conf, render_my_cnf, render_plb_conf, render_worker_properties};
use crate::legacy::LegacyLayer;
use crate::server::ServerId;
use jade_fractal::{ArchView, AttrValue, ComponentId, Endpoint, FractalError, Wrapper};

type Result<T> = std::result::Result<T, FractalError>;

/// Resolves the legacy process behind a management component through its
/// `server-id` attribute.
pub fn server_id_of(view: &dyn ArchView, comp: ComponentId) -> Result<ServerId> {
    view.attr_of(comp, "server-id")
        .and_then(|v| v.as_int())
        .map(|i| ServerId(jade_sim::id_u32(i)))
        .ok_or_else(|| FractalError::Wrapper {
            reason: format!("component {comp:?} has no server-id attribute"),
        })
}

fn wrap_err(e: impl std::fmt::Display) -> FractalError {
    FractalError::Wrapper {
        reason: e.to_string(),
    }
}

/// Builds a [`WorkerEntry`] for a bound endpoint.
fn worker_entry(
    env: &LegacyLayer,
    view: &dyn ArchView,
    ep: &Endpoint,
    idx: usize,
) -> Result<WorkerEntry> {
    let sid = server_id_of(view, ep.component)?;
    let host = env.host_of(sid).map_err(wrap_err)?;
    let port = env.server(sid).map_err(wrap_err)?.port();
    let name = view
        .name_of(ep.component)
        .map(|n| n.to_string())
        .unwrap_or_else(|| format!("worker{idx}"));
    Ok(WorkerEntry { name, host, port })
}

fn validate_port(name: &str, value: &AttrValue) -> Result<()> {
    if name == "port" {
        match value.as_int() {
            Some(p) if (1..=65535).contains(&p) => Ok(()),
            _ => Err(FractalError::InvalidAttribute {
                attribute: name.to_owned(),
                reason: "port must be an integer in 1..=65535".into(),
            }),
        }
    } else {
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Apache
// ----------------------------------------------------------------------

/// Wrapper for an Apache web server. A modification of the `port`
/// attribute "is reflected in the httpd.conf file"; `bind` on the
/// `ajp-itf` interface rewrites `worker.properties` (paper §3.2).
#[derive(Debug, Clone, Copy)]
pub struct ApacheWrapper {
    /// The wrapped legacy process.
    pub server: ServerId,
}

impl ApacheWrapper {
    fn rewrite_httpd_conf(&self, env: &mut LegacyLayer) -> Result<()> {
        let (node, port, name) = {
            let s = env.server(self.server).map_err(wrap_err)?;
            (s.process().node, s.port(), s.process().name.clone())
        };
        let host = env.host_of(self.server).map_err(wrap_err)?;
        env.configs.write(
            node,
            "conf/httpd.conf",
            render_httpd_conf(&format!("{host}.{name}"), port, "/var/www"),
        );
        Ok(())
    }

    fn rewrite_workers(
        &self,
        env: &mut LegacyLayer,
        view: &dyn ArchView,
        me: ComponentId,
    ) -> Result<()> {
        let endpoints = view.bound_to(me, "ajp-itf");
        let entries: Vec<WorkerEntry> = endpoints
            .iter()
            .enumerate()
            .map(|(i, ep)| worker_entry(env, view, ep, i))
            .collect::<Result<_>>()?;
        let worker_ids: Vec<ServerId> = endpoints
            .iter()
            .map(|ep| server_id_of(view, ep.component))
            .collect::<Result<_>>()?;
        let node = {
            // Keep mod_jk's in-memory worker set aligned with the file.
            match env.server_mut(self.server).map_err(wrap_err)? {
                crate::legacy::LegacyServer::Apache(a) => {
                    a.workers = worker_ids;
                    a.rr_cursor = 0;
                    a.process.node
                }
                other => other.process().node,
            }
        };
        env.configs.write(
            node,
            "conf/worker.properties",
            render_worker_properties(&entries),
        );
        Ok(())
    }
}

impl Wrapper<LegacyLayer> for ApacheWrapper {
    fn validate_attr(&self, name: &str, value: &AttrValue) -> Result<()> {
        validate_port(name, value)
    }

    fn on_set_attr(
        &mut self,
        env: &mut LegacyLayer,
        _view: &dyn ArchView,
        _me: ComponentId,
        name: &str,
        value: &AttrValue,
    ) -> Result<()> {
        if name == "port" {
            if let crate::legacy::LegacyServer::Apache(a) =
                env.server_mut(self.server).map_err(wrap_err)?
            {
                a.port = value.as_int().unwrap_or(80) as u16;
            }
            self.rewrite_httpd_conf(env)?;
        }
        Ok(())
    }

    fn on_bind(
        &mut self,
        env: &mut LegacyLayer,
        view: &dyn ArchView,
        me: ComponentId,
        client_itf: &str,
        _target: &Endpoint,
    ) -> Result<()> {
        if client_itf == "ajp-itf" {
            self.rewrite_workers(env, view, me)?;
        }
        Ok(())
    }

    fn on_unbind(
        &mut self,
        env: &mut LegacyLayer,
        view: &dyn ArchView,
        me: ComponentId,
        client_itf: &str,
        _target: &Endpoint,
    ) -> Result<()> {
        if client_itf == "ajp-itf" {
            self.rewrite_workers(env, view, me)?;
        }
        Ok(())
    }

    fn on_start(
        &mut self,
        env: &mut LegacyLayer,
        _view: &dyn ArchView,
        _me: ComponentId,
    ) -> Result<()> {
        env.start_server(self.server).map_err(wrap_err)
    }

    fn on_stop(
        &mut self,
        env: &mut LegacyLayer,
        _view: &dyn ArchView,
        _me: ComponentId,
    ) -> Result<()> {
        env.stop_server(self.server).map_err(wrap_err)
    }
}

// ----------------------------------------------------------------------
// Tomcat
// ----------------------------------------------------------------------

/// Wrapper for a Tomcat servlet server.
#[derive(Debug, Clone, Copy)]
pub struct TomcatWrapper {
    /// The wrapped legacy process.
    pub server: ServerId,
}

impl Wrapper<LegacyLayer> for TomcatWrapper {
    fn validate_attr(&self, name: &str, value: &AttrValue) -> Result<()> {
        validate_port(name, value)
    }

    fn on_set_attr(
        &mut self,
        env: &mut LegacyLayer,
        _view: &dyn ArchView,
        _me: ComponentId,
        name: &str,
        value: &AttrValue,
    ) -> Result<()> {
        if name == "port" {
            let port = value.as_int().unwrap_or(8098) as u16;
            let node = {
                let t = env.tomcat_mut(self.server).map_err(wrap_err)?;
                t.port = port;
                t.process.node
            };
            env.configs.write(
                node,
                "conf/server.xml",
                format!("<Server>\n  <Connector protocol=\"ajp13\" port=\"{port}\"/>\n</Server>\n"),
            );
        }
        Ok(())
    }

    fn on_start(
        &mut self,
        env: &mut LegacyLayer,
        _view: &dyn ArchView,
        _me: ComponentId,
    ) -> Result<()> {
        env.start_server(self.server).map_err(wrap_err)
    }

    fn on_stop(
        &mut self,
        env: &mut LegacyLayer,
        _view: &dyn ArchView,
        _me: ComponentId,
    ) -> Result<()> {
        env.stop_server(self.server).map_err(wrap_err)
    }
}

// ----------------------------------------------------------------------
// MySQL
// ----------------------------------------------------------------------

/// Wrapper for a MySQL server.
#[derive(Debug, Clone, Copy)]
pub struct MysqlWrapper {
    /// The wrapped legacy process.
    pub server: ServerId,
}

impl Wrapper<LegacyLayer> for MysqlWrapper {
    fn validate_attr(&self, name: &str, value: &AttrValue) -> Result<()> {
        validate_port(name, value)
    }

    fn on_set_attr(
        &mut self,
        env: &mut LegacyLayer,
        _view: &dyn ArchView,
        _me: ComponentId,
        name: &str,
        value: &AttrValue,
    ) -> Result<()> {
        if name == "port" {
            let port = value.as_int().unwrap_or(3306) as u16;
            let node = {
                let m = env.mysql_mut(self.server).map_err(wrap_err)?;
                m.port = port;
                m.process.node
            };
            env.configs
                .write(node, "etc/my.cnf", render_my_cnf(port, "/var/lib/mysql"));
        }
        Ok(())
    }

    fn on_start(
        &mut self,
        env: &mut LegacyLayer,
        _view: &dyn ArchView,
        _me: ComponentId,
    ) -> Result<()> {
        env.start_server(self.server).map_err(wrap_err)
    }

    fn on_stop(
        &mut self,
        env: &mut LegacyLayer,
        _view: &dyn ArchView,
        _me: ComponentId,
    ) -> Result<()> {
        env.stop_server(self.server).map_err(wrap_err)
    }
}

// ----------------------------------------------------------------------
// C-JDBC
// ----------------------------------------------------------------------

/// Wrapper for the C-JDBC controller. Binding its `backends` collection
/// interface to a MySQL component registers the replica and — when the
/// replica is already running — triggers state reconciliation through the
/// recovery log (paper §4.1). Unbinding disables and unregisters it.
#[derive(Debug, Clone, Copy)]
pub struct CjdbcWrapper {
    /// The wrapped legacy process.
    pub server: ServerId,
}

impl CjdbcWrapper {
    fn rewrite_descriptor(
        &self,
        env: &mut LegacyLayer,
        view: &dyn ArchView,
        me: ComponentId,
    ) -> Result<()> {
        let endpoints = view.bound_to(me, "backends");
        let entries: Vec<WorkerEntry> = endpoints
            .iter()
            .enumerate()
            .map(|(i, ep)| worker_entry(env, view, ep, i))
            .collect::<Result<_>>()?;
        let node = env.server(self.server).map_err(wrap_err)?.process().node;
        env.configs
            .write(node, "conf/cjdbc.xml", render_cjdbc_xml("rubis", &entries));
        Ok(())
    }
}

impl Wrapper<LegacyLayer> for CjdbcWrapper {
    fn on_bind(
        &mut self,
        env: &mut LegacyLayer,
        view: &dyn ArchView,
        me: ComponentId,
        client_itf: &str,
        target: &Endpoint,
    ) -> Result<()> {
        if client_itf != "backends" {
            return Ok(());
        }
        let backend = server_id_of(view, target.component)?;
        env.cjdbc_register_backend(self.server, backend)
            .map_err(wrap_err)?;
        // If the replica is already running, bring it into the cluster via
        // log replay; otherwise the deployer enables it after boot.
        if env
            .server(backend)
            .map_err(wrap_err)?
            .process()
            .state
            .is_running()
        {
            env.cjdbc_enable_backend(self.server, backend)
                .map_err(wrap_err)?;
        }
        self.rewrite_descriptor(env, view, me)
    }

    fn on_unbind(
        &mut self,
        env: &mut LegacyLayer,
        view: &dyn ArchView,
        me: ComponentId,
        client_itf: &str,
        target: &Endpoint,
    ) -> Result<()> {
        if client_itf != "backends" {
            return Ok(());
        }
        let backend = server_id_of(view, target.component)?;
        // Unbinding removes the replica from the cluster but *keeps its
        // trace*: "removing a database replica is realized by keeping
        // trace of the state of this replica … stored as the index value
        // in the recovery log corresponding to the last write request
        // that it has executed before being disabled" (paper §4.1). A
        // later re-bind replays exactly the missed suffix. Destroying the
        // replica outright is the deployer's job
        // ([`LegacyLayer::cjdbc_unregister_backend`]).
        match env.cjdbc_backend_status(self.server, backend) {
            Ok(crate::cjdbc::BackendStatus::Active) => {
                let _ = env.cjdbc_disable_backend(self.server, backend);
            }
            Ok(crate::cjdbc::BackendStatus::Syncing) => {
                let _ = env.cjdbc_abort_enable(self.server, backend);
            }
            _ => {}
        }
        self.rewrite_descriptor(env, view, me)
    }

    fn on_start(
        &mut self,
        env: &mut LegacyLayer,
        _view: &dyn ArchView,
        _me: ComponentId,
    ) -> Result<()> {
        env.start_server(self.server).map_err(wrap_err)
    }

    fn on_stop(
        &mut self,
        env: &mut LegacyLayer,
        _view: &dyn ArchView,
        _me: ComponentId,
    ) -> Result<()> {
        env.stop_server(self.server).map_err(wrap_err)
    }
}

// ----------------------------------------------------------------------
// PLB / L4 switch
// ----------------------------------------------------------------------

/// Wrapper for an HTTP load balancer (PLB in front of Tomcat replicas, or
/// the L4 switch in front of Apache replicas). Binding the `workers`
/// collection interface adds a worker to the rotation.
#[derive(Debug, Clone, Copy)]
pub struct BalancerWrapper {
    /// The wrapped legacy process.
    pub server: ServerId,
}

impl BalancerWrapper {
    fn rewrite_conf(
        &self,
        env: &mut LegacyLayer,
        view: &dyn ArchView,
        me: ComponentId,
    ) -> Result<()> {
        let endpoints = view.bound_to(me, "workers");
        let entries: Vec<WorkerEntry> = endpoints
            .iter()
            .enumerate()
            .map(|(i, ep)| worker_entry(env, view, ep, i))
            .collect::<Result<_>>()?;
        let (node, port) = {
            let s = env.server(self.server).map_err(wrap_err)?;
            (s.process().node, s.port())
        };
        env.configs
            .write(node, "etc/plb.conf", render_plb_conf(port, &entries));
        Ok(())
    }
}

impl Wrapper<LegacyLayer> for BalancerWrapper {
    fn on_bind(
        &mut self,
        env: &mut LegacyLayer,
        view: &dyn ArchView,
        me: ComponentId,
        client_itf: &str,
        target: &Endpoint,
    ) -> Result<()> {
        if client_itf != "workers" {
            return Ok(());
        }
        let worker = server_id_of(view, target.component)?;
        env.balancer_mut(self.server)
            .map_err(wrap_err)?
            .add_worker(worker)
            .map_err(wrap_err)?;
        self.rewrite_conf(env, view, me)
    }

    fn on_unbind(
        &mut self,
        env: &mut LegacyLayer,
        view: &dyn ArchView,
        me: ComponentId,
        client_itf: &str,
        target: &Endpoint,
    ) -> Result<()> {
        if client_itf != "workers" {
            return Ok(());
        }
        let worker = server_id_of(view, target.component)?;
        env.balancer_mut(self.server)
            .map_err(wrap_err)?
            .remove_worker(worker)
            .map_err(wrap_err)?;
        self.rewrite_conf(env, view, me)
    }

    fn on_start(
        &mut self,
        env: &mut LegacyLayer,
        _view: &dyn ArchView,
        _me: ComponentId,
    ) -> Result<()> {
        env.start_server(self.server).map_err(wrap_err)
    }

    fn on_stop(
        &mut self,
        env: &mut LegacyLayer,
        _view: &dyn ArchView,
        _me: ComponentId,
    ) -> Result<()> {
        env.stop_server(self.server).map_err(wrap_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::BalancePolicy;
    use crate::cjdbc::ReadPolicy;
    use crate::legacy::LegacyEvent;
    use jade_cluster::{ClusterManager, Network, NodeId, NodeSpec};
    use jade_cluster::{SoftwareInstallationService, SoftwareRepository};
    use jade_fractal::{InterfaceDecl, JournalOp, Registry};

    fn env(nodes: usize) -> LegacyLayer {
        let cluster = ClusterManager::homogeneous(nodes, NodeSpec::default(), 128);
        let sis = SoftwareInstallationService::new(SoftwareRepository::j2ee_catalogue());
        LegacyLayer::new(cluster, Network::lan_100mbps(), sis)
    }

    fn install(l: &mut LegacyLayer, node: NodeId, pkg: &str) {
        l.sis.install(&mut l.cluster, node, pkg).unwrap();
    }

    /// Reproduces the paper's §5.1 scenario: Apache1 bound to Tomcat1 is
    /// rebound to Tomcat2, through exactly the four management operations
    /// the paper lists.
    #[test]
    fn qualitative_rebind_scenario() {
        let mut legacy = env(3);
        for (n, pkg) in [(0, "apache"), (1, "tomcat"), (2, "tomcat")] {
            install(&mut legacy, NodeId(n), pkg);
        }
        let apache_s = legacy.create_apache("Apache1", NodeId(0));
        let tomcat1_s = legacy.create_tomcat("Tomcat1", NodeId(1));
        let tomcat2_s = legacy.create_tomcat("Tomcat2", NodeId(2));

        let mut reg: Registry<LegacyLayer> = Registry::new();
        let apache = reg.new_primitive(
            "Apache1",
            vec![
                InterfaceDecl::server("http", "http"),
                InterfaceDecl::optional_client("ajp-itf", "ajp"),
            ],
            Box::new(ApacheWrapper { server: apache_s }),
        );
        let tomcat1 = reg.new_primitive(
            "Tomcat1",
            vec![InterfaceDecl::server("ajp", "ajp")],
            Box::new(TomcatWrapper { server: tomcat1_s }),
        );
        let tomcat2 = reg.new_primitive(
            "Tomcat2",
            vec![InterfaceDecl::server("ajp", "ajp")],
            Box::new(TomcatWrapper { server: tomcat2_s }),
        );
        reg.set_attr(&mut legacy, apache, "server-id", apache_s.0 as i64)
            .unwrap();
        reg.set_attr(&mut legacy, tomcat1, "server-id", tomcat1_s.0 as i64)
            .unwrap();
        reg.set_attr(&mut legacy, tomcat2, "server-id", tomcat2_s.0 as i64)
            .unwrap();
        reg.set_attr(&mut legacy, tomcat2, "port", 8098i64).unwrap();

        reg.bind(&mut legacy, apache, "ajp-itf", tomcat1, "ajp")
            .unwrap();
        reg.start(&mut legacy, apache).unwrap();
        let before = reg.journal_len();

        // --- The paper's four operations ---
        reg.stop(&mut legacy, apache).unwrap();
        reg.unbind(&mut legacy, apache, "ajp-itf", None).unwrap();
        reg.bind(&mut legacy, apache, "ajp-itf", tomcat2, "ajp")
            .unwrap();
        reg.start(&mut legacy, apache).unwrap();

        // §5.1 counts exactly these four journaled operations.
        let ajp = |component| Endpoint {
            component,
            interface: "ajp".into(),
        };
        assert_eq!(
            reg.journal()[before..],
            [
                JournalOp::Stop(apache),
                JournalOp::Unbind(apache, "ajp-itf".into(), ajp(tomcat1)),
                JournalOp::Bind(apache, "ajp-itf".into(), ajp(tomcat2)),
                JournalOp::Start(apache),
            ]
        );

        // worker.properties now points at Tomcat2 on node3 port 8098,
        // exactly the file the paper shows an administrator hand-editing.
        let wp = legacy
            .configs
            .read(NodeId(0), "conf/worker.properties")
            .unwrap();
        assert!(wp.contains("worker.Tomcat2.host=node3"), "{wp}");
        assert!(wp.contains("worker.Tomcat2.port=8098"), "{wp}");
        assert!(!wp.contains("Tomcat1"), "{wp}");
    }

    #[test]
    fn apache_port_attribute_reflected_in_httpd_conf() {
        let mut legacy = env(1);
        install(&mut legacy, NodeId(0), "apache");
        let apache_s = legacy.create_apache("Apache1", NodeId(0));
        let mut reg: Registry<LegacyLayer> = Registry::new();
        let apache = reg.new_primitive(
            "Apache1",
            vec![],
            Box::new(ApacheWrapper { server: apache_s }),
        );
        reg.set_attr(&mut legacy, apache, "server-id", apache_s.0 as i64)
            .unwrap();
        reg.set_attr(&mut legacy, apache, "port", 8081i64).unwrap();
        let conf = legacy.configs.read(NodeId(0), "conf/httpd.conf").unwrap();
        assert!(conf.contains("Listen 8081"));
        // Invalid port rejected by validation.
        assert!(reg.set_attr(&mut legacy, apache, "port", 0i64).is_err());
    }

    #[test]
    fn balancer_wrapper_maintains_worker_set() {
        let mut legacy = env(3);
        install(&mut legacy, NodeId(0), "plb");
        install(&mut legacy, NodeId(1), "tomcat");
        install(&mut legacy, NodeId(2), "tomcat");
        let plb_s = legacy.create_plb("PLB", NodeId(0), BalancePolicy::RoundRobin);
        let t1_s = legacy.create_tomcat("Tomcat1", NodeId(1));
        let t2_s = legacy.create_tomcat("Tomcat2", NodeId(2));
        let mut reg: Registry<LegacyLayer> = Registry::new();
        let plb = reg.new_primitive(
            "PLB",
            vec![
                InterfaceDecl::server("http", "http"),
                InterfaceDecl::collection_client("workers", "ajp"),
            ],
            Box::new(BalancerWrapper { server: plb_s }),
        );
        let mk = |reg: &mut Registry<LegacyLayer>,
                  legacy: &mut LegacyLayer,
                  name: &str,
                  sid: ServerId| {
            let c = reg.new_primitive(
                name,
                vec![InterfaceDecl::server("ajp", "ajp")],
                Box::new(TomcatWrapper { server: sid }),
            );
            reg.set_attr(legacy, c, "server-id", sid.0 as i64).unwrap();
            c
        };
        reg.set_attr(&mut legacy, plb, "server-id", plb_s.0 as i64)
            .unwrap();
        let t1 = mk(&mut reg, &mut legacy, "Tomcat1", t1_s);
        let t2 = mk(&mut reg, &mut legacy, "Tomcat2", t2_s);
        reg.bind(&mut legacy, plb, "workers", t1, "ajp").unwrap();
        reg.bind(&mut legacy, plb, "workers", t2, "ajp").unwrap();
        assert_eq!(legacy.balancer_mut(plb_s).unwrap().len(), 2);
        let conf = legacy.configs.read(NodeId(0), "etc/plb.conf").unwrap();
        assert!(conf.contains("node2:8098") && conf.contains("node3:8098"));
        reg.unbind(&mut legacy, plb, "workers", Some(t1)).unwrap();
        assert_eq!(legacy.balancer_mut(plb_s).unwrap().len(), 1);
    }

    #[test]
    fn cjdbc_wrapper_bind_triggers_sync_for_running_backend() {
        let mut legacy = env(3);
        install(&mut legacy, NodeId(0), "cjdbc");
        install(&mut legacy, NodeId(1), "mysql");
        let cj_s = legacy.create_cjdbc("C-JDBC", NodeId(0), ReadPolicy::LeastPending);
        let my_s = legacy.create_mysql("MySQL1", NodeId(1));
        legacy.start_server(cj_s).unwrap();
        legacy.finish_boot(cj_s).unwrap();
        legacy.start_server(my_s).unwrap();
        legacy.finish_boot(my_s).unwrap();
        legacy.drain_outbox();

        let mut reg: Registry<LegacyLayer> = Registry::new();
        let cj = reg.new_primitive(
            "C-JDBC",
            vec![
                InterfaceDecl::server("jdbc", "jdbc"),
                InterfaceDecl::collection_client("backends", "mysql"),
            ],
            Box::new(CjdbcWrapper { server: cj_s }),
        );
        let my = reg.new_primitive(
            "MySQL1",
            vec![InterfaceDecl::server("mysql", "mysql")],
            Box::new(MysqlWrapper { server: my_s }),
        );
        reg.set_attr(&mut legacy, cj, "server-id", cj_s.0 as i64)
            .unwrap();
        reg.set_attr(&mut legacy, my, "server-id", my_s.0 as i64)
            .unwrap();
        reg.bind(&mut legacy, cj, "backends", my, "mysql").unwrap();
        // The bind registered the backend and began reconciliation.
        let events = legacy.drain_outbox();
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e, LegacyEvent::ReplayBatchDone { .. })));
        // Descriptor written.
        let xml = legacy.configs.read(NodeId(0), "conf/cjdbc.xml").unwrap();
        assert!(xml.contains("node2:3306"));
        // Unbind disables but keeps the replica's trace (checkpoint) for
        // a later re-insertion (paper §4.1).
        reg.unbind(&mut legacy, cj, "backends", Some(my)).unwrap();
        assert_eq!(legacy.cjdbc(cj_s).unwrap().backends(), vec![my_s]);
        assert_eq!(
            legacy.cjdbc_backend_status(cj_s, my_s).unwrap(),
            crate::cjdbc::BackendStatus::Disabled
        );
    }
}
