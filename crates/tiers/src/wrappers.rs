//! The Fractal wrapper for the J2EE legacy software (paper §3.2).
//!
//! Every legacy server gets "the same (uniform) management interface":
//! one [`ServerWrapper`] reflects control operations onto the
//! [`LegacyLayer`], and only the per-kind arm of each reflection — chosen
//! by the [`LegacyServer`] variant the layer holds — is specific to the
//! software. A `port` write rewrites `httpd.conf`, `server.xml` or
//! `my.cnf`; `bind`/`unbind` rewrite the connection descriptor
//! (`worker.properties`, the C-JDBC virtual-database descriptor or the
//! PLB worker list); `start`/`stop` invoke the legacy start/stop
//! procedures.
//!
//! The component carrying a wrapper must expose a `server-id` attribute
//! (set at deployment) so that wrappers can resolve binding targets to
//! legacy processes.

use crate::cjdbc::BackendStatus;
use crate::config::{render_cjdbc_xml, render_httpd_conf, render_my_cnf, WorkerEntry};
use crate::config::{render_plb_conf, render_worker_properties};
use crate::legacy::{LegacyLayer, LegacyServer};
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

/// A `port` attribute value as a listen port.
fn listen_port(value: &AttrValue) -> Result<u16> {
    value
        .as_int()
        .and_then(|p| u16::try_from(p).ok())
        .filter(|&p| p != 0)
        .ok_or_else(|| FractalError::InvalidAttribute {
            attribute: "port".into(),
            reason: "port must be an integer in 1..=65535".into(),
        })
}

/// The wrapper of one legacy server of any kind: Apache, Tomcat, MySQL,
/// the C-JDBC controller, PLB or the L4 switch.
///
/// * A `port` write is "reflected in the httpd.conf file" (paper §3.2),
///   or in Tomcat's `server.xml` or MySQL's `my.cnf`; the balancers keep
///   their configured port and write nothing.
/// * Binding Apache's `ajp-itf` rewrites `worker.properties` and mod_jk's
///   worker set.
/// * Binding the C-JDBC `backends` collection to a MySQL component
///   registers the replica and — when the replica is already running —
///   triggers state reconciliation through the recovery log (paper §4.1);
///   unbinding disables it but keeps its trace.
/// * Binding a balancer's `workers` collection adds a worker to the
///   rotation; unbinding removes it.
#[derive(Debug, Clone, Copy)]
pub struct ServerWrapper {
    /// The wrapped legacy process.
    pub server: ServerId,
}

impl ServerWrapper {
    /// Stores a new listen port and rewrites the file that declares it.
    fn write_port(&self, env: &mut LegacyLayer, port: u16) -> Result<()> {
        let (node, path, contents) = match env.server_mut(self.server).map_err(wrap_err)? {
            LegacyServer::Apache(a) => {
                a.port = port;
                let (node, name) = (a.process.node, a.process.name.clone());
                let host = env.host_of(self.server).map_err(wrap_err)?;
                let conf = render_httpd_conf(&format!("{host}.{name}"), port, "/var/www");
                (node, "conf/httpd.conf", conf)
            }
            LegacyServer::Tomcat(t) => {
                t.port = port;
                let conf = format!(
                    "<Server>\n  <Connector protocol=\"ajp13\" port=\"{port}\"/>\n</Server>\n"
                );
                (t.process.node, "conf/server.xml", conf)
            }
            LegacyServer::Mysql(m) => {
                m.port = port;
                let cnf = render_my_cnf(port, "/var/lib/mysql");
                (m.process.node, "etc/my.cnf", cnf)
            }
            _ => return Ok(()),
        };
        env.configs.write(node, path, contents);
        Ok(())
    }

    /// Rewrites the file listing the peers bound to `itf`, the server's
    /// listing interface.
    fn write_listing(
        &self,
        env: &mut LegacyLayer,
        view: &dyn ArchView,
        me: ComponentId,
        itf: &str,
    ) -> Result<()> {
        let endpoints = view.bound_to(me, itf);
        let entries: Vec<WorkerEntry> = endpoints
            .iter()
            .enumerate()
            .map(|(i, ep)| worker_entry(env, view, ep, i))
            .collect::<Result<_>>()?;
        let (node, path, contents) = match env.server_mut(self.server).map_err(wrap_err)? {
            LegacyServer::Apache(a) => {
                // Keep mod_jk's in-memory worker set aligned with the file.
                a.workers = endpoints
                    .iter()
                    .map(|ep| server_id_of(view, ep.component))
                    .collect::<Result<_>>()?;
                a.rr_cursor = 0;
                let wp = render_worker_properties(&entries);
                (a.process.node, "conf/worker.properties", wp)
            }
            LegacyServer::Cjdbc { process, .. } => {
                let xml = render_cjdbc_xml("rubis", &entries);
                (process.node, "conf/cjdbc.xml", xml)
            }
            // PLB or the L4 switch: only their `workers` list comes here.
            other => {
                let conf = render_plb_conf(other.port(), &entries);
                (other.process().node, "etc/plb.conf", conf)
            }
        };
        env.configs.write(node, path, contents);
        Ok(())
    }

    /// Reflects a binding (`bound`) or its removal onto the legacy layer,
    /// then rewrites the listing. Interfaces other than the server's
    /// listing interface (Tomcat's `jdbc-itf`) have no legacy effect.
    fn reflect_binding(
        &self,
        env: &mut LegacyLayer,
        view: &dyn ArchView,
        me: ComponentId,
        itf: &str,
        target: &Endpoint,
        bound: bool,
    ) -> Result<()> {
        let kind = env.server(self.server).map_err(wrap_err)?;
        match (kind, itf) {
            (LegacyServer::Apache(_), "ajp-itf") => {}
            (LegacyServer::Cjdbc { .. }, "backends") => {
                let backend = server_id_of(view, target.component)?;
                if bound {
                    env.cjdbc_register_backend(self.server, backend)
                        .map_err(wrap_err)?;
                    // If the replica is already running, bring it into the
                    // cluster via log replay; otherwise the deployer
                    // enables it after boot.
                    let backend_state = env.server(backend).map_err(wrap_err)?.process().state;
                    if backend_state.is_running() {
                        env.cjdbc_enable_backend(self.server, backend)
                            .map_err(wrap_err)?;
                    }
                } else {
                    // Unbinding removes the replica from the cluster but
                    // *keeps its trace*: "removing a database replica is
                    // realized by keeping trace of the state of this
                    // replica … stored as the index value in the recovery
                    // log corresponding to the last write request that it
                    // has executed before being disabled" (paper §4.1). A
                    // later re-bind replays exactly the missed suffix.
                    // Destroying the replica outright is the deployer's job
                    // ([`LegacyLayer::cjdbc_unregister_backend`]).
                    match env.cjdbc_backend_status(self.server, backend) {
                        Ok(BackendStatus::Active) => {
                            let _ = env.cjdbc_disable_backend(self.server, backend);
                        }
                        Ok(BackendStatus::Syncing) => {
                            let _ = env.cjdbc_abort_enable(self.server, backend);
                        }
                        _ => {}
                    }
                }
            }
            (LegacyServer::Plb { .. } | LegacyServer::L4Switch { .. }, "workers") => {
                let worker = server_id_of(view, target.component)?;
                let rotation = env.balancer_mut(self.server).map_err(wrap_err)?;
                if bound {
                    rotation.add_worker(worker)
                } else {
                    rotation.remove_worker(worker)
                }
                .map_err(wrap_err)?;
            }
            _ => return Ok(()),
        }
        self.write_listing(env, view, me, itf)
    }
}

impl Wrapper<LegacyLayer> for ServerWrapper {
    fn validate_attr(&self, name: &str, value: &AttrValue) -> Result<()> {
        if name == "port" {
            listen_port(value)?;
        }
        Ok(())
    }

    fn on_set_attr(
        &self,
        env: &mut LegacyLayer,
        _view: &dyn ArchView,
        _me: ComponentId,
        name: &str,
        value: &AttrValue,
    ) -> Result<()> {
        if name == "port" {
            self.write_port(env, listen_port(value)?)?;
        }
        Ok(())
    }

    fn on_bind(
        &self,
        env: &mut LegacyLayer,
        view: &dyn ArchView,
        me: ComponentId,
        client_itf: &str,
        target: &Endpoint,
    ) -> Result<()> {
        self.reflect_binding(env, view, me, client_itf, target, true)
    }

    fn on_unbind(
        &self,
        env: &mut LegacyLayer,
        view: &dyn ArchView,
        me: ComponentId,
        client_itf: &str,
        target: &Endpoint,
    ) -> Result<()> {
        self.reflect_binding(env, view, me, client_itf, target, false)
    }

    fn on_start(
        &self,
        env: &mut LegacyLayer,
        _view: &dyn ArchView,
        _me: ComponentId,
    ) -> Result<()> {
        env.start_server(self.server).map_err(wrap_err)
    }

    fn on_stop(&self, env: &mut LegacyLayer, _view: &dyn ArchView, _me: ComponentId) -> Result<()> {
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

        let mut reg: Registry<LegacyLayer, ServerWrapper> = Registry::new();
        let apache = reg.new_primitive(
            "Apache1",
            vec![
                InterfaceDecl::server("http", "http"),
                InterfaceDecl::optional_client("ajp-itf", "ajp"),
            ],
            ServerWrapper { server: apache_s },
        );
        let tomcat1 = reg.new_primitive(
            "Tomcat1",
            vec![InterfaceDecl::server("ajp", "ajp")],
            ServerWrapper { server: tomcat1_s },
        );
        let tomcat2 = reg.new_primitive(
            "Tomcat2",
            vec![InterfaceDecl::server("ajp", "ajp")],
            ServerWrapper { server: tomcat2_s },
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

    /// One `port` write per kind: Apache, Tomcat and MySQL rewrite their
    /// own file and reject out-of-range or non-integer ports without
    /// touching the stored attribute or the file; C-JDBC and PLB keep
    /// their configured port and write no file.
    #[test]
    fn port_writes_reflect_per_kind_and_invalid_ports_change_nothing() {
        let mut legacy = env(1);
        let node = NodeId(0);
        let cases = [
            (
                legacy.create_apache("Apache1", node),
                Some(("conf/httpd.conf", "Listen 8081")),
            ),
            (
                legacy.create_tomcat("Tomcat1", node),
                Some(("conf/server.xml", "port=\"8081\"")),
            ),
            (
                legacy.create_mysql("MySQL1", node),
                Some(("etc/my.cnf", "port=8081")),
            ),
            (
                legacy.create_cjdbc("C-JDBC", node, ReadPolicy::LeastPending),
                None,
            ),
            (
                legacy.create_plb("PLB", node, BalancePolicy::RoundRobin),
                None,
            ),
        ];
        let mut reg: Registry<LegacyLayer, ServerWrapper> = Registry::new();
        for (server, file) in cases {
            let name = legacy.server(server).unwrap().process().name.clone();
            let comp = reg.new_primitive(&name, vec![], ServerWrapper { server });
            reg.set_attr(&mut legacy, comp, "server-id", server.0 as i64)
                .unwrap();
            let writes = legacy.configs.write_count();
            reg.set_attr(&mut legacy, comp, "port", 8081i64).unwrap();
            let Some((path, line)) = file else {
                assert_eq!(legacy.configs.write_count(), writes, "{name} wrote a file");
                continue;
            };
            assert_eq!(legacy.server(server).unwrap().port(), 8081, "{name}");
            let conf = legacy.configs.read(node, path).unwrap().to_owned();
            assert!(conf.contains(line), "{name}: {conf}");
            let writes = legacy.configs.write_count();
            for bad in [AttrValue::Int(0), AttrValue::Int(65536), "8082".into()] {
                assert!(
                    reg.set_attr(&mut legacy, comp, "port", bad.clone())
                        .is_err(),
                    "{name} accepted {bad:?}"
                );
                assert_eq!(reg.get_attr(comp, "port").unwrap(), AttrValue::Int(8081));
                assert_eq!(legacy.configs.read(node, path), Some(conf.as_str()));
                assert_eq!(legacy.configs.write_count(), writes, "{name}");
            }
        }
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
        let mut reg: Registry<LegacyLayer, ServerWrapper> = Registry::new();
        let plb = reg.new_primitive(
            "PLB",
            vec![
                InterfaceDecl::server("http", "http"),
                InterfaceDecl::collection_client("workers", "ajp"),
            ],
            ServerWrapper { server: plb_s },
        );
        let mk = |reg: &mut Registry<LegacyLayer, ServerWrapper>,
                  legacy: &mut LegacyLayer,
                  name: &str,
                  sid: ServerId| {
            let c = reg.new_primitive(
                name,
                vec![InterfaceDecl::server("ajp", "ajp")],
                ServerWrapper { server: sid },
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

        let mut reg: Registry<LegacyLayer, ServerWrapper> = Registry::new();
        let cj = reg.new_primitive(
            "C-JDBC",
            vec![
                InterfaceDecl::server("jdbc", "jdbc"),
                InterfaceDecl::collection_client("backends", "mysql"),
            ],
            ServerWrapper { server: cj_s },
        );
        let my = reg.new_primitive(
            "MySQL1",
            vec![InterfaceDecl::server("mysql", "mysql")],
            ServerWrapper { server: my_s },
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
