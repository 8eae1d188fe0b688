//! ADL → deployment integration: interpreting an architecture description
//! produces exactly the described system (paper §3.3), with the wrappers'
//! configuration artifacts in place.

use jade::adl::J2eeDescription;
use jade::config::SystemConfig;
use jade::experiment::run_experiment;
use jade::system::ManagedTier;
use jade_cluster::NodeId;
use jade_rubis::WorkloadRamp;
use jade_sim::SimDuration;
use jade_tiers::{BalancePolicy, ReadPolicy, Tier};

fn deploy(adl: &str, nodes: usize) -> jade::experiment::ExperimentOutput {
    let mut cfg = SystemConfig::paper_managed();
    cfg.description = J2eeDescription::from_xml(adl).expect("valid ADL");
    cfg.nodes = nodes;
    cfg.ramp = WorkloadRamp::constant(40);
    // These tests check *deployment*, not optimization: at 40 clients the
    // self-optimizer would (correctly) reclaim the idle extra replicas,
    // so pin the replica counts by disabling reconfiguration.
    cfg.jade.managed = false;
    run_experiment(cfg, SimDuration::from_secs(60))
}

#[test]
fn replicas_match_the_description() {
    let out = deploy(
        r#"<j2ee name="rubis">
             <tier kind="application" replicas="2"/>
             <tier kind="database" replicas="3"/>
           </j2ee>"#,
        9,
    );
    assert_eq!(out.app.running_replicas(ManagedTier::Application), 2);
    assert_eq!(out.app.running_replicas(ManagedTier::Database), 3);
    assert_eq!(out.app.allocated_nodes(), 7); // 2 + 3 + PLB + C-JDBC
    let tree = out.app.jade.render_architecture();
    for name in [
        "PLB", "C-JDBC", "Tomcat1", "Tomcat2", "MySQL1", "MySQL2", "MySQL3",
    ] {
        assert!(tree.contains(name), "missing {name} in:\n{tree}");
    }
}

#[test]
fn policies_flow_into_the_legacy_layer() {
    let out = deploy(
        r#"<j2ee name="rubis">
             <tier kind="application" replicas="1" policy="random"/>
             <tier kind="database" replicas="1" read-policy="round-robin"/>
           </j2ee>"#,
        6,
    );
    let (plb_server, _) = out.app.jade.plb().expect("plb deployed");
    let legacy = &out.app.legacy;
    match legacy.server(plb_server).unwrap() {
        jade_tiers::LegacyServer::Plb { balancer, .. } => {
            assert_eq!(balancer.policy(), BalancePolicy::Random)
        }
        other => panic!("unexpected {other:?}"),
    }
    let (cj_server, _) = out.app.jade.cjdbc().expect("cjdbc deployed");
    assert_eq!(
        legacy.cjdbc(cj_server).unwrap().policy(),
        ReadPolicy::RoundRobin
    );
}

#[test]
fn wrappers_materialize_config_files() {
    let out = deploy(
        r#"<j2ee name="rubis">
             <tier kind="application" replicas="1"/>
             <tier kind="database" replicas="1"/>
           </j2ee>"#,
        6,
    );
    let configs = &out.app.legacy.configs;
    // Deterministic layout: node1 = C-JDBC, node2 = PLB.
    let cjdbc_xml = configs
        .read(NodeId(0), "conf/cjdbc.xml")
        .expect("cjdbc.xml");
    assert!(cjdbc_xml.contains("RAIDb-1"));
    assert!(cjdbc_xml.contains("jdbc:mysql://"));
    let plb_conf = configs.read(NodeId(1), "etc/plb.conf").expect("plb.conf");
    assert!(plb_conf.contains("server node3:8098"), "{plb_conf}");
}

#[test]
fn dataset_is_loaded_into_every_replica() {
    let out = deploy(
        r#"<j2ee name="rubis">
             <tier kind="application" replicas="1"/>
             <tier kind="database" replicas="2"/>
           </j2ee>"#,
        7,
    );
    let spec = out.app.cfg.dataset;
    for server in out.app.legacy.running_servers_of(Tier::Database) {
        let db = &out.app.legacy.mysql(server).unwrap().db;
        assert!(db.get_table("users").unwrap().len() as u64 >= spec.users);
        assert!(db.get_table("items").unwrap().len() as u64 >= spec.items);
    }
}

#[test]
fn jade_manages_itself() {
    // Paper §3.4: "autonomic managers [are] deployed and managed using the
    // same Jade framework (Jade administrates itself)".
    let out = deploy(
        r#"<j2ee name="rubis">
             <tier kind="application" replicas="1"/>
             <tier kind="database" replicas="1"/>
           </j2ee>"#,
        6,
    );
    let reg = out.app.jade.registry();
    let jade_root = reg
        .ids()
        .into_iter()
        .find(|&id| reg.name(id).as_deref() == Ok("jade"))
        .expect("jade composite exists");
    let tree = reg.render_tree(jade_root);
    for part in [
        "self-optimization-app.sensor",
        "self-optimization-app.reactor",
        "self-optimization-app.actuator",
        "self-optimization-db.sensor",
    ] {
        assert!(tree.contains(part), "missing {part} in:\n{tree}");
    }
}

#[test]
fn adl_rejects_oversized_deployments_gracefully() {
    // 3 nodes cannot host 2 app + 3 db + 2 balancers; the deployer panics
    // with a clear message (deployment is a precondition, not a runtime
    // error path).
    let result = std::panic::catch_unwind(|| {
        deploy(
            r#"<j2ee name="rubis">
                 <tier kind="application" replicas="2"/>
                 <tier kind="database" replicas="3"/>
               </j2ee>"#,
            3,
        )
    });
    assert!(result.is_err());
}
