//! The full four-layer topology of paper Figure 2: an L4 switch balancing
//! replicated Apache web servers, connected through mod_jk to replicated
//! Tomcats, C-JDBC and replicated MySQLs.

use jade::adl::J2eeDescription;
use jade::config::SystemConfig;
use jade::experiment::run_experiment;
use jade::system::ManagedTier;
use jade_cluster::NodeId;
use jade_rubis::WorkloadRamp;
use jade_sim::SimDuration;

const FIGURE2_ADL: &str = r#"
    <j2ee name="rubis">
        <tier kind="web" replicas="2"/>
        <tier kind="application" replicas="2"/>
        <tier kind="database" replicas="1"/>
    </j2ee>
"#;

fn figure2_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_managed();
    cfg.description = J2eeDescription::from_xml(FIGURE2_ADL).expect("valid ADL");
    cfg.nodes = 12;
    cfg.ramp = WorkloadRamp::constant(120);
    cfg.jade.app_loop.min_replicas = 2;
    cfg
}

#[test]
fn figure2_topology_deploys_and_serves() {
    let out = run_experiment(figure2_cfg(), SimDuration::from_secs(300));
    let tree = out.app.jade.render_architecture();
    for name in ["L4-switch", "Apache1", "Apache2", "Tomcat1", "Tomcat2"] {
        assert!(tree.contains(name), "missing {name}:\n{tree}");
    }
    // Each Apache is bound to both Tomcats (Figure 2's cross wiring).
    assert!(
        tree.contains("Apache1 [started] (ajp-itf -> Tomcat1) (ajp-itf -> Tomcat2)"),
        "{tree}"
    );
    // Requests flow end-to-end through all four layers.
    assert!(out.app.stats.total_completed() > 2_000);
    assert_eq!(out.app.stats.total_failed(), 0);
}

#[test]
fn static_documents_never_touch_the_database() {
    let mut cfg = figure2_cfg();
    cfg.ramp = WorkloadRamp::constant(60);
    let out = run_experiment(cfg, SimDuration::from_secs(200));
    // The web tier absorbs the static share of the mix: Apache nodes see
    // CPU work even though static pages produce no SQL.
    let apache_nodes = [NodeId(6), NodeId(7)]; // after cjdbc, plb, 2 tomcats, 1 mysql, l4
    let mut any_busy = false;
    for &n in &apache_nodes {
        if let Ok(node) = out.app.legacy.cluster.node(n) {
            if node.has_package("apache") {
                any_busy = true;
            }
        }
    }
    assert!(
        any_busy,
        "apache replicas must be deployed on the expected nodes"
    );
    assert!(out.app.stats.total_completed() > 500);
}

#[test]
fn worker_properties_lists_every_tomcat() {
    let out = run_experiment(figure2_cfg(), SimDuration::from_secs(60));
    // Find an Apache node and read its worker.properties.
    let mut checked = 0;
    for node in out.app.legacy.cluster.node_ids() {
        if let Some(wp) = out.app.legacy.configs.read(node, "conf/worker.properties") {
            assert!(wp.contains("worker.Tomcat1."), "{wp}");
            assert!(wp.contains("worker.Tomcat2."), "{wp}");
            assert!(wp.contains("balanced_workers=Tomcat1, Tomcat2"), "{wp}");
            checked += 1;
        }
    }
    assert_eq!(checked, 2, "both Apache replicas carry the config");
}

#[test]
fn application_scale_up_joins_the_apache_rotation() {
    let mut cfg = figure2_cfg();
    // Force an application-tier scale-up with a heavy load.
    cfg.ramp = WorkloadRamp::constant(500);
    cfg.nodes = 12;
    let out = run_experiment(cfg, SimDuration::from_secs(420));
    if out.app.running_replicas(ManagedTier::Application) >= 3 {
        let tree = out.app.jade.render_architecture();
        assert!(
            tree.contains("ajp-itf -> Tomcat3"),
            "the new Tomcat must join mod_jk rotations:\n{tree}"
        );
    } else {
        // The DB may have been the bottleneck; at least the system
        // reconfigured something under this load.
        assert!(!out.app.reconfig_log.is_empty());
    }
}
