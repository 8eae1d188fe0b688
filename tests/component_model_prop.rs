//! Property-based tests of the Fractal component model: arbitrary
//! sequences of management operations never violate the architectural
//! invariants the registry is supposed to maintain.

use jade_fractal::{
    Cardinality, ComponentId, FractalError, InterfaceDecl, LifecycleState, NullWrapper, Registry,
    Role,
};
use jade_propcheck::{run, Gen};

#[derive(Debug, Clone)]
enum Op {
    Bind(u8, u8),
    Unbind(u8, u8),
    Start(u8),
    Stop(u8),
    Fail(u8),
    Repair(u8),
    SetAttr(u8, i64),
}

fn gen_op(g: &mut Gen) -> Op {
    match g.weighted(&[3, 2, 2, 2, 1, 1, 1]) {
        0 => Op::Bind(g.u8(), g.u8()),
        1 => Op::Unbind(g.u8(), g.u8()),
        2 => Op::Start(g.u8()),
        3 => Op::Stop(g.u8()),
        4 => Op::Fail(g.u8()),
        5 => Op::Repair(g.u8()),
        _ => Op::SetAttr(g.u8(), g.i64()),
    }
}

fn build(n: usize) -> (Registry<()>, Vec<ComponentId>) {
    let mut reg: Registry<()> = Registry::new();
    let comps: Vec<ComponentId> = (0..n)
        .map(|i| {
            reg.new_primitive(
                &format!("c{i}"),
                vec![
                    InterfaceDecl::server("srv", "sig"),
                    InterfaceDecl::collection_client("out", "sig"),
                ],
                NullWrapper,
            )
        })
        .collect();
    (reg, comps)
}

#[test]
fn registry_invariants_hold_under_arbitrary_ops() {
    run("registry_invariants_hold_under_arbitrary_ops", 192, |g| {
        let n = g.usize(2..6);
        let ops = g.vec(1..150, gen_op);
        let (mut reg, comps) = build(n);
        let mut env = ();
        let pick = |i: u8| comps[i as usize % comps.len()];
        for op in &ops {
            // Every operation either succeeds or returns a structured
            // error; it must never panic or corrupt the registry.
            let _ = match *op {
                Op::Bind(a, b) => reg.bind(&mut env, pick(a), "out", pick(b), "srv"),
                Op::Unbind(a, b) => reg.unbind(&mut env, pick(a), "out", Some(pick(b))),
                Op::Start(a) => reg.start(&mut env, pick(a)),
                Op::Stop(a) => reg.stop(&mut env, pick(a)),
                Op::Fail(a) => reg.mark_failed(pick(a)),
                Op::Repair(a) => reg.repair(pick(a)),
                Op::SetAttr(a, v) => reg.set_attr(&mut env, pick(a), "x", v),
            };

            // Invariant 1: every binding endpoint refers to a live
            // component with a server interface of the right signature.
            for &c in &comps {
                for ep in reg.bindings_of(c, "out") {
                    let info = reg.info(ep.component).expect("endpoint alive");
                    let decl = info
                        .interfaces
                        .iter()
                        .find(|d| d.name.as_str() == &*ep.interface)
                        .expect("endpoint interface declared");
                    assert_eq!(decl.role, Role::Server);
                }
                // Invariant 2: no duplicate endpoints on a collection
                // interface.
                let eps = reg.bindings_of(c, "out");
                let mut dedup = eps.clone();
                dedup.sort_by_key(|e| (e.component, e.interface.clone()));
                dedup.dedup();
                assert_eq!(eps.len(), dedup.len());
            }

            // Invariant 3: life-cycle states are always one of the three
            // legal states and Failed components are never Started.
            for &c in &comps {
                let s = reg.state(c).expect("component alive");
                assert!(matches!(
                    s,
                    LifecycleState::Stopped | LifecycleState::Started | LifecycleState::Failed
                ));
            }

            // Invariant 4: incoming_bindings is the exact inverse of
            // bindings_of.
            for &c in &comps {
                for (src, itf) in reg.incoming_bindings(c) {
                    assert!(reg.bindings_of(src, &itf).iter().any(|e| e.component == c));
                }
            }
        }
    });
}

/// Starting a failed component always fails until repaired.
#[test]
fn failed_components_refuse_to_start() {
    run("failed_components_refuse_to_start", 192, |g| {
        let seq = g.vec(1..30, |g| g.bool());
        let (mut reg, comps) = build(1);
        let mut env = ();
        let c = comps[0];
        reg.mark_failed(c).unwrap();
        for &try_repair in &seq {
            if try_repair {
                let _ = reg.repair(c);
                let _ = reg.start(&mut env, c);
                assert_eq!(reg.state(c).unwrap(), LifecycleState::Started);
                return;
            } else {
                let refused = matches!(
                    reg.start(&mut env, c),
                    Err(FractalError::InvalidLifecycle { .. })
                );
                assert!(refused);
            }
        }
    });
}

/// Single-cardinality interfaces never hold more than one binding;
/// collection interfaces hold exactly as many as successful binds minus
/// unbinds.
#[test]
fn cardinality_is_enforced() {
    run("cardinality_is_enforced", 192, |g| {
        let targets = g.vec(1..20, |g| g.u8() % 4);
        let mut reg: Registry<()> = Registry::new();
        let mut env = ();
        let single = reg.new_primitive(
            "single",
            vec![InterfaceDecl::client("out", "sig")],
            NullWrapper,
        );
        let servers: Vec<ComponentId> = (0..4)
            .map(|i| {
                reg.new_primitive(
                    &format!("s{i}"),
                    vec![InterfaceDecl::server("srv", "sig")],
                    NullWrapper,
                )
            })
            .collect();
        let mut successes = 0;
        for &t in &targets {
            if reg
                .bind(&mut env, single, "out", servers[t as usize], "srv")
                .is_ok()
            {
                successes += 1;
            }
            assert!(reg.bindings_of(single, "out").len() <= 1);
        }
        assert_eq!(successes, 1, "only the first bind can succeed");
        // Sanity: the declared cardinality drives the behaviour.
        let info = reg.info(single).unwrap();
        assert_eq!(info.interfaces[0].cardinality, Cardinality::Single);
    });
}
