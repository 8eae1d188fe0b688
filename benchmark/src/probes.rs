//! Layer probes: the benchmark calls each module's public functions
//! directly and times them, so that a change inside one module has a
//! number of its own. Inputs come from the workload seed; parameters are
//! fixed and named in the metric (README.md says which workload each
//! parameter stands for). Every probe runs batches until it has timed at
//! least `budget`, untimed set-up excluded, and reports ns per call.

// jade-audit: allow-file(nondet-time): layer probes time module functions from outside; nothing here runs inside a simulation

use jade::adl::J2eeDescription;
use jade::control::{CpuAvgSensor, Sensor};
use jade_cluster::{ClusterManager, Network, NodeId, NodeSpec};
use jade_fractal::{InterfaceDecl, NullWrapper, Registry};
use jade_rubis::{
    dataset_statements, generate_plan_compiled_into, rubis_schema, ClientPool, DatasetSpec,
    InteractionMix, KeySpace, StatsCollector, FRESH_BUCKET,
};
use jade_sim::{
    EfficiencyCurve, EventQueue, JobId, MetricsHub, PsCpu, SeriesCursor, SimDuration, SimRng,
    SimTime,
};
use jade_tiers::storage::WriteDelta;
use jade_tiers::{
    BalancePolicy, CjdbcController, Database, HttpBalancer, PlanStep, ReadPolicy, RecoveryLog,
    ServerId, SqlProgram, Statement, Value,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Delta tail replayed by `tiers.storage.restore_ns` and cloned by
/// `tiers.recovery.sync_plan_ns`.
const TAIL: usize = 512;
/// Steps or deltas per storage batch: small enough that the tables a
/// write probe grows stay near the dataset's size.
const STORAGE_BATCH: usize = 2048;

/// Runs `batch` — which returns `(time measured, calls made)` — until
/// `budget` of measured time has accumulated; ns per call.
fn measure(budget: Duration, mut batch: impl FnMut() -> (Duration, u64)) -> f64 {
    let (mut time, mut calls) = (Duration::ZERO, 0u64);
    while time < budget {
        let (t, c) = batch();
        time += t;
        calls += c;
    }
    time.as_nanos() as f64 / calls.max(1) as f64
}

/// Times `calls` invocations of `f`.
fn timed(calls: u64, mut f: impl FnMut(u64)) -> (Duration, u64) {
    let start = Instant::now();
    for i in 0..calls {
        f(i);
    }
    (start.elapsed(), calls)
}

/// Runs every probe; `(metric name, ns)` in registry order.
pub fn run_all(seed: u64, budget: Duration) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    queue(seed, budget, &mut out);
    cpu(seed, budget, &mut out);
    cluster(seed, budget, &mut out);
    rubis(seed, budget, &mut out);
    storage(seed, budget, &mut out);
    replication(seed, budget, &mut out);
    observation(seed, budget, &mut out);
    management(budget, &mut out);
    out
}

type Out = Vec<(String, f64)>;

/// Share of write steps among the SQL steps of a mix's interactions —
/// what weighs the read and write paths in `reconcile.db_dispatch_err`.
pub fn write_step_share(browsing: bool) -> f64 {
    let mix = if browsing {
        InteractionMix::browsing()
    } else {
        InteractionMix::bidding()
    };
    let mut rng = SimRng::seed_from_u64(0x5A4E);
    let (mut writes, mut steps) = (0u32, 0u32);
    for _ in 0..4096 {
        let plan = &jade_rubis::compiled_plans()[mix.sample_index(&mut rng)];
        steps += plan.steps.len() as u32;
        writes += plan.steps.iter().filter(|s| s.is_write()).count() as u32;
    }
    f64::from(writes) / f64::from(steps.max(1))
}

// ---------------------------------------------------------------------
// jade_sim::queue (+ wheel): the engine's pending set.
// ---------------------------------------------------------------------

/// Hold model at a fixed pending depth: pop the earliest event, push one
/// a random delay later. Depth 500 is `fig5_ramp`'s peak client count,
/// 5 000 a pending set an order of magnitude deeper.
fn queue(seed: u64, budget: Duration, out: &mut Out) {
    for depth in [500u64, 5_000] {
        for coarse in [false, true] {
            let mut rng = SimRng::seed_from_u64(seed ^ depth);
            let mut q: EventQueue<u64> = EventQueue::new();
            let push = |q: &mut EventQueue<u64>, at: SimTime, v: u64| {
                if coarse {
                    q.push_coarse(at, v)
                } else {
                    q.push(at, v)
                }
            };
            for i in 0..depth {
                push(
                    &mut q,
                    SimTime::from_micros(rng.range_u64(0, 13_000_000)),
                    i,
                );
            }
            let ns = measure(budget, || {
                timed(4096, |i| {
                    let (now, v) = q.pop().expect("depth is constant");
                    // Think-time-like delays: mean 6.5 s.
                    let delay = SimDuration::from_micros(rng.range_u64(1, 13_000_000));
                    push(&mut q, now + delay, black_box(v) ^ i);
                })
            });
            let kind = if coarse {
                "coarse_push_pop"
            } else {
                "push_pop"
            };
            out.push((format!("sim.queue.{kind}_ns_d{depth}"), ns));
        }
        // Patience timers: armed on the wheel, almost always cancelled.
        let mut rng = SimRng::seed_from_u64(seed ^ depth ^ 0xCA);
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..depth {
            q.push_coarse(SimTime::from_micros(rng.range_u64(0, 8_000_000)), i);
        }
        let ns = measure(budget, || {
            timed(4096, |i| {
                let at = SimTime::from_micros(rng.range_u64(0, 8_000_000));
                let token = q.push_coarse(at, i);
                q.cancel(black_box(token));
            })
        });
        out.push((format!("sim.queue.cancel_ns_d{depth}"), ns));
    }
}

// ---------------------------------------------------------------------
// jade_sim::cpu: the processor-sharing CPU of one node.
// ---------------------------------------------------------------------

/// One job's life at a fixed population `n`: submit, ask for the next
/// completion, advance to it, collect. n = 2 is what a node holds in
/// `fig5_ramp`, `probe_wide` and `repair_churn`; n = 128 is the database
/// node of `overload_1k`, past the thrashing knee.
fn cpu(seed: u64, budget: Duration, out: &mut Out) {
    let curve = EfficiencyCurve::Thrashing {
        knee: 40,
        slope: 0.02,
    };
    for n in [2u64, 16, 128] {
        let mut rng = SimRng::seed_from_u64(seed ^ n);
        let mut cpu = PsCpu::new(1.0, curve);
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let demand = |rng: &mut SimRng| SimDuration::from_micros(rng.range_u64(500, 20_000));
        for _ in 0..n {
            cpu.submit(now, JobId(next_id), demand(&mut rng));
            next_id += 1;
        }
        let mut done = Vec::new();
        let ns = measure(budget, || {
            timed(4096, |_| {
                cpu.submit(now, JobId(next_id), demand(&mut rng));
                next_id += 1;
                now = cpu.next_completion(now).expect("jobs are resident");
                done.clear();
                cpu.collect_completions_into(now, &mut done);
                // Completions can coincide; top the population back up.
                for _ in 1..done.len() {
                    cpu.submit(now, JobId(next_id), demand(&mut rng));
                    next_id += 1;
                }
                black_box(done.len());
            })
        });
        out.push((format!("sim.cpu.cycle_ns_n{n}"), ns));
    }
}

// ---------------------------------------------------------------------
// jade_cluster: network delays and the per-node CPU probe.
// ---------------------------------------------------------------------

fn cluster(seed: u64, budget: Duration, out: &mut Out) {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xC1);
    let net = Network::lan_100mbps();
    let ns = measure(budget, || {
        timed(4096, |_| {
            let (a, b) = (rng.below(9) as u32, rng.below(9) as u32);
            black_box(net.delay(NodeId(a), NodeId(b), 600 + u64::from(a)));
        })
    });
    out.push(("cluster.network.delay_ns".into(), ns));

    // `probe_wide`'s pool: 256 nodes sampled per tick.
    const NODES: usize = 256;
    let mut cm = ClusterManager::homogeneous(NODES, NodeSpec::default(), 64);
    let mut samples = Vec::new();
    let mut now = SimTime::ZERO;
    let per_tick = measure(budget, || {
        timed(64, |_| {
            now += SimDuration::from_millis(100);
            cm.sample_cpus_into(now, &mut samples);
            black_box(samples.len());
        })
    });
    out.push((
        "cluster.manager.sample_cpus_ns_per_node".into(),
        per_tick / NODES as f64,
    ));
}

// ---------------------------------------------------------------------
// jade_rubis: plan generation, the aggregate pool, client statistics.
// ---------------------------------------------------------------------

fn rubis(seed: u64, budget: Duration, out: &mut Out) {
    for (name, mix) in [
        ("bidding", InteractionMix::bidding()),
        ("browsing", InteractionMix::browsing()),
    ] {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xB1D);
        let mut ks: KeySpace = DatasetSpec::small().into();
        let (mut params, mut demands) = (Vec::new(), Vec::new());
        let ns = measure(budget, || {
            timed(2048, |_| {
                let i = mix.sample_index(&mut rng);
                let plan = generate_plan_compiled_into(
                    i,
                    &mut ks,
                    &mut rng,
                    std::mem::take(&mut params),
                    std::mem::take(&mut demands),
                );
                black_box(plan.response_bytes);
                if let SqlProgram::Compiled(run) = plan.sql {
                    (params, demands) = (run.params, run.demands);
                }
            })
        });
        out.push((format!("rubis.plan_gen_ns_{name}"), ns));
    }

    // `fig5_1m` at its peak: a million sessions, 100 ms ticks against a
    // 650 s mean think time. Issuers complete at once, so the idle
    // population — what a tick's cost depends on — stays at a million.
    let mut rng = SimRng::seed_from_u64(seed ^ 0x1_000_000);
    let mut pool = ClientPool::new();
    pool.set_target(1_000_000);
    let p = 1.0 - (-0.1f64 / 650.0).exp();
    let ns = measure(budget, || {
        timed(256, |_| {
            let mut issued = 0u32;
            pool.tick(p, &mut rng, |_rng, _bucket| issued += 1);
            // The i.i.d. mix tracks no navigation state.
            for _ in 0..issued {
                pool.complete(FRESH_BUCKET);
            }
            black_box(issued);
        })
    });
    out.push(("rubis.pool.tick_ns".into(), ns));

    let mut rng = SimRng::seed_from_u64(seed ^ 0x57A7);
    let ns = measure(budget, || {
        // A fresh collector per batch: its window table grows with time.
        let mut stats = StatsCollector::new(SimDuration::from_secs(10));
        let mut now = SimTime::ZERO;
        let r = timed(8192, |_| {
            now += SimDuration::from_millis(80);
            let latency = SimDuration::from_micros(rng.range_u64(5_000, 400_000));
            stats.record_completion_of(now, latency, "ViewItem");
        });
        black_box(stats.total_completed());
        r
    });
    out.push(("rubis.stats.record_ns".into(), ns));
}

// ---------------------------------------------------------------------
// jade_tiers::{storage, plan}: the opcode executor on one replica.
// ---------------------------------------------------------------------

/// A loaded database and a stream of compiled steps against it.
struct StorageFixture {
    pristine: Database,
    reads: Vec<(&'static PlanStep, Vec<Value>)>,
    writes: Vec<(&'static PlanStep, Vec<Value>)>,
}

impl StorageFixture {
    fn new(seed: u64, spec: DatasetSpec) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut pristine = Database::new(rubis_schema());
        for stmt in dataset_statements(spec, &mut rng) {
            pristine.execute(&stmt).expect("dataset loads");
        }
        // The bidding mix's steps, split by kind, with the parameters
        // the generator drew for them.
        let mix = InteractionMix::bidding();
        let mut ks: KeySpace = spec.into();
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        while reads.len() < STORAGE_BATCH || writes.len() < STORAGE_BATCH {
            let i = mix.sample_index(&mut rng);
            let plan = generate_plan_compiled_into(i, &mut ks, &mut rng, Vec::new(), Vec::new());
            let SqlProgram::Compiled(run) = plan.sql else {
                unreachable!("the compiled generator emits compiled runs")
            };
            for step in &run.plan.steps {
                let side = if step.is_write() {
                    &mut writes
                } else {
                    &mut reads
                };
                if side.len() < STORAGE_BATCH {
                    side.push((step, run.params.clone()));
                }
            }
        }
        StorageFixture {
            pristine,
            reads,
            writes,
        }
    }

    /// The deltas the write stream produces on a copy of the dataset.
    fn deltas(&self, n: usize) -> Vec<Arc<WriteDelta>> {
        let mut primary = self.pristine.clone();
        self.writes
            .iter()
            .cycle()
            .take(n)
            .filter_map(|(step, params)| primary.execute_step_capture(step, params).ok())
            .map(|(_, delta)| Arc::new(delta))
            .collect()
    }
}

fn storage(seed: u64, budget: Duration, out: &mut Out) {
    for (suffix, spec) in [
        ("small", DatasetSpec::small()),
        ("x20", crate::workloads::dataset_x20()),
    ] {
        let fx = StorageFixture::new(seed ^ 0xDA7A, spec);

        let ns = measure(budget, || {
            let (mut i, n) = (0, fx.reads.len());
            timed(n as u64, |_| {
                let (step, params) = &fx.reads[i];
                black_box(fx.pristine.read_step_summary(step, params).ok());
                i += 1;
            })
        });
        out.push((format!("tiers.storage.read_step_ns_{suffix}"), ns));

        // Writes and deltas run against a copy-on-write clone per batch,
        // so that every batch meets the same tables.
        let ns = measure(budget, || {
            let mut db = fx.pristine.clone();
            let mut i = 0;
            let r = timed(fx.writes.len() as u64, |_| {
                let (step, params) = &fx.writes[i];
                black_box(db.execute_step_capture(step, params).ok());
                i += 1;
            });
            black_box(db.total_rows());
            r
        });
        out.push((format!("tiers.storage.write_step_ns_{suffix}"), ns));

        let deltas = fx.deltas(STORAGE_BATCH);
        let ns = measure(budget, || {
            let mut replica = fx.pristine.clone();
            let mut i = 0;
            let r = timed(deltas.len() as u64, |_| {
                black_box(replica.apply_delta(&deltas[i]).ok());
                i += 1;
            });
            black_box(replica.total_rows());
            r
        });
        out.push((format!("tiers.storage.apply_delta_ns_{suffix}"), ns));

        let ns = measure(budget, || {
            let mut held = Vec::with_capacity(256);
            timed(256, |_| held.push(fx.pristine.snapshot()))
        });
        out.push((format!("tiers.storage.snapshot_ns_{suffix}"), ns));

        // A joining replica: restore the checkpoint, replay the tail.
        let snapshot = fx.pristine.snapshot();
        let tail = &deltas[..TAIL.min(deltas.len())];
        let ns = measure(budget, || {
            timed(4, |_| {
                let mut joiner = Database::from_snapshot(&snapshot);
                for delta in tail {
                    let _ = joiner.apply_delta(delta);
                }
                black_box(joiner.total_rows());
            })
        });
        out.push((format!("tiers.storage.restore_ns_{suffix}"), ns));
    }
}

// ---------------------------------------------------------------------
// jade_tiers::{cjdbc, recovery, balancer}: routing and the write log.
// ---------------------------------------------------------------------

fn replication(seed: u64, budget: Duration, out: &mut Out) {
    let schema = rubis_schema();
    let fx = StorageFixture::new(seed ^ 0x10C, DatasetSpec::small());
    // The log's view of the write stream: statement + captured delta.
    let logged: Vec<(Arc<Statement>, Arc<WriteDelta>)> = fx
        .writes
        .iter()
        .map(|(step, params)| Arc::new(step.statement(params)))
        .zip(fx.deltas(fx.writes.len()))
        .collect();

    // Three active backends, `fig5_ramp`'s peak database tier.
    let controller = || {
        let mut c = CjdbcController::new(ReadPolicy::LeastPending, Arc::clone(&schema));
        for id in 1..=3 {
            let backend = ServerId(id);
            c.register_backend(backend);
            c.begin_enable(backend).expect("fresh backend");
            c.finish_replay(backend).expect("empty log");
        }
        c
    };
    let mut rng = SimRng::seed_from_u64(seed ^ 0xC7DB);
    let mut c = controller();
    let ns = measure(budget, || {
        timed(4096, |_| {
            let backend = c.route_read(&mut rng).expect("three are active");
            c.note_complete(black_box(backend));
        })
    });
    out.push(("tiers.cjdbc.route_read_ns".into(), ns));

    let ns = measure(budget, || {
        // A fresh controller per batch: routing a write appends to its log.
        let mut c = controller();
        let mut targets = Vec::new();
        let mut i = 0;
        timed(logged.len() as u64, |_| {
            let (stmt, delta) = &logged[i];
            c.route_write_into(Arc::clone(stmt), Some(Arc::clone(delta)), &mut targets)
                .expect("three are active");
            for &b in &targets {
                c.note_complete(b);
            }
            i += 1;
        })
    });
    out.push(("tiers.cjdbc.route_write_ns".into(), ns));

    let ns = measure(budget, || {
        let mut log = RecoveryLog::new(Arc::clone(&schema));
        let mut i = 0;
        let r = timed(logged.len() as u64, |_| {
            let (stmt, delta) = &logged[i];
            log.append_captured(Arc::clone(stmt), Arc::clone(delta));
            i += 1;
        });
        black_box(log.head());
        r
    });
    out.push(("tiers.recovery.append_ns".into(), ns));

    // A log one checkpoint plus `TAIL` writes long: the plan for a fresh
    // joiner is that snapshot and the tail past it.
    let mut log = RecoveryLog::new(Arc::clone(&schema));
    let interval = log.snapshot_interval() as usize;
    for (stmt, delta) in logged.iter().cycle().take(interval + TAIL) {
        log.append_captured(Arc::clone(stmt), Arc::clone(delta));
        if log.snapshot_due() {
            log.install_snapshot(fx.pristine.snapshot());
        }
    }
    let ns = measure(budget, || {
        timed(64, |_| {
            black_box(log.sync_plan(0).entries.len());
        })
    });
    out.push(("tiers.recovery.sync_plan_ns".into(), ns));

    // The PLB in front of two Tomcats, `fig5_ramp`'s peak application tier.
    let mut plb = HttpBalancer::new(BalancePolicy::RoundRobin);
    for id in 1..=2 {
        plb.add_worker(ServerId(id)).expect("distinct workers");
    }
    let ns = measure(budget, || {
        timed(4096, |_| {
            black_box(plb.route(&mut rng).ok());
        })
    });
    out.push(("tiers.balancer.route_ns".into(), ns));
}

// ---------------------------------------------------------------------
// jade_sim::metrics and jade::control: the observation plane's parts.
// ---------------------------------------------------------------------

fn observation(seed: u64, budget: Duration, out: &mut Out) {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x0B5);
    let period = SimDuration::from_secs(1);

    let ns = measure(budget, || {
        // A fresh hub per batch: a keep-all series grows with time.
        let mut hub = MetricsHub::new();
        let id = hub.series_id("cpu.all");
        let mut now = SimTime::ZERO;
        let r = timed(8192, |_| {
            now += period;
            hub.record_series_id(id, now, rng.f64());
        });
        black_box(hub.series("cpu.all").map(|s| s.len()));
        r
    });
    out.push(("sim.metrics.record_ns".into(), ns));

    // A sensor's sliding read: the 60 s window mean of a 1 Hz series,
    // once per second, through the cursor the probe path keeps.
    let mut hub = MetricsHub::new();
    let horizon = 3000u64;
    for s in 0..horizon {
        hub.record_series("cpu.all", SimTime::from_secs(s), rng.f64());
    }
    let series = hub.series("cpu.all").expect("just recorded");
    let ns = measure(budget, || {
        let mut cursor = SeriesCursor::new();
        timed(horizon - 60, |i| {
            let (from, to) = (SimTime::from_secs(i), SimTime::from_secs(i + 60));
            black_box(series.time_weighted_mean_cached(&mut cursor, from, to));
        })
    });
    out.push(("sim.metrics.window_mean_ns".into(), ns));

    let mut sensor = CpuAvgSensor::with_period(SimDuration::from_secs(60), period);
    let mut now = SimTime::ZERO;
    let ns = measure(budget, || {
        timed(4096, |_| {
            now += period;
            black_box(sensor.observe(now, rng.f64()));
        })
    });
    out.push(("core.control.sensor_update_ns".into(), ns));
}

// ---------------------------------------------------------------------
// jade_fractal::registry and jade::adl: the management plane's parts.
// ---------------------------------------------------------------------

fn management(budget: Duration, out: &mut Out) {
    // The shape of the managed architecture: a root, three tier
    // composites, a handful of replicas under one of them.
    let build = || {
        let mut reg: Registry<()> = Registry::new();
        let root = reg.new_composite("rubis", vec![]);
        let tier = reg.new_composite("database-tier", vec![]);
        reg.add_child(root, tier).expect("fresh composites");
        let front = reg.new_primitive(
            "C-JDBC",
            vec![InterfaceDecl::client("backends", "jdbc")],
            Box::new(NullWrapper),
        );
        reg.add_child(tier, front).expect("fresh component");
        let backends: Vec<_> = (1..=4)
            .map(|i| {
                let c = reg.new_primitive(
                    &format!("MySQL{i}"),
                    vec![InterfaceDecl::server("jdbc", "jdbc")],
                    Box::new(NullWrapper),
                );
                reg.add_child(tier, c).expect("fresh component");
                c
            })
            .collect();
        (reg, root, front, backends)
    };

    let (reg, root, _, _) = build();
    let ns = measure(budget, || {
        timed(1024, |_| {
            black_box(reg.resolve_path(root, "database-tier/MySQL4").ok());
        })
    });
    out.push(("fractal.registry.lookup_ns".into(), ns));

    let ns = measure(budget, || {
        // A fresh registry per batch: every operation grows its journal.
        let (mut reg, _, front, backends) = build();
        let mut env = ();
        timed(512, |i| {
            let target = backends[i as usize % backends.len()];
            reg.bind(&mut env, front, "backends", target, "jdbc")
                .expect("declared interfaces");
            reg.unbind(&mut env, front, "backends", Some(target))
                .expect("just bound");
        })
    });
    out.push(("fractal.registry.bind_unbind_ns".into(), ns));

    let doc = J2eeDescription::paper_initial().to_xml();
    let ns = measure(budget, || {
        timed(256, |_| {
            black_box(J2eeDescription::from_xml(black_box(&doc)).ok());
        })
    });
    out.push(("core.adl.parse_ns".into(), ns));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry lists exactly the probes that run, in order — a probe
    /// missing from it would silently read 0.
    #[test]
    fn registry_lists_exactly_the_probes_that_run() {
        // A zero budget builds every fixture and times nothing.
        let emitted: Vec<String> = run_all(1, Duration::ZERO)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(emitted, crate::report::PROBES);
    }

    #[test]
    fn the_bidding_mix_writes_and_the_browsing_mix_does_not() {
        assert!(write_step_share(false) > 0.0);
        assert_eq!(write_step_share(true), 0.0);
    }
}
