//! The metric registry — every name the benchmark can emit, with unit,
//! direction and bound — and the three renderings of it: the result line
//! the driver reads, the table a person reads, and `BENCHMARK.json`.

use crate::trace::Group;
use crate::workloads::Workload;

/// How long one run measures; `Workload::reps` turns it into work.
pub const RUN_SECONDS: u32 = 8;

/// How the driver starts the benchmark, from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// Simulated or counted, not timed: repeats exactly at a fixed seed.
    pub exact: bool,
}

fn def(name: &str, unit: &'static str, better: &'static str, exact: bool) -> MetricDef {
    MetricDef {
        name: name.to_owned(),
        unit,
        better,
        bound: None,
        exact,
    }
}

/// What a user of the simulator sees: how fast it runs, what it holds,
/// and what the simulated managed system achieved. Each bound is at least
/// three times the widest quartile spread seen over ten seeds on any
/// workload (README.md has the figures).
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name, unit, better, bound, exact| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better, exact)
    };
    vec![
        bounded("setup_s", "s", "lower", 0.25, false),
        bounded("run_wall_s", "s", "lower", 0.15, false),
        bounded("ns_per_request", "ns", "lower", 0.15, false),
        bounded("peak_rss_mb", "MB", "lower", 0.10, false),
        bounded("sim_served_share", "share", "higher", 0.04, true),
        bounded("sim_latency_ms_win_p50", "ms", "lower", 0.05, true),
        bounded("sim_latency_ms_win_p99", "ms", "lower", 0.15, true),
        bounded("sim_node_s", "node.s", "lower", 0.10, true),
    ]
}

/// Layer-probe metric names, in the order `probes::run_all` emits them.
pub const PROBES: &[&str] = &[
    "sim.queue.push_pop_ns_d500",
    "sim.queue.coarse_push_pop_ns_d500",
    "sim.queue.cancel_ns_d500",
    "sim.queue.push_pop_ns_d5000",
    "sim.queue.coarse_push_pop_ns_d5000",
    "sim.queue.cancel_ns_d5000",
    "sim.cpu.cycle_ns_n2",
    "sim.cpu.cycle_ns_n16",
    "sim.cpu.cycle_ns_n128",
    "cluster.network.delay_ns",
    "cluster.manager.sample_cpus_ns_per_node",
    "rubis.plan_gen_ns_bidding",
    "rubis.plan_gen_ns_browsing",
    "rubis.pool.tick_ns",
    "rubis.stats.record_ns",
    "tiers.storage.read_step_ns_small",
    "tiers.storage.write_step_ns_small",
    "tiers.storage.apply_delta_ns_small",
    "tiers.storage.snapshot_ns_small",
    "tiers.storage.restore_ns_small",
    "tiers.storage.read_step_ns_x20",
    "tiers.storage.write_step_ns_x20",
    "tiers.storage.apply_delta_ns_x20",
    "tiers.storage.snapshot_ns_x20",
    "tiers.storage.restore_ns_x20",
    "tiers.cjdbc.route_read_ns",
    "tiers.cjdbc.route_write_ns",
    "tiers.recovery.append_ns",
    "tiers.recovery.sync_plan_ns",
    "tiers.balancer.route_ns",
    "sim.metrics.record_ns",
    "sim.metrics.window_mean_ns",
    "core.control.sensor_update_ns",
    "fractal.registry.lookup_ns",
    "fractal.registry.bind_unbind_ns",
    "core.adl.parse_ns",
];

/// The layer ledger: per-`Msg` groups from the traced pass, the engine's
/// residual, tracing's own cost, what the simulated system did, and the
/// layer probes. A value of 0 means "not applicable on this workload" or
/// "too few samples" (README.md lists which).
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = Vec::new();
    for g in Group::ALL {
        let g = g.name();
        defs.push(def(&format!("{g}.events"), "count", "lower", true));
        defs.push(def(&format!("{g}.share"), "share", "lower", false));
        defs.push(def(&format!("{g}.self_ns_p50"), "ns", "lower", false));
        defs.push(def(&format!("{g}.self_ns_p99"), "ns", "lower", false));
    }
    defs.extend([
        def("engine.events", "count", "lower", true),
        def("engine.ns_per_event", "ns", "lower", false),
        def("engine.events_per_s", "1/s", "higher", false),
        def("engine.queue_ns_per_event", "ns", "lower", false),
        def("engine.queue_share", "share", "lower", false),
        def("trace.overhead_share", "share", "lower", false),
        def("trace.clock_ns", "ns", "lower", false),
        def("trace.clock_share", "share", "lower", false),
        def("reconcile.handler_sum_share", "share", "higher", false),
        def("alloc.per_kevent", "count", "lower", true),
        def("alloc.bytes_per_event", "B", "lower", true),
        def("model.reconfigs", "count", "lower", true),
        def("model.peak_replicas_db", "count", "lower", true),
        def("model.peak_replicas_app", "count", "lower", true),
        def(
            "model.paper_transition_mae_clients",
            "clients",
            "lower",
            true,
        ),
        def("model.mttr_s", "s", "lower", true),
        def("model.requests_lost_per_crash", "count", "lower", true),
    ]);
    defs.extend(PROBES.iter().map(|name| def(name, "ns", "lower", false)));
    defs.extend([
        def("reconcile.db_dispatch_err", "share", "higher", false),
        def("reconcile.cpu_complete_err", "share", "higher", false),
    ]);
    defs
}

/// Measured values by metric name.
#[derive(Default)]
pub struct Values(pub Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// A number as JSON: all its digits, and never NaN or infinity.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The last line of standard output: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`. Panics if a
/// registered metric has no value — an incomplete result must not look
/// like a result.
pub fn result_line(
    defs: &[MetricDef],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values
                .get(&d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                d.name,
                number(v),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

/// Reads back a result line: `(correct, metrics)`.
pub fn parse_result_line(line: &str) -> Option<(bool, Values)> {
    let correct = line.contains("\"correct\":true");
    let body = line.split_once("\"metrics\":{")?.1;
    let mut values = Values::default();
    for entry in body.split("},") {
        let (name, rest) = entry.split_once("\":{\"value\":")?;
        let name = name.trim_start_matches(['"', ',']);
        let number = rest.split_once(',')?.0;
        values.set(name, number.parse().ok()?);
    }
    Some((correct, values))
}

/// Every metric by name with its unit, for people.
pub fn print_table(title: &str, defs: &[MetricDef], values: &Values) {
    println!("--- {title} ---");
    for d in defs {
        if let Some(v) = values.get(&d.name) {
            println!("{:<44} {:>18.6} {}", d.name, v, d.unit);
        }
    }
}

/// `BENCHMARK.json`, generated so that it cannot disagree with what the
/// program emits.
pub fn manifest() -> String {
    let strings = |items: &[&str]| -> String {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let e2e: Vec<String> = end_to_end()
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better,
                number(d.bound.expect("end-to-end metrics are bounded"))
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        strings(&COMMAND),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Names in `text` under `"name": "…"`, in order.
    fn names_in(text: &str) -> Vec<&str> {
        text.split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect()
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in end_to_end().iter().chain(&per_layer()) {
            assert!(well_formed(&d.name), "{:?}", d.name);
            assert!(seen.insert(d.name.clone()), "{} twice", d.name);
            assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
            assert!(d.unit.len() <= 16, "{}", d.name);
        }
        for w in Workload::ALL {
            assert!(seen.insert(w.name().to_owned()), "{} twice", w.name());
        }
        assert!(end_to_end()
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        assert!(end_to_end()
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(per_layer().len() <= 128);
    }

    /// The committed manifest is the one this program prints
    /// (`--print-manifest`), so every emitted metric appears in it and
    /// nothing in it is written by hand.
    #[test]
    fn committed_manifest_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, manifest());
        let listed = names_in(committed);
        for d in end_to_end().iter().chain(&per_layer()) {
            assert!(listed.contains(&d.name.as_str()), "{} not listed", d.name);
        }
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_round_trips() {
        let defs = end_to_end();
        let mut values = Values::default();
        for (i, d) in defs.iter().enumerate() {
            values.set(d.name.clone(), 1.5 + i as f64 / 3.0);
        }
        let line = result_line(&defs, &values, true, 16, 0);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":16,\"failed\":0,\"metrics\":{"));
        let (correct, parsed) = parse_result_line(&line).expect("parses");
        assert!(correct);
        for d in &defs {
            assert_eq!(parsed.get(&d.name), values.get(&d.name), "{}", d.name);
        }
        assert_eq!(number(f64::NAN), "0");
    }
}
