//! Tracing from outside: a benchmark-owned [`App`] that wraps [`J2eeApp`],
//! classifies every delivered [`Msg`] into a layer group and times the
//! `handle` call around it.
//!
//! The simulator has no spans of its own yet (ROADMAP item 5), so the
//! only boundary visible from outside is the engine → application call:
//! one run span per rep, one child span per delivered event. Child spans
//! have no children, hence a span's self time is its duration. Spans are
//! aggregated into log₂ histograms per group; a sampled ring of raw spans
//! is kept in memory and written out when the benchmark ends.

// jade-audit: allow-file(nondet-time): the tracing shim reads the host clock around handle calls and forwards the message untouched; digests are checked against the untraced pass

use jade::system::{J2eeApp, Msg};
use jade_sim::{Addr, App, Ctx};
use std::io::Write;
use std::time::Instant;

/// Layer groups of the per-`Msg` ledger. Every `Msg` variant belongs to
/// exactly one (see [`classify`]); README.md maps each group to the
/// modules it exercises and the end-to-end metric it should move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    Client,
    WebApp,
    DbDispatch,
    CpuComplete,
    Response,
    Observe,
    Manage,
    Legacy,
}

impl Group {
    pub const ALL: [Group; 8] = [
        Group::Client,
        Group::WebApp,
        Group::DbDispatch,
        Group::CpuComplete,
        Group::Response,
        Group::Observe,
        Group::Manage,
        Group::Legacy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Group::Client => "client",
            Group::WebApp => "web_app",
            Group::DbDispatch => "db_dispatch",
            Group::CpuComplete => "cpu_complete",
            Group::Response => "response",
            Group::Observe => "observe",
            Group::Manage => "manage",
            Group::Legacy => "legacy",
        }
    }
}

/// Group and variant name of a message. The match is exhaustive on
/// purpose — no wildcard arm — so a new `Msg` variant breaks the build
/// until someone decides which layer pays for it.
pub fn classify(msg: &Msg) -> (Group, &'static str) {
    match msg {
        Msg::ClientThink(_) => (Group::Client, "ClientThink"),
        Msg::PoolTick => (Group::Client, "PoolTick"),
        Msg::PoolDispatch { .. } => (Group::Client, "PoolDispatch"),
        Msg::RampTick => (Group::Client, "RampTick"),
        Msg::ApacheAccept { .. } => (Group::WebApp, "ApacheAccept"),
        Msg::TomcatAccept { .. } => (Group::WebApp, "TomcatAccept"),
        Msg::DbDispatch { .. } => (Group::DbDispatch, "DbDispatch"),
        Msg::CpuComplete(_) => (Group::CpuComplete, "CpuComplete"),
        Msg::ResponseDelivered { .. } => (Group::Response, "ResponseDelivered"),
        Msg::ClientAbandon { .. } => (Group::Response, "ClientAbandon"),
        Msg::MeasureTick => (Group::Observe, "MeasureTick"),
        Msg::SensorTick(_) => (Group::Observe, "SensorTick"),
        Msg::DetectorTick => (Group::Observe, "DetectorTick"),
        Msg::Bootstrap => (Group::Manage, "Bootstrap"),
        Msg::DeployStep { .. } => (Group::Manage, "DeployStep"),
        Msg::UndeployStop { .. } => (Group::Manage, "UndeployStop"),
        Msg::RollingRestart(_) => (Group::Manage, "RollingRestart"),
        Msg::RollingNext => (Group::Manage, "RollingNext"),
        Msg::RollingStop { .. } => (Group::Manage, "RollingStop"),
        Msg::CrashNode(_) => (Group::Manage, "CrashNode"),
        Msg::FailServer(_) => (Group::Manage, "FailServer"),
        Msg::Legacy(_) => (Group::Legacy, "Legacy"),
    }
}

/// Sub-buckets per power of two: quantile error is at most 1/8 of the
/// value, fine enough to tell 115 ns from 159 ns.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Log₂ histogram of nanosecond durations with linear sub-buckets.
#[derive(Clone)]
pub struct Log2Hist {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: vec![0; BUCKETS],
            count: 0,
        }
    }
}

impl Log2Hist {
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
        (e - SUB_BITS + 1) as usize * SUB + sub
    }

    /// Smallest value that lands in bucket `i`.
    fn lower_edge(i: usize) -> u64 {
        if i < SUB {
            return i as u64;
        }
        let e = (i / SUB) as u32 + SUB_BITS - 1;
        (1u64 << e) + (((i % SUB) as u64) << (e - SUB_BITS))
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
    }

    /// Quantile `q` in `0..=1` as the midpoint of the bucket holding the
    /// `ceil(q·n)`-th smallest sample; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = Self::lower_edge(i);
                let hi = if i + 1 < BUCKETS {
                    Self::lower_edge(i + 1)
                } else {
                    u64::MAX
                };
                return Some(lo as f64 + (hi - lo - 1) as f64 / 2.0);
            }
        }
        None
    }

    fn nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::lower_edge(i), c))
    }
}

/// Aggregate of one group over all traced reps.
#[derive(Clone, Default)]
pub struct GroupAgg {
    pub events: u64,
    pub self_ns: u64,
    pub hist: Log2Hist,
}

/// One raw span kept in the ring.
#[derive(Clone, Copy)]
struct RawSpan {
    id: u64,
    parent: u64,
    rep: u32,
    group: Group,
    variant: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Raw event spans kept: every `SAMPLE_EVERY`-th event plus every
/// `manage`/`legacy` event, newest `RING_CAP` of them.
const SAMPLE_EVERY: u64 = 1024;
const RING_CAP: usize = 1 << 16;

/// Span recorder shared by all traced reps of one benchmark run.
pub struct Recorder {
    origin: Instant,
    armed: bool,
    rep: u32,
    run_span: u64,
    next_span: u64,
    pub groups: Vec<GroupAgg>,
    ring: Vec<RawSpan>,
    ring_next: usize,
    /// `(span id, rep, name, start, end)` of the per-rep `setup` and `run`
    /// spans; event spans point at their rep's run span.
    rep_spans: Vec<(u64, u32, &'static str, u64, u64)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            armed: false,
            rep: 0,
            run_span: 0,
            next_span: 1,
            groups: vec![GroupAgg::default(); Group::ALL.len()],
            ring: Vec::with_capacity(RING_CAP),
            ring_next: 0,
            rep_spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn fresh_span(&mut self) -> u64 {
        let id = self.next_span;
        self.next_span += 1;
        id
    }

    /// Records the rep's set-up (construction + bootstrap) as a span of
    /// its own; event spans inside it are not recorded.
    pub fn setup_span(&mut self, rep: u32, start: Instant, end: Instant) {
        let id = self.fresh_span();
        let (s, e) = (self.ns(start), self.ns(end));
        self.rep_spans.push((id, rep, "setup", s, e));
    }

    /// Opens the run span of `rep`; events delivered from now on are
    /// recorded as its children.
    pub fn begin_run(&mut self, rep: u32) {
        self.rep = rep;
        self.run_span = self.fresh_span();
        self.armed = true;
    }

    /// Closes the current run span.
    pub fn end_run(&mut self, start: Instant, end: Instant) {
        self.armed = false;
        let (s, e) = (self.ns(start), self.ns(end));
        self.rep_spans.push((self.run_span, self.rep, "run", s, e));
    }

    #[inline]
    fn record(&mut self, group: Group, variant: &'static str, t0: Instant, t1: Instant) {
        let dur = t1.duration_since(t0).as_nanos() as u64;
        let agg = &mut self.groups[group as usize];
        agg.events += 1;
        agg.self_ns += dur;
        agg.hist.record(dur);
        let id = self.fresh_span();
        if id.is_multiple_of(SAMPLE_EVERY) || matches!(group, Group::Manage | Group::Legacy) {
            let span = RawSpan {
                id,
                parent: self.run_span,
                rep: self.rep,
                group,
                variant,
                start_ns: self.ns(t0),
                end_ns: self.ns(t1),
            };
            if self.ring.len() < RING_CAP {
                self.ring.push(span);
            } else {
                self.ring[self.ring_next] = span;
                self.ring_next = (self.ring_next + 1) % RING_CAP;
            }
        }
    }

    /// Events recorded over all groups.
    pub fn total_events(&self) -> u64 {
        self.groups.iter().map(|g| g.events).sum()
    }

    /// Handler self time summed over all groups, ns.
    pub fn total_self_ns(&self) -> u64 {
        self.groups.iter().map(|g| g.self_ns).sum()
    }

    /// Cost of what tracing adds to one event — two clock reads and one
    /// `record` — measured on a scratch recorder so the run's aggregates
    /// stay clean. Median of several batches, ns per event.
    pub fn calibrate_clock_ns() -> f64 {
        const BATCH: u32 = 200_000;
        let mut scratch = Recorder::default();
        scratch.begin_run(0);
        let mut samples: Vec<f64> = (0..9)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..BATCH {
                    let t0 = Instant::now();
                    let t1 = Instant::now();
                    scratch.record(Group::CpuComplete, "calibration", t0, t1);
                }
                start.elapsed().as_nanos() as f64 / f64::from(BATCH)
            })
            .collect();
        std::hint::black_box(scratch.total_self_ns());
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    }

    /// Writes the aggregated histograms, the rep spans and the sampled
    /// ring of event spans as JSON lines.
    pub fn write_jsonl(&self, workload: &str, mut out: impl Write) -> std::io::Result<()> {
        for g in Group::ALL {
            let agg = &self.groups[g as usize];
            let hist: Vec<String> = agg
                .hist
                .nonzero()
                .map(|(lo, c)| format!("[{lo},{c}]"))
                .collect();
            writeln!(
                out,
                "{{\"kind\":\"group\",\"workload\":\"{workload}\",\"group\":\"{}\",\"events\":{},\"self_ns\":{},\"hist_ns_lower_edge_count\":[{}]}}",
                g.name(),
                agg.events,
                agg.self_ns,
                hist.join(",")
            )?;
        }
        for &(id, rep, name, start, end) in &self.rep_spans {
            writeln!(
                out,
                "{{\"kind\":\"span\",\"span\":{id},\"parent\":null,\"rep\":{rep},\"name\":\"{name}\",\"start_ns\":{start},\"end_ns\":{end}}}"
            )?;
        }
        let (newer, older) = self.ring.split_at(self.ring_next);
        for s in older.iter().chain(newer) {
            writeln!(
                out,
                "{{\"kind\":\"span\",\"span\":{},\"parent\":{},\"rep\":{},\"name\":\"{}/{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.rep,
                s.group.name(),
                s.variant,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The traced application: `J2eeApp` behind a timing shim. Tracing
/// observes and never perturbs — the message is forwarded untouched, and
/// the benchmark checks the traced rep's outcome digest against the
/// untraced one.
pub struct Traced {
    pub inner: J2eeApp,
    pub rec: Recorder,
}

impl App for Traced {
    type Msg = Msg;

    #[inline]
    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, dst: Addr, msg: Msg) {
        if !self.rec.armed {
            return self.inner.handle(ctx, dst, msg);
        }
        let (group, variant) = classify(&msg);
        let t0 = Instant::now();
        self.inner.handle(ctx, dst, msg);
        let t1 = Instant::now();
        self.rec.record(group, variant, t0, t1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade::system::ManagedTier;
    use jade_cluster::NodeId;
    use jade_tiers::{LegacyEvent, RequestId, ServerId};

    /// One instance of every `Msg` variant. `classify` itself has no
    /// wildcard arm; this pins the mapping the README documents.
    #[test]
    fn every_variant_is_classified_into_its_documented_group() {
        let req = RequestId(0);
        let server = ServerId(0);
        let cases = [
            (Msg::ClientThink(0), Group::Client),
            (Msg::PoolTick, Group::Client),
            (
                Msg::PoolDispatch {
                    bucket: 0,
                    interaction: 0,
                },
                Group::Client,
            ),
            (Msg::RampTick, Group::Client),
            (
                Msg::ApacheAccept {
                    req,
                    apache: server,
                },
                Group::WebApp,
            ),
            (
                Msg::TomcatAccept {
                    req,
                    tomcat: server,
                },
                Group::WebApp,
            ),
            (Msg::DbDispatch { req }, Group::DbDispatch),
            (Msg::CpuComplete(NodeId(0)), Group::CpuComplete),
            (Msg::ResponseDelivered { req }, Group::Response),
            (Msg::ClientAbandon { req }, Group::Response),
            (Msg::MeasureTick, Group::Observe),
            (Msg::SensorTick(0), Group::Observe),
            (Msg::DetectorTick, Group::Observe),
            (Msg::Bootstrap, Group::Manage),
            (Msg::DeployStep { server }, Group::Manage),
            (Msg::UndeployStop { server }, Group::Manage),
            (Msg::RollingRestart(ManagedTier::Database), Group::Manage),
            (Msg::RollingNext, Group::Manage),
            (Msg::RollingStop { server }, Group::Manage),
            (Msg::CrashNode(NodeId(0)), Group::Manage),
            (Msg::FailServer(server), Group::Manage),
            (
                Msg::Legacy(LegacyEvent::ServerBooted(server)),
                Group::Legacy,
            ),
        ];
        for (msg, group) in cases {
            assert_eq!(classify(&msg).0, group, "{msg:?}");
        }
    }

    #[test]
    fn bucket_edges_are_consistent() {
        for i in 0..BUCKETS {
            let lo = Log2Hist::lower_edge(i);
            assert_eq!(Log2Hist::index(lo), i, "lower edge of bucket {i}");
            if i + 1 < BUCKETS {
                let next = Log2Hist::lower_edge(i + 1);
                assert!(next > lo);
                assert_eq!(Log2Hist::index(next - 1), i, "upper edge of bucket {i}");
            }
        }
        assert_eq!(Log2Hist::index(u64::MAX), BUCKETS - 1);
    }

    /// Percentiles against a sorted-vector oracle: the histogram's answer
    /// must lie within one sub-bucket (1/8 of the value) of the exact
    /// order statistic.
    #[test]
    fn percentiles_match_a_sorted_vector_oracle() {
        let mut rng = jade_sim::SimRng::seed_from_u64(7);
        // Heavy-tailed, like handler times: mostly ~100 ns, rare ms.
        let mut samples: Vec<u64> = (0..50_000)
            .map(|_| {
                let base = 40.0 + rng.exp(120.0);
                let spike = if rng.chance(0.01) {
                    rng.exp(500_000.0)
                } else {
                    0.0
                };
                (base + spike) as u64
            })
            .collect();
        let mut hist = Log2Hist::default();
        for &s in &samples {
            hist.record(s);
        }
        samples.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
            let exact = samples[rank - 1] as f64;
            let got = hist.quantile(q).expect("non-empty");
            let tolerance = (exact / SUB as f64).max(1.0);
            assert!(
                (got - exact).abs() <= tolerance,
                "q={q}: histogram {got} vs oracle {exact}"
            );
        }
        assert_eq!(hist.count, samples.len() as u64);
        assert!(Log2Hist::default().quantile(0.5).is_none());
    }
}
