//! Differential property tests of the streaming observation plane
//! against the retained naive implementations in `jade_bench`.
//!
//! The streamed structures — the ring-buffer [`MovingAverage`], the
//! cursor-cached [`TimeSeries`] window reads, the dense probe-tick
//! spatial averages, and the dense heartbeat table — all replaced
//! allocation-heavy equivalents (`VecDeque` windows, from-scratch
//! window scans, `BTreeMap`-keyed samples and heartbeats). These
//! properties pin the replacements to the originals **bit-for-bit**
//! (`to_bits()`, not approximate equality): the optimization must not
//! perturb a single float, or every committed experiment digest drifts.

use jade_bench::{naive_time_weighted_mean, naive_value_at, NaiveMovingAverage, NaiveObservation};
use jade_cluster::{ClusterManager, NodeId, NodeSpec};
use jade_propcheck::run;
use jade_sim::{JobId, MovingAverage, SeriesCursor, SimDuration, SimTime, TimeSeries};
use std::collections::BTreeMap;

/// The ring-backed moving average is bit-identical to the `VecDeque`
/// baseline across random sample cadences — including cadences much
/// faster than the sizing period, which force the ring through its
/// `grow()` path, and gaps much longer than the window, which evict
/// everything at once.
#[test]
fn ring_moving_average_matches_vecdeque() {
    run("ring_moving_average_matches_vecdeque", 256, |g| {
        let window = SimDuration::from_micros(g.u64(1..120_000_000));
        let period = SimDuration::from_micros(g.u64(0..10_000_000));
        let mut ring = if g.bool() {
            MovingAverage::with_period(window, period)
        } else {
            MovingAverage::new(window)
        };
        let mut naive = NaiveMovingAverage::new(window);
        let mut t = SimTime::ZERO;
        let steps = g.usize(1..400);
        for _ in 0..steps {
            // Mostly short steps (dense sampling, eviction at the window
            // boundary), occasionally a jump past the whole window.
            let dt = if g.u8() < 16 {
                g.u64(0..4 * window.as_micros().max(1))
            } else {
                g.u64(0..2_000_000)
            };
            t += SimDuration::from_micros(dt);
            let v = g.f64(-1.0..2.0);
            ring.record(t, v);
            naive.record(t, v);
            assert_eq!(ring.sample_count(), naive.sample_count());
            match (ring.value(), naive.value()) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "ring {a} != naive {b} at t={t:?}")
                }
                (a, b) => assert_eq!(a, b),
            }
        }
    });
}

/// Cursor-cached window reads over a `TimeSeries` equal both the
/// from-scratch `time_weighted_mean` and the naive linear-scan
/// reference, under a random walk of the window — forward sweeps
/// (the hot path) and arbitrary rewinds (which invalidate the cursor).
#[test]
fn cached_window_reads_match_scratch() {
    run("cached_window_reads_match_scratch", 256, |g| {
        let mut ts = TimeSeries::new();
        let mut t = 0u64;
        let n = g.usize(1..300);
        for _ in 0..n {
            t += g.u64(0..3_000_000);
            ts.record(SimTime::from_micros(t), g.f64(-10.0..10.0));
        }
        let mut mean_cursor = SeriesCursor::new();
        let mut at_cursor = SeriesCursor::new();
        let span = t + 4_000_000;
        let mut from = 0u64;
        let reads = g.usize(1..60);
        for _ in 0..reads {
            // Mostly advance, sometimes rewind to a random earlier point.
            from = if g.u8() < 48 {
                g.u64(0..span)
            } else {
                (from + g.u64(0..span / 8 + 1)).min(span)
            };
            let to = from + g.u64(0..span / 4 + 1);
            let (f, to) = (SimTime::from_micros(from), SimTime::from_micros(to));
            let cached = ts.time_weighted_mean_cached(&mut mean_cursor, f, to);
            let scratch = ts.time_weighted_mean(f, to);
            let naive = naive_time_weighted_mean(ts.points(), f, to);
            assert_eq!(cached.map(f64::to_bits), scratch.map(f64::to_bits));
            assert_eq!(cached.map(f64::to_bits), naive.map(f64::to_bits));

            let at = ts.value_at_cached(&mut at_cursor, f, -1.0);
            assert_eq!(at.to_bits(), naive_value_at(ts.points(), f, -1.0).to_bits());
            assert_eq!(at.to_bits(), ts.value_at(f, -1.0).to_bits());
        }
    });
}

/// The probe tick — `sample_cpus_into`, which visits only the nodes that
/// did something since the last probe, plus dense indexing over sorted
/// tier node lists — is bit-identical to sampling every node on every
/// tick into a `BTreeMap` consumed by `NaiveObservation::spatial_avg`.
///
/// Two identical clusters receive the same random interleaving of
/// allocate / release / submit / abort / collect / crash / repair. `lazy`
/// is probed through `sample_cpus_into`; `eager` never is, so all its
/// nodes stay listed as dirty and sampling each through `node_mut` is the
/// every-node-every-tick oracle. Ticks are irregularly spaced, repeat at
/// the same instant, and land exactly on completion-timer instants.
#[test]
fn probe_tick_spatial_avg_matches_btreemap() {
    run("probe_tick_spatial_avg_matches_btreemap", 192, |g| {
        let nodes = g.usize(2..40);
        let spec = NodeSpec::default();
        let mut lazy = ClusterManager::homogeneous(nodes, spec, 64);
        let mut eager = ClusterManager::homogeneous(nodes, spec, 64);
        let mut samples: Vec<f64> = Vec::new();
        let mut job = 0u64;
        let mut t = 0u64;
        for _ in 0..g.usize(1..40) {
            // Most ticks are idle for most nodes: few operations, on few
            // nodes, so nodes do go clean and are later woken up.
            for _ in 0..g.usize(0..8) {
                if g.bool() {
                    t += g.u64(0..400_000);
                }
                let at = SimTime::from_micros(t);
                let n = NodeId(g.u32(0..nodes as u32));
                let op = g.weighted(&[8, 2, 4, 2, 2, 1, 2]);
                let demand = SimDuration::from_micros(g.u64(0..2_000_000));
                let victim = JobId(g.u64(0..job + 1));
                if op == 0 {
                    job += 1;
                }
                for cm in [&mut lazy, &mut eager] {
                    match op {
                        0 => cm.node_mut(n).unwrap().cpu.submit(at, JobId(job), demand),
                        1 => {
                            cm.node_mut(n).unwrap().cpu.abort(at, victim);
                        }
                        2 => {
                            cm.node_mut(n).unwrap().cpu.collect_completions(at);
                        }
                        3 => {
                            let _ = cm.allocate();
                        }
                        4 => {
                            let _ = cm.release(n);
                        }
                        5 => {
                            cm.node_mut(n).unwrap().crash(at);
                        }
                        _ => {
                            if !cm.node(n).unwrap().is_up() {
                                cm.node_mut(n).unwrap().repair();
                            }
                        }
                    }
                }
            }
            match g.weighted(&[2, 1, 5]) {
                // Tick at the instant a node's completion timer would fire.
                0 => {
                    let n = NodeId(g.u32(0..nodes as u32));
                    let at = SimTime::from_micros(t);
                    let next = lazy.node_mut(n).unwrap().cpu.next_completion(at);
                    assert_eq!(next, eager.node_mut(n).unwrap().cpu.next_completion(at));
                    if let Some(done) = next {
                        t = done.as_micros();
                    }
                }
                // Tick at the instant of the last operation or tick.
                1 => {}
                _ => t += g.u64(1..3_000_000),
            }
            let now = SimTime::from_micros(t);

            // Random tier partition, sorted like the legacy registry's
            // `nodes_of_tier_into` output.
            let mut tier: Vec<NodeId> =
                (0..nodes as u32).filter(|_| g.bool()).map(NodeId).collect();
            tier.sort_unstable();

            lazy.sample_cpus_into(now, &mut samples);
            assert_eq!(samples.len(), nodes);
            let dense = if tier.is_empty() {
                0.0
            } else {
                tier.iter().map(|&n| samples[n.0 as usize]).sum::<f64>() / tier.len() as f64
            };
            let dense_all = samples.iter().sum::<f64>() / samples.len() as f64;

            let mut map: BTreeMap<NodeId, f64> = BTreeMap::new();
            for i in 0..nodes as u32 {
                let n = NodeId(i);
                let v = eager.node_mut(n).unwrap().sample_cpu(now);
                assert_eq!(
                    samples[i as usize].to_bits(),
                    v.to_bits(),
                    "node {i} at t={t}: lazy {} != eager {v}",
                    samples[i as usize]
                );
                map.insert(n, v);
            }
            let naive = NaiveObservation::spatial_avg(&map, &tier);
            let all: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
            let naive_all = NaiveObservation::spatial_avg(&map, &all);

            assert_eq!(dense.to_bits(), naive.to_bits());
            assert_eq!(dense_all.to_bits(), naive_all.to_bits());
        }
        let end = SimTime::from_micros(t + g.u64(0..2_000_000));
        for i in 0..nodes as u32 {
            let n = NodeId(i);
            assert_eq!(
                lazy.node_mut(n).unwrap().cpu_busy_time(end),
                eager.node_mut(n).unwrap().cpu_busy_time(end),
                "busy time of node {i}"
            );
        }
    });
}

/// The dense heartbeat table (a `Vec<Option<SimTime>>` grown on demand,
/// as `ManagedSystem::record_heartbeat` maintains it) answers staleness
/// queries exactly like the `BTreeMap` store it replaced, under random
/// node churn — including nodes never heard from, which must read as
/// stale.
#[test]
fn heartbeat_dense_matches_map() {
    run("heartbeat_dense_matches_map", 256, |g| {
        let universe = g.u32(1..64);
        let timeout = SimDuration::from_micros(g.u64(1..10_000_000));
        let mut dense: Vec<Option<SimTime>> = Vec::new();
        let mut map: BTreeMap<u32, SimTime> = BTreeMap::new();
        let mut t = 0u64;
        for _ in 0..g.usize(1..200) {
            t += g.u64(0..2_000_000);
            let now = SimTime::from_micros(t);
            let node = g.u32(0..universe);
            if g.u8() < 192 {
                // Heartbeat, exactly as `record_heartbeat` does it.
                let slot = node as usize;
                if slot >= dense.len() {
                    dense.resize(slot + 1, None);
                }
                dense[slot] = Some(now);
                map.insert(node, now);
            } else {
                // Failure-detector read on a random node.
                let probe = g.u32(0..universe);
                let dense_stale = dense
                    .get(probe as usize)
                    .copied()
                    .flatten()
                    .map(|hb| now.since(hb) >= timeout)
                    .unwrap_or(true);
                let map_stale = map
                    .get(&probe)
                    .map(|&hb| now.since(hb) >= timeout)
                    .unwrap_or(true);
                assert_eq!(dense_stale, map_stale, "node {probe} at t={t}");
            }
        }
    });
}
