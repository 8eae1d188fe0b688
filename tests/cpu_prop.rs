//! Differential property test: the virtual-time `PsCpu` against the
//! original scan-on-advance `NaivePsCpu` it replaced (kept in
//! `tests/support/naive_ps_cpu.rs`).
//!
//! Both models are driven through identical random interleavings of
//! `submit` / `abort` / `abort_all` / `next_completion` /
//! `collect_completions` under both efficiency curves and must agree on
//!
//! * which jobs complete in each collect call (the completion *sets*, and
//!   hence completion *times* at the driver's observable resolution),
//! * the predicted next-completion instant within 1e-6 s (the two
//!   formulations associate their float arithmetic differently, so the
//!   ceil-to-microsecond rounding may split a boundary),
//! * which jobs an `abort` finds resident, and the sets `abort_all`
//!   returns,
//! * the busy-time accounting of the `UtilizationTracker`.
//!
//! Reproduce a failure with `PROPCHECK_SEED` / `PROPCHECK_CASES` as
//! printed by the harness.

#[path = "support/naive_ps_cpu.rs"]
mod naive_ps_cpu;

use jade_propcheck::{run, Gen};
use jade_sim::{EfficiencyCurve, JobId, PsCpu, SimDuration, SimTime};
use naive_ps_cpu::NaivePsCpu;

/// Max divergence of the two models' timer predictions: 1 µs = 1e-6 s.
const TOLERANCE: SimDuration = SimDuration::from_micros(1);

fn curve(g: &mut Gen) -> EfficiencyCurve {
    if g.bool() {
        EfficiencyCurve::Ideal
    } else {
        EfficiencyCurve::Thrashing {
            knee: g.usize(1..8),
            slope: g.f64(0.05..0.8),
        }
    }
}

fn abs_diff(a: SimTime, b: SimTime) -> SimDuration {
    if a >= b {
        a - b
    } else {
        b - a
    }
}

fn differential_case(g: &mut Gen) {
    let curve = curve(g);
    let speed = *g.choose(&[0.5, 1.0, 2.0]);
    let mut vt = PsCpu::new(speed, curve);
    let mut naive = NaivePsCpu::new(speed, curve);

    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    let mut resident: Vec<JobId> = Vec::new();
    let ops = g.usize(20..120);

    for _ in 0..ops {
        // Drive both models at the same instants. When their timer
        // predictions differ by the permitted microsecond, step to the
        // *later* one so a boundary-straddling job has completed in both.
        match g.weighted(&[5, 2, 1, 4]) {
            // Submit a burst of fresh jobs.
            0 => {
                for _ in 0..g.usize(1..6) {
                    let id = JobId(next_id);
                    next_id += 1;
                    let demand = SimDuration::from_micros(g.u64(0..200_000));
                    vt.submit(now, id, demand);
                    naive.submit(now, id, demand);
                    resident.push(id);
                }
            }
            // Abort one job — resident or (sometimes) already gone.
            1 => {
                let id = if !resident.is_empty() && g.weighted(&[4, 1]) == 0 {
                    *g.choose(&resident)
                } else {
                    JobId(g.u64(0..next_id.max(1)))
                };
                let a = vt.abort(now, id);
                let b = naive.abort(now, id);
                assert_eq!(a, b, "abort({id:?}) residency disagrees at {now}");
                resident.retain(|&r| r != id);
            }
            // Abort everything.
            2 => {
                let mut a = vt.abort_all(now);
                let mut b = naive.abort_all(now);
                a.sort();
                b.sort();
                assert_eq!(a, b, "abort_all sets disagree at {now}");
                resident.clear();
            }
            // Let time pass: to the next completion, or an arbitrary hop.
            _ => {
                let a = vt.next_completion(now);
                let b = naive.next_completion(now);
                match (a, b) {
                    (Some(ta), Some(tb)) => {
                        assert!(
                            abs_diff(ta, tb) <= TOLERANCE,
                            "next_completion diverged: vt {ta} vs naive {tb} at {now}"
                        );
                        now = ta.max(tb);
                    }
                    (None, None) => {
                        now += SimDuration::from_micros(g.u64(1..50_000));
                    }
                    (a, b) => panic!("idleness disagrees at {now}: vt {a:?} vs naive {b:?}"),
                }
                if g.bool() {
                    now += SimDuration::from_micros(g.u64(0..30_000));
                }
            }
        }

        // Completion sets must match at every observation point; the
        // driver timestamps both drains identically, so set equality is
        // completion-time equality at the observable resolution.
        let mut da = vt.collect_completions(now);
        let mut db = naive.collect_completions(now);
        da.sort();
        db.sort();
        assert_eq!(da, db, "completion sets disagree at {now}");
        for done in &da {
            resident.retain(|r| r != done);
        }
        assert_eq!(vt.load(), naive.load(), "loads disagree at {now}");
        assert_eq!(vt.load(), resident.len());
    }

    // Drain to idle: the tail of completions must line up too.
    let mut guard = 0;
    while let (Some(ta), Some(tb)) = {
        let a = vt.next_completion(now);
        let b = naive.next_completion(now);
        assert_eq!(a.is_some(), b.is_some(), "idleness disagrees draining");
        (a, b)
    } {
        assert!(
            abs_diff(ta, tb) <= TOLERANCE,
            "drain next_completion diverged: vt {ta} vs naive {tb}"
        );
        now = ta.max(tb);
        let mut da = vt.collect_completions(now);
        let mut db = naive.collect_completions(now);
        da.sort();
        db.sort();
        assert_eq!(da, db, "drain completion sets disagree at {now}");
        guard += 1;
        assert!(guard < 10_000, "drain did not converge");
    }
    assert_eq!(vt.load(), 0);
    assert_eq!(naive.load(), 0);

    // Both models went busy/idle at the same driver timestamps, so the
    // integer-microsecond busy accounting must be identical.
    assert_eq!(
        vt.busy_time(now),
        naive.busy_time(now),
        "busy-time accounting disagrees"
    );
}

#[test]
fn virtual_time_cpu_matches_naive_reference() {
    run("ps_cpu_differential", 192, differential_case);
}

/// Same drive, but forcing the pathological mix the virtual-time model's
/// lazy cancellation has to absorb: large populations with heavy aborts.
#[test]
fn virtual_time_cpu_survives_abort_storms() {
    run("ps_cpu_abort_storm", 48, |g| {
        let curve = curve(g);
        let mut vt = PsCpu::new(1.0, curve);
        let mut naive = NaivePsCpu::new(1.0, curve);
        let now = SimTime::ZERO;
        let n = g.usize(100..400);
        for i in 0..n {
            let demand = SimDuration::from_micros(g.u64(1_000..100_000));
            vt.submit(now, JobId(i as u64), demand);
            naive.submit(now, JobId(i as u64), demand);
        }
        // Abort most of the population in random order.
        for i in 0..n {
            if g.weighted(&[3, 1]) == 0 {
                let id = JobId(i as u64);
                assert_eq!(vt.abort(now, id), naive.abort(now, id));
            }
        }
        assert_eq!(vt.load(), naive.load());
        // The survivors drain identically.
        let mut t = now;
        loop {
            let (a, b) = (vt.next_completion(t), naive.next_completion(t));
            assert_eq!(a.is_some(), b.is_some());
            let Some(ta) = a else { break };
            let tb = b.unwrap();
            assert!(abs_diff(ta, tb) <= TOLERANCE);
            t = ta.max(tb);
            let mut da = vt.collect_completions(t);
            let mut db = naive.collect_completions(t);
            da.sort();
            db.sort();
            assert_eq!(da, db);
        }
        assert_eq!(vt.load(), 0);
    });
}
