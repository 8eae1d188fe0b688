//! Differential property tests of the hierarchical timer wheel.
//!
//! The slab-backed [`EventQueue`] routes coarse timers (`push_coarse`)
//! through a 7-level timer wheel and precise events through its pairing
//! heap, merging the two at pop by `(time, global sequence)`. These tests
//! drive random interleavings of precise pushes, coarse pushes, cancels
//! and pops against [`NaiveTimers`] — the trivially correct
//! `BinaryHeap` + cancel-set model — and demand byte-identical behaviour:
//! the same fire times, the same order on same-tick ties (insertion
//! order, regardless of which structure holds the entry), the same
//! cancellation semantics, and no-op cancels for tokens whose slot has
//! been recycled into a new generation.

use jade_bench::NaiveTimers;
use jade_propcheck::run;
use jade_sim::{EventQueue, EventToken, SimTime};

/// One armed timer as the test tracked it: the queue token, the model
/// handle, and whether it is still pending (neither fired nor cancelled).
struct Handle {
    token: EventToken,
    model: u64,
    live: bool,
}

/// Pops both structures once and checks they agree; marks the fired
/// handle dead and returns the fire time. Payloads are handle indices,
/// so a mismatch names the exact insertion that fired out of order.
fn pop_both(
    q: &mut EventQueue<u64>,
    model: &mut NaiveTimers<u64>,
    handles: &mut [Handle],
) -> Option<SimTime> {
    let got = q.pop();
    let want = model.pop();
    assert_eq!(
        got, want,
        "wheel-backed queue diverged from the BinaryHeap model"
    );
    got.map(|(t, idx)| {
        handles[idx as usize].live = false;
        t
    })
}

/// Random interleavings across the wheel's whole time range: offsets are
/// log-uniform over 2^0..2^45 µs, so entries land on every wheel level,
/// in the overflow list beyond the 2^42 µs span, and (via past-time
/// pushes) on the heap fallback behind the cursor.
#[test]
fn wheel_matches_naive_timers() {
    run("wheel_matches_naive_timers", 256, |g| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: NaiveTimers<u64> = NaiveTimers::new();
        let mut handles: Vec<Handle> = Vec::new();
        let mut now = 0u64; // time of the last fired event, µs
        let steps = g.usize(20..400);
        for _ in 0..steps {
            match g.u32(0..10) {
                // Precise push: relative to the frontier or absolute in
                // the (possibly already-passed) first millisecond.
                0..=2 => {
                    let t = if g.bool() {
                        let exp = g.u64(0..20);
                        now + g.u64(0..1 << exp)
                    } else {
                        g.u64(0..1_000)
                    };
                    let idx = handles.len() as u64;
                    let token = q.push(SimTime::from_micros(t), idx);
                    let model_h = model.push(SimTime::from_micros(t), idx);
                    handles.push(Handle {
                        token,
                        model: model_h,
                        live: true,
                    });
                }
                // Coarse push: any wheel level, the overflow list, or a
                // time behind the cursor (heap fallback).
                3..=6 => {
                    let t = if g.bool() {
                        let exp = g.u64(0..46);
                        now + g.u64(0..1 << exp)
                    } else {
                        g.u64(0..1_000)
                    };
                    let idx = handles.len() as u64;
                    let token = q.push_coarse(SimTime::from_micros(t), idx);
                    let model_h = model.push(SimTime::from_micros(t), idx);
                    handles.push(Handle {
                        token,
                        model: model_h,
                        live: true,
                    });
                }
                // Cancel. A live target is cancelled in both structures;
                // a dead target only on the queue side — its slot may
                // already carry a new generation, and the cancel must be
                // a no-op for the streams to stay identical.
                7..=8 => {
                    if handles.is_empty() {
                        continue;
                    }
                    let i = g.usize(0..handles.len());
                    q.cancel(handles[i].token);
                    if handles[i].live {
                        model.cancel(handles[i].model);
                        handles[i].live = false;
                    }
                }
                _ => {
                    if let Some(t) = pop_both(&mut q, &mut model, &mut handles) {
                        now = now.max(t.as_micros());
                    }
                }
            }
            assert_eq!(q.len(), model.len(), "live-timer counts diverged");
        }
        // Drain both to the end: every remaining entry fires in the same
        // order at the same time.
        loop {
            let got = q.pop();
            let want = model.pop();
            assert_eq!(got, want, "drain order diverged");
            if got.is_none() {
                break;
            }
        }
        assert!(q.is_empty() && model.is_empty());
    });
}

/// Same-tick ties and slot recycling under churn: timers are quantized to
/// a handful of distinct times (mixing precise and coarse arms at the
/// very same microsecond), and the pop/cancel pressure is high enough
/// that slots are recycled across generations many times per case. Ties
/// must fire in insertion order even when one entry sits in the heap and
/// the other in a wheel bucket, and a stale token must never cancel the
/// slot's new occupant.
#[test]
fn wheel_ties_and_token_reuse_match_naive_timers() {
    run("wheel_ties_and_token_reuse", 256, |g| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: NaiveTimers<u64> = NaiveTimers::new();
        let mut handles: Vec<Handle> = Vec::new();
        let mut now = 0u64;
        let quantum = 1u64 << g.u64(0..14); // bucket-aligned at several levels
        let steps = g.usize(50..300);
        for _ in 0..steps {
            match g.u32(0..8) {
                0..=3 => {
                    // At most 4 distinct future times ⇒ ties are the norm.
                    let t = now + g.u64(1..5) * quantum;
                    let idx = handles.len() as u64;
                    let time = SimTime::from_micros(t);
                    let (token, model_h) = if g.bool() {
                        (q.push(time, idx), model.push(time, idx))
                    } else {
                        (q.push_coarse(time, idx), model.push(time, idx))
                    };
                    handles.push(Handle {
                        token,
                        model: model_h,
                        live: true,
                    });
                }
                4 => {
                    if handles.is_empty() {
                        continue;
                    }
                    let i = g.usize(0..handles.len());
                    q.cancel(handles[i].token);
                    if handles[i].live {
                        model.cancel(handles[i].model);
                        handles[i].live = false;
                    }
                }
                _ => {
                    // Pop-heavy mix drives slot recycling: most arms fire
                    // quickly and their slots host later generations.
                    let before = q.pop();
                    let model_before = model.pop();
                    assert_eq!(before, model_before, "tie order diverged");
                    if let Some((t, idx)) = before {
                        handles[idx as usize].live = false;
                        now = now.max(t.as_micros());
                    }
                }
            }
            assert_eq!(q.len(), model.len(), "live-timer counts diverged");
        }
        loop {
            let got = q.pop();
            let want = model.pop();
            assert_eq!(got, want, "drain order diverged");
            if got.is_none() {
                break;
            }
        }
    });
}

/// The wheel's next-bucket memo under its two mutators. A `peek_time`
/// with an earlier heap event resident makes the queue ask the wheel for
/// its candidate and then *not* advance it, so the answer stays cached;
/// coarse pushes that land below that cached candidate (but at or after
/// the cursor) and pops that advance the wheel are then interleaved. A
/// memo that survives either mutation defers the wheel past an entry that
/// is due, and the fire order diverges from the model. (Debug builds also
/// compare the memo with a fresh scan on every read.)
#[test]
fn wheel_push_below_cached_candidate_matches_naive_timers() {
    run("wheel_push_below_cached_candidate", 256, |g| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: NaiveTimers<u64> = NaiveTimers::new();
        let mut next_idx = 0u64;
        let mut both = |q: &mut EventQueue<u64>, model: &mut NaiveTimers<u64>, t, coarse| {
            let time = SimTime::from_micros(t);
            if coarse {
                q.push_coarse(time, next_idx);
            } else {
                q.push(time, next_idx);
            }
            model.push(time, next_idx);
            next_idx += 1;
        };
        // A far timer pins a high-level bucket as the cached candidate;
        // the early one keeps the cursor low so later pushes stay on the
        // wheel instead of falling back to the heap.
        both(&mut q, &mut model, 1, true);
        both(&mut q, &mut model, 1 << g.u64(12..30), true);
        let mut now = 0u64;
        for _ in 0..g.usize(20..200) {
            match g.u32(0..6) {
                // A near heap event: the bound that lets the wheel wait.
                0 => both(&mut q, &mut model, now + g.u64(0..64), false),
                // Read the candidate without advancing past the heap head.
                1 => {
                    q.peek_time();
                }
                // Coarse pushes at every distance from the frontier: most
                // undercut the cached candidate, on every level.
                2..=3 => {
                    let exp = g.u64(0..30);
                    both(&mut q, &mut model, now + g.u64(0..1 << exp), true);
                }
                _ => {
                    let got = q.pop();
                    assert_eq!(got, model.pop(), "fire order diverged");
                    if let Some((t, _)) = got {
                        now = t.as_micros();
                    }
                }
            }
            assert_eq!(q.len(), model.len(), "live-timer counts diverged");
        }
        loop {
            let got = q.pop();
            assert_eq!(got, model.pop(), "drain order diverged");
            if got.is_none() {
                break;
            }
        }
    });
}
