//! Property-based tests of the simulation kernel: event ordering under
//! random schedules and cancellations, a differential test of the
//! slab-backed [`EventQueue`] against a naive reference model,
//! processor-sharing conservation laws, and workload-ramp bounds.

use jade_propcheck::run;
use jade_rubis::WorkloadRamp;
use jade_sim::{EfficiencyCurve, EventQueue, JobId, MovingAverage, PsCpu};
use jade_sim::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Events always pop in non-decreasing time order with FIFO tie-breaks,
/// regardless of push order and cancellations.
#[test]
fn event_queue_total_order() {
    run("event_queue_total_order", 256, |g| {
        let entries = g.vec(1..200, |g| (g.u64(0..1_000), g.bool()));
        let mut q = EventQueue::new();
        let mut tokens = Vec::new();
        let mut live = Vec::new();
        for (i, &(t, cancel)) in entries.iter().enumerate() {
            let tok = q.push(SimTime::from_micros(t), i);
            tokens.push((tok, cancel));
            if !cancel {
                live.push((t, i));
            }
        }
        for (tok, cancel) in &tokens {
            if *cancel {
                q.cancel(*tok);
            }
        }
        // Expected order: by (time, insertion sequence).
        live.sort_by_key(|&(t, i)| (t, i));
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_micros(), i));
        }
        assert_eq!(popped, live);
    });
}

/// Differential test: the two-lane queue agrees with a trivially
/// correct model (a `BinaryHeap` ordered by `(time, seq)` whose cancelled
/// entries are filtered at pop) across random interleavings of `push`,
/// `push_coarse`, `cancel`, `arm`, `disarm` and horizon-bounded pops —
/// including cancels of already-fired tokens, which the generation tags
/// must turn into no-ops. The model has no keyed lane: `arm` is replayed
/// on it as the protocol it replaced (cancel the key's previous entry,
/// push a new one), so every pop, tie-break, `len` and `peek_time` must
/// come out as if the keyed timers had sat in the one heap.
#[test]
fn event_queue_matches_naive_model() {
    /// Payload of the timer armed under `key` (pushed payloads stay below).
    const KEYED: u32 = 1_000_000;
    const KEYS: u32 = 6;

    struct Model {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        dead: Vec<u64>,
        next_seq: u64,
        /// Model seq of each key's current entry (possibly already fired).
        key_seq: [Option<u64>; KEYS as usize],
    }
    impl Model {
        fn model_push(&mut self, t: u64, payload: u32) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse((t, seq, payload)));
            seq
        }
        fn model_arm(&mut self, key: u32, t: u64) {
            self.model_disarm(key);
            self.key_seq[key as usize] = Some(self.model_push(t, KEYED + key));
        }
        fn model_disarm(&mut self, key: u32) {
            if let Some(seq) = self.key_seq[key as usize].take() {
                self.dead.push(seq);
            }
        }
        fn model_live(&self) -> impl Iterator<Item = &Reverse<(u64, u64, u32)>> {
            self.heap
                .iter()
                .filter(|Reverse((_, s, _))| !self.dead.contains(s))
        }
        /// Pops the earliest live entry if it is at or before `horizon`;
        /// dead entries are dropped on the way regardless of their time.
        fn model_pop(&mut self, horizon: u64) -> Option<(u64, u32)> {
            loop {
                let &Reverse((t, seq, payload)) = self.heap.peek()?;
                if self.dead.contains(&seq) {
                    self.heap.pop();
                    continue;
                }
                if t > horizon {
                    return None;
                }
                self.heap.pop();
                // Dead in the model now: a later cancel of this seq must
                // not resurrect anything.
                self.dead.push(seq);
                return Some((t, payload));
            }
        }
    }

    run("event_queue_matches_naive_model", 256, |g| {
        let mut q = EventQueue::new();
        let mut model = Model {
            heap: BinaryHeap::new(),
            dead: Vec::new(),
            next_seq: 0,
            key_seq: [None; KEYS as usize],
        };
        // (queue token, model seq), including already-popped entries so
        // the generator can exercise stale cancels.
        let mut handles = Vec::new();
        // Times cluster so same-instant ties across lanes are common.
        let span = *g.choose(&[8u64, 500]);
        let steps = g.usize(1..300);
        for _ in 0..steps {
            match g.weighted(&[4, 2, 2, 5, 1, 4]) {
                // Push on the heap.
                0 => {
                    let t = g.u64(0..span);
                    let payload = g.u32(0..KEYED);
                    let tok = q.push(SimTime::from_micros(t), payload);
                    handles.push((tok, model.model_push(t, payload)));
                }
                // Push through the pinned shim.
                1 => {
                    let t = g.u64(0..span);
                    let payload = g.u32(0..KEYED);
                    let tok = q.push_coarse(SimTime::from_micros(t), payload);
                    handles.push((tok, model.model_push(t, payload)));
                }
                // Cancel a handle, possibly one that already fired.
                2 => {
                    if !handles.is_empty() {
                        let &(tok, seq) = g.choose(&handles);
                        q.cancel(tok);
                        model.dead.push(seq);
                    }
                }
                // Arm a key: fresh, re-armed earlier or later, or the
                // current minimum.
                3 => {
                    let key = g.u32(0..KEYS);
                    let t = g.u64(0..span);
                    q.arm(key, SimTime::from_micros(t), KEYED + key);
                    model.model_arm(key, t);
                }
                // Disarm a key, armed or not.
                4 => {
                    let key = g.u32(0..KEYS);
                    q.disarm(key);
                    model.model_disarm(key);
                }
                // Pop, bounded by a horizon half of the time.
                _ => {
                    let horizon = if g.bool() { g.u64(0..span) } else { u64::MAX };
                    let expected = model.model_pop(horizon);
                    let got = q
                        .pop_at_or_before(SimTime::from_micros(horizon))
                        .map(|(t, p)| (t.as_micros(), p));
                    assert_eq!(got, expected);
                    assert_eq!(
                        q.peek_time().map(SimTime::as_micros),
                        model.model_live().map(|Reverse((t, _, _))| *t).min()
                    );
                    // Re-arm the key that just fired, as a CPU-completion
                    // handler does.
                    if let Some((t, p)) = got.filter(|&(_, p)| p >= KEYED && g.bool()) {
                        let at = t + g.u64(0..4);
                        q.arm(p - KEYED, SimTime::from_micros(at), p);
                        model.model_arm(p - KEYED, at);
                    }
                }
            }
            let model_live = model.model_live().count();
            assert_eq!(q.len(), model_live);
            assert_eq!(q.is_empty(), model_live == 0);
        }
        // Drain both completely; remainders must agree.
        loop {
            let expected = model.model_pop(u64::MAX);
            let got = q.pop().map(|(t, p)| (t.as_micros(), p));
            assert_eq!(got, expected);
            if got.is_none() {
                break;
            }
        }
        assert!(q.is_empty());
        // A keyed timer that is the only event, past the horizon: it
        // stays resident, counted and visible, and fires at its instant.
        let at = SimTime::from_micros(span + 7);
        q.arm(0, at, KEYED);
        assert_eq!(q.pop_at_or_before(SimTime::from_micros(span)), None);
        assert_eq!((q.len(), q.is_empty()), (1, false));
        assert_eq!(q.peek_time(), Some(at));
        assert_eq!(q.pop_at_or_before(at), Some((at, KEYED)));
        assert!(q.is_empty());
    });
}

/// Processor sharing conserves work: with no aborts, total busy time
/// equals the sum of job demands (whatever the arrival pattern), and
/// every job completes.
#[test]
fn ps_cpu_conserves_work() {
    run("ps_cpu_conserves_work", 256, |g| {
        let jobs = g.vec(1..40, |g| (g.u64(1..50_000), g.u64(0..100_000)));
        let mut cpu = PsCpu::new(1.0, EfficiencyCurve::Ideal);
        let mut total_demand = 0u64;
        let mut completed = 0usize;
        // Submit at given arrival offsets (sorted).
        let mut arrivals: Vec<(u64, u64)> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(d, a))| (a, d + i as u64))
            .collect();
        arrivals.sort_unstable();
        let mut now = SimTime::ZERO;
        for (i, &(a, d)) in arrivals.iter().enumerate() {
            let at = SimTime::from_micros(a);
            // Process completions occurring before this arrival.
            while let Some(next) = cpu.next_completion(now) {
                if next > at {
                    break;
                }
                now = next;
                completed += cpu.collect_completions(now).len();
            }
            now = now.max(at);
            cpu.submit(now, JobId(i as u64), SimDuration::from_micros(d));
            total_demand += d;
        }
        while let Some(next) = cpu.next_completion(now) {
            now = next;
            completed += cpu.collect_completions(now).len();
        }
        assert_eq!(completed, arrivals.len(), "all jobs complete");
        let busy = cpu.busy_time(now).as_micros();
        // Timer rounding adds at most 1 µs per completion.
        let slack = arrivals.len() as u64 + 1;
        assert!(
            busy >= total_demand && busy <= total_demand + slack,
            "busy {busy} vs demand {total_demand}"
        );
    });
}

/// The moving average is always within the min/max of in-window samples
/// (hence safe to compare against thresholds).
#[test]
fn moving_average_bounded_by_samples() {
    run("moving_average_bounded_by_samples", 256, |g| {
        let samples = g.vec(1..100, |g| (g.u64(0..10_000), g.f64(0.0..1.0)));
        let mut sorted = samples.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut ma = MovingAverage::new(SimDuration::from_secs(1));
        for &(t, v) in &sorted {
            ma.record(SimTime::from_micros(t), v);
            let val = ma.value().unwrap();
            assert!((0.0..=1.0).contains(&val));
        }
    });
}

/// The workload ramp is bounded and returns to base.
#[test]
fn ramp_bounds() {
    run("ramp_bounds", 256, |g| {
        let base = g.u32(1..100);
        let delta = g.u32(0..500);
        let step = g.u32(1..50);
        let t = g.u64(0..10_000);
        let ramp = WorkloadRamp {
            base_clients: base,
            peak_clients: base + delta,
            step_clients: step,
            step_interval: SimDuration::from_secs(30),
            warmup: SimDuration::from_secs(60),
            plateau: SimDuration::from_secs(60),
        };
        let c = ramp.clients_at(SimTime::from_secs(t));
        assert!(c >= base && c <= base + delta);
        // Far beyond the ramp: back at base.
        let end = SimTime::from_secs(1_000_000);
        assert_eq!(ramp.clients_at(end), base);
    });
}

/// Thrashing efficiency is monotone non-increasing in population and
/// never exceeds 1 (the degradation law can only hurt).
#[test]
fn thrashing_monotone() {
    run("thrashing_monotone", 256, |g| {
        let knee = g.usize(1..100);
        let slope = g.f64(0.001..1.0);
        let n = g.usize(0..500);
        let curve = EfficiencyCurve::Thrashing { knee, slope };
        let e_n = curve.efficiency(n);
        let e_n1 = curve.efficiency(n + 1);
        assert!(e_n <= 1.0 && e_n > 0.0);
        assert!(e_n1 <= e_n);
    });
}
