//! The discrete-event engine.
//!
//! The engine owns the virtual clock, the pending-event set, the metrics
//! hub and the run's RNG. Application state (the simulated cluster, the
//! legacy servers, the Jade management layer) lives in a single [`App`]
//! value which routes every delivered message itself. Routing inside the
//! application keeps the whole world reachable behind one `&mut`, which is
//! exactly what Jade's managers need: a reconfiguration triggered by a
//! control-loop tick can synchronously traverse wrappers, legacy servers
//! and the cluster manager without fighting the borrow checker.
//!
//! The engine is single-threaded and deterministic; parallelism belongs at
//! the *experiment* level (independent runs on separate threads, see
//! `jade-bench`), per the repository's HPC guidelines.

use crate::metrics::MetricsHub;
use crate::queue::{EventQueue, EventToken};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceLevel, Tracer};
use jade_hot::jade_hot;

/// Application-defined actor address. The application decides the meaning
/// (e.g. an index into a server slab or a well-known constant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub u64);

impl Addr {
    /// Conventional address for the top-level experiment driver.
    pub const ROOT: Addr = Addr(0);
}

/// The simulated application: owns all world state and dispatches messages.
pub trait App {
    /// Message type routed through the event queue.
    type Msg;

    /// Handles one delivered message. `ctx` gives access to the clock,
    /// scheduling, metrics and randomness.
    fn handle(&mut self, ctx: &mut Ctx<'_, Self::Msg>, dst: Addr, msg: Self::Msg);
}

/// Per-event execution context handed to [`App::handle`].
pub struct Ctx<'a, M> {
    now: SimTime,
    queue: &'a mut EventQueue<(Addr, M)>,
    metrics: &'a mut MetricsHub,
    rng: &'a mut SimRng,
    tracer: &'a mut Tracer,
    stop_requested: &'a mut bool,
}

impl<'a, M> Ctx<'a, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `msg` for `dst` after `delay`.
    pub fn send_after(&mut self, delay: SimDuration, dst: Addr, msg: M) -> EventToken {
        self.queue.push(self.now + delay, (dst, msg))
    }

    /// Schedules `msg` for `dst` at the current instant (delivered after
    /// all already-queued events at this instant).
    pub fn send_now(&mut self, dst: Addr, msg: M) -> EventToken {
        self.queue.push(self.now, (dst, msg))
    }

    /// Cancels a previously scheduled event (no-op if already delivered).
    pub fn cancel(&mut self, token: EventToken) {
        self.queue.cancel(token);
    }

    /// Sets the one timer of `key` to deliver `msg` to `dst` at absolute
    /// time `at` (clamped to now), replacing whatever the key had armed.
    /// Delivery order is that of a [`Ctx::send_after`] due at `at` issued
    /// at this point; see [`EventQueue::arm`]. For timers re-armed more
    /// often than they fire; keys index a dense table, so keep them small.
    pub fn arm_timer(&mut self, key: u32, at: SimTime, dst: Addr, msg: M) {
        let at = at.max(self.now);
        self.queue.arm(key, at, (dst, msg));
    }

    /// Clears the timer of `key` (no-op if none is armed).
    pub fn disarm_timer(&mut self, key: u32) {
        self.queue.disarm(key);
    }

    /// The run's metrics sink.
    pub fn metrics(&mut self) -> &mut MetricsHub {
        self.metrics
    }

    /// The run's deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Records a trace event (no-op unless the engine's tracer is
    /// enabled; the message closure is lazy).
    pub fn trace(
        &mut self,
        level: TraceLevel,
        category: &'static str,
        message: impl FnOnce() -> String,
    ) {
        self.tracer.record(self.now, level, category, message);
    }

    /// Requests the engine to stop after the current event.
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// Outcome of an engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The horizon was reached; events may remain beyond it.
    HorizonReached,
    /// The pending-event set drained before the horizon.
    Drained,
    /// An event handler called [`Ctx::stop`].
    Stopped,
}

/// Discrete-event simulation engine.
pub struct Engine<A: App> {
    app: A,
    time: SimTime,
    queue: EventQueue<(Addr, A::Msg)>,
    metrics: MetricsHub,
    rng: SimRng,
    tracer: Tracer,
    events_processed: u64,
    stop_requested: bool,
}

impl<A: App> Engine<A> {
    /// Creates an engine around `app` with a deterministic seed.
    pub fn new(app: A, seed: u64) -> Self {
        Engine {
            app,
            time: SimTime::ZERO,
            queue: EventQueue::new(),
            metrics: MetricsHub::new(),
            rng: SimRng::seed_from_u64(seed),
            tracer: Tracer::disabled(),
            events_processed: 0,
            stop_requested: false,
        }
    }

    /// Installs a tracer (replace the default disabled one).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Read access to the tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Shared application state.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable application state (for setup between runs).
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Read access to collected metrics.
    pub fn metrics(&self) -> &MetricsHub {
        &self.metrics
    }

    /// Schedules an initial message from outside any handler.
    pub fn schedule(&mut self, at: SimTime, dst: Addr, msg: A::Msg) -> EventToken {
        self.queue.push(at.max(self.time), (dst, msg))
    }

    /// Delivers the next event, if any. Returns `false` when the queue is
    /// drained or a stop was requested.
    #[jade_hot]
    pub fn step(&mut self) -> bool {
        if self.stop_requested {
            return false;
        }
        let Some((t, (dst, msg))) = self.queue.pop() else {
            return false;
        };
        self.deliver(t, dst, msg);
        true
    }

    /// Advances the clock to `t` and hands one popped event to the app.
    #[inline]
    fn deliver(&mut self, t: SimTime, dst: Addr, msg: A::Msg) {
        debug_assert!(t >= self.time, "time must be monotone");
        self.time = t;
        self.events_processed += 1;
        let mut ctx = Ctx {
            now: t,
            queue: &mut self.queue,
            metrics: &mut self.metrics,
            rng: &mut self.rng,
            tracer: &mut self.tracer,
            stop_requested: &mut self.stop_requested,
        };
        self.app.handle(&mut ctx, dst, msg);
    }

    /// Runs until the horizon `until` (inclusive), the queue drains, or a
    /// handler requests a stop.
    ///
    /// Each event costs a single queue traversal: the horizon check rides
    /// inside [`EventQueue::pop_at_or_before`] instead of a separate
    /// peek-then-pop pair walking the queue twice.
    #[jade_hot]
    pub fn run_until(&mut self, until: SimTime) -> RunOutcome {
        loop {
            if self.stop_requested {
                return RunOutcome::Stopped;
            }
            let Some((t, (dst, msg))) = self.queue.pop_at_or_before(until) else {
                if self.queue.is_empty() {
                    return RunOutcome::Drained;
                }
                // Advance the clock to the horizon so utilization
                // windows measured after the run are well defined.
                self.time = until;
                return RunOutcome::HorizonReached;
            };
            self.deliver(t, dst, msg);
        }
    }

    /// Consumes the engine, yielding application, metrics and tracer.
    pub fn into_parts_with_trace(self) -> (A, MetricsHub, Tracer) {
        (self.app, self.metrics, self.tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy app: counts deliveries, optionally re-schedules itself.
    struct Ticker {
        ticks: u32,
        limit: u32,
        log: Vec<(SimTime, Addr)>,
    }

    enum TickMsg {
        Tick,
        StopNow,
    }

    impl App for Ticker {
        type Msg = TickMsg;
        fn handle(&mut self, ctx: &mut Ctx<'_, TickMsg>, dst: Addr, msg: TickMsg) {
            match msg {
                TickMsg::Tick => {
                    self.ticks += 1;
                    self.log.push((ctx.now(), dst));
                    if self.ticks < self.limit {
                        ctx.send_after(SimDuration::from_secs(1), dst, TickMsg::Tick);
                    }
                }
                TickMsg::StopNow => ctx.stop(),
            }
        }
    }

    #[test]
    fn periodic_ticks_until_drained() {
        let mut eng = Engine::new(
            Ticker {
                ticks: 0,
                limit: 5,
                log: vec![],
            },
            1,
        );
        eng.schedule(SimTime::from_secs(1), Addr(7), TickMsg::Tick);
        let outcome = eng.run_until(SimTime::from_secs(100));
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(eng.app().ticks, 5);
        assert_eq!(eng.app().log[4].0, SimTime::from_secs(5));
        assert_eq!(eng.events_processed(), 5);
    }

    #[test]
    fn horizon_stops_the_run_and_advances_clock() {
        let mut eng = Engine::new(
            Ticker {
                ticks: 0,
                limit: u32::MAX,
                log: vec![],
            },
            1,
        );
        eng.schedule(SimTime::from_secs(1), Addr(1), TickMsg::Tick);
        let outcome = eng.run_until(SimTime::from_secs(10));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(eng.app().ticks, 10);
        assert_eq!(eng.now(), SimTime::from_secs(10));
    }

    #[test]
    fn stop_request_halts_immediately() {
        let mut eng = Engine::new(
            Ticker {
                ticks: 0,
                limit: u32::MAX,
                log: vec![],
            },
            1,
        );
        eng.schedule(SimTime::from_secs(1), Addr(1), TickMsg::Tick);
        eng.schedule(SimTime::from_secs(3), Addr(1), TickMsg::StopNow);
        let outcome = eng.run_until(SimTime::from_secs(100));
        assert_eq!(outcome, RunOutcome::Stopped);
        // The StopNow event was enqueued before the t=3 tick, so it is
        // delivered first at t=3: only the t=1 and t=2 ticks ran.
        assert_eq!(eng.app().ticks, 2);
    }

    #[test]
    fn cancellation_via_ctx() {
        struct Canceller {
            fired: bool,
        }
        enum M {
            Arm,
            Fire,
        }
        impl App for Canceller {
            type Msg = M;
            fn handle(&mut self, ctx: &mut Ctx<'_, M>, _dst: Addr, msg: M) {
                match msg {
                    M::Arm => {
                        let tok = ctx.send_after(SimDuration::from_secs(5), Addr(0), M::Fire);
                        ctx.cancel(tok);
                    }
                    M::Fire => self.fired = true,
                }
            }
        }
        let mut eng = Engine::new(Canceller { fired: false }, 1);
        eng.schedule(SimTime::ZERO, Addr(0), M::Arm);
        eng.run_until(SimTime::from_secs(100));
        assert!(!eng.app().fired);
    }

    #[test]
    fn keyed_timers_via_ctx_rearm_clamp_and_disarm() {
        struct Timers {
            fired: Vec<(SimTime, u8)>,
        }
        enum M {
            Start,
            Fire(u8),
        }
        impl App for Timers {
            type Msg = M;
            fn handle(&mut self, ctx: &mut Ctx<'_, M>, dst: Addr, msg: M) {
                match msg {
                    M::Start => {
                        ctx.arm_timer(0, SimTime::from_secs(5), dst, M::Fire(1));
                        ctx.arm_timer(0, SimTime::from_secs(3), dst, M::Fire(2)); // replaces
                        ctx.arm_timer(1, SimTime::ZERO, dst, M::Fire(3)); // past: clamped
                        ctx.arm_timer(2, SimTime::from_secs(4), dst, M::Fire(4));
                        ctx.disarm_timer(2);
                        ctx.disarm_timer(9); // never armed
                    }
                    M::Fire(n) => self.fired.push((ctx.now(), n)),
                }
            }
        }
        let mut eng = Engine::new(Timers { fired: vec![] }, 1);
        eng.schedule(SimTime::from_secs(1), Addr(0), M::Start);
        assert_eq!(eng.run_until(SimTime::from_secs(100)), RunOutcome::Drained);
        assert_eq!(
            eng.app().fired,
            [(SimTime::from_secs(1), 3), (SimTime::from_secs(3), 2)]
        );
    }

    #[test]
    fn same_instant_fifo_order() {
        struct Collect {
            order: Vec<u64>,
        }
        impl App for Collect {
            type Msg = u64;
            fn handle(&mut self, _ctx: &mut Ctx<'_, u64>, _dst: Addr, msg: u64) {
                self.order.push(msg);
            }
        }
        let mut eng = Engine::new(Collect { order: vec![] }, 1);
        for i in 0..10 {
            eng.schedule(SimTime::from_secs(1), Addr(0), i);
        }
        eng.run_until(SimTime::from_secs(2));
        assert_eq!(eng.app().order, (0..10).collect::<Vec<_>>());
    }
}
