//! Tickless idle: quiet mechanism ticks leave the event queue.
//!
//! BWD arms a 100 µs timer on every core. On an idle core whose
//! monitoring window is untouched, a tick of a mechanism with a constant
//! idle-quiet charge ([`Mechanism::idle_quiet_constant`]) does nothing but
//! `account_progress` over an idle span, a fixed kernel charge and one
//! recorded check. As Linux NO_HZ_IDLE stops the tick on an idle CPU, the
//! engine then *suspends* the timer instead of re-arming it: the timer
//! leaves the queue, and the skipped ticks are charged later in closed
//! form.
//!
//! - **Suspend.** A quiet tick pops on an online CPU with no current
//!   task, an untouched window and a constant charge: the engine charges
//!   it in place. If the timer's previous tick was quiet too, the engine
//!   also takes back the queue's auto-cadence re-arm and records the next
//!   grid point instead. Waiting for the second quiet tick in a row keeps
//!   idle spells shorter than a tick from paying a suspend and a resume
//!   to elide nothing: on perfbench `memcached-16T8c` (seed 1),
//!   suspending on the first quiet tick took 62,924 suspensions to elide
//!   162 ticks, and the run was about 10% slower than with tickless off
//!   (2-CPU VM).
//! - **Catch-up.** The event queue orders by `(time, sched_at, class,
//!   seq)`, so the skipped tick at grid point `G` has the known key
//!   [`EventKey::cadenced_tick`]`(G, interval)`. Before anything reads
//!   the CPU's time accounting (`account_progress`, which every access to
//!   an idle CPU's cursor goes through) the ticks whose key is below the
//!   key of the event being processed are charged: exactly the ticks the
//!   per-tick engine would have popped by then.
//! - **Resume.** A suspended CPU stays quiet until a task starts on it or
//!   it goes offline (nothing touches an idle core's window). At those
//!   two points the timer goes back into the queue at its next grid point
//!   under the key the per-tick engine would have given it
//!   ([`EventQueue::resume_cadenced`](oversub_simcore::EventQueue::resume_cadenced)).
//! - **Wrap-up.** Before the report is built, every suspended CPU is
//!   caught up to the point where the run loop stopped.
//!
//! Only the final insertion-order tie-break of a resumed tick differs
//! from the per-tick engine, which matters only against another cadenced
//! event with the same time and the same `sched_at` — that is, the same
//! interval and phase. A timer is therefore suspendable only when no other
//! cadence (another mechanism's timer, balancing, the watchdog) shares its
//! interval and its per-core phases are distinct. At most one timer is
//! suspendable (the first that qualifies; in-tree only BWD's does), so
//! catch-up never interleaves two grids. Tickless runs exactly where
//! auto-cadence rotation does (fault-free, unsalted, optimized runs); the
//! reference engine pops every tick and is the oracle
//! (`tests/determinism.rs`).
//!
//! [`Mechanism::idle_quiet_constant`]: crate::mechanism::Mechanism::idle_quiet_constant

use super::{Engine, Event, TIMER_PHASE_STRIDE_NS};
use oversub_hw::CpuId;
use oversub_simcore::{EventKey, SimTime};

/// The mechanism timer that may be suspended.
#[derive(Clone, Copy, Debug, PartialEq)]
struct QuietTimer {
    /// Mechanism index.
    idx: usize,
    interval_ns: u64,
    /// The constant idle-quiet charge.
    charge_ns: u64,
}

/// Suspended-timer state of one run.
pub(crate) struct Tickless {
    timer: Option<QuietTimer>,
    /// Per CPU: the first uncharged grid point while the timer is
    /// suspended there, else `SimTime::NEVER`.
    next: Vec<SimTime>,
    /// Per CPU: the timer's last tick there was quiet and no task has
    /// started there since.
    primed: Vec<bool>,
}

impl Tickless {
    /// Pick the suspendable timer. `enabled` is false for the reference
    /// engine, fault runs and salted runs; `timers` lists `(mechanism
    /// index, interval)`, `charges` each mechanism's constant idle-quiet
    /// charge, and `other_cadences` every other periodic interval armed in
    /// the run.
    pub(crate) fn new(
        enabled: bool,
        ncpu: usize,
        timers: &[(usize, u64)],
        charges: &[Option<u64>],
        other_cadences: &[u64],
    ) -> Self {
        let timer = timers
            .iter()
            .filter(|_| enabled)
            .find_map(|&(idx, interval_ns)| {
                let shared = other_cadences.contains(&interval_ns)
                    || timers.iter().any(|&(j, i)| j != idx && i == interval_ns);
                // Core `c` ticks at phase `c * stride mod interval`; the
                // phases repeat with period `interval / gcd(stride, interval)`.
                let period = interval_ns / gcd(TIMER_PHASE_STRIDE_NS, interval_ns);
                let charge_ns = charges[idx].filter(|_| !shared && ncpu as u64 <= period)?;
                Some(QuietTimer {
                    idx,
                    interval_ns,
                    charge_ns,
                })
            });
        Tickless {
            timer,
            next: vec![SimTime::NEVER; ncpu],
            primed: vec![false; ncpu],
        }
    }

    /// True when the timer is suspended on `cpu`.
    #[inline]
    pub(crate) fn suspended(&self, cpu: usize) -> bool {
        self.next[cpu] != SimTime::NEVER
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Number of grid points `g, g + interval, ...` whose tick key is below
/// `bound`.
fn ticks_before(g: SimTime, interval_ns: u64, bound: EventKey) -> u64 {
    if bound.time < g {
        return 0;
    }
    let span = bound.time - g;
    let mut n = span.div_ceil(interval_ns);
    if span.is_multiple_of(interval_ns) && EventKey::cadenced_tick(bound.time, interval_ns) < bound
    {
        n += 1;
    }
    n
}

impl Engine {
    /// True when mechanism `idx`'s tick on `cpu` is quiet: the timer is
    /// the suspendable one, and the CPU is online, runs nothing and has an
    /// untouched window.
    #[inline]
    pub(crate) fn quiet_tick(&self, idx: usize, cpu: usize) -> bool {
        self.tickless.timer.is_some_and(|t| t.idx == idx)
            && self.sched.is_online(CpuId(cpu))
            && !self.sched.is_active(CpuId(cpu))
            && self.sched.cpus[cpu].hw.window_untouched()
    }

    /// Whether the quiet tick that just popped on `cpu` suspends the
    /// timer: its previous tick there was quiet too.
    #[inline]
    pub(crate) fn suspends(&self, cpu: usize) -> bool {
        self.tickless.primed[cpu]
    }

    /// Charge the quiet tick that just popped on `cpu` (its re-arm, if
    /// any, already done).
    pub(crate) fn take_quiet_tick(&mut self, cpu: usize) {
        if let Some(t) = self.tickless.timer {
            self.catch_up_ticks(cpu);
            self.charge_quiet_ticks(cpu, t, self.now, 1);
            self.tickless.primed[cpu] = true;
        }
    }

    /// Take the quiet tick that just popped on `cpu`, and suspend the
    /// timer instead of re-arming it.
    pub(crate) fn suspend_tick(&mut self, cpu: usize) {
        if let Some(t) = self.tickless.timer {
            self.queue.undo_rotation();
            self.take_quiet_tick(cpu);
            self.tickless.next[cpu] = self.now + t.interval_ns;
        }
    }

    /// Charge the suspended ticks on `cpu` that the per-tick engine would
    /// have popped before the current event.
    #[inline]
    pub(crate) fn catch_up_ticks(&mut self, cpu: usize) {
        if self.tickless.suspended(cpu) {
            self.catch_up_to(cpu, self.queue.current_key());
        }
    }

    /// Charge every suspended tick on `cpu` whose key is below `bound`.
    fn catch_up_to(&mut self, cpu: usize, bound: EventKey) {
        let Some(t) = self.tickless.timer else { return };
        let g = self.tickless.next[cpu];
        let n = ticks_before(g, t.interval_ns, bound);
        if n > 0 {
            self.charge_quiet_ticks(cpu, t, g, n);
            self.tickless.next[cpu] = g + n * t.interval_ns;
        }
    }

    /// `n` quiet ticks of `t` on `cpu`, the first at `first`, in closed
    /// form ([`Engine::account_idle_ticks`]), plus their deferred checks.
    fn charge_quiet_ticks(&mut self, cpu: usize, t: QuietTimer, first: SimTime, n: u64) {
        let last = first + (n - 1) * t.interval_ns;
        self.account_idle_ticks(cpu, first, last, n, t.charge_ns);
        self.pending_idle_checks[t.idx] += n;
    }

    /// Put the suspended timer of `cpu` back into the queue (a task is
    /// starting on it or it is going offline), after charging the ticks
    /// already due; its next quiet tick starts a new idle spell.
    #[inline]
    pub(crate) fn resume_ticks(&mut self, cpu: usize) {
        if self.tickless.suspended(cpu) {
            self.resume_suspended(cpu);
        }
        self.tickless.primed[cpu] = false;
    }

    fn resume_suspended(&mut self, cpu: usize) {
        let Some(t) = self.tickless.timer else { return };
        self.catch_up_to(cpu, self.queue.current_key());
        let g = std::mem::replace(&mut self.tickless.next[cpu], SimTime::NEVER);
        self.queue
            .resume_cadenced(g, t.interval_ns, Event::MechTimer(t.idx, cpu));
    }

    /// Wrap-up: charge every suspended tick whose key is below `bound`
    /// (where the run loop stopped) and clear all suspensions.
    pub(crate) fn finish_ticks(&mut self, bound: EventKey) {
        for cpu in 0..self.tickless.next.len() {
            if self.tickless.suspended(cpu) {
                self.catch_up_to(cpu, bound);
            }
        }
        self.tickless.next.fill(SimTime::NEVER);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oversub_simcore::EventClass;

    #[test]
    fn ticks_before_counts_grid_points_by_key() {
        let g = SimTime::from_nanos(1_000);
        let key = |t: u64, s: u64, class| EventKey {
            time: SimTime::from_nanos(t),
            sched_at: SimTime::from_nanos(s),
            class,
        };
        // Strictly earlier times count; later ones never do.
        assert_eq!(ticks_before(g, 100, key(999, 0, EventClass::OneShot)), 0);
        assert_eq!(ticks_before(g, 100, key(1_050, 0, EventClass::OneShot)), 1);
        assert_eq!(ticks_before(g, 100, key(1_250, 0, EventClass::OneShot)), 3);
        // On a grid point the tick's key (G, G - 100, cadenced) decides:
        // an event scheduled later than G - 100 comes after the tick...
        assert_eq!(
            ticks_before(g, 100, key(1_200, 1_150, EventClass::OneShot)),
            3
        );
        // ...one scheduled earlier comes before it...
        assert_eq!(
            ticks_before(g, 100, key(1_200, 1_050, EventClass::OneShot)),
            2
        );
        // ...and at the same `sched_at` the cadenced class goes first.
        assert_eq!(
            ticks_before(g, 100, key(1_200, 1_100, EventClass::OneShot)),
            3
        );
        assert_eq!(
            ticks_before(g, 100, key(1_200, 1_100, EventClass::Cadenced)),
            2
        );
    }

    #[test]
    fn shared_cadences_and_phase_collisions_are_not_suspendable() {
        let bwd = QuietTimer {
            idx: 0,
            interval_ns: 100_000,
            charge_ns: 1_500,
        };
        let pick =
            |enabled, ncpu, timers: &[(usize, u64)], charges: &[Option<u64>], others: &[u64]| {
                Tickless::new(enabled, ncpu, timers, charges, others).timer
            };
        let charges = [Some(1_500)];
        assert_eq!(
            pick(true, 512, &[(0, 100_000)], &charges, &[10_000_000]),
            Some(bwd)
        );
        assert_eq!(
            pick(false, 512, &[(0, 100_000)], &charges, &[10_000_000]),
            None
        );
        assert_eq!(
            pick(true, 512, &[(0, 100_000)], &charges, &[100_000]),
            None,
            "balance shares the interval"
        );
        // Stride 7919 divides the interval: every core shares one phase.
        assert_eq!(pick(true, 2, &[(0, 7_919)], &charges, &[]), None);
        assert!(pick(true, 1, &[(0, 7_919)], &charges, &[]).is_some());
        assert_eq!(
            pick(true, 4, &[(0, 100_000)], &[None], &[]),
            None,
            "no constant charge"
        );
        // Two timers on one interval: neither; otherwise the first that
        // qualifies.
        let two = [Some(1_500), Some(700)];
        assert_eq!(
            pick(true, 4, &[(0, 100_000), (1, 100_000)], &two, &[]),
            None
        );
        let t = pick(
            true,
            4,
            &[(0, 100_000), (1, 50_000)],
            &[None, Some(700)],
            &[],
        );
        assert_eq!(t.map(|t| (t.idx, t.charge_ns)), Some((1, 700)));
    }
}
