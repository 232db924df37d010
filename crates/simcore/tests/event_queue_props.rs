//! Property tests of the event queue against a naive sorted-Vec model.
//!
//! The model keeps every scheduled entry as `(time, seq, payload, popped)`
//! and pops the minimum `(time, seq)` among pending entries. Both queue
//! flavors — the optimized heap + cadence-lane queue and the classic
//! plain-heap reference — must match it exactly: pop order and the live
//! event count. Payloads are unique, so payload equality on every pop pins
//! the *exact* global ordering, including FIFO among same-timestamp
//! events scheduled through different paths (one-shot heap, cadence lane,
//! lane-rejected heap fallback).

use oversub_simcore::{EventQueue, SimTime};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// One-shot at `now + delta`.
    Schedule(u64),
    /// Declared-cadence entry (FIFO lane when monotone, else heap). The
    /// index selects from [`CADENCES`] so several pushes share a lane and
    /// non-monotone pushes exercise the fallback.
    ScheduleCadenced(u64, usize),
    Pop,
}

/// Cadences for `ScheduleCadenced`. There are more of them than the fast
/// queue has lanes (8), so pushes on the last cadences take the
/// lane-overflow path to the heap once the lanes have filled up.
const CADENCES: [u64; 11] = [
    8_192, 100_000, 40_000_000, 1_000, 250_000, 1_000_000, 10_000_000, 3_333, 77_777, 5_000_000,
    123_456,
];

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..100_000_000).prop_map(Op::Schedule),
            ((0u64..100_000_000), (0usize..CADENCES.len()))
                .prop_map(|(d, i)| Op::ScheduleCadenced(d, i)),
            Just(Op::Pop),
        ],
        1..200,
    )
}

struct Model {
    /// One entry per schedule call, in seq (= insertion) order:
    /// `(time, payload, popped)`.
    entries: Vec<(u64, u64, bool)>,
}

impl Model {
    fn schedule(&mut self, at: u64, payload: u64) {
        self.entries.push((at, payload, false));
    }

    /// Minimum (time, seq) pending entry; seq order is entry order.
    fn pop(&mut self) -> Option<(u64, u64)> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.2)
            .min_by_key(|(seq, e)| (e.0, *seq))
            .map(|(seq, _)| seq)?;
        self.entries[best].2 = true;
        Some((self.entries[best].0, self.entries[best].1))
    }

    fn live(&self) -> usize {
        self.entries.iter().filter(|e| !e.2).count()
    }
}

fn check_against_model(mut q: EventQueue<u64>, ops: Vec<Op>) {
    let mut model = Model {
        entries: Vec::new(),
    };
    let mut next_payload = 0u64;
    let mut now = 0u64; // last popped time: schedules are now-relative
    for op in ops {
        match op {
            Op::Schedule(d) => {
                q.schedule(SimTime::from_nanos(now + d), next_payload);
                model.schedule(now + d, next_payload);
                next_payload += 1;
            }
            Op::ScheduleCadenced(d, i) => {
                q.schedule_cadenced(SimTime::from_nanos(now + d), CADENCES[i], next_payload);
                model.schedule(now + d, next_payload);
                next_payload += 1;
            }
            Op::Pop => {
                let got = q.pop().map(|(t, p)| (t.as_nanos(), p));
                let want = model.pop();
                prop_assert_eq!(got, want, "pop order diverged");
                if let Some((t, _)) = got {
                    now = t;
                }
            }
        }
        prop_assert_eq!(q.len(), model.live(), "live count diverged");
        prop_assert_eq!(q.is_empty(), model.live() == 0);
    }
    // Drain: the tail order must match too.
    loop {
        let got = q.pop().map(|(t, p)| (t.as_nanos(), p));
        let want = model.pop();
        prop_assert_eq!(got, want, "drain order diverged");
        if got.is_none() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The optimized heap + cadence-lane queue matches the naive model.
    #[test]
    fn fast_queue_matches_model(ops in arb_ops()) {
        check_against_model(EventQueue::new(), ops);
    }

    /// The classic reference queue matches the same model, so both queue
    /// flavors are interchangeable event-for-event.
    #[test]
    fn classic_queue_matches_model(ops in arb_ops()) {
        check_against_model(EventQueue::classic(), ops);
    }

    /// Auto-cadence rotation is invisible: a fast queue that re-arms
    /// cadenced timers during the pop (`set_auto_cadence(true)` +
    /// rotation-aware caller) pops the identical `(time, payload)` stream
    /// as a classic queue whose caller re-arms explicitly — the engine's
    /// re-arm-first contract, under which the rotation allocates exactly
    /// the sequence number the explicit re-arm would have.
    #[test]
    fn auto_cadence_rotation_matches_explicit_rearm(
        // (timer id, initial stagger) pairs; ids pick one of CADENCES.
        timers in proptest::collection::vec(
            ((0usize..CADENCES.len()), (0u64..200_000)), 1..24),
        // Interleaved one-shot noise deltas.
        noise in proptest::collection::vec(0u64..300_000, 0..16),
        pops in 32usize..256,
    ) {
        let mut fast = EventQueue::new();
        let mut classic = EventQueue::classic();
        fast.set_auto_cadence(true);
        // Payload encodes the timer's identity: rotation clones it, the
        // explicit path re-schedules it, and one-shot noise gets ids
        // past the timer range.
        for (k, &(i, stagger)) in timers.iter().enumerate() {
            let at = SimTime::from_nanos(CADENCES[i] + stagger);
            fast.schedule_cadenced(at, CADENCES[i], k as u64);
            classic.schedule_cadenced(at, CADENCES[i], k as u64);
        }
        for (j, &d) in noise.iter().enumerate() {
            let p = (timers.len() + j) as u64;
            fast.schedule(SimTime::from_nanos(d), p);
            classic.schedule(SimTime::from_nanos(d), p);
        }
        for _ in 0..pops {
            let got = fast.pop();
            let want = classic.pop();
            prop_assert_eq!(got, want, "pop streams diverged");
            let Some((t, p)) = got else { break };
            // Engine contract: a popped cadenced timer re-arms first,
            // unless the queue reports it already rotated it.
            if let Some(&(i, _)) = timers.get(p as usize) {
                let at = t + CADENCES[i];
                if !fast.last_pop_rotated() {
                    fast.schedule_cadenced(at, CADENCES[i], p);
                }
                prop_assert!(!classic.last_pop_rotated());
                classic.schedule_cadenced(at, CADENCES[i], p);
            } else {
                // One-shot noise must never be reported as rotated.
                prop_assert!(!fast.last_pop_rotated());
            }
        }
    }
}
