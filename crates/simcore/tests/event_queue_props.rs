//! Property tests of the event queue against a naive sorted-Vec model.
//!
//! The model keeps every scheduled entry as `(time, sched_at, class,
//! payload, popped)` in insertion (= seq) order and pops the minimum
//! `(time, sched_at, class, seq)` among pending entries, where `sched_at`
//! is the time of the last pop when the entry was scheduled and the
//! cadenced class sorts before the one-shot class. Both queue flavors —
//! the optimized heap + cadence-lane queue and the classic plain-heap
//! reference — must match it exactly: pop order and the live event count.
//! Payloads are unique, so payload equality on every pop pins the *exact*
//! global ordering, including ties among events scheduled through
//! different paths (one-shot heap, cadence lane, lane-rejected heap
//! fallback, resumed timers, re-armable slots).
//!
//! Slot entries are one-shot entries with an owner: re-arming or clearing
//! a slot supersedes its pending entry, which the model drops. The fast
//! queue must never pop a superseded entry and must count only live ones.
//! The classic queue keeps them; its caller skips them when they pop, as
//! the engine's epoch checks do, and what is left must be the model order.

use oversub_simcore::{EventClass, EventKey, EventQueue, SimTime};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// One-shot at `now + delta`.
    Schedule(u64),
    /// Declared-cadence entry (FIFO lane when monotone, else heap). The
    /// index selects from [`CADENCES`] so several pushes share a lane and
    /// non-monotone pushes exercise the fallback.
    ScheduleCadenced(u64, usize),
    /// A suspended timer put back at `now + delta` under the key of a
    /// tick re-armed one interval earlier.
    Resume(u64, usize),
    /// Arm slot `.0` (of [`SLOTS`]) for `now + delta`, superseding its
    /// pending entry.
    ScheduleSlot(usize, u64),
    /// Supersede slot `.0`'s pending entry without a replacement.
    ClearSlot(usize),
    Pop,
}

/// Few enough slots that re-arms and clears often find a pending entry,
/// enough that the fast queue's slot heap grows past three levels (a
/// removal deep in the heap can then move an entry up).
const SLOTS: usize = 16;

/// Cadences for `ScheduleCadenced`. There are more of them than the fast
/// queue has lanes (8), so pushes on the last cadences take the
/// lane-overflow path to the heap once the lanes have filled up.
const CADENCES: [u64; 11] = [
    8_192, 100_000, 40_000_000, 1_000, 250_000, 1_000_000, 10_000_000, 3_333, 77_777, 5_000_000,
    123_456,
];

fn arb_ops(max_delta: u64) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..max_delta).prop_map(Op::Schedule),
            ((0u64..max_delta), (0usize..CADENCES.len()))
                .prop_map(|(d, i)| Op::ScheduleCadenced(d, i)),
            ((0u64..max_delta), (0usize..CADENCES.len())).prop_map(|(d, i)| Op::Resume(d, i)),
            ((0usize..SLOTS), (0u64..max_delta)).prop_map(|(s, d)| Op::ScheduleSlot(s, d)),
            (0usize..SLOTS).prop_map(Op::ClearSlot),
            Just(Op::Pop),
        ],
        1..200,
    )
}

/// Like [`arb_ops`] without `Resume`: the schedules the old queue knew.
fn arb_plain_ops(max_delta: u64) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..max_delta).prop_map(Op::Schedule),
            ((0u64..max_delta), (0usize..CADENCES.len()))
                .prop_map(|(d, i)| Op::ScheduleCadenced(d, i)),
            Just(Op::Pop),
        ],
        1..120,
    )
}

struct Entry {
    key: EventKey,
    payload: u64,
    /// The owning slot, for entries armed through `schedule_slot`.
    slot: Option<usize>,
    popped: bool,
    /// Re-armed or cleared before it popped: never pops from the model.
    superseded: bool,
}

#[derive(Default)]
struct Model {
    /// One entry per schedule call, in seq (= insertion) order.
    entries: Vec<Entry>,
    now: u64,
}

impl Model {
    fn push(&mut self, key: EventKey, payload: u64, slot: Option<usize>) {
        self.entries.push(Entry {
            key,
            payload,
            slot,
            popped: false,
            superseded: false,
        });
    }

    /// Supersede slot `s`'s pending entry, if any.
    fn supersede(&mut self, s: usize) {
        for e in &mut self.entries {
            if e.slot == Some(s) && !e.popped {
                e.superseded = true;
            }
        }
    }

    fn is_superseded(&self, payload: u64) -> bool {
        self.entries
            .iter()
            .any(|e| e.payload == payload && e.superseded)
    }

    fn superseded(&self) -> usize {
        self.entries.iter().filter(|e| e.superseded).count()
    }

    fn key_now(&self, at: u64, class: EventClass) -> EventKey {
        EventKey {
            time: SimTime::from_nanos(at),
            sched_at: SimTime::from_nanos(self.now),
            class,
        }
    }

    /// Pop the pending entry with the minimum `order(key, seq)`.
    fn pop_by<K: Ord>(&mut self, order: impl Fn(&EventKey, usize) -> K) -> Option<(u64, u64)> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.popped && !e.superseded)
            .min_by_key(|(seq, e)| order(&e.key, *seq))
            .map(|(seq, _)| seq)?;
        let e = &mut self.entries[best];
        e.popped = true;
        self.now = e.key.time.as_nanos();
        Some((self.now, e.payload))
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.pop_by(|k, seq| (*k, seq))
    }

    /// The order before the tie key existed: `(time, seq)`.
    fn pop_old(&mut self) -> Option<(u64, u64)> {
        self.pop_by(|k, seq| (k.time, seq))
    }

    fn live(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| !e.popped && !e.superseded)
            .count()
    }

    /// True when a cadenced and a one-shot entry share `time` and
    /// `sched_at` — the one case where the two orders differ.
    fn has_class_tie(&self) -> bool {
        self.entries.iter().any(|a| {
            a.key.class == EventClass::Cadenced
                && self.entries.iter().any(|b| {
                    b.key.class == EventClass::OneShot
                        && (b.key.time, b.key.sched_at) == (a.key.time, a.key.sched_at)
                })
        })
    }

    /// Record one schedule op, keyed as the queue keys it.
    fn schedule(&mut self, op: Op, payload: u64) {
        let (key, slot) = match op {
            Op::Schedule(d) => (self.key_now(self.now + d, EventClass::OneShot), None),
            Op::ScheduleCadenced(d, _) => (self.key_now(self.now + d, EventClass::Cadenced), None),
            Op::Resume(d, i) => (
                EventKey::cadenced_tick(SimTime::from_nanos(self.now + d), CADENCES[i]),
                None,
            ),
            Op::ScheduleSlot(s, d) => {
                self.supersede(s);
                (self.key_now(self.now + d, EventClass::OneShot), Some(s))
            }
            Op::ClearSlot(s) => return self.supersede(s),
            Op::Pop => unreachable!("not a schedule op"),
        };
        self.push(key, payload, slot);
    }
}

/// Apply one schedule op to both the queue and the model.
fn schedule(q: &mut EventQueue<u64>, model: &mut Model, op: Op, payload: u64) {
    let at = |d| SimTime::from_nanos(model.now + d);
    match op {
        Op::Schedule(d) => q.schedule(at(d), payload),
        Op::ScheduleCadenced(d, i) => q.schedule_cadenced(at(d), CADENCES[i], payload),
        Op::Resume(d, i) => q.resume_cadenced(at(d), CADENCES[i], payload),
        Op::ScheduleSlot(s, d) => q.schedule_slot(s, at(d), payload),
        Op::ClearSlot(s) => q.clear_slot(s),
        Op::Pop => unreachable!("not a schedule op"),
    }
    model.schedule(op, payload);
}

/// Pop as the engine does: on the classic queue, skip superseded slot
/// entries (they are retired when they pop, with nothing scheduled in
/// between); on the fast queue, none may ever pop. `skipped` counts the
/// entries skipped. Returns `Err(())` when the classic queue ran dry
/// right after skipping: its current key is then the superseded entry's,
/// so later schedules would be stamped differently from the fast queue's.
/// The engine never gets there (its periodic timers keep the queue
/// non-empty, and it stops at an empty queue), so callers stop comparing.
fn pop_live(
    q: &mut EventQueue<u64>,
    model: &Model,
    skipped: &mut usize,
) -> Result<Option<(u64, u64)>, ()> {
    let mut skipped_now = false;
    loop {
        let got = q.pop().map(|(t, p)| (t.as_nanos(), p));
        match got {
            Some((_, p)) if model.is_superseded(p) => {
                prop_assert!(q.is_classic(), "fast queue popped superseded entry {}", p);
                *skipped += 1;
                skipped_now = true;
            }
            None if skipped_now => return Err(()),
            _ => return Ok(got),
        }
    }
}

fn check_against_model(mut q: EventQueue<u64>, ops: Vec<Op>) {
    let mut model = Model::default();
    let mut skipped = 0;
    for (payload, op) in ops.into_iter().enumerate() {
        if let Op::Pop = op {
            let Ok(got) = pop_live(&mut q, &model, &mut skipped) else {
                prop_assert_eq!(model.pop(), None);
                return;
            };
            let want = model.pop();
            prop_assert_eq!(got, want, "pop order diverged");
            if got.is_some() {
                prop_assert_eq!(q.current_key().time.as_nanos(), model.now);
            }
        } else {
            schedule(&mut q, &mut model, op, payload as u64);
        }
        // The classic queue also counts superseded entries it still holds.
        let stale = if q.is_classic() {
            model.superseded() - skipped
        } else {
            0
        };
        prop_assert_eq!(q.len(), model.live() + stale, "live count diverged");
        prop_assert_eq!(q.is_empty(), model.live() + stale == 0);
    }
    // Drain: the tail order must match too.
    loop {
        let Ok(got) = pop_live(&mut q, &model, &mut skipped) else {
            prop_assert_eq!(model.pop(), None);
            return;
        };
        let want = model.pop();
        prop_assert_eq!(got, want, "drain order diverged");
        if got.is_none() {
            break;
        }
    }
}

/// Without a cadenced/one-shot pair sharing `(time, sched_at)`, the
/// queue pops exactly the old `(time, seq)` order. Returns whether the
/// schedule was free of such pairs (the property is vacuous otherwise).
fn check_old_order(mut q: EventQueue<u64>, ops: &[Op]) -> bool {
    let mut model = Model::default();
    let mut got = Vec::new();
    let mut old = Model::default();
    let mut want = Vec::new();
    let drain = std::iter::repeat_n(Op::Pop, ops.len());
    for (payload, op) in ops.iter().copied().chain(drain).enumerate() {
        if let Op::Pop = op {
            got.extend(q.pop().map(|(t, p)| (t.as_nanos(), p)));
            model.pop();
            want.extend(old.pop_old());
        } else {
            schedule(&mut q, &mut model, op, payload as u64);
            old.schedule(op, payload as u64);
        }
    }
    if model.has_class_tie() {
        return false;
    }
    prop_assert_eq!(got, want, "tie-free schedule left the (time, seq) order");
    true
}

/// Salted queues have no sorted-Vec model (the salt permutes ties within
/// a burst), so run a salted fast queue and a salted classic queue in
/// lockstep: the classic queue, skipping superseded slot entries, must pop
/// exactly the fast queue's stream. Supersession follows the shared pop
/// stream: a slot's entry is superseded if the slot is re-armed or cleared
/// before that entry pops.
fn check_salted(ops: &[Op], salt: u64) {
    let mut fast = EventQueue::new();
    let mut classic = EventQueue::classic();
    fast.set_tiebreak_salt(salt);
    classic.set_tiebreak_salt(salt);
    let mut armed = [None::<u64>; SLOTS];
    let mut superseded = std::collections::BTreeSet::new();
    let mut now = 0;
    let drain = std::iter::repeat_n(Op::Pop, ops.len());
    for (payload, op) in ops.iter().copied().chain(drain).enumerate() {
        let payload = payload as u64;
        let at = |d| SimTime::from_nanos(now + d);
        match op {
            Op::Schedule(d) => {
                fast.schedule(at(d), payload);
                classic.schedule(at(d), payload);
            }
            Op::ScheduleCadenced(d, i) => {
                fast.schedule_cadenced(at(d), CADENCES[i], payload);
                classic.schedule_cadenced(at(d), CADENCES[i], payload);
            }
            Op::Resume(d, i) => {
                fast.resume_cadenced(at(d), CADENCES[i], payload);
                classic.resume_cadenced(at(d), CADENCES[i], payload);
            }
            Op::ScheduleSlot(s, d) => {
                superseded.extend(armed[s].replace(payload));
                fast.schedule_slot(s, at(d), payload);
                classic.schedule_slot(s, at(d), payload);
            }
            Op::ClearSlot(s) => {
                superseded.extend(armed[s].take());
                fast.clear_slot(s);
                classic.clear_slot(s);
            }
            Op::Pop => {
                let got = fast.pop();
                let mut skipped = false;
                let want = loop {
                    match classic.pop() {
                        Some((_, p)) if superseded.remove(&p) => skipped = true,
                        other => break other,
                    }
                };
                prop_assert_eq!(got, want, "salted pop streams diverged");
                if skipped && want.is_none() {
                    // The classic queue ran dry right after skipping (see
                    // `pop_live`): its stamps diverge from here on.
                    return;
                }
                let Some((t, p)) = got else { continue };
                prop_assert!(
                    !superseded.contains(&p),
                    "fast queue popped a superseded entry"
                );
                now = t.as_nanos();
                for a in armed.iter_mut().filter(|a| **a == Some(p)) {
                    *a = None;
                }
            }
        }
        prop_assert_eq!(fast.len() + superseded.len(), classic.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The optimized heap + cadence-lane queue matches the naive model.
    #[test]
    fn fast_queue_matches_model(ops in arb_ops(100_000_000)) {
        check_against_model(EventQueue::new(), ops);
    }

    /// The classic reference queue matches the same model, so both queue
    /// flavors are interchangeable event-for-event.
    #[test]
    fn classic_queue_matches_model(ops in arb_ops(100_000_000)) {
        check_against_model(EventQueue::classic(), ops);
    }

    /// Dense timestamps: nearly every pop is a tie on `time`, and many on
    /// `sched_at` too, so the class and seq tie-breaks decide.
    #[test]
    fn both_flavors_match_model_on_dense_ties(ops in arb_ops(3)) {
        check_against_model(EventQueue::new(), ops.clone());
        check_against_model(EventQueue::classic(), ops);
    }

    /// Salted fast and classic queues agree on schedules mixing every
    /// kind of entry, slots included, on sparse and dense timestamps.
    #[test]
    fn salted_flavors_agree_with_slots(
        ops in arb_ops(100_000_000),
        dense in arb_ops(3),
        salt in 1u64..u64::MAX,
    ) {
        check_salted(&ops, salt);
        check_salted(&dense, salt);
    }

    /// The tie key changes nothing unless a cadenced and a one-shot event
    /// share both `time` and `sched_at`.
    #[test]
    fn tie_free_schedules_keep_the_old_order(ops in arb_plain_ops(40)) {
        check_old_order(EventQueue::new(), &ops);
        check_old_order(EventQueue::classic(), &ops);
    }

    /// Auto-cadence rotation is invisible: a fast queue that re-arms
    /// cadenced timers during the pop (`set_auto_cadence(true)` +
    /// rotation-aware caller) pops the identical `(time, payload)` stream
    /// as a classic queue whose caller re-arms explicitly — the engine's
    /// re-arm-first contract, under which the rotation allocates exactly
    /// the sequence number the explicit re-arm would have. A caller that
    /// suspends a timer instead takes the rotation back
    /// (`undo_rotation`), and the stream still matches.
    #[test]
    fn auto_cadence_rotation_matches_explicit_rearm(
        // (timer id, initial stagger) pairs; ids pick one of CADENCES.
        timers in proptest::collection::vec(
            ((0usize..CADENCES.len()), (0u64..200_000)), 1..24),
        // Interleaved one-shot noise deltas.
        noise in proptest::collection::vec(0u64..300_000, 0..16),
        pops in 32usize..256,
        // Pop counts after which a popped timer is suspended for good.
        suspend_after in proptest::collection::vec(0usize..256, 0..4),
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
        for n in 0..pops {
            let got = fast.pop();
            let want = classic.pop();
            prop_assert_eq!(got, want, "pop streams diverged");
            prop_assert_eq!(fast.current_key(), classic.current_key());
            let Some((t, p)) = got else { break };
            // Engine contract: a popped cadenced timer re-arms first,
            // unless the queue reports it already rotated it.
            if let Some(&(i, _)) = timers.get(p as usize) {
                if suspend_after.contains(&n) {
                    fast.undo_rotation();
                    continue;
                }
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
            prop_assert_eq!(fast.len(), classic.len());
        }
    }
}
