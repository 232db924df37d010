//! The discrete-event queue driving the simulation.
//!
//! Events are `(time, payload)` pairs. Ties on time are broken by insertion
//! order (a monotonically increasing sequence number), which keeps the
//! simulation fully deterministic without requiring payloads to be `Ord`.
//!
//! Two implementations live behind [`EventQueue`]:
//!
//! - The default **fast** queue: a binary heap for one-shot events plus
//!   per-cadence FIFO lanes that absorb the re-arms of fixed-interval
//!   timers scheduled through [`EventQueue::schedule_cadenced`], keeping
//!   the per-core tick traffic out of the comparison heap. A hot-lane pop
//!   cache and optional auto-cadence rotation make a tick's pop-and-re-arm
//!   O(1) in the steady state.
//! - The **classic** queue ([`EventQueue::classic`]): a plain
//!   `BinaryHeap`, kept as the measurement baseline and as the reference
//!   model for the golden determinism test. Both implementations draw
//!   sequence numbers the same way, so they pop the exact same
//!   `(time, seq)` order for the same call sequence.
//!
//! The engine retires stale events by epoch checks when they pop, so a
//! scheduled event always stays queued until it pops, and
//! [`EventQueue::len`] is an exact count on both flavors.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Tie-break key for a sequence number under a permutation salt.
///
/// Salt `0` is the identity: ties break in insertion order, the pinned
/// production behavior. A non-zero salt feeds `seq ^ salt` through the
/// SplitMix64 finalizer — a *bijection* on `u64`, so distinct sequence
/// numbers keep distinct keys (no collisions, still a total order) while
/// equal-time events pop in a salt-dependent pseudorandom permutation of
/// their insertion order.
///
/// The permutation is scoped to a *burst*: the schedule calls made while
/// one popped event is being processed (see `HeapEntry::ord`). Equal-time
/// events from the same burst — a handler fanning out over a woken list,
/// a CPU scan, a spinner set — permute; equal-time events from different
/// bursts keep burst (causal) order. That targets exactly the
/// insertion-order coincidences a handler's iteration order produces,
/// which must be outcome-irrelevant, while cross-handler equal-time order
/// remains the simulation's pinned deterministic scheduling choice. The
/// schedule-robustness certifier runs the same config under several salts
/// and asserts the reports are byte-identical.
fn mix_ord(seq: u64, salt: u64) -> u64 {
    if salt == 0 {
        return seq;
    }
    let mut z = seq ^ salt;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    /// Tie-break key: `(burst at insert, mix_ord(seq, salt))`. Unsalted
    /// this is `(burst, seq)`, lexicographically the same order as raw
    /// `seq` (bursts are monotone in insertion order), so salt `0` is
    /// bit-for-bit the pinned behavior.
    ord: (u64, u64),
    payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.ord == other.ord
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, ord)
        // pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.ord.cmp(&self.ord))
    }
}

/// A heap of one-shot events, ordered by `(time, ord)`, that hands out
/// the shared sequence numbers and burst stamps. Both queue flavors are
/// built on it; the classic queue is exactly this.
struct Heap<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    /// Tie-break permutation salt (see [`mix_ord`]).
    salt: u64,
    /// Burst counter: incremented on every pop, stamped into each entry's
    /// tie-break key at insert. Scopes the salt permutation to the events
    /// one handler execution scheduled (see [`mix_ord`]).
    burst: u64,
}

impl<E> Heap<E> {
    fn new() -> Self {
        Heap {
            heap: BinaryHeap::new(),
            next_seq: 0,
            salt: 0,
            burst: 0,
        }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn push(&mut self, time: SimTime, seq: u64, payload: E) {
        self.heap.push(HeapEntry {
            time,
            seq,
            ord: (self.burst, mix_ord(seq, self.salt)),
            payload,
        });
    }

    fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq();
        self.push(at, seq, payload);
    }

    /// `(time, seq)` of the earliest entry.
    fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.time, e.seq))
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }
}

struct LaneEntry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

/// FIFO lane for one strictly-periodic cadence (see
/// [`EventQueue::schedule_cadenced`]). Re-arms of a fixed-interval timer
/// arrive in fire order, and every re-arm lands one interval after its
/// fire time, so within a single cadence the pushed `(time, seq)` keys
/// are monotone non-decreasing: the deque *is* sorted, insert is
/// `push_back`, and the earliest entry is `front`. Pushes that would
/// break monotonicity (the staggered initial arms, fault-injected timer
/// jitter) are rejected by the caller and routed through the heap
/// instead, so the invariant is checked, never assumed.
struct Lane<E> {
    interval_ns: u64,
    q: VecDeque<LaneEntry<E>>,
}

impl<E> Lane<E> {
    /// Append if the key keeps the lane sorted; otherwise hand the payload
    /// back for the heap.
    fn try_push(&mut self, time: SimTime, seq: u64, payload: E) -> Result<(), E> {
        if self.q.back().is_some_and(|e| (e.time, e.seq) > (time, seq)) {
            return Err(payload);
        }
        self.q.push_back(LaneEntry { time, seq, payload });
        Ok(())
    }
}

/// Cap on distinct cadences before falling back to the heap: lanes are
/// scanned linearly on every pop, so this must stay small. Real engines
/// have a handful (mechanism timer, balance, watchdog, fault tick).
const MAX_LANES: usize = 8;

/// The default implementation: a one-shot heap plus per-cadence FIFO
/// lanes.
struct FastQueue<E> {
    heap: Heap<E>,
    lanes: Vec<Lane<E>>,
    /// Exact number of live (scheduled, not popped) events.
    live: usize,
    /// Rotate cadenced pops in place (see
    /// [`EventQueue::set_auto_cadence`]).
    auto_cadence: bool,
    /// Whether the most recent `pop` rotated its event (auto re-arm).
    /// Reset by every pop and every schedule call.
    last_pop_rotated: bool,
    /// Hot-lane pop cache: the lane that won the last pop, paired with
    /// the minimum `(time, seq)` over every *other* source (heap and
    /// remaining lanes) at that moment. While subsequent pushes land only
    /// on the hot lane — the steady state of a tick-dominated run, where
    /// each tick's re-arm goes straight back to its own lane — the
    /// other-source minimum cannot drop, so the next pop decides with a
    /// single key compare instead of a full source scan. Any push to
    /// another source clears it.
    hot: Option<(usize, Option<(SimTime, u64)>)>,
}

impl<E> FastQueue<E> {
    fn new() -> Self {
        FastQueue {
            heap: Heap::new(),
            lanes: Vec::new(),
            live: 0,
            auto_cadence: false,
            last_pop_rotated: false,
            hot: None,
        }
    }

    fn schedule(&mut self, at: SimTime, payload: E) {
        self.hot = None;
        self.last_pop_rotated = false;
        self.heap.schedule(at, payload);
        self.live += 1;
    }

    /// [`schedule`](Self::schedule) with a declared cadence:
    /// monotone re-arms append to the cadence's FIFO lane in O(1);
    /// anything else (initial staggered arms, jittered re-arms, cadence
    /// overflow) goes to the heap. Ordering is identical either way —
    /// lanes share the global sequence counter and pops compare
    /// `(time, seq)` across all sources.
    ///
    /// Salted queues send everything to the heap: the lanes' FIFO
    /// monotonicity argument is stated over raw insertion sequence
    /// numbers, so bypassing them keeps the salted order trivially total
    /// at a perf cost only the certifier pays.
    fn schedule_cadenced(&mut self, at: SimTime, interval_ns: u64, payload: E) {
        if self.heap.salt != 0 {
            return self.schedule(at, payload);
        }
        let seq = self.heap.next_seq();
        self.last_pop_rotated = false;
        self.live += 1;
        let lane_idx = match self.lanes.iter().position(|l| l.interval_ns == interval_ns) {
            Some(i) => i,
            None if self.lanes.len() < MAX_LANES => {
                self.lanes.push(Lane {
                    interval_ns,
                    q: VecDeque::new(),
                });
                self.lanes.len() - 1
            }
            None => {
                self.hot = None;
                return self.heap.push(at, seq, payload);
            }
        };
        // A monotone push to the hot lane cannot lower any other source's
        // minimum, so it leaves the pop cache valid; everything else
        // clears it.
        if self.hot.is_some_and(|(h, _)| h != lane_idx) {
            self.hot = None;
        }
        if let Err(payload) = self.lanes[lane_idx].try_push(at, seq, payload) {
            self.hot = None;
            self.heap.push(at, seq, payload);
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)>
    where
        E: Clone,
    {
        // A pop starts a new burst: everything scheduled while the popped
        // event is processed shares the next burst stamp (see `mix_ord`).
        self.heap.burst += 1;
        // Hot path: the lane that won the last pop wins again while its
        // front stays below the cached minimum of every other source.
        if let Some((h, om)) = self.hot {
            if let Some(e) = self.lanes[h].q.front() {
                if om.is_none_or(|m| (e.time, e.seq) < m) {
                    return self.pop_lane(h);
                }
            }
            self.hot = None;
        }
        self.last_pop_rotated = false;
        let hk = self.heap.peek_key();
        // Best lane and the runner-up minimum over the *other* lanes
        // (needed to seed the hot cache when a lane wins).
        let mut lk: Option<(usize, (SimTime, u64))> = None;
        let mut lane_rest: Option<(SimTime, u64)> = None;
        for (i, l) in self.lanes.iter().enumerate() {
            if let Some(e) = l.q.front() {
                let k = (e.time, e.seq);
                match lk {
                    Some((_, bk)) if k >= bk => {
                        if lane_rest.is_none_or(|r| k < r) {
                            lane_rest = Some(k);
                        }
                    }
                    _ => {
                        if let Some((_, bk)) = lk {
                            lane_rest = Some(lane_rest.map_or(bk, |r| r.min(bk)));
                        }
                        lk = Some((i, k));
                    }
                }
            }
        }
        match lk {
            Some((i, l)) if hk.is_none_or(|h| l < h) => {
                let om = [hk, lane_rest].into_iter().flatten().min();
                self.hot = Some((i, om));
                self.pop_lane(i)
            }
            _ => {
                let popped = self.heap.pop()?;
                self.live -= 1;
                Some(popped)
            }
        }
    }

    /// Pop the front of lane `i`; with auto-cadence on, rotate the event
    /// back into the lane one interval later under a fresh sequence
    /// number (the in-queue equivalent of the handler's own re-arm-first
    /// schedule — see [`EventQueue::set_auto_cadence`]).
    fn pop_lane(&mut self, i: usize) -> Option<(SimTime, E)>
    where
        E: Clone,
    {
        let Some(e) = self.lanes[i].q.pop_front() else {
            debug_assert!(false, "pop_lane on empty lane");
            return None;
        };
        if self.auto_cadence {
            let seq = self.heap.next_seq();
            let at = e.time + self.lanes[i].interval_ns;
            // The fallback cannot happen for a shared strict cadence (the
            // popped front plus one interval is at or past every pending
            // entry), but stay safe rather than assume it.
            if let Err(p) = self.lanes[i].try_push(at, seq, e.payload.clone()) {
                self.hot = None;
                self.heap.push(at, seq, p);
            }
            // live is unchanged: one event left, its re-arm arrived.
            self.last_pop_rotated = true;
        } else {
            self.live -= 1;
            self.last_pop_rotated = false;
        }
        Some((e.time, e.payload))
    }
}

// One queue exists per engine (never arrays of them), so the size gap
// between the lane-carrying fast queue and the bare classic heap is
// irrelevant and boxing would only add a pointer chase to every pop.
#[allow(clippy::large_enum_variant)]
enum Imp<E> {
    Fast(FastQueue<E>),
    Classic(Heap<E>),
}

/// A deterministic min-priority event queue.
pub struct EventQueue<E> {
    imp: Imp<E>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue (fast implementation: heap + cadence lanes).
    pub fn new() -> Self {
        EventQueue {
            imp: Imp::Fast(FastQueue::new()),
        }
    }

    /// Create an empty queue using the reference implementation (a plain
    /// `BinaryHeap`).
    pub fn classic() -> Self {
        EventQueue {
            imp: Imp::Classic(Heap::new()),
        }
    }

    /// True if this queue uses the reference implementation.
    pub fn is_classic(&self) -> bool {
        matches!(self.imp, Imp::Classic(_))
    }

    /// Set the equal-time tie-break permutation salt (see `mix_ord`).
    /// `0` (the default) is pinned insertion order; non-zero values pop
    /// equal-time events in a salt-dependent deterministic permutation —
    /// the schedule-robustness certifier's knob. Must be called on an
    /// empty queue: entries already pushed keep their old keys, which
    /// would make the heap order inconsistent.
    pub fn set_tiebreak_salt(&mut self, salt: u64) {
        assert!(self.is_empty(), "set_tiebreak_salt on a non-empty queue");
        match &mut self.imp {
            Imp::Fast(q) => q.heap.salt = salt,
            Imp::Classic(h) => h.salt = salt,
        }
    }

    /// Schedule `payload` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        match &mut self.imp {
            Imp::Fast(q) => q.schedule(at, payload),
            Imp::Classic(h) => h.schedule(at, payload),
        }
    }

    /// [`schedule`](Self::schedule) with the event's cadence declared. On
    /// the fast queue, re-arms of a fixed-interval timer fire in time
    /// order and each lands one interval later, so per cadence the
    /// scheduled `(time, seq)` keys are monotone: they append to a FIFO
    /// lane with O(1) insert and O(1) pop, bypassing the heap entirely.
    /// Non-monotone pushes (staggered initial arms, jittered re-arms) and
    /// cadences past the lane cap silently fall back to the heap, and the
    /// classic queue treats this as a plain `schedule` — the popped
    /// `(time, seq)` order is identical in every case.
    pub fn schedule_cadenced(&mut self, at: SimTime, interval_ns: u64, payload: E) {
        match &mut self.imp {
            Imp::Fast(q) => q.schedule_cadenced(at, interval_ns, payload),
            Imp::Classic(h) => h.schedule(at, payload),
        }
    }

    /// Monotone counter advanced on every `schedule`/`schedule_cadenced`
    /// call (it is the queue's internal tie-break sequence). Two reads
    /// returning the same value prove that *no event of any kind* was
    /// scheduled in between, which callers use to detect that two entries
    /// are adjacent among same-time events (see the engine's resched
    /// coalescing).
    pub fn seq_mark(&self) -> u64 {
        match &self.imp {
            Imp::Fast(q) => q.heap.next_seq,
            Imp::Classic(h) => h.next_seq,
        }
    }

    /// Pop the next event.
    ///
    /// `E: Clone` feeds auto-cadence rotation (the queue re-arms a popped
    /// cadenced event by cloning its payload one interval later); payloads
    /// are small `Copy` enums in practice.
    pub fn pop(&mut self) -> Option<(SimTime, E)>
    where
        E: Clone,
    {
        match &mut self.imp {
            Imp::Fast(q) => q.pop(),
            Imp::Classic(h) => {
                h.burst += 1;
                h.pop()
            }
        }
    }

    /// Enable (or disable) auto-cadence rotation on the fast queue; no-op
    /// on the classic queue.
    ///
    /// With auto-cadence on, popping a lane event immediately re-schedules
    /// a clone of its payload one lane interval later, under the sequence
    /// number the queue allocates at that instant, and marks the pop via
    /// [`last_pop_rotated`](Self::last_pop_rotated). This is sound only
    /// under the engine's re-arm-first contract: the handler's own re-arm
    /// would be the *first* schedule call after the pop, at exactly
    /// `time + interval`, so the rotation allocates the identical
    /// `(time, seq)` key the handler would have — the handler must then
    /// *skip* its explicit re-arm when `last_pop_rotated()` reports the
    /// queue already did it. Events that fall outside the lanes (initial
    /// staggered arms, jittered re-arms) pop with the flag false and keep
    /// the explicit path.
    pub fn set_auto_cadence(&mut self, on: bool) {
        if let Imp::Fast(q) = &mut self.imp {
            q.auto_cadence = on;
        }
    }

    /// True when the most recent [`pop`](Self::pop) was a cadenced lane
    /// event that the queue already rotated (re-armed) internally — the
    /// caller must skip its explicit re-arm for that event. Always false
    /// on the classic queue.
    pub fn last_pop_rotated(&self) -> bool {
        match &self.imp {
            Imp::Fast(q) => q.last_pop_rotated,
            Imp::Classic(_) => false,
        }
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pending events (exact on both flavors).
    pub fn len(&self) -> usize {
        match &self.imp {
            Imp::Fast(q) => q.live,
            Imp::Classic(h) => h.heap.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.schedule(t, 1);
        q.schedule(t, 2);
        q.schedule(t, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 10);
        let (t, v) = q.pop().unwrap();
        assert_eq!((t.as_nanos(), v), (10, 10));
        q.schedule(SimTime::from_nanos(5), 5);
        q.schedule(SimTime::from_nanos(7), 7);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 7);
        assert!(q.pop().is_none());
    }

    /// Cadenced (lane) and one-shot (heap) events interleave in exact
    /// global `(time, seq)` order, including ties.
    #[test]
    fn periodic_and_irregular_share_total_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        q.schedule(t, 1);
        q.schedule_cadenced(t, 100, 2);
        q.schedule(t, 3);
        q.schedule_cadenced(SimTime::from_nanos(50), 50, 0);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    /// A non-zero salt permutes equal-time pops but keeps time order,
    /// loses nothing, and is deterministic for a fixed salt.
    #[test]
    fn salt_permutes_ties_but_preserves_time_order() {
        let run = |salt: u64| {
            let mut q = EventQueue::new();
            q.set_tiebreak_salt(salt);
            for i in 0..16 {
                q.schedule(SimTime::from_nanos(5), i);
                q.schedule_cadenced(SimTime::from_nanos(9), 8, 100 + i);
                q.schedule_cadenced(SimTime::from_nanos(9), 4, 200 + i);
            }
            let mut out = Vec::new();
            let mut last = SimTime::ZERO;
            while let Some((t, p)) = q.pop() {
                assert!(t >= last, "salt must never reorder across times");
                last = t;
                out.push(p);
            }
            out
        };
        let base = run(0);
        let salted = run(0x5eed);
        assert_eq!(base, run(0));
        assert_eq!(salted, run(0x5eed), "fixed salt is deterministic");
        assert_ne!(base, salted, "salt must actually permute ties");
        let (mut a, mut b) = (base.clone(), salted.clone());
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "same event multiset under any salt");
    }

    /// The salt permutation is burst-scoped: equal-time events scheduled
    /// while *different* popped events were being processed keep their
    /// burst (causal) order even under a salt.
    #[test]
    fn salt_preserves_cross_burst_order() {
        let mut q = EventQueue::new();
        q.set_tiebreak_salt(0xABCD);
        q.schedule(SimTime::from_nanos(1), 0);
        // Burst 0: a tie group at t=5.
        for i in 10..14 {
            q.schedule(SimTime::from_nanos(5), i);
        }
        assert_eq!(q.pop().unwrap().1, 0);
        // Burst 1 (after one pop): another tie group at t=5.
        for i in 20..24 {
            q.schedule(SimTime::from_nanos(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert!(
            order[..4].iter().all(|p| *p < 14) && order[4..].iter().all(|p| *p >= 20),
            "cross-burst ties must keep burst order: {order:?}"
        );
    }

    /// Salted classic and fast queues still pop identically (they share
    /// the sequence counter and the mix).
    #[test]
    fn salted_classic_matches_salted_fast() {
        let mut fast = EventQueue::new();
        let mut classic = EventQueue::classic();
        fast.set_tiebreak_salt(7);
        classic.set_tiebreak_salt(7);
        for i in 0..24 {
            let t = SimTime::from_nanos((i % 3) as u64);
            if i % 2 == 0 {
                fast.schedule(t, i);
                classic.schedule(t, i);
            } else {
                fast.schedule_cadenced(t, 10, i);
                classic.schedule_cadenced(t, 10, i);
            }
        }
        loop {
            let (a, b) = (fast.pop(), classic.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// The classic queue pops the same order as the fast queue for the
    /// same schedule sequence.
    #[test]
    fn classic_matches_fast_order() {
        let mut fast = EventQueue::new();
        let mut classic = EventQueue::classic();
        assert!(classic.is_classic() && !fast.is_classic());
        let times = [30u64, 10, 10, 99, 5, 10, 70, 5];
        for (i, &t) in times.iter().enumerate() {
            if i % 2 == 0 {
                fast.schedule(SimTime::from_nanos(t), i);
                classic.schedule(SimTime::from_nanos(t), i);
            } else {
                fast.schedule_cadenced(SimTime::from_nanos(t), 10, i);
                classic.schedule_cadenced(SimTime::from_nanos(t), 10, i);
            }
        }
        loop {
            let (a, b) = (fast.pop(), classic.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
