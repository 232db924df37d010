//! The discrete-event queue driving the simulation.
//!
//! Events are `(time, payload)` pairs ordered by the key
//! `(time, sched_at, class, seq)`:
//!
//! - `sched_at` is the time of the pop during which the event was
//!   scheduled (zero for events scheduled before the first pop);
//! - `class` puts cadenced events ([`EventQueue::schedule_cadenced`])
//!   before one-shot events ([`EventQueue::schedule`]);
//! - `seq` is insertion order (a monotonically increasing sequence
//!   number).
//!
//! Sequence numbers are handed out in pop order and pop times never
//! decrease, so `sched_at` is monotone in `seq`: the key orders exactly as
//! plain `(time, seq)` except when a cadenced and a one-shot event share
//! both `time` and `sched_at`. What the extra fields buy is a key that does
//! not depend on pop history: a periodic timer's next tick at `G` has the
//! key `(G, G - interval, cadenced, ·)` however many other events popped
//! in between, which is what lets a caller suspend a quiet timer and later
//! put it back ([`EventQueue::resume_cadenced`]) exactly where it would
//! have been.
//!
//! Two implementations live behind [`EventQueue`]:
//!
//! - The default **fast** queue: a binary heap for one-shot events,
//!   per-cadence FIFO lanes that absorb the re-arms of fixed-interval
//!   timers scheduled through [`EventQueue::schedule_cadenced`], keeping
//!   the per-core tick traffic out of the comparison heap, and an indexed
//!   heap of re-armable timer slots ([`EventQueue::schedule_slot`]). A
//!   hot-lane pop cache and optional auto-cadence rotation make a tick's
//!   pop-and-re-arm O(1) in the steady state.
//! - The **classic** queue ([`EventQueue::classic`]): a plain
//!   `BinaryHeap`, kept as the measurement baseline and as the reference
//!   model for the golden determinism test. Both implementations draw
//!   sequence numbers and stamp keys the same way, so they pop the exact
//!   same order for the same call sequence, up to superseded slot
//!   entries.
//!
//! A slot holds at most one pending event on the fast queue: re-arming it
//! replaces the pending entry and [`EventQueue::clear_slot`] drops it, so
//! a superseded timer never pops. The classic queue keeps every arm as a
//! plain push and ignores clears; its caller retires superseded entries
//! by epoch checks when they pop. [`EventQueue::len`] counts what can
//! still pop: superseded slot entries are excluded on the fast flavor and
//! included on the classic one.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Tie class of an event: among events sharing `time` and `sched_at`,
/// cadenced ones pop first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventClass {
    /// Scheduled through [`EventQueue::schedule_cadenced`] or
    /// [`EventQueue::resume_cadenced`] (periodic timers).
    Cadenced,
    /// Scheduled through [`EventQueue::schedule`].
    OneShot,
}

/// An event's ordering key without the final insertion-order tie-break:
/// compare two keys with the derived lexicographic order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// When the event fires.
    pub time: SimTime,
    /// The time of the pop during which the event was scheduled.
    pub sched_at: SimTime,
    /// Cadenced before one-shot.
    pub class: EventClass,
}

impl EventKey {
    /// The key a periodic timer's tick at `time` has when the previous
    /// tick, one `interval_ns` earlier, re-armed it.
    pub fn cadenced_tick(time: SimTime, interval_ns: u64) -> Self {
        EventKey {
            time,
            sched_at: SimTime::from_nanos(time.as_nanos().saturating_sub(interval_ns)),
            class: EventClass::Cadenced,
        }
    }
}

/// Tie-break key for a sequence number under a permutation salt.
///
/// Salt `0` is the identity: ties break in insertion order, the pinned
/// production behavior. A non-zero salt feeds `seq ^ salt` through the
/// SplitMix64 finalizer — a *bijection* on `u64`, so distinct sequence
/// numbers keep distinct keys (no collisions, still a total order) while
/// equal-key events pop in a salt-dependent pseudorandom permutation of
/// their insertion order.
///
/// The permutation is scoped to a *burst*: the schedule calls made while
/// one popped event is being processed (see `HeapEntry::burst`).
/// Equal-key events from the same burst — a handler fanning out over a
/// woken list, a CPU scan, a spinner set — permute; equal-key events from
/// different bursts keep burst (causal) order. That targets exactly the
/// insertion-order coincidences a handler's iteration order produces,
/// which must be outcome-irrelevant, while cross-handler order remains the
/// simulation's pinned deterministic scheduling choice. The
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

/// The full order of a queued event as four plain integers (derived
/// lexicographic order): `time`, `sched_at`, `tie = class << 63 | burst`
/// and `ord`, where `burst` is the pop count at insert and `ord` is
/// `mix_ord(seq, salt)`. Unsalted, `(burst, ord)` orders exactly as raw
/// `seq` (bursts are monotone in insertion order), so salt `0` is plain
/// insertion order among equal keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Rank {
    time: u64,
    sched_at: u64,
    tie: u64,
    ord: u64,
}

/// Bursts are pop counts; 63 bits leave the top bit of `tie` to the class.
const BURST_MASK: u64 = u64::MAX >> 1;

impl Rank {
    fn new(key: EventKey, burst: u64, ord: u64) -> Self {
        Rank {
            time: key.time.as_nanos(),
            sched_at: key.sched_at.as_nanos(),
            tie: ((key.class as u64) << 63) | (burst & BURST_MASK),
            ord,
        }
    }

    fn time(&self) -> SimTime {
        SimTime::from_nanos(self.time)
    }

    fn key(&self) -> EventKey {
        EventKey {
            time: self.time(),
            sched_at: SimTime::from_nanos(self.sched_at),
            class: if self.tie >> 63 == 0 {
                EventClass::Cadenced
            } else {
                EventClass::OneShot
            },
        }
    }
}

struct HeapEntry<E> {
    rank: Rank,
    payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
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
        // BinaryHeap is a max-heap; invert so the smallest rank pops first.
        other.rank.cmp(&self.rank)
    }
}

/// A heap of events, ordered by [`Rank`], that hands out the shared
/// sequence numbers, burst stamps and `sched_at` stamps. Both queue
/// flavors are built on it; the classic queue is exactly this.
struct Heap<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    /// Tie-break permutation salt (see [`mix_ord`]).
    salt: u64,
    /// Burst counter: incremented on every pop, stamped into each entry at
    /// insert. Scopes the salt permutation to the events one handler
    /// execution scheduled (see [`mix_ord`]).
    burst: u64,
    /// Rank of the most recent pop; its time is the `sched_at` stamp of
    /// everything scheduled until the next pop.
    current: Rank,
}

impl<E> Heap<E> {
    fn new() -> Self {
        Heap {
            heap: BinaryHeap::new(),
            next_seq: 0,
            salt: 0,
            burst: 0,
            current: Rank {
                time: 0,
                sched_at: 0,
                tie: 0,
                ord: 0,
            },
        }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// The key of an event scheduled now for `at`.
    fn key_now(&self, at: SimTime, class: EventClass) -> EventKey {
        EventKey {
            time: at,
            sched_at: self.current.time(),
            class,
        }
    }

    /// The rank of the event being scheduled under `key` with `seq`.
    fn rank(&self, key: EventKey, seq: u64) -> Rank {
        Rank::new(key, self.burst, mix_ord(seq, self.salt))
    }

    fn push(&mut self, rank: Rank, payload: E) {
        self.heap.push(HeapEntry { rank, payload });
    }

    fn schedule(&mut self, key: EventKey, payload: E) {
        let seq = self.next_seq();
        self.push(self.rank(key, seq), payload);
    }

    /// Rank of the earliest entry.
    fn peek_rank(&self) -> Option<&Rank> {
        self.heap.peek().map(|e| &e.rank)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.burst += 1;
        let e = self.heap.pop()?;
        self.current = e.rank;
        Some((e.rank.time(), e.payload))
    }
}

struct LaneEntry<E> {
    rank: Rank,
    payload: E,
}

/// FIFO lane for one strictly-periodic cadence (see
/// [`EventQueue::schedule_cadenced`]). Re-arms of a fixed-interval timer
/// arrive in fire order, and every re-arm lands one interval after its
/// fire time, so within a single cadence the pushed ranks are monotone
/// non-decreasing: the deque *is* sorted, insert is
/// `push_back`, and the earliest entry is `front`. Pushes that would
/// break monotonicity (the staggered initial arms, resumed timers,
/// fault-injected timer jitter) are rejected and routed through the heap
/// instead, so the invariant is checked, never assumed.
struct Lane<E> {
    interval_ns: u64,
    q: VecDeque<LaneEntry<E>>,
}

impl<E> Lane<E> {
    /// Append if the key keeps the lane sorted; otherwise hand the payload
    /// back for the heap.
    fn try_push(&mut self, rank: Rank, payload: E) -> Result<(), E> {
        if self.q.back().is_some_and(|e| e.rank > rank) {
            return Err(payload);
        }
        self.q.push_back(LaneEntry { rank, payload });
        Ok(())
    }
}

struct SlotEntry<E> {
    rank: Rank,
    slot: u32,
    payload: E,
}

/// Marks a slot with no pending entry in [`Slots::pos`].
const UNARMED: u32 = u32::MAX;

/// The fast queue's re-armable timer slots (see
/// [`EventQueue::schedule_slot`]): an indexed binary min-heap of the armed
/// slots by rank, so a re-arm or a clear finds its entry in O(1) and
/// restores the heap in O(log armed).
struct Slots<E> {
    heap: Vec<SlotEntry<E>>,
    /// Index in `heap` of each slot's entry, or [`UNARMED`].
    pos: Vec<u32>,
}

impl<E> Slots<E> {
    fn peek_rank(&self) -> Option<&Rank> {
        self.heap.first().map(|e| &e.rank)
    }

    /// Arm `slot` under `rank`, replacing its pending entry; returns
    /// whether the slot was empty.
    fn arm(&mut self, slot: usize, rank: Rank, payload: E) -> bool {
        if slot >= self.pos.len() {
            self.pos.resize(slot + 1, UNARMED);
        }
        let i = self.pos[slot];
        if i == UNARMED {
            let i = self.heap.len();
            self.heap.push(SlotEntry {
                rank,
                slot: slot as u32,
                payload,
            });
            self.pos[slot] = i as u32;
            self.sift_up(i);
            return true;
        }
        let i = i as usize;
        let e = &mut self.heap[i];
        let earlier = rank < e.rank;
        e.rank = rank;
        e.payload = payload;
        if earlier {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
        false
    }

    /// Drop `slot`'s pending entry; returns whether there was one.
    fn clear(&mut self, slot: usize) -> bool {
        match self.pos.get(slot) {
            Some(&i) if i != UNARMED => {
                self.remove_at(i as usize);
                true
            }
            _ => false,
        }
    }

    fn pop(&mut self) -> Option<SlotEntry<E>> {
        (!self.heap.is_empty()).then(|| self.remove_at(0))
    }

    fn remove_at(&mut self, i: usize) -> SlotEntry<E> {
        let e = self.heap.swap_remove(i);
        self.pos[e.slot as usize] = UNARMED;
        if i < self.heap.len() {
            // The former last entry now sits at `i`, and may belong
            // above or below it.
            self.pos[self.heap[i].slot as usize] = i as u32;
            if self.sift_up(i) == i {
                self.sift_down(i);
            }
        }
        e
    }

    /// Move the entry at `i` up to its place; returns where it landed.
    fn sift_up(&mut self, mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].rank >= self.heap[parent].rank {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
        i
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                return;
            }
            let r = l + 1;
            let c = if r < n && self.heap[r].rank < self.heap[l].rank {
                r
            } else {
                l
            };
            if self.heap[c].rank >= self.heap[i].rank {
                return;
            }
            self.swap(i, c);
            i = c;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].slot as usize] = a as u32;
        self.pos[self.heap[b].slot as usize] = b as u32;
    }
}

/// Where the fast queue's next event comes from.
#[derive(Clone, Copy)]
enum Source {
    Heap,
    Slots,
    Lane(usize),
}

/// One step of the pop scan: offer source `src`, whose earliest entry has
/// rank `r`. `best` tracks the minimum so far, `rest` the minimum over
/// every other source offered.
fn offer<'a>(
    best: &mut Option<(Source, &'a Rank)>,
    rest: &mut Option<&'a Rank>,
    src: Source,
    r: &'a Rank,
) {
    match *best {
        Some((_, b)) if r >= b => {
            if rest.is_none_or(|x| r < x) {
                *rest = Some(r);
            }
        }
        prev => {
            if let Some((_, b)) = prev {
                *rest = Some(rest.map_or(b, |x| x.min(b)));
            }
            *best = Some((src, r));
        }
    }
}

/// Cap on distinct cadences before falling back to the heap: lanes are
/// scanned linearly on every pop, so this must stay small. Real engines
/// have a handful (mechanism timer, balance, watchdog, fault tick).
const MAX_LANES: usize = 8;

/// The default implementation: a one-shot heap, per-cadence FIFO lanes
/// and re-armable timer slots.
struct FastQueue<E> {
    heap: Heap<E>,
    lanes: Vec<Lane<E>>,
    slots: Slots<E>,
    /// Exact number of live (scheduled, not popped) events.
    live: usize,
    /// Rotate cadenced pops in place (see
    /// [`EventQueue::set_auto_cadence`]).
    auto_cadence: bool,
    /// The lane the most recent `pop` rotated its event back into (auto
    /// re-arm), if it did. Reset by every pop and every schedule call.
    rotated: Option<usize>,
    /// Hot-lane pop cache: the lane that won the last pop, paired with
    /// the minimum rank over every *other* source (heap, slots and
    /// remaining lanes) at that moment. While subsequent pushes land only
    /// on the hot lane — the steady state of a tick-dominated run, where
    /// each tick's re-arm goes straight back to its own lane — the
    /// other-source minimum cannot drop, so the next pop decides with a
    /// single key compare instead of a full source scan. Any push to
    /// another source (slot arms included) clears it; a slot clear only
    /// removes an entry, which leaves the cached minimum a valid lower
    /// bound.
    hot: Option<(usize, Option<Rank>)>,
}

impl<E> FastQueue<E> {
    fn new() -> Self {
        FastQueue {
            heap: Heap::new(),
            lanes: Vec::new(),
            slots: Slots {
                heap: Vec::new(),
                pos: Vec::new(),
            },
            live: 0,
            auto_cadence: false,
            rotated: None,
            hot: None,
        }
    }

    fn schedule(&mut self, at: SimTime, payload: E) {
        self.hot = None;
        self.rotated = None;
        let key = self.heap.key_now(at, EventClass::OneShot);
        self.heap.schedule(key, payload);
        self.live += 1;
    }

    fn schedule_slot(&mut self, slot: usize, at: SimTime, payload: E) {
        self.hot = None;
        self.rotated = None;
        let key = self.heap.key_now(at, EventClass::OneShot);
        let seq = self.heap.next_seq();
        let rank = self.heap.rank(key, seq);
        if self.slots.arm(slot, rank, payload) {
            self.live += 1;
        }
    }

    fn clear_slot(&mut self, slot: usize) {
        if self.slots.clear(slot) {
            self.live -= 1;
        }
    }

    /// Schedule a cadenced event under `key`: monotone re-arms append to
    /// the cadence's FIFO lane in O(1); anything else (initial staggered
    /// arms, resumed or jittered re-arms, cadence overflow) goes to the
    /// heap. Ordering is identical either way — lanes share the global
    /// sequence counter and pops compare ranks across all sources.
    ///
    /// Salted queues send everything to the heap: the lanes' FIFO
    /// monotonicity argument is stated over raw insertion sequence
    /// numbers, so bypassing them keeps the salted order trivially total
    /// at a perf cost only the certifier pays.
    fn push_cadenced(&mut self, key: EventKey, interval_ns: u64, payload: E) {
        self.rotated = None;
        self.live += 1;
        let seq = self.heap.next_seq();
        let rank = self.heap.rank(key, seq);
        if self.heap.salt != 0 {
            self.hot = None;
            return self.heap.push(rank, payload);
        }
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
                return self.heap.push(rank, payload);
            }
        };
        // A monotone push to the hot lane cannot lower any other source's
        // minimum, so it leaves the pop cache valid; everything else
        // clears it.
        if self.hot.is_some_and(|(h, _)| h != lane_idx) {
            self.hot = None;
        }
        if let Err(payload) = self.lanes[lane_idx].try_push(rank, payload) {
            self.hot = None;
            self.heap.push(rank, payload);
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)>
    where
        E: Clone,
    {
        self.rotated = None;
        // Hot path: the lane that won the last pop wins again while its
        // front stays below the cached minimum of every other source.
        if let Some((h, om)) = self.hot {
            if let Some(e) = self.lanes[h].q.front() {
                if om.is_none_or(|m| e.rank < m) {
                    return self.pop_lane(h);
                }
            }
            self.hot = None;
        }
        // Find the winning source and the minimum over every other
        // source, which seeds the hot cache when a lane wins. Ranks
        // compare across sources: lanes only hold anything when the queue
        // is unsalted, and the slot heap orders by the same full rank as
        // the one-shot heap.
        let mut best: Option<(Source, &Rank)> = None;
        let mut rest: Option<&Rank> = None;
        if let Some(r) = self.heap.peek_rank() {
            offer(&mut best, &mut rest, Source::Heap, r);
        }
        if let Some(r) = self.slots.peek_rank() {
            offer(&mut best, &mut rest, Source::Slots, r);
        }
        for (i, l) in self.lanes.iter().enumerate() {
            if let Some(e) = l.q.front() {
                offer(&mut best, &mut rest, Source::Lane(i), &e.rank);
            }
        }
        match best? {
            (Source::Lane(i), _) => {
                self.hot = Some((i, rest.copied()));
                self.pop_lane(i)
            }
            (Source::Heap, _) => {
                let popped = self.heap.pop()?;
                self.live -= 1;
                Some(popped)
            }
            (Source::Slots, _) => {
                let e = self.slots.pop()?;
                self.heap.burst += 1;
                self.heap.current = e.rank;
                self.live -= 1;
                Some((e.rank.time(), e.payload))
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
        self.heap.burst += 1;
        let Some(e) = self.lanes[i].q.pop_front() else {
            debug_assert!(false, "pop_lane on empty lane");
            return None;
        };
        self.heap.current = e.rank;
        let time = e.rank.time();
        if self.auto_cadence {
            // The popped front plus one interval is at or past every
            // pending entry of a shared strict cadence, so the push
            // cannot fail; were it ever to, the event is simply not
            // rotated and the handler re-arms it explicitly with the
            // identical key.
            let key = self
                .heap
                .key_now(time + self.lanes[i].interval_ns, EventClass::Cadenced);
            let rank = self.heap.rank(key, self.heap.next_seq);
            if self.lanes[i].try_push(rank, e.payload.clone()).is_ok() {
                self.heap.next_seq += 1;
                // live is unchanged: one event left, its re-arm arrived.
                self.rotated = Some(i);
                return Some((time, e.payload));
            }
        }
        self.live -= 1;
        Some((time, e.payload))
    }

    /// Take back the re-arm the most recent pop's rotation made.
    fn undo_rotation(&mut self) -> bool {
        let Some(i) = self.rotated.take() else {
            return false;
        };
        // Nothing was scheduled since the pop (that would have cleared
        // `rotated`), so the rotated entry is still the lane's back.
        // Removing an entry cannot lower any other source's minimum: the
        // hot-lane cache stays valid.
        self.lanes[i].q.pop_back();
        self.live -= 1;
        true
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

    fn heap(&self) -> &Heap<E> {
        match &self.imp {
            Imp::Fast(q) => &q.heap,
            Imp::Classic(h) => h,
        }
    }

    /// Set the equal-key tie-break permutation salt (see `mix_ord`).
    /// `0` (the default) is pinned insertion order; non-zero values pop
    /// equal-key events in a salt-dependent deterministic permutation —
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

    /// Schedule one-shot `payload` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        match &mut self.imp {
            Imp::Fast(q) => q.schedule(at, payload),
            Imp::Classic(h) => h.schedule(h.key_now(at, EventClass::OneShot), payload),
        }
    }

    /// Arm the re-armable one-shot timer `slot` (any small index the
    /// caller owns, e.g. one per CPU and timer kind) for `at`. The event
    /// gets exactly the key and sequence number [`schedule`](Self::schedule)
    /// would give it. On the fast queue it *replaces* whatever the slot
    /// held, so a superseded timer never pops; the classic queue pushes it
    /// like any one-shot event and leaves superseded entries for the
    /// caller to retire when they pop.
    pub fn schedule_slot(&mut self, slot: usize, at: SimTime, payload: E) {
        match &mut self.imp {
            Imp::Fast(q) => q.schedule_slot(slot, at, payload),
            Imp::Classic(h) => h.schedule(h.key_now(at, EventClass::OneShot), payload),
        }
    }

    /// Drop `slot`'s pending timer, if any. A no-op on the classic queue
    /// (see [`schedule_slot`](Self::schedule_slot)).
    pub fn clear_slot(&mut self, slot: usize) {
        if let Imp::Fast(q) = &mut self.imp {
            q.clear_slot(slot);
        }
    }

    /// [`schedule`](Self::schedule) a periodic timer's re-arm, with its
    /// cadence declared. The event gets the cadenced tie class. On the
    /// fast queue, re-arms of a fixed-interval timer fire in time order
    /// and each lands one interval later, so per cadence the scheduled
    /// keys are monotone: they append to a FIFO lane with O(1) insert and
    /// O(1) pop, bypassing the heap entirely. Non-monotone pushes
    /// (staggered initial arms, jittered re-arms) and cadences past the
    /// lane cap silently fall back to the heap, and the classic queue
    /// always uses its heap — the popped order is identical in every
    /// case.
    pub fn schedule_cadenced(&mut self, at: SimTime, interval_ns: u64, payload: E) {
        match &mut self.imp {
            Imp::Fast(q) => {
                let key = q.heap.key_now(at, EventClass::Cadenced);
                q.push_cadenced(key, interval_ns, payload)
            }
            Imp::Classic(h) => h.schedule(h.key_now(at, EventClass::Cadenced), payload),
        }
    }

    /// Put a suspended periodic timer back: schedule its tick at `at`
    /// under the key it would have had had it kept ticking, i.e. as if
    /// the previous tick at `at - interval_ns` had re-armed it
    /// ([`EventKey::cadenced_tick`]). Only the final insertion-order
    /// tie-break differs, which matters only against another cadenced
    /// event with the same time and the same `sched_at`.
    pub fn resume_cadenced(&mut self, at: SimTime, interval_ns: u64, payload: E) {
        let key = EventKey::cadenced_tick(at, interval_ns);
        match &mut self.imp {
            Imp::Fast(q) => q.push_cadenced(key, interval_ns, payload),
            Imp::Classic(h) => h.schedule(key, payload),
        }
    }

    /// Monotone counter advanced on every schedule call (it is the queue's
    /// internal tie-break sequence). Two reads returning the same value
    /// prove that *no event of any kind* was scheduled in between, which
    /// callers use to detect that two entries are adjacent among same-key
    /// events (see the engine's resched coalescing).
    pub fn seq_mark(&self) -> u64 {
        self.heap().next_seq
    }

    /// The key of the most recently popped event (the event being
    /// processed). Before the first pop: time zero, cadenced.
    pub fn current_key(&self) -> EventKey {
        self.heap().current.key()
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
            Imp::Classic(h) => h.pop(),
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
    /// `time + interval`, so the rotation allocates the identical key the
    /// handler would have — the handler must then *skip* its explicit
    /// re-arm when `last_pop_rotated()` reports the queue already did it,
    /// or take the re-arm back with [`undo_rotation`](Self::undo_rotation).
    /// Events that fall outside the lanes (initial staggered arms,
    /// jittered re-arms) pop with the flag false and keep the explicit
    /// path.
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
            Imp::Fast(q) => q.rotated.is_some(),
            Imp::Classic(_) => false,
        }
    }

    /// Remove the re-arm that the most recent pop's auto-cadence rotation
    /// made, for a caller that suspends the timer instead. Must be called
    /// before anything else is scheduled; returns whether there was a
    /// rotation to take back.
    pub fn undo_rotation(&mut self) -> bool {
        match &mut self.imp {
            Imp::Fast(q) => q.undo_rotation(),
            Imp::Classic(_) => false,
        }
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events that can still pop. Exact on both flavors; on the
    /// fast queue an armed slot counts once, while the classic queue also
    /// counts the superseded slot entries it still holds (see
    /// [`schedule_slot`](Self::schedule_slot)).
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
    /// global `(time, sched_at, class, seq)` order, including ties: at a
    /// shared `time` and `sched_at` the cadenced event goes first, and
    /// otherwise ties keep insertion order.
    #[test]
    fn periodic_and_irregular_share_total_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        q.schedule(t, 1);
        q.schedule_cadenced(t, 100, 2);
        q.schedule(t, 3);
        q.schedule_cadenced(SimTime::from_nanos(50), 50, 0);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec![0, 2, 1, 3]);

        // Scheduled during different pops, the same events keep
        // insertion order whatever their class.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 9);
        q.schedule(t, 1);
        assert_eq!(q.pop().unwrap().1, 9);
        q.schedule_cadenced(t, 90, 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec![1, 2]);
    }

    /// A resumed timer takes the key of the tick it replaces, wherever
    /// the clock has got to, and an undone rotation leaves no trace.
    #[test]
    fn resumed_ticks_and_undone_rotations() {
        let mut q = EventQueue::new();
        q.set_auto_cadence(true);
        q.schedule_cadenced(SimTime::from_nanos(100), 100, 0);
        q.schedule(SimTime::from_nanos(150), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), 0)));
        assert!(q.last_pop_rotated());
        assert!(q.undo_rotation());
        assert!(!q.undo_rotation(), "one rotation to take back");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(150), 1)));
        // Stop rotating so the queue drains.
        q.set_auto_cadence(false);
        // At 150, one-shot 2 is scheduled for 300 (sched_at 150); the
        // timer resumes at 300 as if re-armed at 200, so it pops after.
        // A tick resumed at 250 counts as re-armed at 150 and beats the
        // one-shot 3 scheduled at 150 for 250 on class.
        q.schedule(SimTime::from_nanos(300), 2);
        q.schedule(SimTime::from_nanos(250), 3);
        q.resume_cadenced(SimTime::from_nanos(300), 100, 10);
        q.resume_cadenced(SimTime::from_nanos(250), 100, 11);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec![11, 3, 2, 10]);
        let k = EventKey::cadenced_tick(SimTime::from_nanos(300), 100);
        assert_eq!(q.current_key(), k);
        assert_eq!(k.sched_at, SimTime::from_nanos(200));
    }

    /// Re-arming a slot replaces its pending entry on the fast queue (the
    /// new arm keeps the sequence number it drew, so ties order by arm
    /// time) and leaves the superseded one queued on the classic queue.
    #[test]
    fn slot_rearm_replaces_the_pending_entry() {
        let mut q = EventQueue::new();
        q.schedule_slot(0, SimTime::from_nanos(10), "stale");
        q.schedule(SimTime::from_nanos(20), "tie");
        q.schedule_slot(0, SimTime::from_nanos(20), "slot");
        assert_eq!(q.len(), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["tie", "slot"]);

        let mut c = EventQueue::classic();
        c.schedule_slot(0, SimTime::from_nanos(10), "stale");
        c.schedule_slot(0, SimTime::from_nanos(20), "slot");
        c.clear_slot(0);
        assert_eq!(c.len(), 2, "the classic queue keeps every arm");
        let order: Vec<_> = std::iter::from_fn(|| c.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["stale", "slot"]);
    }

    /// A cleared slot never pops, and clearing an empty slot (or one past
    /// any armed index) is a no-op.
    #[test]
    fn cleared_slots_never_pop() {
        let mut q = EventQueue::new();
        for s in 0..6 {
            q.schedule_slot(s, SimTime::from_nanos(100 - s as u64), s);
        }
        q.clear_slot(3);
        q.clear_slot(3);
        q.clear_slot(0);
        q.clear_slot(99);
        assert_eq!(q.len(), 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec![5, 4, 2, 1]);
        assert!(q.is_empty());
    }

    /// Popping a slot's entry empties the slot: it can be armed again,
    /// and a clear after the pop removes nothing else.
    #[test]
    fn popping_a_slot_empties_it() {
        let mut q = EventQueue::new();
        q.schedule_slot(7, SimTime::from_nanos(5), 1);
        q.schedule(SimTime::from_nanos(9), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), 1)));
        q.clear_slot(7);
        assert_eq!(q.len(), 1);
        q.schedule_slot(7, SimTime::from_nanos(8), 3);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(8), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(9), 2)));
        assert_eq!(q.pop(), None);
    }

    /// Slots interleave with lanes and the one-shot heap in key order,
    /// and a slot armed below the hot lane's cached bound wins the next
    /// pop.
    #[test]
    fn slots_interleave_with_lanes_and_heap() {
        let mut q = EventQueue::new();
        q.set_auto_cadence(true);
        q.schedule_cadenced(SimTime::from_nanos(10), 10, 0);
        q.schedule(SimTime::from_nanos(35), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 0)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), 0)));
        // Hot lane cached with the heap's 35 as its bound; a slot at 25
        // must beat the lane's next tick at 30.
        q.schedule_slot(1, SimTime::from_nanos(25), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(25), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), 0)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(35), 1)));
        assert_eq!(q.len(), 1, "the rotating tick stays queued");
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
