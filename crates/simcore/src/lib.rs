//! Deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the thread-oversubscription study: a
//! virtual clock ([`SimTime`]), a deterministic event queue
//! ([`EventQueue`]), a seeded random stream ([`SimRng`]), and a model of
//! serialized kernel resources ([`KernelLock`]).
//!
//! Nothing here knows about threads or scheduling; higher layers (the
//! `oversub-sched` and `oversub-ksync` crates) build the OS model on top.

pub mod events;
pub mod pool;
pub mod resource;
pub mod rng;
pub mod time;
pub mod vclock;

pub use events::{EventClass, EventKey, EventQueue};
pub use pool::{JobPanic, PoolStats};
pub use resource::{Grant, KernelLock, KernelLockParams};
pub use rng::SimRng;
pub use time::{SimTime, MICROS, MILLIS, NANOS, SECS};
pub use vclock::VClock;

// Property tests run hundreds of cases and use proptest's file-backed
// failure persistence — both prohibitive under miri, which covers the
// deterministic unit tests instead.
#[cfg(all(test, not(miri)))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Events always pop in non-decreasing time order, regardless of the
        /// insertion order.
        #[test]
        fn event_queue_is_time_ordered(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(t), i);
            }
            let mut last = SimTime::ZERO;
            let mut popped = 0usize;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                popped += 1;
            }
            prop_assert_eq!(popped, times.len());
        }

        /// Equal-time events preserve insertion order (determinism).
        #[test]
        fn event_queue_fifo_on_ties(n in 1usize..100) {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(SimTime::from_nanos(42), i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
            prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
        }

        /// Kernel-lock grants never overlap and never start before request.
        #[test]
        fn kernel_lock_grants_are_disjoint(
            reqs in proptest::collection::vec((0u64..10_000, 1u64..500), 1..100)
        ) {
            let mut sorted = reqs.clone();
            sorted.sort();
            let mut lock = KernelLock::default();
            let mut prev_end = SimTime::ZERO;
            for (t, hold) in sorted {
                let g = lock.acquire(SimTime::from_nanos(t), hold);
                prop_assert!(g.start.as_nanos() >= t);
                prop_assert!(g.start >= prev_end);
                prop_assert_eq!(g.end.as_nanos(), g.start.as_nanos() + hold);
                prev_end = g.end;
            }
        }

        /// RNG range draws are always within bounds.
        #[test]
        fn rng_range_in_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
            let mut rng = SimRng::new(seed);
            for _ in 0..100 {
                prop_assert!(rng.gen_range(bound) < bound);
            }
        }
    }
}
