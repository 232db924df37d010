#![allow(clippy::collapsible_if, clippy::collapsible_match)]

//! Property tests of the CFS runqueue: counters, ordering, and the VB
//! park/unpark protocol under arbitrary operation sequences.

use oversub_hw::CpuId;
use oversub_sched::{CfsRq, RqBoards, VB_TAIL_BASE};
use oversub_task::{Action, FnProgram, Task, TaskId, TaskTable};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Op {
    Enqueue(usize, u64),
    Dequeue(usize),
    Park(usize),
    Unpark(usize),
    Pick,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..8, 0u64..1_000_000).prop_map(|(i, v)| Op::Enqueue(i, v)),
            (0usize..8).prop_map(Op::Dequeue),
            (0usize..8).prop_map(Op::Park),
            (0usize..8).prop_map(Op::Unpark),
            Just(Op::Pick),
        ],
        1..200,
    )
}

fn mk_tasks() -> TaskTable {
    let mut tt = TaskTable::new();
    for i in 0..8 {
        tt.push(Task::new(
            TaskId(i),
            Box::new(FnProgram::new("nop", |_| Action::Exit)),
            CpuId(0),
        ));
    }
    tt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under any valid op sequence, the cached counters always agree with
    /// a recount of the tree, and pick_next never returns a parked task.
    #[test]
    fn counters_and_picks_stay_consistent(ops in arb_ops()) {
        let mut rq = CfsRq::new();
        let mut tasks = mk_tasks();
        // queued[i]: is task i currently on the queue?
        let mut queued = [false; 8];
        for op in ops {
            match op {
                Op::Enqueue(i, v) => {
                    if !queued[i] && !tasks.vb_blocked[i] {
                        tasks.vruntime[i] = v;
                        rq.enqueue(&tasks, TaskId(i));
                        queued[i] = true;
                    }
                }
                Op::Dequeue(i) => {
                    if queued[i] && !tasks.vb_blocked[i] {
                        rq.dequeue(&tasks, TaskId(i));
                        queued[i] = false;
                    }
                }
                Op::Park(i) => {
                    if queued[i] && !tasks.vb_blocked[i] {
                        let old = tasks.vruntime[i];
                        let tail = rq.next_vb_tail_vruntime();
                        tasks.vb_park(TaskId(i), tail);
                        rq.requeue(old, false, &tasks, TaskId(i));
                    }
                }
                Op::Unpark(i) => {
                    if queued[i] && tasks.vb_blocked[i] {
                        let old = tasks.vruntime[i];
                        tasks.vb_unpark(TaskId(i));
                        rq.requeue(old, true, &tasks, TaskId(i));
                    }
                }
                Op::Pick => {
                    if let Some((tid, _)) = rq.pick_next(&tasks) {
                        prop_assert!(queued[tid.0]);
                        prop_assert!(!tasks.vb_blocked[tid.0], "picked a parked task");
                        prop_assert!(tasks.vruntime[tid.0] < VB_TAIL_BASE);
                    }
                }
            }
            // Invariants after every operation.
            let (counter, tree, parked_entries) = rq.audit(&tasks);
            prop_assert_eq!(counter, tree, "schedulable counter drifted");
            let parked_actual = (0..8)
                .filter(|&i| queued[i] && tasks.vb_blocked[i])
                .count();
            prop_assert_eq!(rq.nr_vb_parked(), parked_actual);
            prop_assert_eq!(parked_entries, parked_actual);
            let total = (0..8).filter(|&i| queued[i]).count();
            prop_assert_eq!(rq.nr_queued(), total);
        }
    }

    /// The cached pick always agrees with the uncached ordered scan, and
    /// the shared boards always read "this queue has schedulable waiters"
    /// and "this queue holds any task", under arbitrary op sequences
    /// including BWD skip flags.
    ///
    /// Skip-flag discipline mirrors the engine: *setting* a flag needs no
    /// cache action (the cache revalidates pickability on every hit), but
    /// *clearing* one must call `invalidate_pick_cache` — a task left of
    /// the cached entry may have just become pickable.
    #[test]
    fn cached_pick_matches_scan(ops in arb_ops(), skips in proptest::collection::vec((0usize..8, 0u64..2), 0..64)) {
        use std::rc::Rc;

        let mut rq = CfsRq::new();
        let boards = Rc::new(RqBoards::new(3));
        rq.attach_boards(Rc::clone(&boards), 2);
        let mut tasks = mk_tasks();
        let mut queued = [false; 8];
        let mut skips = skips.into_iter();
        for op in ops {
            match op {
                Op::Enqueue(i, v) => {
                    if !queued[i] && !tasks.vb_blocked[i] {
                        tasks.vruntime[i] = v;
                        rq.enqueue(&tasks, TaskId(i));
                        queued[i] = true;
                    }
                }
                Op::Dequeue(i) => {
                    if queued[i] && !tasks.vb_blocked[i] {
                        rq.dequeue(&tasks, TaskId(i));
                        queued[i] = false;
                    }
                }
                Op::Park(i) => {
                    if queued[i] && !tasks.vb_blocked[i] {
                        let old = tasks.vruntime[i];
                        let tail = rq.next_vb_tail_vruntime();
                        tasks.vb_park(TaskId(i), tail);
                        rq.requeue(old, false, &tasks, TaskId(i));
                    }
                }
                Op::Unpark(i) => {
                    if queued[i] && tasks.vb_blocked[i] {
                        let old = tasks.vruntime[i];
                        tasks.vb_unpark(TaskId(i));
                        rq.requeue(old, true, &tasks, TaskId(i));
                    }
                }
                Op::Pick => {
                    // Interleave skip-flag churn with picks.
                    if let Some((i, on)) = skips.next().map(|(i, b)| (i, b == 1)) {
                        let was = tasks.bwd_skip[i];
                        tasks.bwd_skip[i] = on;
                        if was && !on {
                            rq.invalidate_pick_cache();
                        }
                    }
                    prop_assert_eq!(
                        rq.pick_next(&tasks),
                        rq.pick_next_scan(&tasks),
                        "cached pick diverged from ordered scan"
                    );
                    // A second pick immediately after exercises the
                    // cache-hit path against the same scan.
                    prop_assert_eq!(rq.pick_next(&tasks), rq.pick_next_scan(&tasks));
                }
            }
            prop_assert_eq!(
                boards.waiters.iter().collect::<Vec<_>>(),
                if rq.nr_schedulable() > 0 { vec![2] } else { vec![] },
                "waiter board out of sync"
            );
            prop_assert_eq!(boards.waiters.len(), usize::from(rq.nr_schedulable() > 0));
            prop_assert_eq!(
                boards.occupied.iter().collect::<Vec<_>>(),
                if rq.is_empty() { vec![] } else { vec![2] },
                "occupied board out of sync"
            );
            prop_assert_eq!(boards.occupied.len(), usize::from(!rq.is_empty()));
        }
    }

    /// pick_next always returns the schedulable task with the smallest
    /// vruntime (ignoring BWD skip flags, which these ops never set).
    #[test]
    fn pick_is_minimum_vruntime(
        entries in proptest::collection::btree_map(0usize..8, 0u64..1_000_000, 1..8)
    ) {
        let mut rq = CfsRq::new();
        let mut tasks = mk_tasks();
        for (&i, &v) in &entries {
            tasks.vruntime[i] = v;
            rq.enqueue(&tasks, TaskId(i));
        }
        let (tid, forced) = rq.pick_next(&tasks).expect("non-empty");
        prop_assert!(!forced);
        let min = entries.iter().map(|(&i, &v)| (v, i)).min().unwrap();
        prop_assert_eq!(tid.0, min.1);
    }

    /// min_vruntime never decreases, whatever happens.
    #[test]
    fn min_vruntime_is_monotone(ops in arb_ops()) {
        let mut rq = CfsRq::new();
        let mut tasks = mk_tasks();
        let mut queued = [false; 8];
        let mut last_min = rq.min_vruntime();
        for op in ops {
            match op {
                Op::Enqueue(i, v) => {
                    if !queued[i] {
                        tasks.vruntime[i] = v;
                        rq.enqueue(&tasks, TaskId(i));
                        queued[i] = true;
                    }
                }
                Op::Dequeue(i) => {
                    if queued[i] {
                        rq.dequeue(&tasks, TaskId(i));
                        queued[i] = false;
                    }
                }
                Op::Pick => {
                    rq.advance_min_vruntime(last_min + 100);
                }
                _ => {}
            }
            let m = rq.min_vruntime();
            prop_assert!(m >= last_min, "min_vruntime went backwards");
            last_min = m;
        }
    }
}
