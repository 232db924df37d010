//! The per-CPU CFS runqueue.
//!
//! Linux keeps runnable tasks in a red-black tree ordered by vruntime; we
//! use a `BTreeSet<(vruntime, TaskId)>`, which has the same ordering
//! semantics. Virtual blocking inserts parked tasks at the tree's tail by
//! assigning them an arbitrarily large vruntime (above [`VB_TAIL_BASE`]);
//! they are skipped by `pick_next` but still counted as load, which is what
//! stabilizes the load balancer.
//!
//! All task state is read through the struct-of-arrays [`TaskTable`]: the
//! pick paths touch only the `vruntime`/`state`/`vb_blocked`/`bwd_skip`
//! columns, so a scan stays in a handful of cache lines even with hundreds
//! of tasks.

use crate::board::RqBoards;
use oversub_task::{TaskId, TaskState, TaskTable};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Base of the vruntime region used to park virtually-blocked tasks.
/// Anything above this sorts after every live task.
pub const VB_TAIL_BASE: u64 = u64::MAX / 2;

/// A CFS runqueue.
#[derive(Clone, Debug, Default)]
pub struct CfsRq {
    tree: BTreeSet<(u64, TaskId)>,
    /// Runnable tasks excluding VB-parked ones.
    nr_schedulable: usize,
    /// VB-parked tasks on this queue.
    nr_vb_parked: usize,
    /// Monotonic floor for vruntimes of newly (re)enqueued tasks.
    min_vruntime: u64,
    /// Sequence used to order VB-parked tasks FIFO at the tail.
    vb_seq: u64,
    /// Cached unforced pick: the leftmost pickable `(vruntime, TaskId)` as
    /// of the last scan, maintained across enqueue/dequeue/requeue so
    /// `pick_next` is O(1) amortized. `None` means "unknown — scan".
    /// Interior mutability keeps `pick_next(&self)` read-only for callers.
    pick_cache: Cell<Option<(u64, TaskId)>>,
    /// When set, `pick_next` always scans (reference mode; the cache is
    /// bypassed and never populated).
    scan_mode: Cell<bool>,
    /// The machine-wide boards shared by every runqueue of one scheduler,
    /// and this queue's CPU index in them. The queue keeps its `occupied`
    /// bit on the 0↔non-empty transitions of the tree and its `waiters`
    /// bit on those of `nr_schedulable`, so the balancer's searches visit
    /// only queues that can matter (see `Scheduler::periodic_balance`).
    boards: Option<(Rc<RqBoards>, usize)>,
}

/// Can `pick_next` return this in-tree entry as an unforced pick?
///
/// Branch-light on purpose: the three column reads are independent loads
/// from dense byte arrays and fold into one predicate, instead of chasing
/// a task struct across cache lines per test.
#[inline]
fn pickable(tasks: &TaskTable, tid: TaskId, vruntime: u64) -> bool {
    vruntime < VB_TAIL_BASE
        && tasks.state[tid.0] == TaskState::Runnable
        && !tasks.vb_blocked[tid.0]
        && !tasks.bwd_skip[tid.0]
}

impl CfsRq {
    /// Empty queue.
    pub fn new() -> Self {
        CfsRq::default()
    }

    /// Tasks on the queue that the scheduler may pick.
    #[inline]
    pub fn nr_schedulable(&self) -> usize {
        self.nr_schedulable
    }

    /// VB-parked tasks on the queue.
    #[inline]
    pub fn nr_vb_parked(&self) -> usize {
        self.nr_vb_parked
    }

    /// Total queued tasks (schedulable + VB-parked). This is the *load*
    /// the balancer sees: under VB, blocked tasks still contribute.
    #[inline]
    pub fn nr_queued(&self) -> usize {
        self.tree.len()
    }

    /// Current minimum-vruntime floor.
    #[inline]
    pub fn min_vruntime(&self) -> u64 {
        self.min_vruntime
    }

    /// True if nothing (not even a parked task) is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Share the machine-wide boards with this runqueue as CPU `cpu`.
    /// Folds the queue's current population into them, so it can be
    /// attached at any point.
    pub fn attach_boards(&mut self, boards: Rc<RqBoards>, cpu: usize) {
        boards.occupied.set(cpu, !self.tree.is_empty());
        boards.waiters.set(cpu, self.nr_schedulable > 0);
        self.boards = Some((boards, cpu));
    }

    #[inline]
    fn set_occupied(&self, on: bool) {
        if let Some((b, cpu)) = &self.boards {
            b.occupied.set(*cpu, on);
        }
    }

    #[inline]
    fn set_waiters(&self, on: bool) {
        if let Some((b, cpu)) = &self.boards {
            b.waiters.set(*cpu, on);
        }
    }

    /// Next vruntime to use for parking a task at the tail (FIFO among
    /// parked tasks).
    pub fn next_vb_tail_vruntime(&mut self) -> u64 {
        self.vb_seq += 1;
        VB_TAIL_BASE + self.vb_seq
    }

    /// Insert a task. Its `vruntime` column entry must already be final
    /// (including sleeper credit or VB tail placement).
    pub fn enqueue(&mut self, tasks: &TaskTable, tid: TaskId) {
        let vruntime = tasks.vruntime[tid.0];
        let vb = tasks.vb_blocked[tid.0];
        debug_assert!(
            vb || vruntime < VB_TAIL_BASE,
            "non-parked task {tid:?} with tail-region vruntime {vruntime}"
        );
        let fresh = self.tree.insert((vruntime, tid));
        debug_assert!(fresh, "task {tid:?} double-enqueued");
        if self.tree.len() == 1 {
            self.set_occupied(true);
        }
        if vb {
            self.nr_vb_parked += 1;
        } else {
            self.nr_schedulable += 1;
            if self.nr_schedulable == 1 {
                self.set_waiters(true);
            }
        }
        self.note_inserted(tasks, tid, vruntime);
    }

    /// Fold a freshly placed entry into the pick cache: a pickable entry
    /// left of the cached one becomes the new cached pick. A `None` cache
    /// stays `None` (a smaller unknown entry may exist) unless the tree
    /// holds only this entry.
    fn note_inserted(&self, tasks: &TaskTable, tid: TaskId, vruntime: u64) {
        if self.scan_mode.get() || !pickable(tasks, tid, vruntime) {
            return;
        }
        let key = (vruntime, tid);
        match self.pick_cache.get() {
            Some(c) if key < c => self.pick_cache.set(Some(key)),
            Some(_) => {}
            None => {
                if self.tree.len() == 1 {
                    self.pick_cache.set(Some(key));
                }
            }
        }
    }

    /// Remove a task (must be queued with exactly its current vruntime).
    pub fn dequeue(&mut self, tasks: &TaskTable, tid: TaskId) {
        let vruntime = tasks.vruntime[tid.0];
        let existed = self.tree.remove(&(vruntime, tid));
        debug_assert!(existed, "task {tid:?} not on queue");
        if self.pick_cache.get() == Some((vruntime, tid)) {
            self.pick_cache.set(None);
        }
        if self.tree.is_empty() {
            self.set_occupied(false);
        }
        if tasks.vb_blocked[tid.0] {
            self.nr_vb_parked -= 1;
        } else {
            self.nr_schedulable -= 1;
            if self.nr_schedulable == 0 {
                self.set_waiters(false);
            }
            self.update_min_vruntime();
        }
    }

    /// Reposition a task whose vruntime changed from `old_vruntime`.
    /// `was_vb` describes its parked status while at `old_vruntime`.
    pub fn requeue(&mut self, old_vruntime: u64, was_vb: bool, tasks: &TaskTable, tid: TaskId) {
        let existed = self.tree.remove(&(old_vruntime, tid));
        debug_assert!(existed, "task {tid:?} not on queue for requeue");
        if self.pick_cache.get() == Some((old_vruntime, tid)) {
            self.pick_cache.set(None);
        }
        let vruntime = tasks.vruntime[tid.0];
        self.tree.insert((vruntime, tid));
        self.note_inserted(tasks, tid, vruntime);
        match (was_vb, tasks.vb_blocked[tid.0]) {
            (true, false) => {
                self.nr_vb_parked -= 1;
                self.nr_schedulable += 1;
                if self.nr_schedulable == 1 {
                    self.set_waiters(true);
                }
            }
            (false, true) => {
                self.nr_schedulable -= 1;
                if self.nr_schedulable == 0 {
                    self.set_waiters(false);
                }
                self.nr_vb_parked += 1;
            }
            _ => {}
        }
        self.update_min_vruntime();
    }

    /// The leftmost schedulable entry, honouring BWD skip flags: the first
    /// non-skipped schedulable task wins; if every schedulable task is
    /// skip-flagged, the leftmost is returned (the caller clears its flag).
    ///
    /// Returns `(task, forced)` where `forced` means a skip flag had to be
    /// overridden.
    ///
    /// O(1) amortized: the leftmost pickable entry is cached across calls
    /// and revalidated here (tree membership + schedulability + skip flag);
    /// only a miss pays for the ordered scan, whose unforced result is
    /// cached for the next call. Forced picks (every schedulable task
    /// skip-flagged) are never cached. External eligibility changes that
    /// bypass the queue API — BWD skip-flag expiry on in-tree tasks — must
    /// call [`CfsRq::invalidate_pick_cache`].
    pub fn pick_next(&self, tasks: &TaskTable) -> Option<(TaskId, bool)> {
        if !self.scan_mode.get() {
            if let Some((vr, tid)) = self.pick_cache.get() {
                if tasks.vruntime[tid.0] == vr
                    && pickable(tasks, tid, vr)
                    && self.tree.contains(&(vr, tid))
                {
                    return Some((tid, false));
                }
                self.pick_cache.set(None);
            }
        }
        let picked = self.pick_next_scan(tasks);
        if !self.scan_mode.get() {
            if let Some((tid, false)) = picked {
                self.pick_cache.set(Some((tasks.vruntime[tid.0], tid)));
            }
        }
        picked
    }

    /// The uncached ordered scan behind [`CfsRq::pick_next`] (also the
    /// reference model for the cache's property tests).
    pub fn pick_next_scan(&self, tasks: &TaskTable) -> Option<(TaskId, bool)> {
        let mut first_skipped: Option<TaskId> = None;
        for &(vr, tid) in &self.tree {
            if vr >= VB_TAIL_BASE {
                break; // parked region; nothing schedulable beyond
            }
            if !tasks.schedulable(tid) {
                continue;
            }
            if tasks.bwd_skip[tid.0] {
                if first_skipped.is_none() {
                    first_skipped = Some(tid);
                }
                continue;
            }
            return Some((tid, false));
        }
        first_skipped.map(|t| (t, true))
    }

    /// Drop the cached pick. Must be called whenever an in-tree task's
    /// eligibility changes without going through
    /// enqueue/dequeue/requeue — today that is BWD skip-flag expiry.
    #[inline]
    pub fn invalidate_pick_cache(&self) {
        self.pick_cache.set(None);
    }

    /// Force `pick_next` to always use the ordered scan (reference mode).
    pub fn set_scan_mode(&self, on: bool) {
        self.scan_mode.set(on);
        self.pick_cache.set(None);
    }

    /// Leftmost VB-parked task, if any (used for flag-poll rotation when a
    /// core has only parked tasks).
    pub fn first_vb_parked(&self, tasks: &TaskTable) -> Option<TaskId> {
        self.tree
            .range((VB_TAIL_BASE, TaskId(0))..)
            .map(|&(_, tid)| tid)
            .find(|&tid| tasks.vb_blocked[tid.0])
    }

    /// Schedulable tasks in vruntime order — used by the load balancer to
    /// select migration victims (it never migrates VB-parked tasks).
    pub fn schedulable_tasks<'a>(
        &'a self,
        tasks: &'a TaskTable,
    ) -> impl Iterator<Item = TaskId> + 'a {
        self.tree
            .iter()
            .take_while(|&&(vr, _)| vr < VB_TAIL_BASE)
            .map(|&(_, tid)| tid)
            .filter(move |&tid| tasks.schedulable(tid))
    }

    /// Consistency check (diagnostics): recount schedulable entries from
    /// the tree and compare with the cached counter. Returns
    /// `(counter, tree_schedulable, tree_entries_in_parked_region)`.
    pub fn audit(&self, tasks: &TaskTable) -> (usize, usize, usize) {
        let mut sched = 0;
        let mut parked_region = 0;
        for &(vr, tid) in &self.tree {
            if vr >= VB_TAIL_BASE {
                parked_region += 1;
                continue;
            }
            if tasks.schedulable(tid) {
                sched += 1;
            }
        }
        (self.nr_schedulable, sched, parked_region)
    }

    /// All entries (diagnostics).
    pub fn entries(&self) -> Vec<(u64, TaskId)> {
        self.tree.iter().copied().collect()
    }

    /// Raise the min_vruntime floor to track the leftmost live entry.
    fn update_min_vruntime(&mut self) {
        if let Some(&(vr, _)) = self.tree.iter().next() {
            if vr < VB_TAIL_BASE && vr > self.min_vruntime {
                self.min_vruntime = vr;
            }
        }
    }

    /// Account `delta` of execution to the floor as the current task runs
    /// (the current task is not in the tree while running, matching CFS).
    pub fn advance_min_vruntime(&mut self, curr_vruntime: u64) {
        let leftmost = self
            .tree
            .iter()
            .next()
            .map(|&(vr, _)| vr)
            .filter(|&vr| vr < VB_TAIL_BASE);
        let target = match leftmost {
            Some(l) => l.min(curr_vruntime),
            None => curr_vruntime,
        };
        if target > self.min_vruntime {
            self.min_vruntime = target;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oversub_hw::CpuId;
    use oversub_task::{Action, FnProgram, Task};

    fn mk_task(id: usize, vruntime: u64) -> Task {
        let mut t = Task::new(
            TaskId(id),
            Box::new(FnProgram::new("nop", |_| Action::Exit)),
            CpuId(0),
        );
        t.vruntime = vruntime;
        t
    }

    fn table(specs: &[(usize, u64)]) -> TaskTable {
        let max = specs.iter().map(|&(i, _)| i).max().unwrap_or(0);
        let mut tt = TaskTable::new();
        for i in 0..=max {
            tt.push(mk_task(i, 0));
        }
        for &(i, vr) in specs {
            tt.vruntime[i] = vr;
        }
        tt
    }

    #[test]
    fn pick_lowest_vruntime() {
        let tasks = table(&[(0, 300), (1, 100), (2, 200)]);
        let mut rq = CfsRq::new();
        for tid in tasks.ids() {
            rq.enqueue(&tasks, tid);
        }
        assert_eq!(rq.pick_next(&tasks), Some((TaskId(1), false)));
        assert_eq!(rq.nr_schedulable(), 3);
    }

    #[test]
    fn vb_parked_tasks_are_skipped_but_counted() {
        let mut tasks = table(&[(0, 100), (1, 50)]);
        let mut rq = CfsRq::new();
        let tail = rq.next_vb_tail_vruntime();
        tasks.vb_park(TaskId(1), tail);
        rq.enqueue(&tasks, TaskId(0));
        rq.enqueue(&tasks, TaskId(1));
        assert_eq!(rq.pick_next(&tasks), Some((TaskId(0), false)));
        assert_eq!(rq.nr_schedulable(), 1);
        assert_eq!(rq.nr_vb_parked(), 1);
        assert_eq!(rq.nr_queued(), 2);
        assert_eq!(rq.first_vb_parked(&tasks), Some(TaskId(1)));
    }

    #[test]
    fn only_parked_tasks_means_no_pick() {
        let mut tasks = table(&[(0, 100)]);
        let mut rq = CfsRq::new();
        let tail = rq.next_vb_tail_vruntime();
        tasks.vb_park(TaskId(0), tail);
        rq.enqueue(&tasks, TaskId(0));
        assert_eq!(rq.pick_next(&tasks), None);
        assert_eq!(rq.first_vb_parked(&tasks), Some(TaskId(0)));
    }

    #[test]
    fn bwd_skip_defers_to_other_tasks() {
        let mut tasks = table(&[(0, 50), (1, 100)]);
        tasks.bwd_skip[0] = true;
        let mut rq = CfsRq::new();
        rq.enqueue(&tasks, TaskId(0));
        rq.enqueue(&tasks, TaskId(1));
        // Task 0 has lower vruntime but is skip-flagged.
        assert_eq!(rq.pick_next(&tasks), Some((TaskId(1), false)));
    }

    #[test]
    fn all_skipped_forces_leftmost() {
        let mut tasks = table(&[(0, 50), (1, 100)]);
        tasks.bwd_skip[0] = true;
        tasks.bwd_skip[1] = true;
        let mut rq = CfsRq::new();
        rq.enqueue(&tasks, TaskId(0));
        rq.enqueue(&tasks, TaskId(1));
        assert_eq!(rq.pick_next(&tasks), Some((TaskId(0), true)));
    }

    #[test]
    fn requeue_moves_between_regions() {
        let mut tasks = table(&[(0, 70)]);
        let mut rq = CfsRq::new();
        rq.enqueue(&tasks, TaskId(0));
        // Park it.
        let old = tasks.vruntime[0];
        let tail = rq.next_vb_tail_vruntime();
        tasks.vb_park(TaskId(0), tail);
        rq.requeue(old, false, &tasks, TaskId(0));
        assert_eq!(rq.nr_schedulable(), 0);
        assert_eq!(rq.nr_vb_parked(), 1);
        // Unpark.
        let old = tasks.vruntime[0];
        tasks.vb_unpark(TaskId(0));
        rq.requeue(old, true, &tasks, TaskId(0));
        assert_eq!(rq.nr_schedulable(), 1);
        assert_eq!(rq.nr_vb_parked(), 0);
        assert_eq!(tasks.vruntime[0], 70);
    }

    #[test]
    fn dequeue_updates_counts() {
        let tasks = table(&[(0, 10), (1, 20)]);
        let mut rq = CfsRq::new();
        rq.enqueue(&tasks, TaskId(0));
        rq.enqueue(&tasks, TaskId(1));
        rq.dequeue(&tasks, TaskId(0));
        assert_eq!(rq.nr_schedulable(), 1);
        assert_eq!(rq.pick_next(&tasks), Some((TaskId(1), false)));
        rq.dequeue(&tasks, TaskId(1));
        assert!(rq.is_empty());
    }

    #[test]
    fn min_vruntime_is_monotonic() {
        let tasks = table(&[(0, 100), (1, 200)]);
        let mut rq = CfsRq::new();
        rq.enqueue(&tasks, TaskId(0));
        rq.enqueue(&tasks, TaskId(1));
        rq.dequeue(&tasks, TaskId(0));
        let v1 = rq.min_vruntime();
        rq.advance_min_vruntime(250);
        let v2 = rq.min_vruntime();
        assert!(v2 >= v1);
        rq.advance_min_vruntime(10);
        assert_eq!(rq.min_vruntime(), v2, "floor never decreases");
    }

    #[test]
    fn vb_tail_vruntimes_are_fifo() {
        let mut rq = CfsRq::new();
        let a = rq.next_vb_tail_vruntime();
        let b = rq.next_vb_tail_vruntime();
        assert!(b > a);
        assert!(a > VB_TAIL_BASE);
    }

    #[test]
    fn schedulable_iteration_respects_order_and_filters() {
        let mut tasks = table(&[(0, 30), (1, 10), (2, 20)]);
        let mut rq = CfsRq::new();
        let tail = rq.next_vb_tail_vruntime();
        tasks.vb_park(TaskId(2), tail);
        for tid in tasks.ids() {
            rq.enqueue(&tasks, tid);
        }
        let order: Vec<_> = rq.schedulable_tasks(&tasks).collect();
        assert_eq!(order, vec![TaskId(1), TaskId(0)]);
    }
}
