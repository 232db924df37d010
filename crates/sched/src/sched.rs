//! The CFS-like scheduler with virtual-blocking and BWD hooks.
//!
//! The scheduler is a passive state machine: the simulation engine calls
//! into it at event times. Methods return the *costs* of kernel operations
//! (e.g. how long a `try_to_wake_up` keeps the waker busy) so that the
//! engine can charge them to the right CPU's timeline.
//!
//! Task state lives in the struct-of-arrays [`TaskTable`]; every method
//! indexes the columns it needs instead of chasing per-task structs.

use crate::board::{CpuBits, RqBoards};
use crate::cpu::CpuState;
use crate::params::SchedParams;
use crate::rq::VB_TAIL_BASE;
use oversub_hw::{CpuId, MemModel, Topology};
use oversub_simcore::SimTime;
use oversub_task::{TaskId, TaskState, TaskTable};
use std::rc::Rc;

/// What `pick_next` decided for a CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pick {
    /// Run this task. The flag is true if a BWD skip had to be overridden.
    Run(TaskId, bool),
    /// Every queued task is VB-parked: briefly run this one to let it check
    /// its `thread_state` flag (the paper's "threads take turns to briefly
    /// run" behaviour).
    VbPoll(TaskId),
    /// Nothing to do.
    Idle,
}

/// Result of a vanilla (sleep-based) wakeup.
#[derive(Clone, Copy, Debug)]
pub struct WakeOutcome {
    /// CPU the task was placed on.
    pub cpu: CpuId,
    /// Nanoseconds the *waker* spends performing the wakeup (core
    /// selection, runqueue lock, enqueue, preemption check).
    pub cost_ns: u64,
    /// Whether placement moved the task off its previous CPU, and if so
    /// whether it crossed a NUMA node.
    pub migrated: Option<bool>,
    /// The chosen CPU should preempt its current task for the woken one.
    pub preempt: bool,
}

/// Why a running task is leaving the CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Time slice expired or preempted: back on the runqueue (involuntary).
    Preempted,
    /// Voluntary yield: back on the runqueue.
    Yielded,
    /// Going to sleep (vanilla block): off the runqueue.
    Sleep,
    /// Virtually blocking: parked at the runqueue tail.
    VirtualBlock,
    /// Exited.
    Exit,
}

/// A migration performed by the load balancer or wake placement.
#[derive(Clone, Copy, Debug)]
pub struct MigrationEvent {
    /// Migrated task.
    pub task: TaskId,
    /// Source CPU.
    pub from: CpuId,
    /// Destination CPU.
    pub to: CpuId,
    /// True if source and destination are on different NUMA nodes.
    pub cross_node: bool,
}

/// Candidate CPUs examined by the scheduler's machine-wide searches since
/// the scheduler was built. A full stride examines every other CPU per
/// search; a board-driven search examines only the set bits it yields.
/// Engine-internal host-cost counters, not simulated quantities.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanVisits {
    /// Busiest-source candidates examined by `periodic_balance`.
    pub balance: u64,
    /// Steal-source candidates examined by `idle_pull`.
    pub idle_pull: u64,
    /// Idle-CPU candidates examined by `nohz_idle_cpu`. Its board search
    /// tests a whole word at a time and counts only the CPU it returns.
    pub kick: u64,
}

/// The machine-wide scheduler state.
pub struct Scheduler {
    /// Per-CPU state.
    pub cpus: Vec<CpuState>,
    /// Machine layout.
    pub topo: Topology,
    /// Tunables.
    pub params: SchedParams,
    /// Memory model used to price migration / pollution penalties.
    pub mem: MemModel,
    /// Whether virtual blocking is enabled (the mechanism can also
    /// auto-disable per-futex when not oversubscribed; see `ksync`).
    pub vb_enabled: bool,
    /// Penalties waiting to be charged when a task next runs
    /// (migration refill cost), indexed by task.
    pending_penalty: Vec<u64>,
    /// Online CPUs: offline CPUs are never picked as wake or balance
    /// destinations (CPU elasticity). Its count is `num_online()`.
    online: CpuBits,
    /// Occupied and waiter boards, shared with every
    /// [`crate::rq::CfsRq`]: the balancer's searches walk their set bits
    /// instead of every CPU.
    pub(crate) boards: Rc<RqBoards>,
    /// Active CPUs: exactly those with a current task. Maintained on the
    /// only two transitions (`start`, `stop_current`), so "is this core
    /// running anything" and "how many cores are busy" are O(1) without
    /// striding over `cpus` — the basis of the O(active) mechanism-timer
    /// dispatch.
    active: CpuBits,
    /// Candidates examined by the machine-wide searches (profiling).
    pub scan_visits: ScanVisits,
    /// Reference (pre-overhaul) mode: uncached picks and full-stride
    /// searches. See [`Scheduler::set_reference_mode`].
    pub(crate) reference: bool,
    /// BWD skip flags released by round expiry since the last drain
    /// (consumed via [`Scheduler::take_skips_released`] by the BWD
    /// mechanism's `on_pick` hook for its `skips_cleared` counter).
    skips_released: u64,
}

impl Scheduler {
    /// Build a scheduler for `topo`.
    pub fn new(topo: Topology, params: SchedParams, mem: MemModel, vb_enabled: bool) -> Self {
        let ncpu = topo.num_cpus();
        let boards = Rc::new(RqBoards::new(ncpu));
        let cpus: Vec<CpuState> = (0..ncpu)
            .map(|i| {
                let mut c = CpuState::new(params.rq_lock);
                c.rq.attach_boards(Rc::clone(&boards), i);
                c
            })
            .collect();
        let online = CpuBits::new(ncpu);
        (0..ncpu).for_each(|i| online.set(i, true));
        Scheduler {
            cpus,
            topo,
            params,
            mem,
            vb_enabled,
            pending_penalty: Vec::new(),
            online,
            boards,
            active: CpuBits::new(ncpu),
            scan_visits: ScanVisits::default(),
            reference: false,
            skips_released: 0,
        }
    }

    /// Drain the count of skip flags released by round expiry since the
    /// last call.
    pub fn take_skips_released(&mut self) -> u64 {
        std::mem::take(&mut self.skips_released)
    }

    /// True when `cpu` currently runs a task (O(1) bitset read; equal to
    /// `self.cpus[cpu.0].current.is_some()` by construction).
    #[inline]
    pub fn is_active(&self, cpu: CpuId) -> bool {
        self.active.contains(cpu.0)
    }

    /// Number of CPUs currently running a task, O(1).
    #[inline]
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Cross-check every board against the per-CPU truth: the occupied
    /// board holds exactly the non-empty runqueues, the waiter board
    /// exactly those with a schedulable task, the active set exactly the
    /// CPUs with a current task, and each count its number of members.
    /// Returns `None` when consistent, or a description of the first
    /// mismatch for the watchdog's diagnostics.
    pub fn audit_boards(&self) -> Option<String> {
        let check = |name: &str, set: &CpuBits, truth: fn(&CpuState) -> bool| {
            if let Some(i) = (0..self.cpus.len()).find(|&i| set.contains(i) != truth(&self.cpus[i]))
            {
                let bit = set.contains(i);
                return Some(format!(
                    "{name} board bit for cpu {i} reads {bit}, cpu disagrees"
                ));
            }
            let members = self.cpus.iter().filter(|c| truth(c)).count();
            (set.len() != members)
                .then(|| format!("{name} board counts {} but holds {members} cpus", set.len()))
        };
        check("occupied", &self.boards.occupied, |c| !c.rq.is_empty())
            .or_else(|| {
                check("waiter", &self.boards.waiters, |c| {
                    c.rq.nr_schedulable() > 0
                })
            })
            .or_else(|| check("active", &self.active, |c| c.current.is_some()))
    }

    /// Switch the scheduler to its pre-overhaul reference internals:
    /// every runqueue scans instead of using its pick cache, and the
    /// balancer skips its board fast paths and strides over every CPU
    /// in each machine-wide search. Behaviour is
    /// bit-identical either way (the golden determinism test proves it);
    /// this exists as the baseline for throughput comparisons.
    pub fn set_reference_mode(&mut self, on: bool) {
        self.reference = on;
        for c in &self.cpus {
            c.rq.set_scan_mode(on);
        }
    }

    /// Bring exactly the first `n` CPUs online (CPU elasticity). The caller
    /// is responsible for draining newly-offline runqueues.
    pub fn set_online_count(&mut self, n: usize) {
        (0..self.cpus.len()).for_each(|i| self.online.set(i, i < n));
    }

    /// Number of online CPUs, O(1).
    #[inline]
    pub fn num_online(&self) -> usize {
        self.online.len()
    }

    /// Whether `cpu` is online.
    #[inline]
    pub fn is_online(&self, cpu: CpuId) -> bool {
        self.online.contains(cpu.0)
    }

    /// The nohz idle-kick target: the lowest-numbered online CPU that is
    /// idle (nothing running, no schedulable waiter). The board search
    /// reads it word by word as `online & !active & !waiters`; the
    /// reference engine strides over every CPU's state.
    pub fn nohz_idle_cpu(&mut self) -> Option<CpuId> {
        if self.reference {
            let found = self
                .topo
                .cpu_ids()
                .find(|&c| self.is_online(c) && self.cpus[c.0].is_idle());
            self.scan_visits.kick += found.map_or(self.cpus.len(), |c| c.0 + 1) as u64;
            return found;
        }
        let waiters = &self.boards.waiters;
        let found = (0..self.online.num_words()).find_map(|w| {
            let idle = self.online.word(w) & !self.active.word(w) & !waiters.word(w);
            (idle != 0).then(|| CpuId(w * 64 + idle.trailing_zeros() as usize))
        });
        self.scan_visits.kick += u64::from(found.is_some());
        found
    }

    /// Ensure the pending-penalty table covers `tid`.
    fn ensure_task(&mut self, tid: TaskId) {
        if self.pending_penalty.len() <= tid.0 {
            self.pending_penalty.resize(tid.0 + 1, 0);
        }
    }

    /// Add a pending one-off penalty (cache refill after migration).
    pub fn add_penalty(&mut self, tid: TaskId, ns: u64) {
        self.ensure_task(tid);
        self.pending_penalty[tid.0] += ns;
    }

    /// Take (and clear) the pending penalty for a task.
    pub fn take_penalty(&mut self, tid: TaskId) -> u64 {
        self.ensure_task(tid);
        std::mem::take(&mut self.pending_penalty[tid.0])
    }

    /// Enqueue a brand-new runnable task on `cpu`.
    pub fn enqueue_new(&mut self, tasks: &mut TaskTable, tid: TaskId, cpu: CpuId, now: SimTime) {
        self.ensure_task(tid);
        let rq_min = self.cpus[cpu.0].rq.min_vruntime();
        tasks.state[tid.0] = TaskState::Runnable;
        tasks.last_cpu[tid.0] = cpu;
        tasks.vruntime[tid.0] = tasks.vruntime[tid.0].max(rq_min);
        tasks.runnable_since[tid.0] = now;
        self.cpus[cpu.0].rq.enqueue(tasks, tid);
    }

    /// Time slice for the task currently on `cpu`.
    pub fn slice_for(&self, cpu: CpuId) -> u64 {
        self.params.slice_ns(self.cpus[cpu.0].nr_for_slice())
    }

    /// SMT throughput factor for work on `cpu`: 1.0 when the sibling
    /// hardware thread is idle, else each thread runs at 65 % speed
    /// (a typical combined SMT speedup of 1.3x).
    pub fn smt_factor(&self, cpu: CpuId) -> f64 {
        if self.topo.smt() == 1 {
            return 1.0;
        }
        let busy_sibling = self
            .topo
            .cpu_ids()
            .any(|o| self.topo.siblings(cpu, o) && self.cpus[o.0].current.is_some());
        if busy_sibling {
            0.65
        } else {
            1.0
        }
    }

    /// Pick what `cpu` should do next.
    pub fn pick_next(&mut self, tasks: &mut TaskTable, cpu: CpuId) -> Pick {
        // Expire BWD skip flags whose release round has come: every other
        // schedulable task has been picked at least once since the flag was
        // set.
        let round = self.cpus[cpu.0].pick_round;
        let c = &mut self.cpus[cpu.0];
        if !c.skip_release.is_empty() {
            let before = c.skip_release.len();
            c.skip_release.retain(|&(tid, r)| {
                let expired = round >= r;
                if expired {
                    tasks.bwd_skip[tid.0] = false;
                }
                !expired
            });
            let released_count = (before - c.skip_release.len()) as u64;
            self.skips_released += released_count;
            if released_count > 0 {
                // Skip expiry changes in-tree eligibility without touching
                // the runqueue, so the cached pick may not be leftmost.
                c.rq.invalidate_pick_cache();
            }
        }
        match self.cpus[cpu.0].rq.pick_next(tasks) {
            Some((tid, forced)) => Pick::Run(tid, forced),
            None => match self.cpus[cpu.0].rq.first_vb_parked(tasks) {
                Some(tid) => Pick::VbPoll(tid),
                None => Pick::Idle,
            },
        }
    }

    /// Start running `tid` on `cpu` at `now`. Returns the one-off cost of
    /// the switch: direct context-switch cost plus any cache penalty
    /// (pollution refill if another task ran here since, pending migration
    /// refill).
    pub fn start(&mut self, tasks: &mut TaskTable, cpu: CpuId, tid: TaskId, now: SimTime) -> u64 {
        self.ensure_task(tid);
        let c = &mut self.cpus[cpu.0];
        debug_assert!(c.current.is_none(), "cpu {cpu:?} already running");
        c.pick_round += 1;
        if let Some(i) = c.skip_release.iter().position(|&(t, _)| t == tid) {
            c.skip_release.swap_remove(i);
        }

        let same_as_last = c.last_ran == Some(tid);
        let prev_footprint = c
            .last_ran
            .map(|p| {
                if p == tid {
                    0
                } else {
                    tasks.footprint_bytes[p.0]
                }
            })
            .unwrap_or(0);
        debug_assert!(
            tasks.schedulable(tid),
            "starting unschedulable task {tid:?}"
        );
        tasks.bwd_skip[tid.0] = false;
        tasks.note_run_start(tid, now);
        tasks.state[tid.0] = TaskState::Running;
        c.rq.dequeue(tasks, tid);
        c.current = Some(tid);
        c.curr_since = now;

        // Resuming the task that just ran (e.g. a lone yielder) skips the
        // register/address-space work: only the mode switch is paid.
        let mut cost = if same_as_last {
            self.params.syscall_entry_ns
        } else {
            self.params.ctx_switch_ns
        };
        let footprint = tasks.footprint_bytes[tid.0];
        if !same_as_last && footprint > 0 {
            cost +=
                self.mem
                    .switch_penalty_ns(footprint, prev_footprint, tasks.random_access[tid.0]);
        }
        if tasks.last_cpu[tid.0] != cpu {
            tasks.last_cpu[tid.0] = cpu;
        }
        self.cpus[cpu.0].last_ran = Some(tid);
        self.active.set(cpu.0, true);
        cost + self.take_penalty(tid)
    }

    /// Stop the task currently running on `cpu` at `now`, charging its
    /// vruntime for the stint and applying `reason` semantics. Returns
    /// `None` (and does nothing) if the CPU was idle — a caller bug, but
    /// one the simulation survives instead of tearing down.
    pub fn stop_current(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: SimTime,
        reason: StopReason,
    ) -> Option<TaskId> {
        let c = &mut self.cpus[cpu.0];
        let Some(tid) = c.current.take() else {
            debug_assert!(false, "stop_current on idle cpu {}", cpu.0);
            return None;
        };
        let stint = now.saturating_since(c.curr_since);
        let vruntime =
            tasks.vruntime[tid.0].saturating_add(stint * 1024 / tasks.weight[tid.0].max(1) as u64);
        tasks.vruntime[tid.0] = vruntime;
        c.rq.advance_min_vruntime(vruntime);

        match reason {
            StopReason::Preempted => {
                tasks.state[tid.0] = TaskState::Runnable;
                tasks.runnable_since[tid.0] = now;
                tasks.stats[tid.0].nivcsw += 1;
                c.rq.enqueue(tasks, tid);
                c.time.preemptions += 1;
            }
            StopReason::Yielded => {
                tasks.state[tid.0] = TaskState::Runnable;
                tasks.runnable_since[tid.0] = now;
                tasks.stats[tid.0].nvcsw += 1;
                c.rq.enqueue(tasks, tid);
            }
            StopReason::Sleep => {
                tasks.state[tid.0] = TaskState::Sleeping;
                tasks.stats[tid.0].nvcsw += 1;
            }
            StopReason::VirtualBlock => {
                tasks.state[tid.0] = TaskState::Runnable;
                tasks.stats[tid.0].nvcsw += 1;
                let tail = c.rq.next_vb_tail_vruntime();
                tasks.vb_park(tid, tail);
                c.rq.enqueue(tasks, tid);
            }
            StopReason::Exit => {
                tasks.state[tid.0] = TaskState::Exited;
            }
        }
        c.time.context_switches += 1;
        self.active.set(cpu.0, false);
        Some(tid)
    }

    /// Select the CPU a waking task should run on (vanilla CFS
    /// `select_task_rq_fair` flavour) and the scan cost.
    fn select_cpu(&self, tasks: &TaskTable, tid: TaskId, waker_cpu: CpuId) -> (CpuId, u64) {
        if let Some(p) = tasks.pinned[tid.0] {
            return (p, self.params.wakeup_fixed_ns);
        }
        let scan_cost = self.params.wakeup_fixed_ns
            + self.params.wakeup_scan_per_cpu_ns * self.topo.num_cpus() as u64;

        // Fast path: previous CPU idle (and still online and allowed).
        let last = tasks.last_cpu[tid.0];
        if self.is_online(last) && tasks.allows(tid, last) && self.cpus[last.0].is_idle() {
            return (last, scan_cost);
        }
        // Otherwise pick the least-loaded CPU, preferring the task's node,
        // then the waker's node, then lowest index. Never fall back to an
        // offline or disallowed CPU: if the cpuset excludes every online
        // CPU, place on the first online one (affinity is broken rather
        // than stranding the task, as hotplug does).
        let mut best = self
            .topo
            .cpu_ids()
            .find(|&c| self.is_online(c))
            .unwrap_or(last);
        let mut best_key = (usize::MAX, usize::MAX, usize::MAX);
        let home = self.topo.node_of(last);
        let waker_node = self.topo.node_of(waker_cpu);
        for c in self.topo.cpu_ids() {
            if !self.is_online(c) || !tasks.allows(tid, c) {
                continue;
            }
            let load = self.cpus[c.0].load();
            let node = self.topo.node_of(c);
            let node_pref = if node == home {
                0
            } else if node == waker_node {
                1
            } else {
                2
            };
            let key = (load, node_pref, c.0);
            if key < best_key {
                best_key = key;
                best = c;
            }
        }
        (best, scan_cost)
    }

    /// Vanilla wakeup: place a sleeping task on a CPU, paying the full
    /// `try_to_wake_up` path. The waker runs this code.
    pub fn vanilla_wake(
        &mut self,
        tasks: &mut TaskTable,
        tid: TaskId,
        waker_cpu: CpuId,
        now: SimTime,
    ) -> WakeOutcome {
        self.ensure_task(tid);
        debug_assert_eq!(tasks.state[tid.0], TaskState::Sleeping);
        let (cpu, scan_cost) = self.select_cpu(tasks, tid, waker_cpu);

        // Runqueue lock of the destination (serializes bulk wakeups).
        let grant = self.cpus[cpu.0]
            .rq_lock
            .acquire(now + scan_cost, self.params.rq_lock_hold_ns);
        let cost_ns = grant.end - now;

        let last = tasks.last_cpu[tid.0];
        let migrated = if cpu != last {
            let cross = !self.topo.same_node(cpu, last);
            if cross {
                tasks.stats[tid.0].migrations_remote += 1;
            } else {
                tasks.stats[tid.0].migrations_local += 1;
            }
            let refill = self
                .mem
                .migration_refill_ns(tasks.footprint_bytes[tid.0], cross);
            self.add_penalty(tid, refill);
            Some(cross)
        } else {
            None
        };

        // Sleeper credit placement.
        let rq_min = self.cpus[cpu.0].rq.min_vruntime();
        if self.params.sleeper_credit {
            let floor = rq_min.saturating_sub(self.params.target_latency_ns / 2);
            tasks.vruntime[tid.0] = tasks.vruntime[tid.0].max(floor);
        } else {
            tasks.vruntime[tid.0] = tasks.vruntime[tid.0].max(rq_min);
        }
        tasks.state[tid.0] = TaskState::Runnable;
        tasks.runnable_since[tid.0] = grant.end;
        tasks.note_wake_request(tid, now);
        self.cpus[cpu.0].rq.enqueue(tasks, tid);

        // Wakeup preemption test against the current task on `cpu`
        // (using its effective, stint-adjusted vruntime).
        let preempt = match self.curr_effective_vruntime(tasks, cpu, grant.end) {
            Some(cv) => tasks.vruntime[tid.0] + self.params.wakeup_granularity_ns < cv,
            None => true,
        };
        WakeOutcome {
            cpu,
            cost_ns,
            migrated,
            preempt,
        }
    }

    /// Virtual-blocking wake: clear `thread_state`, restore the true
    /// vruntime, and reposition the task in its (unchanged) runqueue.
    /// Returns `(cpu, cost_ns, preempt)`.
    pub fn vb_wake(
        &mut self,
        tasks: &mut TaskTable,
        tid: TaskId,
        now: SimTime,
    ) -> (CpuId, u64, bool) {
        let cpu = tasks.last_cpu[tid.0];
        let rq_min = self.cpus[cpu.0].rq.min_vruntime();
        debug_assert!(
            tasks.vb_blocked[tid.0],
            "vb_wake on non-parked task {tid:?}"
        );
        let old_vr = tasks.vruntime[tid.0];
        tasks.vb_unpark(tid);
        // Floor the restored vruntime so long-parked tasks do not lag the
        // queue (and get a sleeper-like credit, prioritizing their wake).
        let floor = rq_min.saturating_sub(self.params.target_latency_ns / 2);
        tasks.vruntime[tid.0] = tasks.vruntime[tid.0].max(floor);
        tasks.runnable_since[tid.0] = now;
        tasks.note_wake_request(tid, now);
        self.cpus[cpu.0].rq.requeue(old_vr, true, tasks, tid);

        // VB wakes always request preemption: the paper schedules threads
        // waking from virtual blocking immediately, like real sleepers.
        (cpu, self.params.vb_wake_ns, true)
    }

    /// Set the BWD skip flag on the task running on `cpu` — it will not be
    /// picked again until every other schedulable task there has run once.
    pub fn bwd_mark_skip(&mut self, tasks: &mut TaskTable, cpu: CpuId, tid: TaskId) {
        tasks.bwd_skip[tid.0] = true;
        tasks.stats[tid.0].bwd_deschedules += 1;
        let others = self.cpus[cpu.0].rq.nr_schedulable().max(1) as u64;
        let release = self.cpus[cpu.0].pick_round + others;
        let list = &mut self.cpus[cpu.0].skip_release;
        match list.iter_mut().find(|(t, _)| *t == tid) {
            Some(entry) => entry.1 = release,
            None => list.push((tid, release)),
        }
    }

    /// The effective vruntime of the task currently running on `cpu` at
    /// `now`: its stored vruntime plus the elapsed stint (vruntime is only
    /// materialized at stop). Preemption decisions must use this, not the
    /// stale stored value.
    pub fn curr_effective_vruntime(
        &self,
        tasks: &TaskTable,
        cpu: CpuId,
        now: SimTime,
    ) -> Option<u64> {
        let c = &self.cpus[cpu.0];
        let curr = c.current?;
        let stint = now.saturating_since(c.curr_since);
        Some(
            tasks.vruntime[curr.0]
                .saturating_add(stint * 1024 / tasks.weight[curr.0].max(1) as u64),
        )
    }

    /// The vruntime region boundary for parked tasks (exposed for tests).
    pub fn vb_tail_base() -> u64 {
        VB_TAIL_BASE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SchedParams;
    use oversub_hw::{MemModel, Topology};
    use oversub_task::{Action, FnProgram, Task};

    fn mk_sched(cpus: usize) -> Scheduler {
        Scheduler::new(
            Topology::flat(cpus),
            SchedParams::default(),
            MemModel::default(),
            true,
        )
    }

    fn mk_tasks(n: usize) -> TaskTable {
        let mut tt = TaskTable::new();
        for i in 0..n {
            tt.push(Task::new(
                TaskId(i),
                Box::new(FnProgram::new("nop", |_| Action::Exit)),
                CpuId(0),
            ));
        }
        tt
    }

    #[test]
    fn enqueue_pick_start_stop_cycle() {
        let mut s = mk_sched(1);
        let mut tasks = mk_tasks(2);
        let now = SimTime::ZERO;
        s.enqueue_new(&mut tasks, TaskId(0), CpuId(0), now);
        s.enqueue_new(&mut tasks, TaskId(1), CpuId(0), now);

        let pick = s.pick_next(&mut tasks, CpuId(0));
        let Pick::Run(t0, false) = pick else {
            panic!("expected run, got {pick:?}")
        };
        let cost = s.start(&mut tasks, CpuId(0), t0, now);
        assert!(cost >= s.params.ctx_switch_ns);
        assert_eq!(tasks.state[t0.0], TaskState::Running);
        assert_eq!(s.cpus[0].current, Some(t0));
        assert!(s.is_active(CpuId(0)));
        assert_eq!(s.active_count(), 1);

        // Run 1ms then get preempted; vruntime advances.
        let later = SimTime::from_millis(1);
        let stopped = s.stop_current(&mut tasks, CpuId(0), later, StopReason::Preempted);
        assert_eq!(stopped, Some(t0));
        assert_eq!(tasks.vruntime[t0.0], 1_000_000);
        assert_eq!(tasks.stats[t0.0].nivcsw, 1);
        assert!(!s.is_active(CpuId(0)));
        assert_eq!(s.active_count(), 0);

        // Next pick is the other task (vruntime 0).
        let Pick::Run(t1, _) = s.pick_next(&mut tasks, CpuId(0)) else {
            panic!()
        };
        assert_ne!(t1, t0);
    }

    #[test]
    fn vanilla_wake_prefers_idle_last_cpu() {
        let mut s = mk_sched(2);
        let mut tasks = mk_tasks(1);
        tasks.last_cpu[0] = CpuId(1);
        tasks.state[0] = TaskState::Sleeping;
        s.ensure_task(TaskId(0));
        let out = s.vanilla_wake(&mut tasks, TaskId(0), CpuId(0), SimTime::ZERO);
        assert_eq!(out.cpu, CpuId(1));
        assert!(out.migrated.is_none());
        assert!(out.preempt, "idle cpu should 'preempt' into running");
        assert!(out.cost_ns > 0);
        assert_eq!(tasks.state[0], TaskState::Runnable);
    }

    #[test]
    fn vanilla_wake_migrates_when_last_cpu_busy() {
        let mut s = mk_sched(2);
        let mut tasks = mk_tasks(3);
        // Make cpu0 busy with task1 running and task2 queued.
        s.enqueue_new(&mut tasks, TaskId(1), CpuId(0), SimTime::ZERO);
        s.enqueue_new(&mut tasks, TaskId(2), CpuId(0), SimTime::ZERO);
        let Pick::Run(t, _) = s.pick_next(&mut tasks, CpuId(0)) else {
            panic!()
        };
        s.start(&mut tasks, CpuId(0), t, SimTime::ZERO);
        // task0 slept on cpu0; wake should move it to idle cpu1.
        tasks.last_cpu[0] = CpuId(0);
        tasks.state[0] = TaskState::Sleeping;
        tasks.footprint_bytes[0] = 1 << 20;
        let out = s.vanilla_wake(&mut tasks, TaskId(0), CpuId(0), SimTime::ZERO);
        assert_eq!(out.cpu, CpuId(1));
        assert_eq!(out.migrated, Some(false));
        assert_eq!(tasks.stats[0].migrations_local, 1);
        // Migration penalty is pending.
        assert!(s.take_penalty(TaskId(0)) > 0);
    }

    #[test]
    fn bulk_vanilla_wakes_serialize_on_rq_lock() {
        let mut s = mk_sched(1);
        let n = 8;
        let mut tasks = mk_tasks(n);
        for i in 0..n {
            tasks.state[i] = TaskState::Sleeping;
        }
        let now = SimTime::ZERO;
        let costs: Vec<u64> = (0..n)
            .map(|i| s.vanilla_wake(&mut tasks, TaskId(i), CpuId(0), now).cost_ns)
            .collect();
        // Later wakes wait behind earlier rq-lock holders: cost grows.
        assert!(
            costs[n - 1] > costs[0],
            "serialized wakes should cost more: {costs:?}"
        );
    }

    #[test]
    fn vb_park_and_wake_round_trip() {
        let mut s = mk_sched(1);
        let mut tasks = mk_tasks(2);
        let now = SimTime::ZERO;
        s.enqueue_new(&mut tasks, TaskId(0), CpuId(0), now);
        s.enqueue_new(&mut tasks, TaskId(1), CpuId(0), now);
        let Pick::Run(t, _) = s.pick_next(&mut tasks, CpuId(0)) else {
            panic!()
        };
        s.start(&mut tasks, CpuId(0), t, now);
        let later = SimTime::from_micros(100);
        s.stop_current(&mut tasks, CpuId(0), later, StopReason::VirtualBlock);
        assert!(tasks.vb_blocked[t.0]);
        assert_eq!(s.cpus[0].rq.nr_vb_parked(), 1);
        // The parked task is skipped; the other runs.
        let Pick::Run(other, _) = s.pick_next(&mut tasks, CpuId(0)) else {
            panic!()
        };
        assert_ne!(other, t);
        // Wake it: cheap, no migration, stays on cpu0.
        let (cpu, cost, _preempt) = s.vb_wake(&mut tasks, t, later);
        assert_eq!(cpu, CpuId(0));
        assert_eq!(cost, s.params.vb_wake_ns);
        assert!(!tasks.vb_blocked[t.0]);
        assert_eq!(tasks.stats[t.0].migrations_local, 0);
        assert_eq!(s.cpus[0].rq.nr_vb_parked(), 0);
        assert_eq!(s.cpus[0].rq.nr_schedulable(), 2);
    }

    #[test]
    fn vb_poll_when_everyone_parked() {
        let mut s = mk_sched(1);
        let mut tasks = mk_tasks(1);
        let now = SimTime::ZERO;
        s.enqueue_new(&mut tasks, TaskId(0), CpuId(0), now);
        let Pick::Run(t, _) = s.pick_next(&mut tasks, CpuId(0)) else {
            panic!()
        };
        s.start(&mut tasks, CpuId(0), t, now);
        s.stop_current(&mut tasks, CpuId(0), now, StopReason::VirtualBlock);
        assert_eq!(s.pick_next(&mut tasks, CpuId(0)), Pick::VbPoll(t));
    }

    #[test]
    fn bwd_skip_is_released_after_others_run() {
        let mut s = mk_sched(1);
        let mut tasks = mk_tasks(2);
        let now = SimTime::ZERO;
        s.enqueue_new(&mut tasks, TaskId(0), CpuId(0), now);
        s.enqueue_new(&mut tasks, TaskId(1), CpuId(0), now);
        let Pick::Run(spinner, _) = s.pick_next(&mut tasks, CpuId(0)) else {
            panic!()
        };
        s.start(&mut tasks, CpuId(0), spinner, now);
        // BWD fires on the spinner.
        s.bwd_mark_skip(&mut tasks, CpuId(0), spinner);
        s.stop_current(&mut tasks, CpuId(0), now, StopReason::Preempted);
        // Other task must be picked despite higher/equal vruntime.
        let Pick::Run(other, false) = s.pick_next(&mut tasks, CpuId(0)) else {
            panic!()
        };
        assert_ne!(other, spinner);
        s.start(&mut tasks, CpuId(0), other, now);
        s.stop_current(
            &mut tasks,
            CpuId(0),
            SimTime::from_micros(10),
            StopReason::Preempted,
        );
        // After the other ran, the spinner is pickable again (flag cleared
        // on start).
        let pick = s.pick_next(&mut tasks, CpuId(0));
        match pick {
            Pick::Run(t, _) => {
                s.start(&mut tasks, CpuId(0), t, SimTime::from_micros(10));
                assert!(!tasks.bwd_skip[t.0] || t != spinner);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exit_removes_task() {
        let mut s = mk_sched(1);
        let mut tasks = mk_tasks(1);
        s.enqueue_new(&mut tasks, TaskId(0), CpuId(0), SimTime::ZERO);
        let Pick::Run(t, _) = s.pick_next(&mut tasks, CpuId(0)) else {
            panic!()
        };
        s.start(&mut tasks, CpuId(0), t, SimTime::ZERO);
        s.stop_current(&mut tasks, CpuId(0), SimTime::ZERO, StopReason::Exit);
        assert_eq!(tasks.state[0], TaskState::Exited);
        assert_eq!(s.pick_next(&mut tasks, CpuId(0)), Pick::Idle);
    }

    #[test]
    fn pinned_task_wakes_on_pinned_cpu() {
        let mut s = mk_sched(4);
        let mut tasks = mk_tasks(1);
        tasks.pinned[0] = Some(CpuId(3));
        tasks.last_cpu[0] = CpuId(0);
        tasks.state[0] = TaskState::Sleeping;
        s.ensure_task(TaskId(0));
        let out = s.vanilla_wake(&mut tasks, TaskId(0), CpuId(1), SimTime::ZERO);
        assert_eq!(out.cpu, CpuId(3));
    }

    #[test]
    fn smt_factor_reflects_sibling_activity() {
        let topo = Topology::paper_8_hyperthreads();
        let mut s = Scheduler::new(topo, SchedParams::default(), MemModel::default(), false);
        let mut tasks = mk_tasks(1);
        assert_eq!(s.smt_factor(CpuId(0)), 1.0);
        // Busy sibling on cpu1 slows cpu0.
        s.enqueue_new(&mut tasks, TaskId(0), CpuId(1), SimTime::ZERO);
        let Pick::Run(t, _) = s.pick_next(&mut tasks, CpuId(1)) else {
            panic!()
        };
        s.start(&mut tasks, CpuId(1), t, SimTime::ZERO);
        assert!(s.smt_factor(CpuId(0)) < 1.0);
        assert!(s.smt_factor(CpuId(2)) == 1.0);
    }
}
