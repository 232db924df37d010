//! Kernel blocking wrappers (futex wait/wake with mechanism hooks) and
//! the cross-CPU lock grant / flag release paths.

use super::{Cont, Engine, Event, Resume};
use crate::trace::TraceKind;
use oversub_hw::CpuId;
use oversub_ksync::{WaitMode, Woken};
use oversub_locks::LockKey;
use oversub_simcore::SimTime;
use oversub_task::{FutexKey, LockId, TaskId, TaskState};

impl Engine {
    pub(crate) fn do_futex_wait(
        &mut self,
        cpu: usize,
        tid: TaskId,
        key: FutexKey,
        resume: Resume,
        t: SimTime,
    ) {
        self.rc_futex_wait(tid, key);
        let out = self
            .futex
            .futex_wait(&mut self.sched, &mut self.tasks, tid, key, CpuId(cpu), t);
        if !self.mechs.is_empty() {
            self.mechs.on_block(cpu, tid, out.mode);
        }
        self.trace.record(
            t,
            cpu,
            tid,
            match out.mode {
                WaitMode::Sleep => TraceKind::Sleep,
                WaitMode::Virtual => TraceKind::VbPark,
            },
        );
        self.charge_kernel(cpu, out.cost_ns);
        self.conts[tid.0] = Cont::Blocked(resume);
        if out.mode == WaitMode::Virtual {
            if let Some(s) = self.vb_park_since.get_mut(tid.0) {
                *s = Some(t);
            }
        }
        self.end_stint(cpu);
        self.sched_resched(t + out.cost_ns, cpu);
    }

    pub(crate) fn do_futex_wake(&mut self, cpu: usize, key: FutexKey, n: usize, t: SimTime) -> u64 {
        let report = self
            .futex
            .futex_wake(&mut self.sched, &mut self.tasks, key, n, CpuId(cpu), t);
        self.rc_futex_wake(cpu, key, &report.woken);
        self.charge_kernel(cpu, report.waker_cost_ns);
        let done = t + report.waker_cost_ns;
        self.post_wake_events(&report.woken, done);
        report.waker_cost_ns
    }

    /// Schedule follow-up events for a batch of woken tasks.
    pub(crate) fn post_wake_events(&mut self, woken: &[Woken], done: SimTime) {
        for &w in woken {
            if w.mode == WaitMode::Virtual {
                if self.faults.as_mut().is_some_and(|f| f.lose_wakeup()) {
                    // Injected lost wakeup: the futex layer already
                    // dequeued the waiter, but the unpark never lands —
                    // re-park the task in place with no registered waker
                    // (the classic lost-wakeup bug the watchdog hunts).
                    let old_vr = self.tasks.vruntime[w.task.0];
                    let tail = self.sched.cpus[w.cpu.0].rq.next_vb_tail_vruntime();
                    self.tasks.vb_park(w.task, tail);
                    self.sched.cpus[w.cpu.0]
                        .rq
                        .requeue(old_vr, false, &self.tasks, w.task);
                    if let Some(s) = self.vb_park_since.get_mut(w.task.0) {
                        *s = Some(done);
                    }
                    self.trace.record(done, w.cpu.0, w.task, TraceKind::VbPark);
                    continue;
                }
                if let Some(s) = self.vb_park_since.get_mut(w.task.0) {
                    *s = None;
                }
            }
            if !self.mechs.is_empty() {
                self.mechs.on_wake(w.task, w.mode);
            }
            self.trace.record(done, w.cpu.0, w.task, TraceKind::Wake);
            let delay = self.wake_resched_delay(w.cpu.0);
            self.sched_resched(done + delay, w.cpu.0);
            if w.preempt && self.sched.cpus[w.cpu.0].current.is_some() {
                self.queue
                    .schedule(done + delay, Event::PreemptCheck(w.cpu.0));
            }
            // nohz idle kick: if the woken task landed on a busy queue
            // while another CPU sits idle, poke one idle CPU so its idle
            // balance can pull the waiter over (as CFS does at wakeup).
            if self.sched.cpus[w.cpu.0].current.is_some() {
                if let Some(c) = self.sched.nohz_idle_cpu() {
                    self.sched_resched(done, c.0);
                }
            }
        }
    }

    /// Extra delay before a VB-woken task starts on a semi-idle core whose
    /// queue holds only parked tasks: the flag-poll rotation latency.
    pub(crate) fn wake_resched_delay(&mut self, cpu: usize) -> u64 {
        let c = &self.sched.cpus[cpu];
        if c.current.is_none() && c.rq.nr_schedulable() == 0 && c.rq.nr_vb_parked() > 0 {
            // The delay itself is attributed by account_progress (the CPU
            // sits in its poll rotation, which we book as idle time), so
            // only the latency is returned here — adding it to kernel_ns
            // as well would double-count the interval.
            let parked = c.rq.nr_vb_parked().min(8) as u64;
            self.cfg.sched.vb_poll_ns * parked
        } else {
            0
        }
    }

    /// A spin-then-park waiter's budget expired: convert to a futex park.
    pub(crate) fn park_spinner(&mut self, cpu: usize, tid: TaskId, t: SimTime) {
        let Cont::SpinLock { lock, is_mutex, .. } = self.conts[tid.0] else {
            return;
        };
        debug_assert!(is_mutex, "only mutex kinds have park deadlines");
        self.sync.mutexes[lock.0].note_parked(tid);
        let futex = self.sync.mutexes[lock.0].futex_key_for(tid);
        self.do_futex_wait(cpu, tid, futex, Resume::MutexRetry(lock), t);
    }

    // -----------------------------------------------------------------
    // Lock grants and flag releases across CPUs
    // -----------------------------------------------------------------

    /// A release designated `w` as the next holder. If `w` is running
    /// (spinning) somewhere, interrupt it so it claims now; otherwise it
    /// claims when next scheduled (the lock-holder-preemption case: the
    /// hand-off latency is the victim's scheduling delay).
    pub(crate) fn deliver_grant(&mut self, w: TaskId, is_mutex: bool, lock: LockId, t: SimTime) {
        if self.tasks.state[w.0] != TaskState::Running {
            return;
        }
        let wcpu = self.tasks.last_cpu[w.0].0;
        debug_assert_eq!(self.sched.cpus[wcpu].current, Some(w));
        let t2 = t.max_of(self.sched.cpus[wcpu].accounted_until);
        self.account_progress(wcpu, t2);
        self.end_segment(wcpu);
        let claimed = if is_mutex {
            self.sync.mutexes[lock.0].try_claim(w)
        } else {
            self.sync.spinlocks[lock.0].try_claim(w)
        };
        // A designated heir is always claimable; if the lock state machine
        // ever disagrees, record the inconsistency and leave the waiter
        // spinning (it will retry on its next schedule) instead of
        // panicking mid-run.
        let Some(cost) = claimed else {
            self.push_diagnostic(
                "lock-grant-mismatch",
                Some(w.0),
                Some(wcpu),
                format!("designated heir of lock {} could not claim it", lock.0),
            );
            return;
        };
        let key = if is_mutex {
            LockKey::mutex(lock.0)
        } else {
            LockKey::spin(lock.0)
        };
        self.ld_acquired(w, key, t2);
        self.charge_useful(wcpu, cost);
        self.conts[w.0] = Cont::Ready;
        self.advance_task(wcpu, t2 + cost);
    }

    /// Barging release: the lock is free; the first *running* spinner (by
    /// CPU index) claims it immediately.
    pub(crate) fn barge_check(&mut self, l: LockId, t: SimTime) {
        // Find a running waiter of this spinlock.
        let waiter = self
            .sched
            .cpus
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.current.map(|tid| (i, tid)))
            .find(|&(_, tid)| {
                matches!(
                    self.conts[tid.0],
                    Cont::SpinLock { lock, is_mutex: false, .. } if lock == l
                )
            });
        if let Some((wcpu, w)) = waiter {
            let t2 = t.max_of(self.sched.cpus[wcpu].accounted_until);
            self.account_progress(wcpu, t2);
            self.end_segment(wcpu);
            // The lock was just released with no designated heir, so a
            // running spinner must win the barge; on a state-machine
            // disagreement, record it and let the spinner keep spinning.
            let Some(cost) = self.sync.spinlocks[l.0].try_claim(w) else {
                self.push_diagnostic(
                    "lock-grant-mismatch",
                    Some(w.0),
                    Some(wcpu),
                    format!("barging spinner could not claim free spinlock {}", l.0),
                );
                return;
            };
            self.ld_acquired(w, LockKey::spin(l.0), t2);
            self.charge_useful(wcpu, cost);
            self.conts[w.0] = Cont::Ready;
            self.advance_task(wcpu, t2 + cost);
        }
    }

    /// A flag changed and `w`'s spin condition is satisfied.
    pub(crate) fn release_flag_spinner(&mut self, w: TaskId, t: SimTime) {
        match self.tasks.state[w.0] {
            TaskState::Running => {
                let wcpu = self.tasks.last_cpu[w.0].0;
                let t2 = t.max_of(self.sched.cpus[wcpu].accounted_until);
                self.account_progress(wcpu, t2);
                self.conts[w.0] = Cont::Ready;
                self.end_segment(wcpu);
                self.advance_task(wcpu, t2);
            }
            _ => {
                // Descheduled mid-spin: its accumulated spin time is
                // already accounted; it proceeds when next scheduled.
                self.conts[w.0] = Cont::Ready;
            }
        }
    }
}
