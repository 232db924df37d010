//! Segment bookkeeping and the mechanism-driven deschedule paths: the
//! periodic monitoring timer ([`Engine::on_mech_timer`], BWD's home) and
//! the armed spin exit ([`Engine::on_spin_exit`], PLE's home).

use super::{Cont, Engine, Event, RunKind, SegEventKind, Timer};
use crate::mechanism::TimerCtx;
use crate::trace::TraceKind;
use oversub_hw::CpuId;
use oversub_simcore::SimTime;
use oversub_task::{SpinSig, TaskId};

impl Engine {
    /// A mechanism's periodic monitoring timer fired on `cpu`. The
    /// mechanism inspects the core's monitoring window and returns a
    /// verdict; the engine applies it (charging the check cost, shifting
    /// the interrupted segment, and descheduling with or without the skip
    /// flag).
    pub(crate) fn on_mech_timer(&mut self, idx: usize, cpu: usize) {
        let Some(interval_ns) = self.timer_intervals[idx] else {
            return;
        };
        // Tickless idle (see `tickless`): the second quiet tick in a row
        // suspends its timer instead of re-arming it.
        let quiet = self.quiet_tick(idx, cpu);
        if quiet && self.suspends(cpu) {
            self.suspend_tick(cpu);
            return;
        }
        // Re-arm first so detection handling cannot drop the timer. An
        // injected drop still re-arms (the interrupt is lost, not the
        // timer); injected jitter perturbs the re-arm point. Under
        // auto-cadence (fault-free optimized runs) the queue already
        // rotated this timer one interval ahead during the pop — the
        // re-arm below would compute the identical key.
        if !self.queue.last_pop_rotated() {
            let mut rearm_at = self.now + interval_ns;
            let mut dropped = false;
            if let Some(f) = self.faults.as_mut() {
                dropped = f.drop_timer();
                if !dropped {
                    rearm_at += f.timer_jitter();
                }
            }
            self.queue
                .schedule_cadenced(rearm_at, interval_ns, Event::MechTimer(idx, cpu));
            if dropped {
                return;
            }
        }
        if !self.sched.is_online(CpuId(cpu)) {
            return;
        }
        if quiet {
            self.take_quiet_tick(cpu);
            return;
        }
        // Idle-quiet batch path for ticks tickless does not take (adaptive
        // backoff advances per-tick state; salted runs keep every tick):
        // mechanisms opt into handling an idle core with an untouched
        // window without a `TimerCtx` (`MechanismSet::dispatch_timer_batch`),
        // so full dispatches scale with the scheduler's active-core bitset,
        // not with machine size. Residual windows (a descheduled task's
        // traces), armed faults, and the reference engine all take the
        // full path.
        if !self.reference
            && self.faults.is_none()
            && !self.sched.is_active(CpuId(cpu))
            && self.sched.cpus[cpu].hw.window_untouched()
        {
            if let Some(charge) = self.mechs.dispatch_timer_batch(idx, cpu) {
                self.catch_up_ticks(cpu);
                self.account_idle_ticks(cpu, self.now, self.now, 1, charge);
                return;
            }
        }
        self.account_progress(cpu, self.now);
        let had_current = self.sched.cpus[cpu].current;
        let real_spin = matches!(self.run_kind[cpu], RunKind::Spin(_));
        let sensor_flip = self.faults.as_mut().is_some_and(|f| f.flip_sensor());
        let verdict = {
            let mechs = &mut self.mechs;
            let mut ctx = TimerCtx {
                cpu,
                now: self.now,
                hw: &mut self.sched.cpus[cpu].hw,
                has_current: had_current.is_some(),
                real_spin,
                sensor_flip,
            };
            mechs.get_mut(idx).on_timer(&mut ctx)
        };
        // The timer interrupt itself steals a little time from the task.
        if had_current.is_some() {
            self.shift_segment(cpu, verdict.charge_ns);
        }
        self.charge_kernel(cpu, verdict.charge_ns);

        if !verdict.deschedule {
            return;
        }
        let Some(tid) = had_current else { return };
        // Deschedule, with the skip flag when the verdict asks for it.
        let t = self.sched.cpus[cpu].accounted_until;
        self.trace.record(t, cpu, tid, TraceKind::BwdDeschedule);
        self.save_partial_progress(cpu, tid);
        if verdict.set_skip {
            self.sched.bwd_mark_skip(&mut self.tasks, CpuId(cpu), tid);
        }
        self.sched.stop_current(
            &mut self.tasks,
            CpuId(cpu),
            t,
            oversub_sched::StopReason::Preempted,
        );
        self.end_stint(cpu);
        self.sched_resched(t, cpu);
    }

    /// The spin exit a mechanism armed at segment start fired while the
    /// task is still busy-waiting: charge the exit cost and deschedule.
    /// For PLE this is the VM exit + directed yield — the spinner is
    /// descheduled but (per the verdict) gets no skip flag, CFS will bring
    /// it back soon, and the mechanism's adaptive window doubles so future
    /// exits get rarer. This is why PLE barely helps.
    pub(crate) fn on_spin_exit(&mut self, cpu: usize, epoch: u64) {
        if epoch != self.seg_epoch[cpu] {
            debug_assert!(self.queue.is_classic(), "superseded spin exit popped");
            return;
        }
        let Some(tid) = self.sched.cpus[cpu].current else {
            return;
        };
        if !matches!(self.run_kind[cpu], RunKind::Spin(_)) {
            return;
        }
        let Some((_, idx)) = self.spin_exit_at[cpu] else {
            return;
        };
        self.account_progress(cpu, self.now);
        let verdict = self.mechs.get_mut(idx).on_spin_exit(cpu, tid);
        self.charge_kernel(cpu, verdict.charge_ns);
        self.trace.record(self.now, cpu, tid, TraceKind::PleExit);
        let t = self.now + verdict.charge_ns;
        self.save_partial_progress(cpu, tid);
        if verdict.set_skip {
            self.sched.bwd_mark_skip(&mut self.tasks, CpuId(cpu), tid);
        }
        self.sched.stop_current(
            &mut self.tasks,
            CpuId(cpu),
            t,
            oversub_sched::StopReason::Preempted,
        );
        self.end_stint(cpu);
        self.sched_resched(t, cpu);
    }

    // ---------------------------------------------------------------
    // Segment helpers
    // ---------------------------------------------------------------

    /// Arm `cpu`'s `timer` for `at`, replacing its pending one, tagged
    /// with the current stint or segment epoch.
    pub(crate) fn arm_timer(&mut self, cpu: usize, timer: Timer, at: SimTime) {
        let ev = match timer {
            Timer::Slice => Event::Slice(cpu, self.stint_epoch[cpu]),
            Timer::SegEnd => Event::SegEnd(cpu, self.seg_epoch[cpu]),
            Timer::SpinExit => Event::SpinExit(cpu, self.seg_epoch[cpu]),
        };
        self.queue.schedule_slot(timer.slot(cpu), at, ev);
    }

    /// `cpu`'s task left it (stopped, blocked, yielded, exited): retire
    /// the stint's slice timer and the current segment.
    pub(crate) fn end_stint(&mut self, cpu: usize) {
        self.stint_epoch[cpu] += 1;
        self.queue.clear_slot(Timer::Slice.slot(cpu));
        self.end_segment(cpu);
    }

    /// `cpu`'s current segment is over: retire its end and spin-exit
    /// timers. The next segment, if any, arms its own.
    pub(crate) fn end_segment(&mut self, cpu: usize) {
        self.seg_epoch[cpu] += 1;
        self.seg_event[cpu] = SegEventKind::None;
        self.spin_exit_at[cpu] = None;
        self.queue.clear_slot(Timer::SegEnd.slot(cpu));
        self.queue.clear_slot(Timer::SpinExit.slot(cpu));
    }

    /// Record how much of the current segment's work remains, updating the
    /// task's continuation. Call after `account_progress` and before
    /// `stop_current`.
    pub(crate) fn save_partial_progress(&mut self, cpu: usize, tid: TaskId) {
        let t = self.sched.cpus[cpu].accounted_until;
        match self.conts[tid.0] {
            Cont::Work { action, .. } => {
                let remaining_scaled = self.seg_done_at[cpu].saturating_since(t);
                let left = (remaining_scaled as f64 * self.seg_rate[cpu]) as u64;
                self.conts[tid.0] = Cont::Work {
                    action,
                    left_ns: left,
                };
            }
            Cont::SpinLock {
                lock,
                is_mutex,
                sig,
                budget_left,
            } if budget_left.is_some() => {
                let left = self.seg_done_at[cpu].saturating_since(t);
                self.conts[tid.0] = Cont::SpinLock {
                    lock,
                    is_mutex,
                    sig,
                    budget_left: Some(left),
                };
            }
            _ => {}
        }
    }

    /// Push the current segment's end (and any armed spin exit) `delta`
    /// nanoseconds into the future — used when timer interrupts steal time
    /// from the running task.
    pub(crate) fn shift_segment(&mut self, cpu: usize, delta: u64) {
        if self.sched.cpus[cpu].current.is_none() {
            return;
        }
        self.seg_epoch[cpu] += 1;
        self.seg_done_at[cpu] += delta;
        match self.seg_event[cpu] {
            SegEventKind::WorkEnd | SegEventKind::ParkDeadline => {
                self.arm_timer(cpu, Timer::SegEnd, self.seg_done_at[cpu]);
            }
            SegEventKind::None => {}
        }
        if let Some((p, idx)) = self.spin_exit_at[cpu] {
            let np = p + delta;
            self.spin_exit_at[cpu] = Some((np, idx));
            self.arm_timer(cpu, Timer::SpinExit, np);
        }
    }

    // ---------------------------------------------------------------
    // Segment scheduling
    // ---------------------------------------------------------------

    pub(crate) fn begin_work_segment(&mut self, cpu: usize, tid: TaskId, t: SimTime) {
        self.begin_work_segment_kind(cpu, tid, t, RunKind::Useful);
    }

    pub(crate) fn begin_work_segment_kind(
        &mut self,
        cpu: usize,
        tid: TaskId,
        t: SimTime,
        kind: RunKind,
    ) {
        let Cont::Work { left_ns, .. } = self.conts[tid.0] else {
            // A work segment can only be begun for a task holding a Work
            // continuation; record the inconsistency and skip the segment
            // rather than tearing the run down.
            debug_assert!(false, "work segment without Work cont");
            self.push_diagnostic(
                "cont-mismatch",
                Some(tid.0),
                Some(cpu),
                format!(
                    "work segment requested with {:?} continuation",
                    self.conts[tid.0]
                ),
            );
            return;
        };
        let rate = self.sched.smt_factor(CpuId(cpu));
        let scaled = (left_ns as f64 / rate).ceil() as u64;
        self.end_segment(cpu);
        self.seg_rate[cpu] = rate;
        self.run_kind[cpu] = kind;
        self.seg_done_at[cpu] = t + scaled.max(1);
        self.seg_event[cpu] = SegEventKind::WorkEnd;
        self.arm_timer(cpu, Timer::SegEnd, self.seg_done_at[cpu]);
    }

    pub(crate) fn begin_spin_segment(
        &mut self,
        cpu: usize,
        tid: TaskId,
        sig: SpinSig,
        budget: Option<u64>,
        t: SimTime,
    ) {
        self.end_segment(cpu);
        self.seg_rate[cpu] = 1.0;
        self.run_kind[cpu] = RunKind::Spin(sig);
        match budget {
            Some(b) => {
                self.seg_done_at[cpu] = t + b.max(1);
                self.seg_event[cpu] = SegEventKind::ParkDeadline;
                self.arm_timer(cpu, Timer::SegEnd, self.seg_done_at[cpu]);
            }
            None => self.seg_done_at[cpu] = SimTime::NEVER,
        }
        // Offer the segment to the pipeline; the first mechanism that can
        // see this loop (PLE's visibility rules) arms a spin exit.
        let armed = if self.mechs.is_empty() {
            None
        } else {
            self.mechs.arm_spin_exit(cpu, tid, &sig, self.cfg.env, t)
        };
        if let Some((at, idx)) = armed {
            self.spin_exit_at[cpu] = Some((at, idx));
            self.arm_timer(cpu, Timer::SpinExit, at);
        }
    }
}
