//! Per-CPU scheduler state.

use crate::rq::CfsRq;
use oversub_hw::CoreHw;
use oversub_simcore::{KernelLock, KernelLockParams, SimTime};
use oversub_task::TaskId;

/// Breakdown of where a CPU's time went — the basis of the paper's
/// "CPU utilization" column in Table 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimeStats {
    /// Time executing program work (compute / memory / critical sections).
    pub useful_ns: u64,
    /// Time burnt in busy-wait loops.
    pub spin_ns: u64,
    /// Kernel overhead: context switches, wakeup paths, balancing, VB polls.
    pub kernel_ns: u64,
    /// Idle time.
    pub idle_ns: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Involuntary preemptions among those.
    pub preemptions: u64,
}

impl CpuTimeStats {
    /// Total accounted time.
    pub fn total_ns(&self) -> u64 {
        self.useful_ns + self.spin_ns + self.kernel_ns + self.idle_ns
    }

    /// Busy (non-idle) time.
    pub fn busy_ns(&self) -> u64 {
        self.useful_ns + self.spin_ns + self.kernel_ns
    }
}

/// State of one logical CPU.
pub struct CpuState {
    /// The CFS runqueue.
    pub rq: CfsRq,
    /// Currently running task, if any.
    pub current: Option<TaskId>,
    /// When the current task started its on-CPU stint.
    pub curr_since: SimTime,
    /// The runqueue spinlock (contended during bulk wakeups).
    pub rq_lock: KernelLock,
    /// Monitored hardware state (LBR + PMCs) for BWD.
    pub hw: CoreHw,
    /// The task that most recently ran here (cache-pollution tracking).
    pub last_ran: Option<TaskId>,
    /// Monotone counter of picks, used to expire BWD skip flags.
    pub pick_round: u64,
    /// `(task, pick_round)` at which each BWD skip flag here expires, at
    /// most one entry per task. Unordered: every use (expire on pick, drop
    /// on start, set on mark) is a linear pass over the few flagged tasks
    /// whose result does not depend on order.
    pub skip_release: Vec<(TaskId, u64)>,
    /// Time accounting.
    pub time: CpuTimeStats,
    /// Virtual time up to which this CPU's time has been accounted.
    pub accounted_until: SimTime,
}

impl CpuState {
    /// Fresh CPU state.
    pub fn new(rq_lock_params: KernelLockParams) -> Self {
        CpuState {
            rq: CfsRq::new(),
            current: None,
            curr_since: SimTime::ZERO,
            rq_lock: KernelLock::new(rq_lock_params),
            hw: CoreHw::new(),
            last_ran: None,
            pick_round: 0,
            skip_release: Vec::new(),
            time: CpuTimeStats::default(),
            accounted_until: SimTime::ZERO,
        }
    }

    /// True if nothing is running and nothing schedulable is queued.
    pub fn is_idle(&self) -> bool {
        self.current.is_none() && self.rq.nr_schedulable() == 0
    }

    /// Load metric used by wake placement and balancing: queued tasks
    /// (including the running one). VB-parked tasks count — that is the
    /// mechanism that keeps load stable under VB.
    pub fn load(&self) -> usize {
        self.rq.nr_queued() + usize::from(self.current.is_some())
    }

    /// Schedulable depth (for slice computation): runnable + running.
    pub fn nr_for_slice(&self) -> usize {
        self.rq.nr_schedulable() + usize::from(self.current.is_some())
    }

    /// Account a span of idle time ending at `now`.
    pub fn account_idle(&mut self, now: SimTime) {
        let span = now.saturating_since(self.accounted_until);
        self.time.idle_ns += span;
        self.accounted_until = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cpu_is_idle() {
        let c = CpuState::new(KernelLockParams::default());
        assert!(c.is_idle());
        assert_eq!(c.load(), 0);
        assert_eq!(c.nr_for_slice(), 0);
    }

    #[test]
    fn time_stats_sum() {
        let s = CpuTimeStats {
            useful_ns: 10,
            spin_ns: 5,
            kernel_ns: 3,
            idle_ns: 2,
            ..CpuTimeStats::default()
        };
        assert_eq!(s.total_ns(), 20);
        assert_eq!(s.busy_ns(), 18);
    }

    #[test]
    fn idle_accounting_advances_cursor() {
        let mut c = CpuState::new(KernelLockParams::default());
        c.account_idle(SimTime::from_nanos(500));
        assert_eq!(c.time.idle_ns, 500);
        c.account_idle(SimTime::from_nanos(700));
        assert_eq!(c.time.idle_ns, 700);
        assert_eq!(c.accounted_until, SimTime::from_nanos(700));
    }
}
