//! Opt-in diagnostics: runqueue invariant audits (`OVERSUB_CHECK`) and
//! stall-state dumps (`OVERSUB_DUMP_STALL`).

use super::{Cont, Engine};
use oversub_hw::CpuId;
use oversub_task::TaskId;

impl Engine {
    /// Audit runqueue invariants without panicking: `None` when every
    /// queue is consistent, otherwise a description of the first mismatch
    /// (the watchdog folds it into the report's diagnostics).
    pub(super) fn audit_rqs_check(&self) -> Option<String> {
        for (i, c) in self.sched.cpus.iter().enumerate() {
            let (counter, tree, parked_region) = c.rq.audit(&self.tasks);
            if counter != tree {
                return Some(format!(
                    "cpu {i}: schedulable counter {counter} != tree count {tree} \
                     (parked-region entries {parked_region})"
                ));
            }
        }
        None
    }

    /// Diagnostic: audit runqueue invariants and the scheduler's boards
    /// against them (enabled via OVERSUB_CHECK), dumping queue contents
    /// and panicking on a mismatch.
    pub(super) fn audit_rqs(&self) {
        if let Some(msg) = self.audit_rqs_check().or_else(|| self.sched.audit_boards()) {
            eprintln!("[audit] now={} {msg}", self.now);
            for (i, c) in self.sched.cpus.iter().enumerate() {
                for (vr, tid) in c.rq.entries() {
                    eprintln!(
                        "    cpu{i} entry vr={vr} {tid:?} state={:?} vb={} task.vruntime={}",
                        self.tasks.state[tid.0],
                        self.tasks.vb_blocked[tid.0],
                        self.tasks.vruntime[tid.0]
                    );
                }
            }
            panic!("runqueue audit failed: {msg}");
        }
    }

    /// Diagnostic: print why a run ended with live tasks (stall analysis).
    pub(super) fn dump_stall_state(&self) {
        eprintln!("[stall] live={} now={}", self.live, self.now);
        for i in 0..self.tasks.len() {
            if self.conts[i] != Cont::Done {
                eprintln!(
                    "  task {i}: state={:?} vb={} skip={} cpu={:?} cont={:?} blocked_on_futex={}",
                    self.tasks.state[i],
                    self.tasks.vb_blocked[i],
                    self.tasks.bwd_skip[i],
                    self.tasks.last_cpu[i],
                    self.conts[i],
                    self.futex.is_blocked(TaskId(i)),
                );
            }
        }
        for (i, c) in self.sched.cpus.iter().enumerate() {
            eprintln!(
                "  cpu {i}: current={:?} sched={} parked={} online={}",
                c.current,
                c.rq.nr_schedulable(),
                c.rq.nr_vb_parked(),
                self.sched.is_online(CpuId(i))
            );
        }
        for (i, l) in self.sync.spinlocks.iter().enumerate() {
            if l.holder().is_some() || l.granted().is_some() || l.num_waiters() > 0 {
                eprintln!(
                    "  spinlock {i}: holder={:?} granted={:?} waiters={:?}",
                    l.holder(),
                    l.granted(),
                    l.waiters()
                );
            }
        }
    }
}
