//! Property test of the board-driven balancer searches: a scheduler whose
//! `periodic_balance`, `idle_pull` and nohz-kick searches walk the
//! occupied/waiter/online bitsets must make exactly the decisions of a
//! reference-mode twin that strides over every CPU, under arbitrary
//! enqueue/start/stop/park/wake sequences on machines of one, two and
//! three bitset words.

use oversub_hw::{CpuId, MemModel, Topology};
use oversub_sched::{MigrationEvent, Pick, SchedParams, Scheduler, StopReason};
use oversub_simcore::SimTime;
use oversub_task::{Action, FnProgram, Task, TaskId, TaskState, TaskTable};
use proptest::prelude::*;

const TASKS: usize = 24;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Place a not-yet-placed task on a CPU.
    Enqueue(usize, usize),
    /// Pick and start on an idle CPU.
    Run(usize),
    /// Stop a CPU's current task: preempt, yield, sleep, VB-park, exit.
    Stop(usize, usize),
    /// Wake a sleeping (vanilla) or VB-parked task.
    Wake(usize, usize),
    /// BWD-flag a CPU's current task.
    Skip(usize),
    Balance(usize),
    IdlePull(usize),
    Kick,
    /// Bring the first `n` CPUs online (clamped to 1..=ncpu).
    Online(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Many placements, balance passes and steals hit a few low CPUs, so
    // queues grow deep enough to migrate (and a task's affinity mask
    // admits only CPUs below 64 as destinations).
    let cpu = prop_oneof![0usize..3, 0usize..130];
    let any_cpu = 0usize..130;
    proptest::collection::vec(
        prop_oneof![
            (0usize..TASKS, cpu).prop_map(|(t, c)| Op::Enqueue(t, c)),
            (0usize..TASKS, 0usize..3).prop_map(|(t, c)| Op::Enqueue(t, c)),
            any_cpu.clone().prop_map(Op::Run),
            (0usize..3).prop_map(Op::Run),
            (any_cpu.clone(), 0usize..5).prop_map(|(c, r)| Op::Stop(c, r)),
            (0usize..TASKS, any_cpu.clone()).prop_map(|(t, c)| Op::Wake(t, c)),
            any_cpu.clone().prop_map(Op::Skip),
            any_cpu.clone().prop_map(Op::Balance),
            (0usize..3).prop_map(Op::Balance),
            any_cpu.clone().prop_map(Op::IdlePull),
            (0usize..3).prop_map(Op::IdlePull),
            Just(Op::Kick),
            (1usize..131).prop_map(Op::Online),
        ],
        1..300,
    )
}

fn mk_tasks() -> TaskTable {
    let mut tt = TaskTable::new();
    for i in 0..TASKS {
        tt.push(Task::new(
            TaskId(i),
            Box::new(FnProgram::new("nop", |_| Action::Exit)),
            CpuId(0),
        ));
    }
    tt
}

fn mig_key(m: &MigrationEvent) -> (TaskId, CpuId, CpuId, bool) {
    (m.task, m.from, m.to, m.cross_node)
}

/// One scheduler and its task table, driven op by op.
struct Twin {
    s: Scheduler,
    tasks: TaskTable,
}

impl Twin {
    fn new(ncpu: usize, reference: bool) -> Self {
        let topo = Topology::numa(2, ncpu / 2, 1);
        let mut s = Scheduler::new(topo, SchedParams::default(), MemModel::default(), true);
        s.set_reference_mode(reference);
        Twin {
            s,
            tasks: mk_tasks(),
        }
    }

    /// Apply `op` at `now`; returns a comparable trace of what it did.
    fn apply(&mut self, op: Op, placed: &mut [bool], ncpu: usize, now: SimTime) -> String {
        let (s, tasks) = (&mut self.s, &mut self.tasks);
        match op {
            Op::Enqueue(t, c) => {
                if placed[t] {
                    return String::new();
                }
                placed[t] = true;
                s.enqueue_new(tasks, TaskId(t), CpuId(c % ncpu), now);
                "enq".into()
            }
            Op::Run(c) => {
                let cpu = CpuId(c % ncpu);
                if s.cpus[cpu.0].current.is_some() {
                    return String::new();
                }
                let pick = s.pick_next(tasks, cpu);
                if let Pick::Run(t, _) = pick {
                    let cost = s.start(tasks, cpu, t, now);
                    return format!("{pick:?} {cost}");
                }
                format!("{pick:?}")
            }
            Op::Stop(c, r) => {
                let reason = [
                    StopReason::Preempted,
                    StopReason::Yielded,
                    StopReason::Sleep,
                    StopReason::VirtualBlock,
                    StopReason::Exit,
                ][r];
                let cpu = CpuId(c % ncpu);
                if s.cpus[cpu.0].current.is_none() {
                    return String::new();
                }
                format!("{:?}", s.stop_current(tasks, cpu, now, reason))
            }
            Op::Wake(t, c) => {
                if !placed[t] {
                    return String::new();
                }
                if tasks.state[t] == TaskState::Sleeping {
                    let out = s.vanilla_wake(tasks, TaskId(t), CpuId(c % ncpu), now);
                    format!(
                        "{:?} {} {:?} {}",
                        out.cpu, out.cost_ns, out.migrated, out.preempt
                    )
                } else if tasks.vb_blocked[t] {
                    format!("{:?}", s.vb_wake(tasks, TaskId(t), now))
                } else {
                    String::new()
                }
            }
            Op::Skip(c) => {
                let cpu = CpuId(c % ncpu);
                let Some(t) = s.cpus[cpu.0].current else {
                    return String::new();
                };
                s.bwd_mark_skip(tasks, cpu, t);
                "skip".into()
            }
            Op::Balance(c) => {
                let (migs, cost) = s.periodic_balance(tasks, CpuId(c % ncpu));
                let keys: Vec<_> = migs.iter().map(mig_key).collect();
                format!("balance {keys:?} {cost}")
            }
            Op::IdlePull(c) => {
                let (mig, cost) = s.idle_pull(tasks, CpuId(c % ncpu));
                format!("pull {:?} {cost}", mig.as_ref().map(mig_key))
            }
            Op::Kick => format!("kick {:?}", s.nohz_idle_cpu()),
            Op::Online(n) => {
                s.set_online_count(n.clamp(1, ncpu));
                "online".into()
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn board_searches_match_full_strides(ops in arb_ops(), size in 0usize..3) {
        let ncpu = [4, 70, 130][size];
        let mut fast = Twin::new(ncpu, false);
        let mut slow = Twin::new(ncpu, true);
        let mut placed_fast = [false; TASKS];
        let mut placed_slow = [false; TASKS];
        for (i, &op) in ops.iter().enumerate() {
            let now = SimTime::from_micros(i as u64 * 50);
            let a = fast.apply(op, &mut placed_fast, ncpu, now);
            let b = slow.apply(op, &mut placed_slow, ncpu, now);
            prop_assert_eq!(&a, &b, "op {} {:?} diverged", i, op);
            prop_assert_eq!(fast.s.audit_boards(), None, "after op {} {:?}", i, op);
            prop_assert_eq!(slow.s.audit_boards(), None, "after op {} {:?}", i, op);
        }
        for t in 0..TASKS {
            prop_assert_eq!(fast.tasks.vruntime[t], slow.tasks.vruntime[t]);
            prop_assert_eq!(fast.tasks.last_cpu[t], slow.tasks.last_cpu[t]);
            prop_assert_eq!(fast.tasks.state[t], slow.tasks.state[t]);
        }
        let (f, r) = (fast.s.scan_visits, slow.s.scan_visits);
        prop_assert!(f.balance <= r.balance && f.idle_pull <= r.idle_pull && f.kick <= r.kick,
            "board searches visited more CPUs than full strides: {:?} vs {:?}", f, r);
    }
}

/// The property above is only as strong as the migrations it sees: on a
/// three-word machine, queues piled up in the second and third words must
/// make both searches migrate, from the same sources as the full strides,
/// while the board walks visit only the occupied queues.
#[test]
fn board_searches_migrate_on_a_three_word_machine() {
    let ncpu = 130;
    let mut fast = Twin::new(ncpu, false);
    let mut slow = Twin::new(ncpu, true);
    let mut placed = ([false; TASKS], [false; TASKS]);
    let now = SimTime::ZERO;
    let mut both = |op| {
        let a = fast.apply(op, &mut placed.0, ncpu, now);
        assert_eq!(a, slow.apply(op, &mut placed.1, ncpu, now), "{op:?}");
        a
    };
    for t in 0..TASKS {
        both(Op::Enqueue(t, if t < 12 { 70 } else { 129 }));
    }
    // Equal waiters on 70 and 129: the tie goes to the lower CPU.
    let pulled = both(Op::IdlePull(1));
    assert!(pulled.contains("CpuId(70), CpuId(1)"), "{pulled}");
    // 129 now carries the most load and gives up tasks.
    let balanced = both(Op::Balance(2));
    assert!(balanced.contains("CpuId(129), CpuId(2)"), "{balanced}");
    assert_eq!(fast.s.audit_boards(), None);
    let (f, r) = (fast.s.scan_visits, slow.s.scan_visits);
    assert_eq!((f.idle_pull, f.balance), (2, 3), "board visits {f:?}");
    assert_eq!((r.idle_pull, r.balance), (129, 129), "stride visits {r:?}");
}

/// The busiest-source search must walk every occupied queue, not only
/// those with waiters: a queue whose load is all VB-parked tasks can be
/// the busiest, and then the pass migrates nothing even though a lighter
/// queue has a movable waiter.
#[test]
fn parked_only_source_shadows_a_waiter_source() {
    let ncpu = 70;
    let mut fast = Twin::new(ncpu, false);
    let mut slow = Twin::new(ncpu, true);
    let mut placed = ([false; TASKS], [false; TASKS]);
    let now = SimTime::ZERO;
    let mut both = |op| {
        let a = fast.apply(op, &mut placed.0, ncpu, now);
        assert_eq!(a, slow.apply(op, &mut placed.1, ncpu, now), "{op:?}");
        a
    };
    // Three tasks parked on cpu 5 (load 3, no waiter)...
    for t in 0..3 {
        both(Op::Enqueue(t, 5));
        both(Op::Run(5));
        both(Op::Stop(5, 3));
    }
    // ...and two waiters on cpu 6 (load 2).
    both(Op::Enqueue(3, 6));
    both(Op::Enqueue(4, 6));
    assert_eq!(both(Op::Balance(7)), "balance [] 2000");
}
