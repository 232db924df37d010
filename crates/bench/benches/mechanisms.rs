//! Criterion micro-benchmarks of the simulator's mechanism layer: the
//! relative costs of the vanilla futex wake path vs the virtual-blocking
//! wake path, the BWD window check, runqueue operations, and the
//! event-queue engine itself. These are the ablations DESIGN.md §7 calls
//! out at the data-structure level.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use oversub::hw::{CoreHw, CpuId, MemModel, NormalCodeRates, Topology};
use oversub::ksync::{FutexParams, FutexTable};
use oversub::locks::{SpinLock, SpinPolicy};
use oversub::sched::{Pick, SchedParams, Scheduler, StopReason};
use oversub::simcore::{EventQueue, SimRng, SimTime};
use oversub::task::{Action, FnProgram, FutexKey, Task, TaskId, TaskTable};
use oversub_bwd::{BwdParams, Detector};

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

/// One fully-set-up "8 waiters blocked on one futex" scenario.
fn blocked_world(vb: bool) -> (Scheduler, TaskTable, FutexTable, FutexKey) {
    let mut sched = Scheduler::new(
        Topology::flat(1),
        SchedParams::default(),
        MemModel::default(),
        vb,
    );
    let mut tasks = mk_tasks(9);
    for i in 0..9 {
        sched.enqueue_new(&mut tasks, TaskId(i), CpuId(0), SimTime::ZERO);
    }
    let mut futex = FutexTable::new(FutexParams {
        vb_enabled: vb,
        vb_auto_disable: false,
        ..FutexParams::default()
    });
    let key = FutexKey(0x1000);
    for _ in 0..8 {
        let Pick::Run(t, _) = sched.pick_next(&mut tasks, CpuId(0)) else {
            unreachable!()
        };
        sched.start(&mut tasks, CpuId(0), t, SimTime::ZERO);
        futex.futex_wait(&mut sched, &mut tasks, t, key, CpuId(0), SimTime::ZERO);
    }
    (sched, tasks, futex, key)
}

fn bench_wake_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("futex_bulk_wake_8_waiters");
    g.bench_function("vanilla", |b| {
        b.iter_batched(
            || blocked_world(false),
            |(mut sched, mut tasks, mut futex, key)| {
                futex.futex_wake(&mut sched, &mut tasks, key, 8, CpuId(0), SimTime::ZERO)
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("virtual_blocking", |b| {
        b.iter_batched(
            || blocked_world(true),
            |(mut sched, mut tasks, mut futex, key)| {
                futex.futex_wake(&mut sched, &mut tasks, key, 8, CpuId(0), SimTime::ZERO)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_bwd_check(c: &mut Criterion) {
    let mut g = c.benchmark_group("bwd_window_check");
    let mut spin_hw = CoreHw::new();
    spin_hw.note_spin(0x5000, 0x4FF0, 30_000, 4);
    let mut busy_hw = CoreHw::new();
    busy_hw.note_normal_execution(100_000, &NormalCodeRates::default(), 7);
    let mut det = Detector::new(BwdParams::default());
    g.bench_function("spin_window", |b| b.iter(|| det.check_window(&spin_hw)));
    g.bench_function("busy_window", |b| b.iter(|| det.check_window(&busy_hw)));
    g.finish();
}

fn bench_runqueue(c: &mut Criterion) {
    c.bench_function("sched_pick_start_stop_32_tasks", |b| {
        b.iter_batched(
            || {
                let mut sched = Scheduler::new(
                    Topology::flat(1),
                    SchedParams::default(),
                    MemModel::default(),
                    false,
                );
                let mut tasks = mk_tasks(32);
                for i in 0..32 {
                    sched.enqueue_new(&mut tasks, TaskId(i), CpuId(0), SimTime::ZERO);
                }
                (sched, tasks)
            },
            |(mut sched, mut tasks)| {
                for k in 0..32u64 {
                    let Pick::Run(t, _) = sched.pick_next(&mut tasks, CpuId(0)) else {
                        break;
                    };
                    let now = SimTime::from_micros(k * 10);
                    sched.start(&mut tasks, CpuId(0), t, now);
                    sched.stop_current(&mut tasks, CpuId(0), now + 5_000, StopReason::Preempted);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_event_queue(c: &mut Criterion) {
    // One-shot events, random times: heap + cadence-lane queue vs the
    // reference plain heap.
    let mut g = c.benchmark_group("event_queue_schedule_pop_1k");
    for (name, classic) in [("fast", false), ("classic", true)] {
        g.bench_function(name, |b| {
            let mut rng = SimRng::new(7);
            b.iter(|| {
                let mut q = if classic {
                    EventQueue::classic()
                } else {
                    EventQueue::new()
                };
                for i in 0..1_000u64 {
                    q.schedule(SimTime::from_nanos(rng.gen_range(1_000_000)), i);
                }
                let mut n = 0;
                while q.pop().is_some() {
                    n += 1;
                }
                n
            })
        });
    }
    g.finish();

    // The simulator's periodic cadence: 64 per-CPU timer streams, each
    // re-arming itself 100 µs ahead as it fires — the cadence lanes' case.
    // The staggered initial arms take the heap; the re-arms are monotone
    // lane appends, as in the engine.
    let mut g = c.benchmark_group("event_queue_periodic_ticks_64cpus");
    for (name, classic) in [("fast", false), ("classic", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut q = if classic {
                    EventQueue::classic()
                } else {
                    EventQueue::new()
                };
                for cpu in 0..64u64 {
                    let at = SimTime::from_nanos(100_000 + cpu * 7_919);
                    q.schedule_cadenced(at, 100_000, cpu);
                }
                let mut fired = 0u64;
                while fired < 10_000 {
                    let (t, cpu) = q.pop().expect("periodic stream never drains");
                    fired += 1;
                    q.schedule_cadenced(t + 100_000, 100_000, cpu);
                }
                fired
            })
        });
    }
    g.finish();
}

fn bench_pick_next(c: &mut Criterion) {
    use oversub::sched::CfsRq;

    // 32 runnable tasks, the 8 leftmost carrying BWD skip flags so the
    // ordered scan has a prefix to step over; steady-state repeated picks
    // (the cache's hit case vs the reference scan).
    let mut tasks = mk_tasks(32);
    for i in 0..tasks.len() {
        tasks.vruntime[i] = 1_000 * (i as u64 + 1);
        tasks.bwd_skip[i] = i < 8;
    }
    let mut g = c.benchmark_group("rq_pick_next_32_tasks_8_skipped");
    for (name, scan) in [("cached", false), ("scan", true)] {
        let rq = {
            let mut rq = CfsRq::new();
            for tid in tasks.ids() {
                rq.enqueue(&tasks, tid);
            }
            rq.set_scan_mode(scan);
            rq
        };
        g.bench_function(name, |b| b.iter(|| rq.pick_next(&tasks)));
    }
    g.finish();
}

fn bench_spinlock_state_machine(c: &mut Criterion) {
    c.bench_function("spinlock_acquire_release_contended", |b| {
        b.iter_batched(
            || {
                let mut l = SpinLock::new(SpinPolicy::mcs(), 1);
                l.acquire(TaskId(0), 0);
                for i in 1..8 {
                    l.acquire(TaskId(i), i % 2);
                }
                l
            },
            |mut l| {
                let mut holder = TaskId(0);
                for _ in 1..8 {
                    let (_, next) = l.release(holder, 0);
                    let w = next.expect("fifo grant");
                    l.try_claim(w).expect("claimable");
                    holder = w;
                }
                holder
            },
            BatchSize::SmallInput,
        )
    });
}

/// End-to-end: simulate one full oversubscribed barrier benchmark run.
/// This measures the simulator's own throughput (host time per run).
fn bench_whole_simulation(c: &mut Criterion) {
    use oversub::task::{ScriptProgram, SyncOp};
    use oversub::workload::{ThreadSpec, Workload, WorldBuilder};
    use oversub::{run, Mechanisms, RunConfig};

    struct B;
    impl Workload for B {
        fn name(&self) -> &str {
            "bench-bsp"
        }
        fn build(&mut self, w: &mut WorldBuilder) {
            let bar = w.barrier(16);
            for i in 0..16u64 {
                let mut script = Vec::new();
                for k in 0..40u64 {
                    script.push(Action::Compute {
                        ns: 100_000 + (i * 31 + k * 7) % 900,
                    });
                    script.push(Action::Sync(SyncOp::BarrierWait(bar)));
                }
                w.spawn(ThreadSpec::new(Box::new(ScriptProgram::once(script))));
            }
        }
    }

    let mut g = c.benchmark_group("whole_run_16T_4c");
    g.sample_size(20);
    g.bench_function("vanilla", |b| {
        b.iter(|| run(&mut B, &RunConfig::vanilla(4)))
    });
    g.bench_function("optimized", |b| {
        b.iter(|| {
            run(
                &mut B,
                &RunConfig::vanilla(4).with_mech(Mechanisms::optimized()),
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_wake_paths,
    bench_bwd_check,
    bench_runqueue,
    bench_event_queue,
    bench_pick_next,
    bench_spinlock_state_machine,
    bench_whole_simulation
);
criterion_main!(benches);
