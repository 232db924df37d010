//! Golden determinism test for the engine hot-path overhaul.
//!
//! The optimized engine (heap + cadence-lane event queue, cached runqueue
//! picks, resched coalescing, tickless idle) must produce **bit-identical
//! metrics** to the reference engine (classic plain-heap queue, uncached
//! scans, no coalescing, every tick popped) on every workload class the
//! tier-1 suite covers.
//! Reports are compared through their canonical JSON serialization, which
//! is integer-exact, so equality here means every counter, histogram
//! bucket, and timing field matches to the last bit.

use oversub::hw::CpuId;
use oversub::ksync::WaitMode;
use oversub::metrics::MechCounters;
use oversub::simcore::SimTime;
use oversub::task::{Action, FnProgram, SpinSig, TaskId};
use oversub::workload::{ThreadSpec, Workload, WorldBuilder};
use oversub::workloads::memcached::Memcached;
use oversub::workloads::pipeline::{SpinPipeline, WaitFlavor};
use oversub::workloads::skeletons::{BenchProfile, Skeleton};
use oversub::workloads::webserving::WebServing;
use oversub::{
    run, run_counted, ElasticEvent, ExecEnv, MachineSpec, Mechanism, Mechanisms, RunConfig,
    SpinExitVerdict,
};
use proptest::prelude::*;
use std::any::Any;
use std::sync::{Arc, Mutex};

/// Run one workload twice — optimized vs reference engine — and assert
/// byte-identical report JSON. Returns the two event counts.
fn assert_golden(
    mut mk: impl FnMut() -> Box<dyn Workload>,
    cfg: &RunConfig,
    label: &str,
) -> (u64, u64) {
    let optimized = {
        let mut wl = mk();
        run_counted(&mut *wl, &cfg.clone().with_reference_engine(false), label)
    };
    let reference = {
        let mut wl = mk();
        run_counted(&mut *wl, &cfg.clone().with_reference_engine(true), label)
    };
    assert_eq!(
        optimized.0.to_json(),
        reference.0.to_json(),
        "{label}: optimized engine diverged from reference"
    );
    // BWD's check count is the tick count, elided ticks included.
    let checks = |r: &oversub::RunReport| r.mech("bwd").map(|m| m.timer_checks);
    assert_eq!(
        checks(&optimized.0),
        checks(&reference.0),
        "{label}: BWD timer checks diverged"
    );
    // Coalescing and tickless idle may only ever *remove* events, never
    // add.
    assert!(
        optimized.1 <= reference.1,
        "{label}: optimized engine processed more events ({} > {})",
        optimized.1,
        reference.1
    );
    (optimized.1, reference.1)
}

#[test]
fn memcached_reports_are_bit_identical() {
    // The machine must host server cores plus the client threads.
    let cpus = Memcached::paper(16, 8, 40_000.0).total_cpus();
    let cfg = RunConfig::vanilla(cpus)
        .with_mech(Mechanisms::optimized())
        .with_seed(42)
        .with_max_time(SimTime::from_millis(120));
    assert_golden(
        || Box::new(Memcached::paper(16, 8, 40_000.0)),
        &cfg,
        "memcached/16T/8c",
    );
}

#[test]
fn pipeline_reports_are_bit_identical_across_mechanisms() {
    for (mech, name) in [
        (Mechanisms::vanilla(), "vanilla"),
        (Mechanisms::bwd_only(), "bwd"),
        (Mechanisms::optimized(), "optimized"),
    ] {
        let cfg = RunConfig::vanilla(4)
            .with_machine(MachineSpec::PaperN(4))
            .with_mech(mech)
            .with_seed(5);
        assert_golden(
            || Box::new(SpinPipeline::new(16, 30, WaitFlavor::Flags)),
            &cfg,
            &format!("pipeline/{name}"),
        );
    }
}

#[test]
fn skeleton_benchmarks_are_bit_identical() {
    for bench in ["fluidanimate", "streamcluster"] {
        let profile = BenchProfile::by_name(bench).expect("known benchmark");
        let cfg = RunConfig::vanilla(8)
            .with_machine(MachineSpec::Paper8Cores)
            .with_mech(Mechanisms::optimized())
            .with_seed(7);
        assert_golden(
            || Box::new(Skeleton::scaled(profile, 16, 0.05).with_salt(7)),
            &cfg,
            &format!("skeleton/{bench}"),
        );
    }
}

#[test]
fn idle_heavy_machine_is_bit_identical() {
    // 8 threads on 64 CPUs: the event mix is dominated by periodic BWD
    // timers and balance passes on idle cores, which is exactly where the
    // cadence lanes and the waiter-board O(1) early-outs (idle_pull,
    // periodic_balance) fire most — this pins their equivalence proofs.
    let profile = BenchProfile::by_name("streamcluster").expect("known benchmark");
    let cfg = RunConfig::vanilla(64)
        .with_machine(MachineSpec::PaperN(64))
        .with_mech(Mechanisms::optimized())
        .with_seed(11)
        .with_max_time(SimTime::from_millis(120));
    assert_golden(
        || Box::new(Skeleton::scaled(profile, 8, 0.60).with_salt(11)),
        &cfg,
        "skeleton/8T/64c",
    );
}

#[test]
fn multi_word_machine_with_migrations_is_bit_identical() {
    // 130 CPUs: every scheduler bitset spans three words, the last one
    // partial. Vanilla blocking with four threads per CPU makes both
    // balancers migrate (at seed 13, 31 periodic passes and ~4,400 idle
    // steals move tasks), so the board-driven searches (periodic_balance,
    // idle_pull, the nohz kick) are pinned against the reference engine's
    // full strides while they actually move tasks.
    let profile = BenchProfile::by_name("streamcluster").expect("known benchmark");
    let cfg = RunConfig::vanilla(130)
        .with_machine(MachineSpec::PaperN(130))
        .with_mech(Mechanisms::vanilla())
        .with_seed(13);
    let mk = || Box::new(Skeleton::scaled(profile, 520, 0.02).with_salt(13)) as Box<dyn Workload>;
    assert_golden(mk, &cfg, "skeleton/520T/130c");
    let report = run(&mut *mk(), &cfg);
    assert!(
        report.tasks.migrations() > 0,
        "the arm must migrate to exercise the balancer"
    );
}

#[test]
fn web_serving_with_elasticity_is_bit_identical() {
    // Exercises the elastic path (core count changes mid-run) plus epoll.
    let cpus = WebServing::new(24, 8, 50_000.0).total_cpus();
    let mut cfg = RunConfig::vanilla(cpus)
        .with_mech(Mechanisms::optimized())
        .with_seed(11)
        .with_max_time(SimTime::from_millis(80));
    cfg.elastic = vec![
        ElasticEvent {
            at: SimTime::from_millis(20),
            cores: 4,
        },
        ElasticEvent {
            at: SimTime::from_millis(50),
            cores: 8,
        },
    ];
    assert_golden(
        || Box::new(WebServing::new(24, 8, 50_000.0)),
        &cfg,
        "web/24T/8c",
    );
}

// ---------------------------------------------------------------------
// Tickless idle: elided ticks are charged exactly
// ---------------------------------------------------------------------

/// BWD's tick interval; CPU 0's phase is 0, so its ticks fall on every
/// multiple of it.
const TICK_NS: u64 = 100_000;

/// Threads started on CPU 0 that alternate a short compute burst with an
/// I/O wait sized so that the completion lands *exactly* on one of CPU 0's
/// tick grid points, usually while CPU 0 sits idle with its timer
/// suspended. Whether the wake sorts before or after the elided tick
/// depends on when the wait was submitted relative to the previous grid
/// point, and the varied burst lengths cover both sides.
struct GridIo {
    threads: usize,
    rounds: usize,
    syscall_ns: u64,
}

impl Workload for GridIo {
    fn name(&self) -> &str {
        "grid-io"
    }

    fn build(&mut self, world: &mut WorldBuilder) {
        for i in 0..self.threads {
            let (rounds, syscall_ns) = (self.rounds, self.syscall_ns);
            let mut step = 0usize;
            let program = FnProgram::new("grid-io", move |ctx| {
                step += 1;
                if step > 2 * rounds {
                    return Action::Exit;
                }
                if step % 2 == 1 {
                    // 3-43 µs bursts, varied per thread and round.
                    let us = 3 + ((step * 7 + i * 13) % 41) as u64;
                    return Action::Compute { ns: us * 1_000 };
                }
                // Complete on a grid point 0-5 ticks past the first one at
                // least 5 µs away, leaving CPU 0 quiet in between (its
                // timer is suspended from the second quiet tick on).
                let submit = ctx.now.as_nanos() + syscall_ns;
                let skip = ((step / 2 + i) % 6) as u64 * TICK_NS;
                let grid = (submit + 5_000).div_ceil(TICK_NS) * TICK_NS + skip;
                Action::IoWait { ns: grid - submit }
            });
            let mut spec = ThreadSpec::new(Box::new(program));
            spec.initial_cpu = Some(CpuId(0));
            world.spawn(spec);
        }
    }
}

/// Threads that start on one `home` CPU and compute in long bursts, so
/// every other CPU — CPU 0 in particular — idles with its timer
/// suspended until the scheduler moves a task there.
struct HomeCompute {
    threads: usize,
    home: usize,
}

impl Workload for HomeCompute {
    fn name(&self) -> &str {
        "home-compute"
    }

    fn build(&mut self, world: &mut WorldBuilder) {
        for _ in 0..self.threads {
            let mut left = 8;
            let program = FnProgram::new("home-compute", move |_| {
                left -= 1;
                if left == 0 {
                    Action::Exit
                } else {
                    Action::Compute { ns: 700_000 }
                }
            });
            let mut spec = ThreadSpec::new(Box::new(program));
            spec.initial_cpu = Some(CpuId(self.home));
            world.spawn(spec);
        }
    }
}

fn grid_io(threads: usize, rounds: usize) -> Box<dyn Workload> {
    Box::new(GridIo {
        threads,
        rounds,
        syscall_ns: RunConfig::vanilla(1).sched.syscall_entry_ns,
    })
}

#[test]
fn io_completions_on_an_idle_cpus_tick_grid_are_bit_identical() {
    for (cores, threads) in [(1, 1), (4, 1), (4, 3), (16, 2)] {
        let cfg = RunConfig::vanilla(cores)
            .with_machine(MachineSpec::PaperN(cores))
            .with_mech(Mechanisms::optimized())
            .with_seed(3);
        let label = format!("grid-io/{threads}T/{cores}c");
        let (optimized, reference) = assert_golden(|| grid_io(threads, 40), &cfg, &label);
        assert!(
            optimized < reference,
            "{label}: no tick was elided ({optimized} events)"
        );
    }
}

#[test]
fn elastic_changes_on_the_tick_grid_are_bit_identical() {
    // Shrink and regrow at exact multiples of the tick interval, so the
    // change ties on time with CPU 0's (suspended) tick; CPUs going
    // offline must resume their timers, CPUs staying online keep them
    // suspended across the change.
    let profile = BenchProfile::by_name("streamcluster").expect("known benchmark");
    for (cores, grid) in [(8usize, [15u64, 40, 41]), (32, [5, 6, 90])] {
        let mut cfg = RunConfig::vanilla(cores)
            .with_machine(MachineSpec::PaperN(cores))
            .with_mech(Mechanisms::optimized())
            .with_seed(9)
            .with_max_time(SimTime::from_millis(12));
        cfg.elastic = vec![
            ElasticEvent {
                at: SimTime::from_nanos(grid[0] * TICK_NS),
                cores: 2,
            },
            ElasticEvent {
                at: SimTime::from_nanos(grid[1] * TICK_NS),
                cores: cores / 2,
            },
            ElasticEvent {
                at: SimTime::from_nanos(grid[2] * TICK_NS),
                cores,
            },
        ];
        let label = format!("elastic-grid/{cores}c");
        let (optimized, reference) = assert_golden(
            || Box::new(Skeleton::scaled(profile, 4, 0.05).with_salt(9)),
            &cfg,
            &label,
        );
        assert!(optimized < reference, "{label}: no tick was elided");
        // The same changes with I/O completions on the grid as well.
        assert_golden(|| grid_io(2, 30), &cfg, &format!("{label}/grid-io"));
        // Tasks stranded on the last CPU: the shrink moves them to CPU 0
        // while its timer is suspended, and the resched it schedules at the
        // change's time sorts after CPU 0's tick there (scheduled later
        // than the tick's `sched_at`), so that quiet tick must be charged
        // before the task starts.
        let home = move || {
            Box::new(HomeCompute {
                threads: 3,
                home: cores - 1,
            }) as Box<dyn Workload>
        };
        assert_golden(home, &cfg, &format!("{label}/home-compute"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tickless idle against the per-tick reference engine on random
    /// configurations: machine size, thread count, mechanism preset,
    /// elastic changes (some on the tick grid) and seed.
    #[test]
    fn tickless_matches_the_reference_engine(
        cores in 1usize..129,
        threads in 1usize..24,
        preset in 0usize..3,
        elastic in proptest::collection::vec(((1u64..120), (1usize..129), any::<bool>()), 0..3),
        grid_workload in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mech = [Mechanisms::vanilla(), Mechanisms::bwd_only(), Mechanisms::optimized()][preset];
        let mut cfg = RunConfig::vanilla(cores)
            .with_machine(MachineSpec::PaperN(cores))
            .with_mech(mech)
            .with_seed(seed)
            .with_max_time(SimTime::from_millis(15));
        // Elastic times in 100 µs steps, optionally nudged off the grid.
        cfg.elastic = elastic
            .iter()
            .map(|&(step, n, on_grid)| ElasticEvent {
                at: SimTime::from_nanos(step * TICK_NS + if on_grid { 0 } else { 3_701 }),
                cores: n.min(cores),
            })
            .collect();
        let label = format!("tickless/{cores}c/{threads}T/preset{preset}/seed{seed}");
        if grid_workload {
            assert_golden(|| grid_io(threads.min(6), 20), &cfg, &label);
        } else {
            let profile = BenchProfile::by_name("streamcluster").expect("known benchmark");
            assert_golden(
                || Box::new(Skeleton::scaled(profile, threads, 0.02).with_salt(seed % 1_000)),
                &cfg,
                &label,
            );
        }
    }
}

/// An active out-of-tree mechanism for the golden tests: throttle any
/// spin segment after a fixed window (it deschedules tasks, so it truly
/// perturbs the schedule — both engines must agree on every perturbation).
struct ThrottleSpin {
    window_ns: u64,
    exits: u64,
}

impl Mechanism for ThrottleSpin {
    fn name(&self) -> &'static str {
        "throttle"
    }
    fn on_spin_segment(
        &mut self,
        _cpu: usize,
        _tid: TaskId,
        _sig: &SpinSig,
        _env: ExecEnv,
        now: SimTime,
    ) -> Option<SimTime> {
        Some(now + self.window_ns)
    }
    fn on_spin_exit(&mut self, _cpu: usize, _tid: TaskId) -> SpinExitVerdict {
        self.exits += 1;
        SpinExitVerdict {
            charge_ns: 900,
            set_skip: false,
        }
    }
    fn counters(&self) -> MechCounters {
        MechCounters {
            decisions: self.exits,
            spin_exits: self.exits,
            ..MechCounters::named("throttle")
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn custom_mechanism_runs_are_bit_identical() {
    // A custom mechanism registered through the public API must replay
    // identically on both engines: the factory builds a fresh instance
    // per engine, so the reference twin starts from the same state.
    let cfg = RunConfig::vanilla(4)
        .with_machine(MachineSpec::PaperN(4))
        .with_seed(23)
        .with_mechanism(|| {
            Box::new(ThrottleSpin {
                window_ns: 80_000,
                exits: 0,
            })
        });
    assert_golden(
        || Box::new(SpinPipeline::new(12, 24, WaitFlavor::Flags)),
        &cfg,
        "pipeline/custom-throttle",
    );
    // And it must actually have fired, or the test proves nothing.
    let mut wl = SpinPipeline::new(12, 24, WaitFlavor::Flags);
    let r = run(&mut wl, &cfg);
    assert!(
        r.mech("throttle").map(|m| m.spin_exits).unwrap_or(0) > 0,
        "custom mechanism never fired"
    );
}

#[test]
fn vm_ple_runs_are_bit_identical() {
    let cfg = RunConfig::vanilla(4)
        .with_machine(MachineSpec::PaperN(4))
        .with_mech(Mechanisms::ple_only())
        .with_seed(13)
        .in_vm();
    assert_golden(
        || {
            Box::new(SpinPipeline::new(
                12,
                20,
                WaitFlavor::SpinLock(oversub::locks::SpinPolicy::ttas()),
            ))
        },
        &cfg,
        "pipeline/ple-vm",
    );
}

// ---------------------------------------------------------------------
// Hook invocation order is deterministic
// ---------------------------------------------------------------------

/// A passive observer mechanism: records every hook invocation (with its
/// arguments) into a shared log and never changes any verdict, so it can
/// ride along any configuration without perturbing the run.
struct Recorder {
    log: Arc<Mutex<Vec<String>>>,
}

impl Mechanism for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }
    fn on_block(&mut self, cpu: usize, tid: TaskId, mode: WaitMode) {
        self.log
            .lock()
            .unwrap()
            .push(format!("block cpu={cpu} tid={} mode={mode:?}", tid.0));
    }
    fn on_wake(&mut self, tid: TaskId, mode: WaitMode) {
        self.log
            .lock()
            .unwrap()
            .push(format!("wake tid={} mode={mode:?}", tid.0));
    }
    fn on_pick(&mut self, cpu: usize, skips_released: u64) {
        self.log
            .lock()
            .unwrap()
            .push(format!("pick cpu={cpu} released={skips_released}"));
    }
    fn on_slice_expiry(&mut self, cpu: usize, tid: TaskId) {
        self.log
            .lock()
            .unwrap()
            .push(format!("slice cpu={cpu} tid={}", tid.0));
    }
    fn on_spin_segment(
        &mut self,
        cpu: usize,
        tid: TaskId,
        sig: &SpinSig,
        env: ExecEnv,
        now: SimTime,
    ) -> Option<SimTime> {
        self.log.lock().unwrap().push(format!(
            "spin cpu={cpu} tid={} pause={} env={env:?} now={now}",
            tid.0, sig.uses_pause
        ));
        None
    }
    fn on_elastic_change(&mut self, cores: usize) {
        self.log
            .lock()
            .unwrap()
            .push(format!("elastic cores={cores}"));
    }
    fn counters(&self) -> MechCounters {
        MechCounters::named("recorder")
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Run one SpinPipeline config with a Recorder appended to the pipeline
/// and return the full hook log.
fn hook_log(
    stages: usize,
    items: usize,
    cores: usize,
    mech: Mechanisms,
    seed: u64,
    vm: bool,
) -> Vec<String> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let handle = Arc::clone(&log);
    let mut cfg = RunConfig::vanilla(cores)
        .with_machine(MachineSpec::PaperN(cores))
        .with_mech(mech)
        .with_seed(seed)
        .with_mechanism(move || {
            Box::new(Recorder {
                log: Arc::clone(&handle),
            })
        });
    if vm {
        cfg = cfg.in_vm();
    }
    let mut wl = SpinPipeline::new(stages, items, WaitFlavor::Flags);
    run(&mut wl, &cfg);
    // The factory closure inside `cfg` keeps a handle alive; read through.
    let out = log.lock().unwrap().clone();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The exact sequence of hook invocations — names, arguments, and
    /// order — replays identically for identical configurations, under
    /// random mechanism pipelines, core counts, seeds, and environments.
    #[test]
    fn hook_order_is_deterministic(
        stages in 4usize..10,
        items in 6usize..20,
        cores in 2usize..6,
        vb in any::<bool>(),
        bwd in any::<bool>(),
        ple in any::<bool>(),
        vm in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mech = Mechanisms { vb, vb_auto_disable: true, bwd, ple: ple && vm, neighbour: false };
        let a = hook_log(stages, items, cores, mech, seed, vm);
        let b = hook_log(stages, items, cores, mech, seed, vm);
        prop_assert!(!a.is_empty(), "recorder saw no hooks at all");
        prop_assert_eq!(a, b);
    }
}
