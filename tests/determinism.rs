//! Golden determinism test for the engine hot-path overhaul.
//!
//! The optimized engine (heap + cadence-lane event queue, cached runqueue
//! picks, resched coalescing) must produce **bit-identical metrics** to
//! the reference engine (classic plain-heap queue, uncached scans, no
//! coalescing) on every workload class the tier-1 suite covers.
//! Reports are compared through their canonical JSON serialization, which
//! is integer-exact, so equality here means every counter, histogram
//! bucket, and timing field matches to the last bit.

use oversub::ksync::WaitMode;
use oversub::metrics::MechCounters;
use oversub::simcore::SimTime;
use oversub::task::{SpinSig, TaskId};
use oversub::workload::Workload;
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
fn assert_golden(mut mk: impl FnMut() -> Box<dyn Workload>, cfg: &RunConfig, label: &str) {
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
    // Coalescing may only ever *remove* events, never add.
    assert!(
        optimized.1 <= reference.1,
        "{label}: optimized engine processed more events ({} > {})",
        optimized.1,
        reference.1
    );
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
