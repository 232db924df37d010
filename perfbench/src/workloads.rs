//! The benchmark's workloads. Every input is derived from the benchmark
//! seed; the simulator only ever sees the built configuration and
//! workload objects. README.md in this directory records why each one
//! was chosen.

use oversub::experiments::ExpOpts;
use oversub::simcore::SimTime;
use oversub::workload::Workload;
use oversub::workloads::memcached::Memcached;
use oversub::workloads::skeletons::{BenchProfile, Skeleton};
use oversub::{MachineSpec, Mechanisms, RunConfig};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["idle-512c", "memcached-16T8c", "spin-bwd", "paper-sweep"];

/// A single simulation, re-run once per timed rep.
pub struct Arm {
    pub label: &'static str,
    pub cfg: RunConfig,
    pub make: Box<dyn Fn() -> Box<dyn Workload>>,
}

/// What one workload runs.
pub enum Bench {
    /// One simulation arm at jobs=1.
    Arm(Arm),
    /// The full experiment set on the sweep pool.
    Sweep(ExpOpts),
}

/// A skeleton benchmark with its salt taken from the seed.
fn skeleton(
    name: &str,
    threads: usize,
    scale: f64,
    seed: u64,
) -> Box<dyn Fn() -> Box<dyn Workload>> {
    let profile = BenchProfile::by_name(name).expect("known skeleton profile");
    Box::new(move || Box::new(Skeleton::scaled(profile, threads, scale).with_salt(seed)))
}

/// Build workload `name` from `seed`; `scale` multiplies its size (1.0 is
/// the benchmark size, smaller values are for smoke tests).
pub fn build(name: &str, seed: u64, scale: f64) -> Option<Bench> {
    let arm = |label, cfg: RunConfig, make| {
        Some(Bench::Arm(Arm {
            label,
            cfg: cfg.with_mech(Mechanisms::optimized()).with_seed(seed),
            make,
        }))
    };
    match name {
        // 8 threads on 512 cores: almost every event is a quiet tick on
        // an idle core.
        "idle-512c" => arm(
            "skeleton/streamcluster/8T/512c",
            RunConfig::vanilla(512).with_machine(MachineSpec::PaperN(512)),
            skeleton("streamcluster", 8, 4.0 * scale, seed),
        ),
        // Figure 12's 8-core operating point (~80% of capacity, 6 clients).
        "memcached-16T8c" => {
            let rate = 360_000.0;
            let clients = 6;
            let make = move || {
                let mut wl = Memcached::paper(16, 8, rate);
                wl.clients = clients;
                Box::new(wl) as Box<dyn Workload>
            };
            let millis = ((1_000.0 * scale) as u64).max(1);
            arm(
                "memcached/16T/8c",
                RunConfig::vanilla(8 + clients).with_max_time(SimTime::from_millis(millis)),
                Box::new(make),
            )
        }
        // 32 spinning threads on the paper's 8-core container: BWD ticks
        // land on busy cores and detect spinning.
        "spin-bwd" => arm(
            "skeleton/lu/32T/8c",
            RunConfig::vanilla(8).with_machine(MachineSpec::Paper8Cores),
            skeleton("lu", 32, 10.0 * scale, seed),
        ),
        "paper-sweep" => Some(Bench::Sweep(ExpOpts {
            scale: ExpOpts::quick().scale * scale,
            seed,
        })),
        _ => None,
    }
}

/// Metric slug of each experiment in `experiment_set`, keyed by its
/// description. Experiments missing here are timed as `other`.
pub const EXPERIMENT_SLUGS: [(&str, &str); 28] = [
    ("oversubscription survey", "fig01"),
    ("direct cost of context switching", "fig02"),
    ("synchronization intervals", "fig03"),
    ("indirect cost of context switching (us per CS)", "fig04"),
    ("virtual blocking on blocking benchmarks", "fig09"),
    ("VB speedup vs threads (1 core)", "fig10a"),
    ("VB speedup vs cores (32 threads)", "fig10b"),
    ("CPU elasticity", "fig11"),
    ("memcached", "fig12"),
    ("spinlocks in a container", "fig13a"),
    ("spinlocks in KVM (PLE arm)", "fig13b"),
    ("user-customized spinning", "fig14"),
    ("SHFLLOCK comparison", "fig15"),
    ("runtime statistics", "table1"),
    ("BWD true positives", "table2"),
    ("BWD false positives", "table3"),
    ("BWD interval sweep", "ablation-bwd-interval"),
    ("BWD heuristics", "ablation-bwd-heuristics"),
    ("VB auto-disable", "ablation-vb-auto-disable"),
    ("migration-cost sensitivity", "ablation-migration-cost"),
    ("wakeup-path cost sweep", "ablation-wakeup-cost"),
    ("pipeline cascade", "ext-pipeline-cascade"),
    ("web serving", "ext-web-serving"),
    (
        "dynamic threading vs oversubscription",
        "ext-forkjoin-dynamic-threading",
    ),
    (
        "neighbour-aware mechanism vs VB/BWD on tail latency",
        "ext-neighbour-tails",
    ),
    (
        "overload goodput frontier (deadline + retry + shedding)",
        "ext-overload-frontier",
    ),
    ("huge pages remove the TLB benefit", "ablation-hugepages"),
    ("seed sensitivity", "seed-sensitivity"),
];

/// The slug for an experiment description.
pub fn experiment_slug(desc: &str) -> &'static str {
    EXPERIMENT_SLUGS
        .iter()
        .find(|(d, _)| *d == desc)
        .map_or("other", |(_, s)| s)
}
