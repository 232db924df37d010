//! Simulator throughput benchmark: wall-clock and processed events of the
//! optimized engine (heap + cadence-lane + timer-slot queue, cached
//! picks, resched coalescing, tickless idle) versus the reference engine
//! (classic plain-heap queue, uncached scans, no coalescing, every tick
//! and every superseded timer popped) on
//! representative workloads. Both engines produce bit-identical *report
//! metrics* — see `tests/determinism.rs`; this binary re-asserts the
//! per-mechanism counters match on every arm — so this measures pure
//! host-side speed. The engines' internal processed-event counts
//! legitimately differ (resched coalescing retires duplicate wakeup
//! events before dispatch, re-armed timer slots drop superseded slice and
//! segment timers, and tickless idle takes quiet ticks out of the queue
//! altogether), so events/sec no longer measures speed: it is
//! reported for information only, and the speed gates read the
//! wall-clock ratio.
//!
//! Writes `BENCH_sim_throughput.json` at the repo root and prints a
//! table. Usage: `sim_throughput [--reps N] [--jobs N]
//! [--check | --baseline-reset]` (default 5 reps; best-of-N wall time is
//! reported to suppress scheduling noise). Reps run on the sweep worker
//! pool, but `--jobs` defaults to **1** here — co-running reps contend
//! for host cores and depress the very wall times this benchmark exists
//! to measure. Raise it only for smoke runs where absolute numbers don't
//! matter.
//!
//! A rewrite of the baseline **ratchets** the wall-clock ratio: it is
//! written twice, `wall_clock_speedup_milli_floor` (the gate value: the
//! minimum of the fresh and committed floors) and
//! `wall_clock_speedup_milli_current` (the fresh measurement,
//! informational). Host noise on a shared machine swings wall times by
//! ±30% between runs, and a single lucky run committed as the baseline
//! would make the 0.9x `--check` gate flake for everyone after; repeated
//! regenerations therefore only lower the bar. After a real
//! optimization, raise it deliberately with `--baseline-reset`, which
//! writes the fresh numbers unmerged. The event-count ceiling is exact
//! and host-independent, so it is always the fresh count, as are all
//! non-gate fields.
//!
//! With `--check` the committed baseline is left untouched: the process
//! exits non-zero if any arm's optimized engine processes more events
//! than its committed `optimized_events_ceiling`, if any arm's optimized
//! scheduler examines more CPUs in its balance, idle-pull or nohz-kick
//! searches than the committed `optimized_scan_visits_ceiling` (exact and
//! host-independent, like the event ceiling: a search that falls back to
//! striding over every CPU fails it on any host), if any arm with a
//! committed wall-clock speedup floor of at least 1.2x sees its fresh
//! engine-vs-engine wall-clock speedup fall below 0.9x its committed
//! `wall_clock_speedup_milli_floor` (a ratio of two runs on the same
//! host; near-1x arms are exempt — their ratio is wall-noise), or if the
//! tick-dominated-at-scale arm misses the absolute 3x wall-clock speedup
//! floor.

use std::time::Instant;

use oversub::metrics::json::{obj, JsonValue};
use oversub::simcore::pool::Job;
use oversub::simcore::SimTime;
use oversub::workload::Workload;
use oversub::workloads::memcached::Memcached;
use oversub::workloads::pipeline::{SpinPipeline, WaitFlavor};
use oversub::workloads::skeletons::{BenchProfile, Skeleton};
use oversub::{
    run_counted, run_phase_profiled, sweep, MachineSpec, Mechanisms, PhaseProfile, RunConfig,
};

/// The arm whose wall-clock speedup carries an absolute floor in
/// `--check` mode. The tick-dominated-at-scale arm is where tickless idle
/// must show: the reference engine pops every idle core's ticks while
/// the optimized engine charges them in closed form.
const GATED_ARM: &str = "skeleton/streamcluster/8T/512c";

/// Absolute wall-clock speedup floor for [`GATED_ARM`], in milli-units
/// (3000 = 3.0x).
const SPEEDUP_FLOOR_MILLI: u64 = 3000;

/// The relative speedup-regression gate only applies to arms whose
/// *committed* ratio is at least this (1200 = 1.2x). Near-1x arms
/// (memcached, the oversubscribed batch, the pipeline) complete in
/// ~1 ms and their engine-vs-engine ratio swings ±30% with host
/// scheduling noise — a 0.9x gate there measures the host, not the
/// code. Those arms stay covered by the exact event-count ceiling; the
/// ratio gate watches the arms the optimizations demonstrably win
/// (the tick-dominated machines), where rot would actually show.
const RATIO_GATE_MIN_MILLI: u64 = 1200;

struct Arm {
    name: &'static str,
    cfg: RunConfig,
    mk: Box<dyn Fn() -> Box<dyn Workload> + Send + Sync>,
}

fn arms() -> Vec<Arm> {
    let mut v = Vec::new();

    // Server workload: futex/epoll heavy, 19 CPUs, periodic BWD timers on
    // every CPU make the cadence lanes earn their keep.
    let cpus = Memcached::paper(16, 8, 60_000.0).total_cpus();
    v.push(Arm {
        name: "memcached/16T/8c",
        cfg: RunConfig::vanilla(cpus)
            .with_mech(Mechanisms::optimized())
            .with_seed(42)
            .with_max_time(SimTime::from_millis(300)),
        mk: Box::new(|| Box::new(Memcached::paper(16, 8, 60_000.0))),
    });

    // Batch skeleton: heavy oversubscription (64 threads, 32 cores) makes
    // `pick_next` scans long and wakeup bursts dense.
    v.push(Arm {
        name: "skeleton/streamcluster/64T/32c",
        cfg: RunConfig::vanilla(32)
            .with_machine(MachineSpec::PaperN(32))
            .with_mech(Mechanisms::optimized())
            .with_seed(7),
        mk: Box::new(|| {
            let p = BenchProfile::by_name("streamcluster").expect("known benchmark");
            Box::new(Skeleton::scaled(p, 64, 0.10).with_salt(7))
        }),
    });

    // Tick-dominated: 8 threads on a 64-CPU machine. Most cores sit idle
    // and the event mix is dominated by periodic BWD timers and balance
    // passes — the cadence lanes' case, plus the waiter-board O(1)
    // early-outs for idle_pull and periodic_balance.
    v.push(Arm {
        name: "skeleton/streamcluster/8T/64c",
        cfg: RunConfig::vanilla(64)
            .with_machine(MachineSpec::PaperN(64))
            .with_mech(Mechanisms::optimized())
            .with_seed(11)
            .with_max_time(SimTime::from_millis(300)),
        mk: Box::new(|| {
            let p = BenchProfile::by_name("streamcluster").expect("known benchmark");
            Box::new(Skeleton::scaled(p, 8, 0.60).with_salt(11))
        }),
    });

    // Tick-dominated at scale: the same 8 threads on a 512-CPU machine.
    // Nearly every reference event is an idle-core BWD tick or balance
    // pass, so the arm isolates the engine's per-tick cost. The reference
    // engine pops every tick (each pop a binary-heap sift over one
    // pending timer per core) while the optimized engine suspends quiet
    // ticks and charges them in closed form — this arm is where that
    // shows, and where the `--check` gate demands its 3x floor
    // (`SPEEDUP_FLOOR_MILLI`).
    v.push(Arm {
        name: "skeleton/streamcluster/8T/512c",
        cfg: RunConfig::vanilla(512)
            .with_machine(MachineSpec::PaperN(512))
            .with_mech(Mechanisms::optimized())
            .with_seed(11)
            .with_max_time(SimTime::from_millis(300)),
        mk: Box::new(|| {
            let p = BenchProfile::by_name("streamcluster").expect("known benchmark");
            Box::new(Skeleton::scaled(p, 8, 0.60).with_salt(11))
        }),
    });

    // Spin pipeline: flag-wait heavy, exercises BWD skip flags and the
    // cached-pick invalidation paths.
    v.push(Arm {
        name: "pipeline/16S/4c",
        cfg: RunConfig::vanilla(4)
            .with_machine(MachineSpec::PaperN(4))
            .with_mech(Mechanisms::optimized())
            .with_seed(5),
        mk: Box::new(|| Box::new(SpinPipeline::new(16, 60, WaitFlavor::Flags))),
    });

    v
}

/// One engine flavor's measurement: best-of-`reps` wall time in
/// nanoseconds, the (deterministic) processed-event count, the
/// per-mechanism counters, and the exact tail percentiles of the run's
/// request digest (informational; empty-digest arms report zero
/// requests).
type Measurement = (u64, u64, Vec<JsonValue>, JsonValue);

/// Measure one arm under one engine configuration. The reps execute as a
/// pool batch at the given jobs count (default 1: timing fidelity).
fn measure(arm: &Arm, cfg: RunConfig, reps: usize, jobs: usize) -> Measurement {
    let batch: Vec<Job<'_, Measurement>> = (0..reps)
        .map(|_| {
            let cfg = cfg.clone();
            let mk = &arm.mk;
            let name = arm.name;
            Box::new(move || {
                let mut wl = mk();
                let t0 = Instant::now();
                let (report, n) = run_counted(&mut *wl, &cfg, name);
                let dt = t0.elapsed().as_nanos() as u64;
                let mechs = report
                    .mechanisms
                    .iter()
                    .map(|m| m.to_json_value())
                    .collect();
                let d = &report.latency_exact;
                let tails = obj(vec![
                    ("requests", JsonValue::UInt(d.count() as u128)),
                    ("p50_ns", JsonValue::UInt(d.p50() as u128)),
                    ("p99_ns", JsonValue::UInt(d.p99() as u128)),
                    ("p999_ns", JsonValue::UInt(d.p999() as u128)),
                ]);
                (dt.max(1), n, mechs, tails)
            }) as Job<'_, (u64, u64, Vec<JsonValue>, JsonValue)>
        })
        .collect();
    let mut best_ns = u64::MAX;
    let mut events = 0u64;
    let mut mechs = Vec::new();
    let mut tails = JsonValue::Null;
    for (dt, n, m, t) in sweep::run_batch_with_jobs(batch, jobs) {
        best_ns = best_ns.min(dt);
        events = n;
        mechs = m;
        tails = t;
    }
    (best_ns, events, mechs, tails)
}

/// One instrumented (untimed-rep) run of the arm: where the engine's
/// wall-clock goes, bucketed by phase. Runs outside the timed reps — the
/// per-event `Instant` pairs would distort them.
fn profile(arm: &Arm, cfg: RunConfig) -> PhaseProfile {
    let mut wl = (arm.mk)();
    let (_, _, prof) = run_phase_profiled(&mut *wl, &cfg, arm.name);
    prof
}

fn phase_json(p: &PhaseProfile) -> JsonValue {
    obj(vec![
        ("queue_pop_ns", JsonValue::UInt(p.queue_pop_ns as u128)),
        ("pick_ns", JsonValue::UInt(p.pick_ns as u128)),
        ("mech_timer_ns", JsonValue::UInt(p.mech_timer_ns as u128)),
        ("balance_ns", JsonValue::UInt(p.balance_ns as u128)),
        ("other_ns", JsonValue::UInt(p.other_ns as u128)),
        ("total_ns", JsonValue::UInt(p.total_ns() as u128)),
        ("scan_visits", visits_json(p)),
    ])
}

/// The scheduler's search visits per search kind (deterministic counts).
const SEARCHES: [&str; 3] = ["balance", "idle_pull", "kick"];

fn visits_json(p: &PhaseProfile) -> JsonValue {
    let v = p.scan_visits;
    let counts = [v.balance, v.idle_pull, v.kick];
    obj(SEARCHES
        .iter()
        .zip(counts)
        .map(|(&name, n)| (name, JsonValue::UInt(n as u128)))
        .collect())
}

fn eps(events: u64, wall_ns: u64) -> u64 {
    ((events as u128) * 1_000_000_000 / (wall_ns as u128)) as u64
}

fn main() {
    let mut reps = 5usize;
    let mut jobs = 1usize;
    let mut check = false;
    let mut baseline_reset = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--reps" {
            reps = args.next().and_then(|v| v.parse().ok()).unwrap_or(5).max(1);
        } else if a == "--jobs" {
            jobs = args.next().and_then(|v| v.parse().ok()).unwrap_or(1).max(1);
        } else if a == "--check" {
            check = true;
        } else if a == "--baseline-reset" {
            baseline_reset = true;
        }
    }

    // The bench crate sits at <root>/crates/bench, so the repo root is two
    // levels up from the compile-time manifest dir.
    let Some(root) = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
    else {
        eprintln!(
            "sim_throughput: cannot locate the repo root from manifest dir {}",
            env!("CARGO_MANIFEST_DIR")
        );
        std::process::exit(1);
    };
    let path = root.join("BENCH_sim_throughput.json");

    // Committed baseline, for the conservative ratchet (see module docs).
    // `--check` never rewrites the file, so it needs no merge input.
    let prior = (!check && !baseline_reset)
        .then(|| std::fs::read_to_string(&path).ok())
        .flatten()
        .and_then(|t| JsonValue::parse(&t).ok());

    println!(
        "{:<32} {:>12} {:>10} {:>12} {:>10} {:>8} {:>8}",
        "workload", "ref ev/s", "ref ms", "fast ev/s", "fast ms", "ev/s x", "wall x"
    );
    let mut rows = Vec::new();
    for arm in arms() {
        let (ref_ns, ref_events, ref_mechs, ref_tails) = measure(
            &arm,
            arm.cfg.clone().with_reference_engine(true),
            reps,
            jobs,
        );
        let (fast_ns, fast_events, mechs, tails) = measure(&arm, arm.cfg.clone(), reps, jobs);
        // The exact digest is a report metric: both engines must agree on
        // it bit-for-bit, same as the mechanism counters below.
        if ref_tails.to_string_compact() != tails.to_string_compact() {
            eprintln!(
                "{}: exact latency digest DIVERGED between engines\n  ref:  {}\n  fast: {}",
                arm.name,
                ref_tails.to_string_compact(),
                tails.to_string_compact()
            );
            std::process::exit(1);
        }
        // The two engines must agree on every report metric; the
        // per-mechanism counters are the part this binary can see, so
        // re-assert their bit-identity on every arm (the full-report
        // check lives in tests/determinism.rs). Processed-event counts
        // are the one engine-internal quantity allowed to differ, and
        // only downward: coalescing, timer slots and tickless idle retire
        // events, never add them.
        let ref_json = JsonValue::Array(ref_mechs).to_string_compact();
        let fast_json = JsonValue::Array(mechs.clone()).to_string_compact();
        if ref_json != fast_json {
            eprintln!(
                "{}: mechanism counters DIVERGED between engines\n  ref:  {ref_json}\n  fast: {fast_json}",
                arm.name
            );
            std::process::exit(1);
        }
        if fast_events > ref_events {
            eprintln!(
                "{}: optimized engine processed MORE events than reference \
                 ({fast_events} > {ref_events}) — coalescing, timer slots and \
                 tickless idle can only remove events",
                arm.name
            );
            std::process::exit(1);
        }
        let ref_eps = eps(ref_events, ref_ns);
        let fast_eps = eps(fast_events, fast_ns);
        // Coalescing and tickless idle remove events, so events/sec on
        // the fast engine's own (smaller) count says nothing about speed;
        // wall-clock speedup is the honest end-to-end number. Report
        // both, in milli-units.
        let eps_x_milli = (fast_eps as u128 * 1000 / ref_eps.max(1) as u128) as u64;
        let wall_x_milli = (ref_ns as u128 * 1000 / fast_ns.max(1) as u128) as u64;
        println!(
            "{:<32} {:>12} {:>10.2} {:>12} {:>10.2} {:>7}.{:03} {:>7}.{:03}",
            arm.name,
            ref_eps,
            ref_ns as f64 / 1e6,
            fast_eps,
            fast_ns as f64 / 1e6,
            eps_x_milli / 1000,
            eps_x_milli % 1000,
            wall_x_milli / 1000,
            wall_x_milli % 1000,
        );
        // Ratchet the wall-clock floor against the committed row (if
        // any): keep the minimum, so regenerating on a lucky run cannot
        // tighten the 0.9x gate (see module docs). It is emitted twice:
        // `*_floor` is the ratcheted gate value, `*_current` the fresh
        // measurement (informational).
        let prior_row = prior.as_ref().and_then(|p| {
            p.get("workloads")?
                .as_array()?
                .iter()
                .find(|b| b.get("workload").and_then(|v| v.as_str()) == Some(arm.name))
        });
        let wall_floor = prior_row
            .and_then(|r| r.get("wall_clock_speedup_milli_floor")?.as_u64())
            .map_or(wall_x_milli, |prev| wall_x_milli.min(prev));
        let ref_prof = profile(&arm, arm.cfg.clone().with_reference_engine(true));
        let fast_prof = profile(&arm, arm.cfg.clone());
        rows.push(obj(vec![
            ("workload", JsonValue::Str(arm.name.to_string())),
            ("reference_events", JsonValue::UInt(ref_events as u128)),
            ("reference_wall_ns", JsonValue::UInt(ref_ns as u128)),
            ("reference_events_per_sec", JsonValue::UInt(ref_eps as u128)),
            ("optimized_events", JsonValue::UInt(fast_events as u128)),
            (
                "optimized_events_ceiling",
                JsonValue::UInt(fast_events as u128),
            ),
            ("optimized_scan_visits_ceiling", visits_json(&fast_prof)),
            ("optimized_wall_ns", JsonValue::UInt(fast_ns as u128)),
            (
                "optimized_events_per_sec",
                JsonValue::UInt(fast_eps as u128),
            ),
            (
                "events_per_sec_speedup_milli",
                JsonValue::UInt(eps_x_milli as u128),
            ),
            (
                "wall_clock_speedup_milli_floor",
                JsonValue::UInt(wall_floor as u128),
            ),
            (
                "wall_clock_speedup_milli_current",
                JsonValue::UInt(wall_x_milli as u128),
            ),
            ("mechanisms", JsonValue::Array(mechs)),
            ("latency_tails", tails),
            (
                "phase_breakdown",
                obj(vec![
                    ("reference", phase_json(&ref_prof)),
                    ("optimized", phase_json(&fast_prof)),
                ]),
            ),
        ]));
    }

    let sweep_stats = sweep::stats();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let doc = obj(vec![
        ("bench", JsonValue::Str("sim_throughput".to_string())),
        ("host_cpus", JsonValue::UInt(host_cpus as u128)),
        (
            "detlint_ruleset",
            JsonValue::Str(analysis::RULESET_VERSION.to_string()),
        ),
        ("reps", JsonValue::UInt(reps as u128)),
        ("pool_jobs", JsonValue::UInt(jobs as u128)),
        (
            "pool_jobs_executed",
            JsonValue::UInt(sweep_stats.pool.jobs as u128),
        ),
        (
            "cache_hits",
            JsonValue::UInt(sweep_stats.cache_hits as u128),
        ),
        (
            "note",
            JsonValue::Str(
                "best-of-reps wall time; speedups in milli-units (1300 = 1.3x); \
             report metrics are bit-identical across engines (tests/determinism.rs, \
             re-asserted per arm here) while processed-event counts differ \
             (resched coalescing, timer slots and tickless idle, optimized <= \
             reference), so \
             events/sec is informational; phase_breakdown is one instrumented \
             untimed run per engine; gates: optimized_events <= \
             optimized_events_ceiling (exact), the optimized phase_breakdown's \
             scan_visits <= optimized_scan_visits_ceiling per search (exact), \
             wall_clock_speedup_milli_current \
             >= 0.9x the committed wall_clock_speedup_milli_floor on arms whose \
             floor is >= 1.2x (the floor ratchets to the per-arm minimum across \
             regenerations unless --baseline-reset), and >= 3.0x on the 512c arm"
                    .to_string(),
            ),
        ),
        ("workloads", JsonValue::Array(rows)),
    ]);

    if check {
        match check_against_baseline(&doc, &path) {
            Ok(()) => println!("\nthroughput gate passed against {}", path.display()),
            Err(e) => {
                eprintln!("\nthroughput gate FAILED: {e}");
                eprintln!(
                    "(regenerate the baseline with `cargo run --release -p oversub-bench \
                     --bin sim_throughput` and commit the JSON)"
                );
                std::process::exit(1);
            }
        }
        return;
    }

    if let Err(e) = std::fs::write(&path, doc.to_string_pretty() + "\n") {
        eprintln!("sim_throughput: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\nwrote {}", path.display());
}

/// Compare a fresh measurement against the committed baseline. Four
/// gates, all of which must hold:
///
/// 1. every arm's optimized engine processes at most the committed
///    `optimized_events_ceiling` events (exact and host-independent —
///    catches work creeping back into the event queue);
/// 2. every arm's optimized scheduler examines at most the committed
///    `optimized_scan_visits_ceiling` CPUs in each of its balance,
///    idle-pull and nohz-kick searches (exact and host-independent —
///    catches a search that strides over every CPU again);
/// 3. every arm whose committed wall-clock speedup floor is at least
///    [`RATIO_GATE_MIN_MILLI`] keeps its fresh wall-clock *speedup over
///    the reference engine* above 0.9x the committed floor (relative
///    regression — both engines run on the same host, so this catches
///    optimizations quietly rotting even on faster or slower CI
///    hardware; near-1x arms are exempt, see the constant's docs);
/// 4. [`GATED_ARM`]'s fresh wall-clock speedup clears the absolute
///    [`SPEEDUP_FLOOR_MILLI`] floor.
///
/// The baseline file is not rewritten.
fn check_against_baseline(fresh: &JsonValue, path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let baseline = JsonValue::parse(&text)
        .map_err(|e| format!("baseline {} is malformed: {e}", path.display()))?;
    let base_rows = baseline
        .get("workloads")
        .and_then(|w| w.as_array())
        .ok_or("baseline has no 'workloads' array")?;
    let fresh_rows = fresh
        .get("workloads")
        .and_then(|w| w.as_array())
        .ok_or("fresh run has no 'workloads' array")?;
    let field = |row: &JsonValue, name: &str| -> Result<u64, String> {
        row.get(name)
            .and_then(|v| v.as_u64())
            .ok_or(format!("row without '{name}'"))
    };
    let mut failures = Vec::new();
    for row in fresh_rows {
        let name = row
            .get("workload")
            .and_then(|v| v.as_str())
            .ok_or("row without 'workload'")?;
        let fresh_events = field(row, "optimized_events")?;
        let fresh_speedup = field(row, "wall_clock_speedup_milli_current")?;
        if name == GATED_ARM && fresh_speedup < SPEEDUP_FLOOR_MILLI {
            failures.push(format!(
                "{name}: wall-clock speedup {fresh_speedup} milli below the hard floor \
                 {SPEEDUP_FLOOR_MILLI} milli"
            ));
        }
        let Some(base) = base_rows
            .iter()
            .find(|b| b.get("workload").and_then(|v| v.as_str()) == Some(name))
        else {
            // A new arm has no baseline yet; skip rather than fail, so
            // adding arms does not require regenerating in the same PR.
            println!("  {name}: no committed baseline, skipped");
            continue;
        };
        let ceiling =
            field(base, "optimized_events_ceiling").map_err(|e| format!("baseline {e}"))?;
        let base_speedup =
            field(base, "wall_clock_speedup_milli_floor").map_err(|e| format!("baseline {e}"))?;
        let events_ok = fresh_events <= ceiling;
        let ratio_gated = base_speedup >= RATIO_GATE_MIN_MILLI;
        let speedup_ok = !ratio_gated || (fresh_speedup as u128) * 10 >= (base_speedup as u128) * 9;
        println!(
            "  {name}: {fresh_events} events vs ceiling {ceiling} -> {}; \
             wall-clock speedup {fresh_speedup} vs committed {base_speedup} milli -> {}",
            if events_ok { "ok" } else { "EXCEEDED" },
            if !ratio_gated {
                "ungated (near-1x arm)"
            } else if speedup_ok {
                "ok"
            } else {
                "REGRESSED"
            },
        );
        if !events_ok {
            failures.push(format!(
                "{name}: {fresh_events} events > committed ceiling {ceiling}"
            ));
        }
        let fresh_visits = row
            .get("optimized_scan_visits_ceiling")
            .ok_or("fresh row without 'optimized_scan_visits_ceiling'")?;
        let base_visits = base
            .get("optimized_scan_visits_ceiling")
            .ok_or("baseline row without 'optimized_scan_visits_ceiling'")?;
        for search in SEARCHES {
            let fresh_n = field(fresh_visits, search)?;
            let ceiling_n = field(base_visits, search).map_err(|e| format!("baseline {e}"))?;
            let ok = fresh_n <= ceiling_n;
            println!(
                "  {name}: {search} search visited {fresh_n} cpus vs ceiling {ceiling_n} -> {}",
                if ok { "ok" } else { "EXCEEDED" }
            );
            if !ok {
                failures.push(format!(
                    "{name}: {search} search visited {fresh_n} cpus > committed ceiling \
                     {ceiling_n}"
                ));
            }
        }
        if !speedup_ok {
            failures.push(format!(
                "{name}: wall-clock speedup {fresh_speedup} milli < 0.9x committed \
                 {base_speedup} milli"
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}
