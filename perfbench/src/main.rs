//! The repository benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload (see `workloads.rs`) as timed reps for `--seconds`
//! seconds, checks every output, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer ledger (`--trace 1`). The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A fuller record (per-rep samples, host CPUs, seed, commit, spans) is
//! written to `out/` beside this package.
//!
//! The benchmark measures the simulator only from outside: it times
//! calls into each layer's public functions and adds no tracing inside
//! the engine. The traced run uses `run_phase_profiled`, the counting
//! allocator in `alloc.rs`, and spans kept in memory until the end.

mod alloc;
mod host;
mod spans;
mod workloads;

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use oversub::experiments::ExpOpts;
use oversub::ksync::EpollTable;
use oversub::metrics::json::JsonValue;
use oversub::workload::WorldBuilder;
use oversub::{run_counted, run_phase_profiled, sweep, MechanismSet, RunConfig, RunReport};
use oversub_bench::experiment_set;

use spans::Spans;
use workloads::{Arm, Bench};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The flag that makes a process run only the set-up.
const SETUP_ONLY: &str = "--setup-only";

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]";

/// Timed reps per invocation never drop below this.
const MIN_REPS: usize = 3;

/// Fresh processes that each run only the set-up; `setup_s` is the
/// median of their wall times.
const SETUP_PROCESSES: usize = 15;

/// Repetitions of the sub-millisecond layer calls timed in the traced
/// run (`Workload::build`, the report JSON round trip); the median counts.
const MICRO_REPEATS: usize = 9;

/// Pool width of the `paper-sweep` workload.
const SWEEP_JOBS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    /// Run the set-up and exit: how `setup_s` is sampled.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = 1.0;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == SETUP_ONLY {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--scale" => scale = value.parse::<f64>().map_err(|_| bad())?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        setup_only,
    };
    if !(args.seconds > 0.0 && args.scale > 0.0) {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(args)
}

/// Every `OVERSUB_*` variable switches the simulator onto another code
/// path (reference engine, run-cache off, pool width, audits...). The
/// benchmark measures only the default path, so it refuses to run.
fn env_guard() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("OVERSUB_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} set: the benchmark measures only the default code path; unset it",
            set.join(", ")
        ))
    }
}

/// Operations attempted and failed, with a note per failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(note) = result {
            self.failed += 1;
            eprintln!("perfbench: check failed: {note}");
            self.notes.push(note);
        }
    }
}

/// End-to-end metrics with their units, in print order.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics with their units, in print order; the per-experiment
/// wall times follow them. A workload reports 0 for a metric it cannot
/// observe (the single arms have no sweep, `paper-sweep` exposes no
/// per-run profile or report).
const LAYERS: [(&str, &str); 34] = [
    ("simcore.queue_pop_s", "s"),
    ("simcore.events", "count"),
    ("simcore.host_ns_per_event", "ns"),
    ("sched.pick_s", "s"),
    ("sched.balance_s", "s"),
    ("sched.context_switches", "count"),
    ("sched.migrations", "count"),
    ("mechanism.timer_s", "s"),
    ("mechanism.vb.parks", "count"),
    ("mechanism.vb.unparks", "count"),
    ("mechanism.bwd.timer_checks", "count"),
    ("bwd.checks", "count"),
    ("bwd.detections", "count"),
    ("bwd.false_positives", "count"),
    ("bwd.detection_ratio", "ratio"),
    ("ksync.wakes", "count"),
    ("ksync.sleep_waits", "count"),
    ("ksync.virtual_waits", "count"),
    ("engine.other_s", "s"),
    ("engine.traced_s", "s"),
    ("engine.trace_overhead", "ratio"),
    ("engine.cpu_time_excess_ppm", "ppm"),
    ("workloads.build_s", "s"),
    ("metrics.requests", "count"),
    ("metrics.report_json_s", "s"),
    ("sweep.cache_hits", "count"),
    ("sweep.cache_misses", "count"),
    ("sweep.cache_hit_ratio", "ratio"),
    ("sweep.pool_busy_s", "s"),
    ("sweep.pool_utilization", "ratio"),
    ("alloc.count", "count"),
    ("alloc.bytes", "bytes"),
    ("alloc.per_event", "count/event"),
    ("experiments.other.wall_s", "s"),
];

/// Every metric `--trace` selects, with its unit, in print order.
fn metric_names(trace: bool) -> Vec<(String, &'static str)> {
    if !trace {
        return END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
    }
    let mut names: Vec<_> = LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for (_, slug) in workloads::EXPERIMENT_SLUGS {
        names.push((format!("experiments.{slug}.wall_s"), "s"));
    }
    names
}

/// Measured values by metric name.
#[derive(Default)]
struct Metrics(HashMap<String, f64>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Host wall and CPU seconds of each timed rep.
#[derive(Default)]
struct Reps {
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
}

impl Reps {
    /// Time `f` as one rep.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let c0 = host::process_cpu_ns();
        let t0 = Instant::now();
        let out = f();
        self.wall_s.push(t0.elapsed().as_secs_f64());
        self.cpu_s
            .push(host::process_cpu_ns().saturating_sub(c0) as f64 / 1e9);
        out
    }

    /// Whether the timed phase that began at `start` is over.
    fn done(&self, start: Instant, seconds: f64) -> bool {
        self.wall_s.len() >= MIN_REPS && start.elapsed().as_secs_f64() >= seconds
    }
}

/// One simulation, with the per-phase host-time split when `profiled`.
/// Fails on an invalid configuration, a
/// panic, or any diagnostic (the benchmark's runs are fault-free, so
/// every diagnostic is an error).
fn simulate(
    arm: &Arm,
    cfg: &RunConfig,
    profiled: bool,
) -> Result<(RunReport, u64, Option<oversub::PhaseProfile>), String> {
    cfg.validate().map_err(|e| format!("invalid config: {e}"))?;
    let mut wl = (arm.make)();
    let out = catch_unwind(AssertUnwindSafe(|| {
        if profiled {
            let (r, n, p) = run_phase_profiled(&mut *wl, cfg, arm.label);
            (r, n, Some(p))
        } else {
            let (r, n) = run_counted(&mut *wl, cfg, arm.label);
            (r, n, None)
        }
    }))
    .map_err(|_| format!("{} panicked", arm.label))?;
    if let Some(d) = out.0.diagnostics.first() {
        return Err(format!(
            "{}: diagnostic {}: {}",
            arm.label, d.kind, d.detail
        ));
    }
    Ok(out)
}

/// Compare a run's canonical JSON with the first timed rep's.
fn same_report(what: &str, golden: Option<&str>, json: &str) -> Result<(), String> {
    match golden {
        Some(g) if g != json => {
            let at = g.bytes().zip(json.bytes()).position(|(a, b)| a != b);
            Err(format!(
                "{what}: report differs from the first rep (byte {at:?})"
            ))
        }
        _ => Ok(()),
    }
}

/// A fresh world for `Workload::build`, shaped exactly as the engine
/// shapes it for `cfg`.
fn fresh_world(cfg: &RunConfig) -> WorldBuilder {
    let sub = MechanismSet::from_config(cfg).configure_substrate();
    let cores = cfg
        .initial_cores
        .unwrap_or_else(|| cfg.machine.topology().num_cpus());
    let mut world = WorldBuilder::new(cores, EpollTable::new(sub.futex));
    world.overload = cfg.overload;
    world
}

/// End-to-end metrics shared by both workload kinds.
fn end_to_end(m: &mut Metrics, reps: &Reps, setup_s: &[f64], peak_kib: u64) {
    m.put("wall_s", median(&reps.wall_s));
    m.put("cpu_s", median(&reps.cpu_s));
    m.put("setup_s", median(setup_s));
    m.put("peak_rss_mb", peak_kib as f64 / 1024.0);
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Everything one invocation produced.
struct Outcome {
    metrics: Metrics,
    reps: Reps,
    spans: Option<Spans>,
}

fn bench_arm(arm: &Arm, args: &Args, setup_s: &[f64], tally: &mut Tally) -> Outcome {
    let mut reps = Reps::default();
    let mut golden: Option<String> = None;
    let mut events = 0;
    let start = Instant::now();
    while !reps.done(start, args.seconds) {
        let out = reps.time(|| simulate(arm, &arm.cfg, false));
        tally.check(out.and_then(|(report, n, _)| {
            let json = report.to_json();
            same_report("timed rep", golden.as_deref(), &json)?;
            golden.get_or_insert(json);
            events = n;
            Ok(())
        }));
    }
    let mut metrics = Metrics::default();
    end_to_end(&mut metrics, &reps, setup_s, host::peak_rss_kib());

    // The reference engine is the repository's oracle: once per
    // invocation, untimed, it must produce the same report bytes.
    let reference = arm.cfg.clone().with_reference_engine(true);
    tally
        .check(simulate(arm, &reference, false).and_then(|(r, _, _)| {
            same_report("reference engine", golden.as_deref(), &r.to_json())
        }));

    let spans = args.trace.then(|| {
        let mut sp = Spans::new();
        traced_arm(
            arm,
            &reps,
            events,
            golden.as_deref(),
            &mut sp,
            &mut metrics,
            tally,
        );
        sp
    });
    Outcome {
        metrics,
        reps,
        spans,
    }
}

/// The traced run of a single arm: spans around `Workload::build`, the
/// phase-profiled engine run (allocations counted), and the report JSON
/// round trip; per-layer metrics from the profile and the report.
fn traced_arm(
    arm: &Arm,
    reps: &Reps,
    events: u64,
    golden: Option<&str>,
    sp: &mut Spans,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let ((run, allocs), round_trips_ok) = sp.span("traced", |sp| {
        for _ in 0..MICRO_REPEATS {
            let mut wl = (arm.make)();
            let mut world = fresh_world(&arm.cfg);
            sp.span("workloads.build", |_| wl.build(&mut world));
        }
        let run = sp.span("engine.run", |_| {
            alloc::counted(|| simulate(arm, &arm.cfg, true))
        });
        let mut round_trips_ok = true;
        if let (Ok((report, _, _)), _) = &run {
            for _ in 0..MICRO_REPEATS {
                let back = sp.span("metrics.report_json", |_| {
                    RunReport::from_json(&report.to_json())
                });
                round_trips_ok &= back.as_ref() == Ok(report);
            }
        }
        (run, round_trips_ok)
    });
    let (report, prof) = match run {
        Ok((report, n, prof)) => {
            tally.check(
                same_report("traced run", golden, &report.to_json()).and_then(|_| {
                    if n != events {
                        Err(format!("traced run popped {n} events, timed reps {events}"))
                    } else if !round_trips_ok {
                        Err("report JSON round trip changed the report".into())
                    } else {
                        Ok(())
                    }
                }),
            );
            (report, prof.unwrap_or_default())
        }
        Err(e) => {
            tally.check(Err(e));
            return;
        }
    };
    let s = |ns: u64| ns as f64 / 1e9;
    let wall = median(&reps.wall_s);
    let traced_s = sp.total_s("engine.run");
    let mech = |name: &str| {
        let c = report.mechanisms.iter().find(|c| c.name == name);
        c.cloned().unwrap_or_default()
    };
    let (vb, bwd) = (mech("vb"), mech("bwd"));
    let c = &report.cpus;
    let available = c.cpus as f64 * report.makespan_ns as f64;
    let booked = (c.useful_ns + c.spin_ns + c.kernel_ns + c.idle_ns) as f64;

    m.put("simcore.queue_pop_s", s(prof.queue_pop_ns));
    m.put("simcore.events", events as f64);
    m.put(
        "simcore.host_ns_per_event",
        wall * 1e9 / events.max(1) as f64,
    );
    m.put("sched.pick_s", s(prof.pick_ns));
    m.put("sched.balance_s", s(prof.balance_ns));
    m.put("sched.context_switches", c.context_switches as f64);
    m.put("sched.migrations", report.tasks.migrations() as f64);
    m.put("mechanism.timer_s", s(prof.mech_timer_ns));
    m.put("mechanism.vb.parks", vb.parks as f64);
    m.put("mechanism.vb.unparks", vb.unparks as f64);
    m.put("mechanism.bwd.timer_checks", bwd.timer_checks as f64);
    m.put("bwd.checks", report.bwd.checks as f64);
    m.put("bwd.detections", report.bwd.detections as f64);
    m.put("bwd.false_positives", report.bwd.false_positives as f64);
    m.put(
        "bwd.detection_ratio",
        ratio(report.bwd.detections, report.bwd.checks),
    );
    m.put("ksync.wakes", report.blocking.wakes as f64);
    m.put("ksync.sleep_waits", report.blocking.sleep_waits as f64);
    m.put("ksync.virtual_waits", report.blocking.virtual_waits as f64);
    m.put("engine.other_s", s(prof.other_ns));
    m.put("engine.traced_s", traced_s);
    m.put("engine.trace_overhead", traced_s / wall);
    if available > 0.0 {
        m.put(
            "engine.cpu_time_excess_ppm",
            (booked - available) / available * 1e6,
        );
    }
    m.put("workloads.build_s", sp.median_s("workloads.build"));
    m.put("metrics.requests", report.latency_exact.count() as f64);
    m.put("metrics.report_json_s", sp.median_s("metrics.report_json"));
    m.put("alloc.count", allocs.count as f64);
    m.put("alloc.bytes", allocs.bytes as f64);
    m.put("alloc.per_event", ratio(allocs.count, events));
}

/// A section of the rendered experiment set: its slug and its text, or
/// why it failed.
type Section = (&'static str, Result<String, String>);

/// One rendering of the whole experiment set from a cold run cache, each
/// experiment in its own span.
fn sweep_pass(o: ExpOpts, sp: &mut Spans) -> Vec<Section> {
    sweep::reset();
    sweep::set_jobs(SWEEP_JOBS);
    let mut sections = Vec::new();
    for (id, desc, f) in experiment_set(o) {
        let slug = workloads::experiment_slug(desc);
        let table = sp.span(&format!("experiments.{slug}"), |_| {
            catch_unwind(AssertUnwindSafe(&f))
        });
        let text = match table {
            Ok(t) if t.is_empty() => Err(format!("{id}: {desc}: empty table")),
            Ok(t) => Ok(format!("==== {id}: {desc}\n{}\n", t.render())),
            Err(_) => Err(format!("{id}: {desc}: panicked")),
        };
        sections.push((slug, text));
    }
    sections
}

/// Count one operation per section: it must not have failed, and it must
/// match the first timed pass.
fn check_sections(what: &str, sections: &[Section], golden: &[Section], tally: &mut Tally) {
    for (i, (slug, text)) in sections.iter().enumerate() {
        tally.check(text.clone().and_then(|t| match golden.get(i) {
            Some((_, Ok(g))) if *g != t => {
                Err(format!("{what}: {slug} differs from the first rep"))
            }
            _ => Ok(()),
        }));
    }
}

fn bench_sweep(o: ExpOpts, args: &Args, setup_s: &[f64], tally: &mut Tally) -> Outcome {
    let mut reps = Reps::default();
    let mut golden = Vec::new();
    let start = Instant::now();
    while !reps.done(start, args.seconds) {
        let sections = reps.time(|| sweep_pass(o, &mut Spans::new()));
        check_sections("timed rep", &sections, &golden, tally);
        if golden.is_empty() {
            golden = sections;
        }
    }
    let mut m = Metrics::default();
    end_to_end(&mut m, &reps, setup_s, host::peak_rss_kib());
    let spans = args.trace.then(|| {
        let mut sp = Spans::new();
        let (sections, allocs) = sp.span("traced", |sp| alloc::counted(|| sweep_pass(o, sp)));
        check_sections("traced run", &sections, &golden, tally);
        let stats = sweep::stats();
        let traced_s = sp.total_s("traced");
        m.put("engine.traced_s", traced_s);
        m.put("engine.trace_overhead", traced_s / median(&reps.wall_s));
        m.put("sweep.cache_hits", stats.cache_hits as f64);
        m.put("sweep.cache_misses", stats.cache_misses as f64);
        m.put(
            "sweep.cache_hit_ratio",
            ratio(stats.cache_hits, stats.cache_hits + stats.cache_misses),
        );
        m.put("sweep.pool_busy_s", stats.pool.busy_ns as f64 / 1e9);
        m.put(
            "sweep.pool_utilization",
            stats.pool.utilization_milli() as f64 / 1000.0,
        );
        m.put("alloc.count", allocs.count as f64);
        m.put("alloc.bytes", allocs.bytes as f64);
        for (slug, _) in &sections {
            m.put(
                format!("experiments.{slug}.wall_s"),
                sp.total_s(&format!("experiments.{slug}")),
            );
        }
        sp
    });
    Outcome {
        metrics: m,
        reps,
        spans,
    }
}

fn json_str(s: &str) -> String {
    JsonValue::Str(s.to_string()).to_string_compact()
}

/// A number with all its digits (non-finite values cannot occur in the
/// metrics; they would print as 0).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|&x| json_num(x)).collect();
    format!("[{}]", items.join(", "))
}

fn metrics_json(names: &[(String, &str)], m: &Metrics) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(n, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(m.get(n)),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The set-up: everything before the first timed rep.
fn set_up(args: &Args) -> Bench {
    let bench = workloads::build(&args.workload, args.seed, args.scale).expect("known workload");
    match &bench {
        Bench::Arm(arm) => {
            sweep::set_jobs(1);
            let mut wl = (arm.make)();
            wl.build(&mut fresh_world(&arm.cfg));
        }
        Bench::Sweep(o) => {
            sweep::set_jobs(SWEEP_JOBS);
            std::hint::black_box(experiment_set(*o));
        }
    }
    bench
}

/// Set-up time from process start to the first timed rep: the wall time
/// of fresh processes that run only the set-up, so each sample pays
/// process start, one-time initialisation and a cold heap, as a user's
/// run does.
fn setup_samples() -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..SETUP_PROCESSES)
        .map(|_| {
            let t0 = Instant::now();
            let status = Command::new(&exe)
                .args(std::env::args_os().skip(1))
                .arg(SETUP_ONLY)
                .stdout(Stdio::null())
                .status()
                .map_err(|e| e.to_string())?;
            let wall = t0.elapsed().as_secs_f64();
            status.success().then_some(wall).ok_or(status.to_string())
        })
        .collect()
}

fn main() {
    let args = match env_guard().and_then(|_| parse_args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        eprintln!(
            "perfbench: unknown workload {} (one of {})\n{USAGE}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        std::process::exit(2);
    }

    let bench = set_up(&args);
    if args.setup_only {
        return;
    }
    let setup_s = match setup_samples() {
        Ok(samples) => samples,
        Err(e) => {
            eprintln!("perfbench: set-up process failed: {e}");
            std::process::exit(1);
        }
    };

    let mut tally = Tally::default();
    let out = match &bench {
        Bench::Arm(arm) => bench_arm(arm, &args, &setup_s, &mut tally),
        Bench::Sweep(o) => bench_sweep(*o, &args, &setup_s, &mut tally),
    };

    let host_cpus = host::host_cpus();
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let commit = host::git_commit(&here.join(".."));
    let names = metric_names(args.trace);
    let metrics = metrics_json(&names, &out.metrics);
    println!(
        "perfbench {} seed={} trace={} host_cpus={host_cpus} commit={commit} reps={}",
        args.workload,
        args.seed,
        args.trace as u8,
        out.reps.wall_s.len()
    );
    for (name, unit) in &names {
        println!("  {name:<48} {:>16.6} {unit}", out.metrics.get(name));
    }
    println!(
        "  {:<48} {:>16.6} share ({} of {} operations)",
        "failed_share",
        ratio(tally.failed, tally.attempted),
        tally.failed,
        tally.attempted
    );

    // The fuller record: samples, host, commit and spans.
    let notes: Vec<String> = tally.notes.iter().map(|n| json_str(n)).collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"scale\": {}, \
         \"host_cpus\": {host_cpus}, \"commit\": {}, \"reps\": {}, \"wall_s\": {}, \
         \"cpu_s\": {}, \"setup_s\": {}, \"attempted\": {}, \"failed\": {}, \
         \"failures\": [{}], \"metrics\": {metrics}, \"spans\": {}}}\n",
        json_str(&args.workload),
        args.seed,
        args.trace,
        json_num(args.scale),
        json_str(&commit),
        out.reps.wall_s.len(),
        json_list(&out.reps.wall_s),
        json_list(&out.reps.cpu_s),
        json_list(&setup_s),
        tally.attempted,
        tally.failed,
        notes.join(", "),
        out.spans
            .map_or("[]".into(), |s| s.to_json().to_string_compact()),
    );
    let dir = here.join("out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, record)) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
    );
}
