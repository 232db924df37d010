//! Run configuration: machine shape, mechanisms, and environment.

use crate::faults::{FaultPlan, WatchdogParams};
use crate::mechanism::{Mechanism, MechanismFactory};
use oversub_bwd::{BwdParams, ExecEnv, PleParams};
use oversub_hw::{CacheParams, Topology};
use oversub_ksync::FutexParams;
use oversub_sched::SchedParams;
use oversub_simcore::SimTime;
use oversub_workloads::admission::{AdmissionPolicy, OverloadParams};

/// Which machine the container sees.
#[derive(Clone, Debug)]
pub enum MachineSpec {
    /// `n` cores on one NUMA node, SMT off.
    Flat(usize),
    /// The paper's "8 cores" container: 4 + 4 across two sockets.
    Paper8Cores,
    /// The paper's "8 hyperthreads on 4 cores" container.
    Paper8Hyperthreads,
    /// `n` cores packed like the paper's scaling runs (1 socket up to 18,
    /// then split across 2).
    PaperN(usize),
    /// Explicit NUMA shape: (nodes, cores per node, SMT width).
    Numa(usize, usize, usize),
}

impl MachineSpec {
    /// Materialize the topology.
    pub fn topology(&self) -> Topology {
        match *self {
            MachineSpec::Flat(n) => Topology::flat(n),
            MachineSpec::Paper8Cores => Topology::paper_8_cores(),
            MachineSpec::Paper8Hyperthreads => Topology::paper_8_hyperthreads(),
            MachineSpec::PaperN(n) => Topology::paper_n_cores(n),
            MachineSpec::Numa(nodes, cores, smt) => Topology::numa(nodes, cores, smt),
        }
    }
}

/// The OS mechanisms under study.
#[derive(Clone, Copy, Debug)]
pub struct Mechanisms {
    /// Virtual blocking in futex and epoll.
    pub vb: bool,
    /// VB's waiters-vs-cores auto-disable heuristic.
    pub vb_auto_disable: bool,
    /// Busy-waiting detection.
    pub bwd: bool,
    /// Hardware pause-loop exiting (only effective in `ExecEnv::Vm`).
    pub ple: bool,
    /// Neighbour-aware spin management (extension mechanism: patience
    /// windows sized from observed co-runner interference).
    pub neighbour: bool,
}

impl Mechanisms {
    /// Vanilla Linux: nothing enabled.
    pub fn vanilla() -> Self {
        Mechanisms {
            vb: false,
            vb_auto_disable: true,
            bwd: false,
            ple: false,
            neighbour: false,
        }
    }

    /// The paper's "optimized" configuration: VB + BWD.
    pub fn optimized() -> Self {
        Mechanisms {
            vb: true,
            vb_auto_disable: true,
            bwd: true,
            ple: false,
            neighbour: false,
        }
    }

    /// Vanilla with hardware PLE armed (the Figure 13b/14 baseline).
    pub fn ple_only() -> Self {
        Mechanisms {
            ple: true,
            ..Mechanisms::vanilla()
        }
    }

    /// VB only (blocking-synchronization studies).
    pub fn vb_only() -> Self {
        Mechanisms {
            vb: true,
            vb_auto_disable: true,
            bwd: false,
            ple: false,
            neighbour: false,
        }
    }

    /// BWD only (busy-waiting studies).
    pub fn bwd_only() -> Self {
        Mechanisms {
            vb: false,
            vb_auto_disable: true,
            bwd: true,
            ple: false,
            neighbour: false,
        }
    }

    /// VB + the neighbour-aware spin manager: the A/B arm against
    /// [`Mechanisms::optimized`] — same blocking path, interference-sized
    /// spin patience instead of BWD's timer-window detection.
    pub fn neighbour_aware() -> Self {
        Mechanisms {
            vb: true,
            vb_auto_disable: true,
            bwd: false,
            ple: false,
            neighbour: true,
        }
    }

    /// The neighbour-aware spin manager alone (spin-path studies).
    pub fn neighbour_only() -> Self {
        Mechanisms {
            neighbour: true,
            ..Mechanisms::vanilla()
        }
    }
}

/// A scheduled change of the online core count (CPU elasticity).
#[derive(Clone, Copy, Debug)]
pub struct ElasticEvent {
    /// When the reconfiguration happens.
    pub at: SimTime,
    /// New number of online cores (prefix of the topology's CPUs).
    pub cores: usize,
}

/// Full configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Machine shape.
    pub machine: MachineSpec,
    /// Mechanisms enabled.
    pub mech: Mechanisms,
    /// Container or VM (decides whether PLE can fire at all).
    pub env: ExecEnv,
    /// Pin thread `i` to core `i % cores` (the Figure 11 "pinned" arm).
    pub pinned: bool,
    /// RNG seed.
    pub seed: u64,
    /// Hard stop for server workloads (batch workloads end when all tasks
    /// exit).
    pub max_time: Option<SimTime>,
    /// Online-core changes during the run.
    pub elastic: Vec<ElasticEvent>,
    /// Initially online cores (defaults to all).
    pub initial_cores: Option<usize>,
    /// Scheduler tunables.
    pub sched: SchedParams,
    /// Memory-system parameters.
    pub cache: CacheParams,
    /// BWD tunables.
    pub bwd_params: BwdParams,
    /// PLE tunables.
    pub ple_params: PleParams,
    /// Record a scheduling-event trace (see [`crate::trace::TraceLog`]).
    pub trace: bool,
    /// Use the pre-overhaul reference engine internals (classic event
    /// queue, uncached runqueue picks, no resched coalescing). Metrics are
    /// bit-identical either way — this knob exists for the golden
    /// determinism test and before/after throughput comparisons. Can also
    /// be forced with the `OVERSUB_REFERENCE_ENGINE` environment variable.
    pub reference_engine: bool,
    /// Out-of-tree mechanisms, appended to the pipeline after the in-tree
    /// ones selected by [`Mechanisms`]. See [`RunConfig::with_mechanism`].
    pub custom_mechanisms: Vec<MechanismFactory>,
    /// Deterministic fault injection (see [`crate::faults`]). The default
    /// zero-rate plan leaves the run bit-identical to no fault layer.
    pub faults: FaultPlan,
    /// Liveness watchdog; `None` disarms it entirely.
    pub watchdog: Option<WatchdogParams>,
    /// Hard cap on processed events (a step budget for chaos testing);
    /// `None` uses the engine's built-in runaway safety valve.
    pub max_events: Option<u64>,
    /// Overload control plane: per-request deadline, admission policy at
    /// the generator→worker boundary, and the client retry model. The
    /// default (`OverloadParams::disabled()`) keeps every run bit-identical
    /// to a build without the overload layer — workload clients take the
    /// legacy code path and draw no extra randomness.
    pub overload: OverloadParams,
    /// Track lock-acquisition order and wait-for graphs (lockdep) and
    /// surface inversion/deadlock cycles as diagnostics. Observation-only:
    /// every non-diagnostic report byte is identical either way (pinned by
    /// the lockdep golden test). Off by default so clean golden runs carry
    /// no analysis state.
    pub lockdep: bool,
    /// Track happens-before with vector clocks at every sync boundary
    /// (futex wait/wake, lock acquire/release, flag release/acquire,
    /// epoll post) and surface unsynchronized shared-state accesses as
    /// `data-race` diagnostics. Observation-only, same contract as
    /// `lockdep`: every non-diagnostic report byte is identical either
    /// way (pinned by the race golden test). Off by default.
    pub race_detector: bool,
    /// Salt for the event-queue tie-break permutation harness. Zero (the
    /// default) keeps FIFO order on equal-time events — the byte-pinned
    /// production order. Non-zero values permute equal-time pops through
    /// a bijective mix of the insertion sequence number, which is how the
    /// schedule-robustness certifier perturbs schedules; such runs also
    /// disable the resched-coalescing and cadence-lane fast paths (their
    /// correctness proofs assume FIFO ties).
    pub schedule_salt: u64,
}

impl RunConfig {
    /// A vanilla run on `cores` flat cores.
    pub fn vanilla(cores: usize) -> Self {
        RunConfig {
            machine: MachineSpec::Flat(cores),
            mech: Mechanisms::vanilla(),
            env: ExecEnv::Container,
            pinned: false,
            seed: 42,
            max_time: None,
            elastic: Vec::new(),
            initial_cores: None,
            sched: SchedParams::default(),
            cache: CacheParams::default(),
            bwd_params: BwdParams::default(),
            ple_params: PleParams::default(),
            trace: false,
            reference_engine: false,
            custom_mechanisms: Vec::new(),
            faults: FaultPlan::default(),
            watchdog: None,
            max_events: None,
            overload: OverloadParams::disabled(),
            lockdep: false,
            race_detector: false,
            schedule_salt: 0,
        }
    }

    /// The same machine with the paper's optimized mechanisms.
    pub fn optimized(cores: usize) -> Self {
        RunConfig {
            mech: Mechanisms::optimized(),
            ..RunConfig::vanilla(cores)
        }
    }

    /// Builder-style: set the machine spec.
    pub fn with_machine(mut self, m: MachineSpec) -> Self {
        self.machine = m;
        self
    }

    /// Builder-style: set mechanisms.
    pub fn with_mech(mut self, m: Mechanisms) -> Self {
        self.mech = m;
        self
    }

    /// Builder-style: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: cap the virtual run time.
    pub fn with_max_time(mut self, t: SimTime) -> Self {
        self.max_time = Some(t);
        self
    }

    /// Builder-style: run inside a VM (enables PLE detection).
    pub fn in_vm(mut self) -> Self {
        self.env = ExecEnv::Vm;
        self
    }

    /// Builder-style: pin threads round-robin.
    pub fn pinned(mut self) -> Self {
        self.pinned = true;
        self
    }

    /// Builder-style: record a scheduling trace.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Builder-style: run on the reference (pre-overhaul) engine internals.
    pub fn with_reference_engine(mut self, on: bool) -> Self {
        self.reference_engine = on;
        self
    }

    /// Builder-style: set the fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Builder-style: arm the liveness watchdog.
    pub fn with_watchdog(mut self, wd: WatchdogParams) -> Self {
        self.watchdog = Some(wd);
        self
    }

    /// Builder-style: cap the number of processed events (step budget).
    pub fn with_max_events(mut self, n: u64) -> Self {
        self.max_events = Some(n);
        self
    }

    /// Builder-style: set the overload control plane (deadline, admission
    /// policy, retry model). See [`OverloadParams`].
    pub fn with_overload(mut self, ov: OverloadParams) -> Self {
        self.overload = ov;
        self
    }

    /// Builder-style: enable lockdep (lock-order inversion and deadlock
    /// cycle detection, surfaced as diagnostics).
    pub fn with_lockdep(mut self) -> Self {
        self.lockdep = true;
        self
    }

    /// Builder-style: enable the happens-before race detector
    /// (vector-clock tracking at sync boundaries, `data-race`
    /// diagnostics for unsynchronized shared-state accesses).
    pub fn with_race_detector(mut self) -> Self {
        self.race_detector = true;
        self
    }

    /// Builder-style: set the schedule-permutation salt for the
    /// robustness certifier. `0` is the pinned production order.
    pub fn with_schedule_salt(mut self, salt: u64) -> Self {
        self.schedule_salt = salt;
        self
    }

    /// Builder-style: register an out-of-tree [`Mechanism`]. The factory
    /// is invoked once per engine construction so every run gets a fresh
    /// instance; registration order is pipeline order (after the in-tree
    /// mechanisms). See `examples/custom_mechanism.rs`.
    pub fn with_mechanism(
        mut self,
        f: impl Fn() -> Box<dyn Mechanism> + Send + Sync + 'static,
    ) -> Self {
        self.custom_mechanisms.push(MechanismFactory::new(f));
        self
    }

    /// Derive the futex-layer parameters from the mechanisms.
    pub fn futex_params(&self) -> FutexParams {
        FutexParams {
            vb_enabled: self.mech.vb,
            vb_auto_disable: self.mech.vb_auto_disable,
            ..FutexParams::default()
        }
    }

    /// Active BWD parameters (enabled flag folded in). Injected sensor
    /// noise auto-arms the adaptive backoff so BWD degrades gracefully
    /// instead of thrashing on flipped classifications; noise-free runs
    /// keep whatever the caller set (default off), so calibration and
    /// false-positive studies are unperturbed.
    pub fn bwd(&self) -> BwdParams {
        BwdParams {
            enabled: self.mech.bwd,
            adaptive_backoff: self.bwd_params.adaptive_backoff
                || self.faults.sensor_noise_prob > 0.0,
            ..self.bwd_params
        }
    }

    /// Active PLE parameters (enabled flag folded in).
    pub fn ple(&self) -> PleParams {
        PleParams {
            enabled: self.mech.ple,
            ..self.ple_params
        }
    }

    /// Sanity-check the configuration before a run.
    ///
    /// Returns `Err` for combinations that cannot produce a meaningful
    /// simulation (the engine refuses to start), and `Ok(warnings)` for
    /// legal-but-suspicious ones — each warning is a human-readable line
    /// the runner prints to stderr.
    pub fn validate(&self) -> Result<Vec<String>, String> {
        let ncpu = self.machine.topology().num_cpus();
        if let Some(ic) = self.initial_cores {
            if ic == 0 {
                return Err("initial_cores must be at least 1".into());
            }
            if ic > ncpu {
                return Err(format!(
                    "initial_cores ({ic}) exceeds the machine's {ncpu} CPUs"
                ));
            }
        }
        if self.mech.bwd && self.bwd().interval_ns == 0 {
            return Err("BWD is enabled with interval_ns = 0 (timer would never advance)".into());
        }
        if self.mech.ple && self.ple().window_ns == 0 {
            return Err("PLE is enabled with window_ns = 0 (exit storm on every spin)".into());
        }
        self.faults.validate()?;
        if let Some(wd) = &self.watchdog {
            wd.validate(self.sched.slice_ns(1))?;
        }
        if self.max_events == Some(0) {
            return Err("max_events must be non-zero (no event would ever run)".into());
        }
        if let Some(retry) = &self.overload.retry {
            if self.overload.deadline_ns == 0 {
                return Err(
                    "overload: retries are configured with deadline_ns = 0 (no timeout \
                     would ever fire, so no retry could ever be attempted)"
                        .into(),
                );
            }
            if retry.budget == 0 {
                return Err(
                    "overload: retry budget is 0 — use `retry: None` to disable retries".into(),
                );
            }
            if retry.budget > 64 {
                return Err(format!(
                    "overload: retry budget {} exceeds the sanity cap of 64 (a storm \
                     amplifier, not a client model)",
                    retry.budget
                ));
            }
        }
        match self.overload.admission {
            AdmissionPolicy::QueueCap(0) => {
                return Err(
                    "overload: QueueCap(0) sheds every request — no work would ever be \
                     admitted"
                        .into(),
                );
            }
            AdmissionPolicy::CoDel {
                target_ns,
                interval_ns,
            } if target_ns == 0 || interval_ns == 0 => {
                return Err(
                    "overload: CoDel target_ns and interval_ns must both be non-zero".into(),
                );
            }
            _ => {}
        }

        let mut warnings = Vec::new();
        if self.faults.enabled() && self.reference_engine {
            warnings.push(
                "fault injection is combined with the golden-determinism reference \
                 engine: the reference exists to prove fault-free byte-identity, so \
                 a chaos run on it proves nothing about the optimized engine"
                    .to_string(),
            );
        }
        if self.faults.enabled() && self.watchdog.is_none() {
            warnings.push(
                "fault injection is enabled with the watchdog disarmed: lost wakeups \
                 will hang the run until the event cap instead of being rescued"
                    .to_string(),
            );
        }
        if self.mech.ple && self.env == ExecEnv::Container {
            warnings.push(
                "PLE is enabled but env is Container: pause-loop exiting only fires \
                 inside a VM, so it will never trigger"
                    .to_string(),
            );
        }
        for ev in &self.elastic {
            if ev.cores > ncpu {
                warnings.push(format!(
                    "elastic event at {} ns requests {} cores but the machine has {} \
                     (will be clamped)",
                    ev.at.as_nanos(),
                    ev.cores,
                    ncpu
                ));
            }
            if ev.cores == 0 {
                warnings.push(format!(
                    "elastic event at {} ns requests 0 cores (will be clamped to 1)",
                    ev.at.as_nanos()
                ));
            }
        }
        if self.pinned && !self.elastic.is_empty() {
            warnings.push(
                "threads are pinned while the online core count changes: pinned \
                 threads cannot migrate off offlined cores and will stack up on the \
                 surviving ones (this is the paper's Figure 11 'pinned' arm — \
                 intentional there)"
                    .to_string(),
            );
        }
        Ok(warnings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, WatchdogParams};

    #[test]
    fn machine_specs_materialize() {
        assert_eq!(MachineSpec::Flat(8).topology().num_cpus(), 8);
        assert_eq!(MachineSpec::Paper8Cores.topology().num_nodes(), 2);
        assert_eq!(MachineSpec::Paper8Hyperthreads.topology().smt(), 2);
        assert_eq!(MachineSpec::PaperN(32).topology().num_cpus(), 32);
        assert_eq!(MachineSpec::Numa(2, 3, 2).topology().num_cpus(), 12);
    }

    #[test]
    fn mechanism_presets() {
        let v = Mechanisms::vanilla();
        assert!(!v.vb && !v.bwd && !v.ple);
        let o = Mechanisms::optimized();
        assert!(o.vb && o.bwd && !o.ple);
        let p = Mechanisms::ple_only();
        assert!(p.ple && !p.vb && !p.bwd);
    }

    #[test]
    fn futex_params_follow_mechanisms() {
        let cfg = RunConfig::optimized(8);
        assert!(cfg.futex_params().vb_enabled);
        assert!(cfg.bwd().enabled);
        assert!(!cfg.ple().enabled);
        let cfg = RunConfig::vanilla(8);
        assert!(!cfg.futex_params().vb_enabled);
    }

    #[test]
    fn validate_accepts_the_paper_configs() {
        assert_eq!(RunConfig::vanilla(8).validate(), Ok(Vec::new()));
        assert_eq!(RunConfig::optimized(8).validate(), Ok(Vec::new()));
        assert_eq!(
            RunConfig::vanilla(4)
                .with_mech(Mechanisms::ple_only())
                .in_vm()
                .validate(),
            Ok(Vec::new())
        );
    }

    #[test]
    fn validate_rejects_broken_configs() {
        let mut cfg = RunConfig::vanilla(4);
        cfg.initial_cores = Some(0);
        assert!(cfg.validate().is_err());

        let mut cfg = RunConfig::vanilla(4);
        cfg.initial_cores = Some(9);
        assert!(cfg.validate().unwrap_err().contains("exceeds"));

        let mut cfg = RunConfig::optimized(4);
        cfg.bwd_params.interval_ns = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = RunConfig::vanilla(4).with_mech(Mechanisms::ple_only());
        cfg.ple_params.window_ns = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_warns_on_suspicious_configs() {
        // PLE in a container never fires.
        let w = RunConfig::vanilla(4)
            .with_mech(Mechanisms::ple_only())
            .validate()
            .unwrap();
        assert_eq!(w.len(), 1);
        assert!(w[0].contains("Container"));

        // Elastic targets beyond the machine, or zero.
        let mut cfg = RunConfig::vanilla(4);
        cfg.elastic.push(ElasticEvent {
            at: SimTime::from_millis(1),
            cores: 16,
        });
        cfg.elastic.push(ElasticEvent {
            at: SimTime::from_millis(2),
            cores: 0,
        });
        let w = cfg.validate().unwrap();
        assert_eq!(w.len(), 2);

        // Pinned + elastic stacks threads on surviving cores.
        let mut cfg = RunConfig::vanilla(4).pinned();
        cfg.elastic.push(ElasticEvent {
            at: SimTime::from_millis(1),
            cores: 2,
        });
        let w = cfg.validate().unwrap();
        assert_eq!(w.len(), 1);
        assert!(w[0].contains("pinned"));
    }

    #[test]
    fn validate_rejects_impossible_fault_configs() {
        let cfg = RunConfig::vanilla(4).with_faults(FaultPlan::default().lost_wakeups(1.5));
        assert!(cfg.validate().unwrap_err().contains("[0, 1]"));

        // Watchdog park timeout shorter than a scheduler slice.
        let wd = WatchdogParams {
            park_timeout_ns: 1_000,
            ..WatchdogParams::default()
        };
        let cfg = RunConfig::vanilla(4).with_watchdog(wd);
        assert!(cfg.validate().unwrap_err().contains("slice"));

        // Starvation bound of zero.
        let wd = WatchdogParams {
            starvation_bound_ns: 0,
            ..WatchdogParams::default()
        };
        let cfg = RunConfig::vanilla(4).with_watchdog(wd);
        assert!(cfg.validate().is_err());

        let cfg = RunConfig::vanilla(4).with_max_events(0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_warns_on_faults_with_reference_engine() {
        let cfg = RunConfig::vanilla(4)
            .with_faults(FaultPlan::default().lost_wakeups(0.1))
            .with_watchdog(WatchdogParams::default())
            .with_reference_engine(true);
        let w = cfg.validate().unwrap();
        assert_eq!(w.len(), 1);
        assert!(w[0].contains("reference"));

        // Faults without a watchdog also warn.
        let cfg = RunConfig::vanilla(4).with_faults(FaultPlan::default().lost_wakeups(0.1));
        let w = cfg.validate().unwrap();
        assert_eq!(w.len(), 1);
        assert!(w[0].contains("watchdog"));
    }

    #[test]
    fn validate_rejects_broken_overload_configs() {
        use oversub_workloads::admission::RetryPolicy;

        // Retries without a deadline: no timeout can ever fire.
        let cfg = RunConfig::vanilla(4)
            .with_overload(OverloadParams::disabled().with_retry(RetryPolicy::default()));
        assert!(cfg.validate().unwrap_err().contains("deadline_ns = 0"));

        // Zero retry budget.
        let ov = OverloadParams::disabled()
            .with_deadline_ns(1_000_000)
            .with_retry(RetryPolicy {
                budget: 0,
                ..RetryPolicy::default()
            });
        let cfg = RunConfig::vanilla(4).with_overload(ov);
        assert!(cfg.validate().unwrap_err().contains("budget"));

        // Retry budget beyond the sanity cap.
        let ov = OverloadParams::disabled()
            .with_deadline_ns(1_000_000)
            .with_retry(RetryPolicy {
                budget: 65,
                ..RetryPolicy::default()
            });
        let cfg = RunConfig::vanilla(4).with_overload(ov);
        assert!(cfg.validate().unwrap_err().contains("64"));

        // Shed-everything queue cap.
        let cfg = RunConfig::vanilla(4)
            .with_overload(OverloadParams::disabled().with_admission(AdmissionPolicy::QueueCap(0)));
        assert!(cfg.validate().unwrap_err().contains("QueueCap(0)"));

        // Degenerate CoDel windows.
        let cfg = RunConfig::vanilla(4).with_overload(OverloadParams::disabled().with_admission(
            AdmissionPolicy::CoDel {
                target_ns: 0,
                interval_ns: 500_000,
            },
        ));
        assert!(cfg.validate().unwrap_err().contains("CoDel"));

        // A sane overload config passes clean.
        let ov = OverloadParams::disabled()
            .with_deadline_ns(3_000_000)
            .with_admission(AdmissionPolicy::CoDel {
                target_ns: 300_000,
                interval_ns: 500_000,
            })
            .with_retry(RetryPolicy::default());
        assert_eq!(
            RunConfig::vanilla(4).with_overload(ov).validate(),
            Ok(Vec::new())
        );
    }

    #[test]
    fn sensor_noise_auto_arms_bwd_backoff() {
        let cfg = RunConfig::optimized(4);
        assert!(!cfg.bwd().adaptive_backoff);
        let noisy = cfg.with_faults(FaultPlan::default().sensor_noise(0.2));
        assert!(noisy.bwd().adaptive_backoff);
    }

    #[test]
    fn builders_compose() {
        let cfg = RunConfig::vanilla(4)
            .with_seed(7)
            .in_vm()
            .pinned()
            .with_max_time(SimTime::from_secs(1));
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.env, ExecEnv::Vm);
        assert!(cfg.pinned);
        assert_eq!(cfg.max_time, Some(SimTime::from_secs(1)));
    }
}
