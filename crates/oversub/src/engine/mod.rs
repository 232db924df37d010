//! The simulation engine: composes the scheduler, futex/epoll substrate,
//! user-level locks, hardware monitoring, and the mechanism pipeline into
//! a runnable machine, and drives task programs through their actions in
//! virtual time.
//!
//! The engine is a discrete-event loop. Each CPU is either idle, in VB
//! poll mode (only parked tasks queued), or running a task *segment*:
//! a span of compute / memory traversal / tight loop / busy-wait. Segments
//! end at action completion, slice expiry, mechanism deschedules (BWD
//! timer detections, PLE spin exits), spin-budget expiry, or when another
//! CPU's release grants a spun-on lock.
//!
//! The event loop itself is mechanism-agnostic: everything VB, BWD, and
//! PLE do flows through the [`crate::mechanism::Mechanism`] hook points —
//! the loop consults the pipeline at each hook and applies the returned
//! verdicts. Module layout:
//!
//! - [`mod@self`]: the [`Engine`] struct, construction, the event loop,
//!   and resched coalescing.
//! - `events`: time accounting and the per-event handlers (resched,
//!   segment end, slice, preemption, balancing, I/O, elasticity).
//! - `spin`: segment bookkeeping plus the mechanism timer / spin-exit
//!   handlers.
//! - `blocking`: futex/epoll wrappers and cross-CPU lock grants.
//! - `report`: metric aggregation into a [`RunReport`].
//! - `tickless`: suspended quiet mechanism ticks, charged in closed form.
//! - `diag`: opt-in runqueue audits and stall dumps.
//!
//! Time accounting invariant: each CPU has a cursor
//! ([`oversub_sched::CpuState::accounted_until`]) that only moves forward;
//! every nanosecond between events is attributed to exactly one bucket
//! (useful / spin / kernel / idle) and, for monitored kinds, fed into the
//! core's LBR/PMC window so BWD sees exactly what ran.

mod blocking;
mod diag;
mod events;
mod lockdep;
mod race_hooks;
mod report;
mod spin;
mod tickless;
mod watchdog;

use crate::config::RunConfig;
use crate::faults::{EngineError, FaultInjector, WatchdogParams};
use crate::mechanism::MechanismSet;
use crate::race::RaceTracker;
use crate::trace::TraceLog;
use oversub_hw::{CpuId, MemModel, NormalCodeRates};
use oversub_ksync::{EpollTable, FutexTable};
use oversub_locks::{LockDep, SyncRegistry};
use oversub_metrics::{Diagnostic, RunReport};
use oversub_sched::ScanVisits;
use oversub_simcore::{EventClass, EventKey, EventQueue, SimRng, SimTime, VClock};
use oversub_task::{Action, EpollFd, FlagId, LockId, SemId, SpinSig, Task, TaskId, TaskTable};
use oversub_workloads::workload::{Workload, WorldBuilder};

/// What kind of time the current segment on a CPU is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum RunKind {
    /// Program work (compute or memory traversal).
    Useful,
    /// Busy-waiting on a lock or flag.
    Spin(SpinSig),
    /// A bounded non-synchronization tight loop (BWD false-positive bait).
    TightLoop(SpinSig),
}

/// Why the pending per-segment event fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum SegEventKind {
    /// The work action completes.
    WorkEnd,
    /// A spin-then-park budget expires: convert to futex park.
    ParkDeadline,
    /// Indefinite spin: no scheduled end.
    None,
}

/// How a blocked task resumes when it next runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Resume {
    /// Retry a mutex acquisition (futex-mutex wake path).
    MutexRetry(LockId),
    /// Re-acquire the mutex after a condvar wait.
    CondReacquire(LockId),
    /// A parked semaphore waiter received its token with the wake.
    SemAcquired(SemId),
    /// Nothing more to do: the blocking action is complete.
    Simple,
    /// Consume pending epoll events, then proceed.
    EpollReady(EpollFd),
    /// I/O completed.
    Io,
}

/// Per-task continuation: what the task is in the middle of.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Cont {
    /// Ask the program for its next action.
    Ready,
    /// A partially-executed work action (remaining unscaled nanoseconds).
    Work {
        /// The action being executed.
        action: Action,
        /// Remaining work at full speed.
        left_ns: u64,
    },
    /// Busy-waiting on a registered lock.
    SpinLock {
        /// The lock id (mutex or spinlock table, per `is_mutex`).
        lock: LockId,
        /// True: blocking-mutex table (spin-then-park kinds); false:
        /// spinlock table.
        is_mutex: bool,
        /// Loop shape.
        sig: SpinSig,
        /// Remaining spin budget before parking (None = spin forever).
        budget_left: Option<u64>,
    },
    /// Busy-waiting on a flag word.
    SpinFlag {
        /// The flag.
        flag: FlagId,
        /// Spin while the flag equals this.
        while_eq: u64,
        /// Loop shape.
        sig: SpinSig,
    },
    /// Blocked in the kernel (futex/epoll/io); `resume` runs on wake.
    Blocked(Resume),
    /// Exited.
    Done,
}

/// Discrete events.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    /// Try to schedule work on an idle CPU.
    Resched(usize),
    /// The current segment's scheduled end (work done or park deadline).
    /// A [`Timer`], tagged with the segment epoch it was armed in.
    SegEnd(usize, u64),
    /// Slice expiry for the current stint. A [`Timer`], tagged with the
    /// stint epoch it was armed in.
    Slice(usize, u64),
    /// A mechanism-armed spin exit for the current spin segment (PLE's
    /// pause-loop exit; any mechanism may arm one). A [`Timer`], tagged
    /// with the segment epoch it was armed in.
    SpinExit(usize, u64),
    /// Re-evaluate wakeup preemption on this CPU.
    PreemptCheck(usize),
    /// A mechanism's periodic monitoring timer: `(mechanism index, cpu)`.
    MechTimer(usize, usize),
    /// Periodic load balancing.
    Balance(usize),
    /// An I/O wait finished.
    IoDone(usize),
    /// CPU elasticity: change the online core count.
    Elastic(usize),
    /// Periodic fault-injection tick (spurious wakeups, revocation
    /// storms). Only scheduled when the fault plan needs it.
    FaultTick,
    /// Periodic liveness-watchdog sweep. Only scheduled when armed.
    Watchdog,
    /// Hard stop (max_time).
    Stop,
}

/// A CPU's one-shot timers, the engine's counterpart of the kernel's
/// per-runqueue hrtick: at most one of each kind is pending per CPU. Each
/// lives in its own event-queue slot ([`EventQueue::schedule_slot`]), so
/// arming one replaces the CPU's pending timer of that kind, and ending a
/// stint or segment clears them: the optimized engine never pops a
/// superseded timer. The reference engine's classic queue keeps every
/// arm, and the handlers retire superseded ones by their epoch tag.
#[derive(Clone, Copy)]
pub(crate) enum Timer {
    /// [`Event::Slice`].
    Slice,
    /// [`Event::SegEnd`].
    SegEnd,
    /// [`Event::SpinExit`].
    SpinExit,
}

impl Timer {
    /// The queue slot of this timer on `cpu`.
    fn slot(self, cpu: usize) -> usize {
        cpu * 3 + self as usize
    }
}

/// Host-side time attribution of one run, split by simulation phase, plus
/// the scheduler's search-visit counts. Filled only when profiling is
/// requested ([`run_phase_profiled`]); the normal run loop pays one branch
/// per event for the possibility.
///
/// Handler buckets include the event-queue *inserts* those handlers make
/// (a resched handler's slice arming, a timer handler's re-arm): the
/// `queue_pop_ns` bucket isolates the pop side, which is where the fast
/// queue's heap, cadence lanes and hot-lane cache live.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseProfile {
    /// Popping the event queue (heap/lane selection + pop + rotation).
    pub queue_pop_ns: u64,
    /// Resched and wakeup-preemption handlers — the runqueue pick paths.
    pub pick_ns: u64,
    /// Periodic mechanism-timer handlers — the mechanism hook dispatch.
    pub mech_timer_ns: u64,
    /// Periodic load-balance handlers.
    pub balance_ns: u64,
    /// Everything else (segment ends, slice expiry, I/O, elasticity...).
    pub other_ns: u64,
    /// CPUs examined by the balance, idle-pull and nohz-kick searches:
    /// exact and host-independent, unlike the time buckets.
    pub scan_visits: ScanVisits,
}

impl PhaseProfile {
    /// Total attributed host nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.queue_pop_ns + self.pick_ns + self.mech_timer_ns + self.balance_ns + self.other_ns
    }

    fn slot_for(&mut self, ev: &Event) -> &mut u64 {
        match ev {
            Event::Resched(_) | Event::PreemptCheck(_) => &mut self.pick_ns,
            Event::MechTimer(_, _) => &mut self.mech_timer_ns,
            Event::Balance(_) => &mut self.balance_ns,
            _ => &mut self.other_ns,
        }
    }
}

/// Safety valve against runaway simulations.
const MAX_EVENTS: u64 = 400_000_000;

/// Default cap when a workload neither exits nor sets `max_time`.
const DEFAULT_CAP: SimTime = SimTime(600 * oversub_simcore::SECS);

/// Per-core stagger of mechanism timers: core `c`'s first tick is at
/// `interval + (c * stride) % interval`, so cores do not all fire at once.
const TIMER_PHASE_STRIDE_NS: u64 = 7_919;

pub(crate) struct Engine {
    pub cfg: RunConfig,
    pub sched: oversub_sched::Scheduler,
    pub futex: FutexTable,
    pub epoll: EpollTable,
    pub sync: SyncRegistry,
    /// The mechanism pipeline (VB / BWD / PLE / custom).
    pub mechs: MechanismSet,
    pub mem: MemModel,
    pub tasks: TaskTable,
    pub conts: Vec<Cont>,
    pub rngs: Vec<SimRng>,
    pub queue: EventQueue<Event>,
    /// Per-CPU epoch for stint-level timers (Slice); bumped by
    /// `end_stint`.
    pub stint_epoch: Vec<u64>,
    /// Per-CPU epoch for segment-level timers (SegEnd/SpinExit); bumped by
    /// `end_segment` and `shift_segment`.
    pub seg_epoch: Vec<u64>,
    /// Per-CPU current segment kind (valid while running).
    pub run_kind: Vec<RunKind>,
    /// Per-CPU SMT speed factor captured at segment start.
    pub seg_rate: Vec<f64>,
    /// Per-CPU scheduled end of the current segment.
    pub seg_done_at: Vec<SimTime>,
    /// Per-CPU pending segment event kind.
    pub seg_event: Vec<SegEventKind>,
    /// Per-CPU pending spin exit, if a mechanism armed one:
    /// `(exit time, index of the owning mechanism)`.
    pub spin_exit_at: Vec<Option<(SimTime, usize)>>,
    /// `(timestamp, queue seq mark)` of the most recently scheduled
    /// `Event::Resched(cpu)` per CPU. A duplicate request is coalesced
    /// into it only when both match — the mark proves no other event was
    /// scheduled in between, so the duplicate would pop immediately after
    /// its twin with identical state (see `sched_resched`).
    pub resched_pending: Vec<Option<(SimTime, u64)>>,
    /// Reference mode: classic queue, uncached picks, no coalescing.
    pub reference: bool,
    /// Per-mechanism timer interval, cached at construction so the
    /// periodic-tick hot path re-arms without a dyn dispatch (intervals
    /// are fixed for the life of a run).
    pub timer_intervals: Vec<Option<u64>>,
    /// Suspended quiet mechanism timers (see `tickless`).
    tickless: tickless::Tickless,
    /// Quiet ticks taken by the tickless path, deferred per mechanism and
    /// flushed into the mechanism's check counter before counters are
    /// read (the increments commute, so deferral is exact).
    pending_idle_checks: Vec<u64>,
    /// `OVERSUB_TRACE` progress logging (read once at construction; env
    /// lookups are too slow for the per-event hot loop).
    trace_progress: bool,
    /// `OVERSUB_CHECK` runqueue audits (read once at construction).
    check_rqs: bool,
    /// `OVERSUB_TRACE_CPU` filter (read once at construction).
    trace_cpu: Option<usize>,
    pub now: SimTime,
    pub live: usize,
    pub end_cap: SimTime,
    pub events_processed: u64,
    pub last_exit: SimTime,
    pub rates: NormalCodeRates,
    /// Ground-truth spin episodes (starts of genuine busy-waiting), for
    /// the BWD sensitivity table.
    pub spin_episodes: u64,
    /// Optional scheduling-event trace.
    pub trace: TraceLog,
    /// Fault injector; `None` unless the config's plan enables any fault,
    /// so clean runs carry no injector state at all.
    pub faults: Option<FaultInjector>,
    /// Liveness-watchdog parameters (copied out of the config; `None`
    /// keeps the watchdog fully disarmed — no events, no sweeps).
    pub watchdog: Option<WatchdogParams>,
    /// When each task's current VB park began (orphan ageing; only
    /// allocated when the watchdog is armed).
    pub vb_park_since: Vec<Option<SimTime>>,
    /// Per-task latch so starvation is reported once per task (sized with
    /// `vb_park_since`).
    pub starvation_reported: Vec<bool>,
    /// Structured invariant/watchdog findings, folded into the report.
    pub diagnostics: Vec<Diagnostic>,
    /// `(progress sum, when it last changed)` for the hang detector.
    pub last_progress: (u64, SimTime),
    /// Set when the watchdog halts the run (no-progress hang).
    pub halted: bool,
    /// Event budget for this run (config override or the safety valve).
    pub max_events: u64,
    /// Lock-order / wait-for graph tracking; `None` unless the config
    /// opts in, so clean runs carry no analysis state at all.
    pub lockdep: Option<LockDep>,
    /// Happens-before race tracking (sync-object clocks + plain-variable
    /// access history); `None` unless the config opts in. Per-task clocks
    /// live in `tasks.race_clock` and stay zero-length when disarmed.
    pub race: Option<Box<RaceTracker>>,
    /// Per-phase host-time accumulators; `None` (one branch per event)
    /// unless the run was started via [`run_phase_profiled`].
    pub phase_prof: Option<Box<PhaseProfile>>,
}

impl Engine {
    pub(crate) fn new(cfg: RunConfig, workload: &mut dyn Workload) -> Self {
        Self::try_new(cfg, workload).unwrap_or_else(|e| panic!("{e}"))
    }

    pub(crate) fn try_new(
        cfg: RunConfig,
        workload: &mut dyn Workload,
    ) -> Result<Self, EngineError> {
        match cfg.validate() {
            Ok(warnings) => {
                for w in warnings {
                    eprintln!("[oversub] config warning: {w}");
                }
            }
            Err(e) => return Err(EngineError::InvalidConfig(e)),
        }

        // Build the mechanism pipeline and let it configure the kernel
        // substrate (VB flips the futex/epoll/scheduler flags here).
        let mut mechs = MechanismSet::from_config(&cfg);
        let sub = mechs.configure_substrate();

        let topo = cfg.machine.topology();
        let mem = MemModel::new(cfg.cache.clone());
        let mut sched = oversub_sched::Scheduler::new(
            topo.clone(),
            cfg.sched.clone(),
            mem.clone(),
            sub.sched_vb,
        );
        let initial_cores = cfg.initial_cores.unwrap_or(topo.num_cpus());
        sched.set_online_count(initial_cores);

        let futex = FutexTable::new(sub.futex);
        let epoll = EpollTable::new(sub.futex);
        let mut world = WorldBuilder::new(initial_cores, epoll);
        world.overload = cfg.overload;
        // The min-service check needs the workload, so it cannot live in
        // `RunConfig::validate` with the other warnings.
        if cfg.overload.deadline_ns > 0 {
            if let Some(min_ns) = workload.min_service_ns() {
                if cfg.overload.deadline_ns < min_ns {
                    eprintln!(
                        "[oversub] config warning: overload deadline ({} ns) is below \
                         the workload's minimum service time (~{} ns) — every request \
                         will exceed its deadline even on an idle machine",
                        cfg.overload.deadline_ns, min_ns
                    );
                }
            }
        }
        workload.build(&mut world);

        let base_rng = SimRng::new(cfg.seed);
        let n = world.threads.len();
        let mut tasks = TaskTable::new();
        let mut rngs = Vec::with_capacity(n);
        let online: Vec<usize> = (0..initial_cores).collect();
        for (i, spec) in world.threads.into_iter().enumerate() {
            let cpu = spec.initial_cpu.unwrap_or(CpuId(online[i % online.len()]));
            let mut t = Task::new(TaskId(i), spec.program, cpu);
            t.footprint_bytes = spec.footprint;
            t.pinned = spec.pinned;
            t.allowed = spec.allowed;
            t.weight = spec.weight;
            if cfg.pinned && t.pinned.is_none() {
                t.pinned = Some(cpu);
            }
            tasks.push(t);
            rngs.push(base_rng.fork(i as u64 + 1));
        }

        let ncpu = topo.num_cpus();
        let end_cap = cfg.max_time.unwrap_or(DEFAULT_CAP);
        let reference =
            cfg.reference_engine || std::env::var_os("OVERSUB_REFERENCE_ENGINE").is_some();
        if reference {
            sched.set_reference_mode(true);
        }
        // Chaos-layer state: an injector only when the plan enables a
        // fault, park-ageing vectors only when the watchdog is armed, so
        // clean runs are bit-identical to builds without the fault layer.
        let faults = cfg
            .faults
            .enabled()
            .then(|| FaultInjector::new(cfg.faults.clone(), &base_rng));
        let watchdog = cfg.watchdog;
        let wd_slots = if watchdog.is_some() { n } else { 0 };
        let max_events = cfg.max_events.unwrap_or(MAX_EVENTS);
        let lockdep = cfg.lockdep.then(|| LockDep::new(n));
        let race = cfg.race_detector.then(|| Box::new(RaceTracker::new()));
        if race.is_some() {
            // Arm the per-task clocks: zero-length (disarmed) rows become
            // dense task-count-length clocks.
            for c in tasks.race_clock.iter_mut() {
                *c = VClock::zeroed(n);
            }
        }
        let mut queue = if reference {
            EventQueue::classic()
        } else {
            EventQueue::new()
        };
        if cfg.schedule_salt != 0 {
            // Certifier runs permute equal-time same-burst ties; the
            // cadence lanes order by raw insertion sequence, so the salt
            // also routes everything through the plain heap.
            queue.set_tiebreak_salt(cfg.schedule_salt);
        }
        let timer_intervals: Vec<Option<u64>> = (0..mechs.len())
            .map(|i| mechs.timer_interval_ns(i))
            .collect();
        // Tickless idle runs exactly where auto-cadence rotation does
        // (see below), next to every other cadence the run arms.
        let charges: Vec<Option<u64>> = (0..mechs.len())
            .map(|i| mechs.idle_quiet_constant(i))
            .collect();
        let other_cadences: Vec<u64> = std::iter::once(cfg.sched.balance_interval_ns)
            .chain(cfg.watchdog.map(|wd| wd.check_interval_ns))
            .collect();
        let tickless = tickless::Tickless::new(
            !reference && faults.is_none() && cfg.schedule_salt == 0,
            ncpu,
            &mechs.timers(),
            &charges,
            &other_cadences,
        );
        let pending_idle_checks = vec![0u64; mechs.len()];
        let mut eng = Engine {
            mechs,
            sched,
            futex,
            epoll: world.epoll,
            sync: world.sync,
            mem,
            conts: vec![Cont::Ready; n],
            tasks,
            rngs,
            queue,
            resched_pending: vec![None; ncpu],
            reference,
            timer_intervals,
            tickless,
            pending_idle_checks,
            trace_progress: std::env::var_os("OVERSUB_TRACE").is_some(),
            check_rqs: std::env::var_os("OVERSUB_CHECK").is_some(),
            trace_cpu: std::env::var("OVERSUB_TRACE_CPU")
                .ok()
                .and_then(|v| v.parse::<usize>().ok()),
            stint_epoch: vec![0; ncpu],
            seg_epoch: vec![0; ncpu],
            run_kind: vec![RunKind::Useful; ncpu],
            seg_rate: vec![1.0; ncpu],
            seg_done_at: vec![SimTime::ZERO; ncpu],
            seg_event: vec![SegEventKind::None; ncpu],
            spin_exit_at: vec![None; ncpu],
            now: SimTime::ZERO,
            live: n,
            end_cap,
            events_processed: 0,
            last_exit: SimTime::ZERO,
            rates: NormalCodeRates::default(),
            spin_episodes: 0,
            trace: if cfg.trace {
                TraceLog::enabled()
            } else {
                TraceLog::disabled()
            },
            faults,
            watchdog,
            vb_park_since: vec![None; wd_slots],
            starvation_reported: vec![false; wd_slots],
            diagnostics: Vec::new(),
            last_progress: (0, SimTime::ZERO),
            halted: false,
            max_events,
            lockdep,
            race,
            phase_prof: None,
            cfg,
        };

        // Place tasks and arm per-CPU machinery.
        for i in 0..n {
            let cpu = eng.tasks.last_cpu[i];
            eng.sched
                .enqueue_new(&mut eng.tasks, TaskId(i), cpu, SimTime::ZERO);
        }
        let timers = eng.mechs.timers();
        for c in 0..ncpu {
            eng.sched_resched(SimTime::ZERO, c);
            for &(idx, interval_ns) in &timers {
                let phase = (c as u64 * TIMER_PHASE_STRIDE_NS) % interval_ns;
                eng.queue.schedule_cadenced(
                    SimTime::from_nanos(interval_ns + phase),
                    interval_ns,
                    Event::MechTimer(idx, c),
                );
            }
            let balance_interval_ns = eng.cfg.sched.balance_interval_ns;
            let phase = (c as u64 * 104_729) % balance_interval_ns;
            eng.queue.schedule_cadenced(
                SimTime::from_nanos(balance_interval_ns + phase),
                balance_interval_ns,
                Event::Balance(c),
            );
        }
        for ev in eng.cfg.elastic.clone() {
            eng.queue.schedule(ev.at, Event::Elastic(ev.cores));
        }
        if let Some(f) = &eng.faults {
            if f.plan.needs_tick() {
                eng.queue.schedule_cadenced(
                    SimTime::from_nanos(f.plan.tick_interval_ns),
                    f.plan.tick_interval_ns,
                    Event::FaultTick,
                );
            }
        }
        if let Some(wd) = eng.watchdog {
            eng.queue.schedule_cadenced(
                SimTime::from_nanos(wd.check_interval_ns),
                wd.check_interval_ns,
                Event::Watchdog,
            );
        }
        if eng.cfg.max_time.is_some() {
            eng.queue.schedule(end_cap, Event::Stop);
        }
        // Auto-cadence rotation: in fault-free optimized runs every
        // cadenced re-arm is deterministic — `now + interval`, issued as
        // the handler's first schedule call after the pop — so the queue
        // performs it during the pop itself and the handlers skip their
        // explicit re-arm when `last_pop_rotated()` reports it done (or
        // take it back when a quiet tick suspends its timer). Fault runs
        // keep the explicit path (jitter and drops perturb the re-arm
        // point), as does the reference engine.
        if !eng.reference && eng.faults.is_none() && eng.cfg.schedule_salt == 0 {
            eng.queue.set_auto_cadence(true);
        }
        Ok(eng)
    }

    /// Run to completion and build the report (plus the trace and the
    /// number of processed events).
    pub(crate) fn run_with_trace(
        mut self,
        workload: &dyn Workload,
        label: &str,
    ) -> (RunReport, TraceLog, u64, Option<PhaseProfile>) {
        // Keep the accumulators out of `self` during the loop so the
        // instrumented arms can time `dispatch(&mut self)` calls.
        let mut prof = self.phase_prof.take();
        loop {
            let popped = match prof.as_deref_mut() {
                None => self.queue.pop(),
                Some(p) => {
                    let t0 = std::time::Instant::now();
                    let r = self.queue.pop();
                    p.queue_pop_ns += t0.elapsed().as_nanos() as u64;
                    r
                }
            };
            let Some((t, ev)) = popped else { break };
            if t >= self.end_cap {
                self.now = self.end_cap;
                break;
            }
            debug_assert!(t >= self.now, "time went backwards: {t} < {}", self.now);
            if t < self.now {
                // Event-queue monotonicity violated: surface it and stop
                // instead of corrupting accounting with backwards time.
                let msg = format!("event at {t} popped after clock reached {}", self.now);
                self.push_diagnostic("event-order", None, None, msg);
                break;
            }
            self.now = t;
            self.events_processed += 1;
            if self.events_processed > self.max_events {
                let msg = format!(
                    "event budget of {} exhausted with {} tasks live",
                    self.max_events, self.live
                );
                self.push_diagnostic("event-budget", None, None, msg);
                break;
            }
            if self.trace_progress && self.events_processed.is_multiple_of(1_000_000) {
                eprintln!(
                    "[trace] events={}M now={} live={} ev={:?}",
                    self.events_processed / 1_000_000,
                    self.now,
                    self.live,
                    ev
                );
            }
            match prof.as_deref_mut() {
                None => self.dispatch(ev),
                Some(p) => {
                    let t0 = std::time::Instant::now();
                    self.dispatch(ev);
                    *p.slot_for(&ev) += t0.elapsed().as_nanos() as u64;
                }
            }
            if self.check_rqs {
                self.audit_rqs();
            }
            if self.live == 0 || self.halted {
                break;
            }
        }
        let makespan = if self.live == 0 {
            self.last_exit
        } else {
            if std::env::var_os("OVERSUB_DUMP_STALL").is_some() {
                self.dump_stall_state();
            }
            self.now
        };
        // Suspended ticks run up to where the per-tick loop would have
        // stopped: everything ordered before the last event taken, and
        // nothing at or past the cap.
        let cap = EventKey {
            time: self.end_cap,
            sched_at: SimTime::ZERO,
            class: EventClass::Cadenced,
        };
        self.finish_ticks(self.queue.current_key().min(cap));
        let mut pending = std::mem::take(&mut self.pending_idle_checks);
        self.mechs.flush_idle_checks(&mut pending);
        let trace = std::mem::take(&mut self.trace);
        let events = self.events_processed;
        let scan_visits = self.sched.scan_visits;
        (
            self.build_report(workload, label, makespan),
            trace,
            events,
            prof.map(|p| PhaseProfile { scan_visits, ..*p }),
        )
    }

    /// Request an `Event::Resched(cpu)` at `at`, coalescing adjacent
    /// duplicates. A duplicate is suppressed only when a `Resched(cpu)`
    /// was already scheduled for the *same timestamp* and the queue's
    /// sequence mark has not moved since — i.e. no event of any kind was
    /// scheduled in between. Events pop in `(time, seq)` order, so an
    /// unmoved mark proves the twin would pop immediately after the
    /// covering event with no intervening handler: if the covering
    /// resched started a task the twin sees a busy CPU and returns; if it
    /// found nothing, the twin re-runs `pick_next` on bit-identical state
    /// (skip-flag expiry is idempotent within a pick round, a failed
    /// `idle_pull` is stateless, and `account_progress` at an unchanged
    /// cursor adds zero). Either way the twin is a provable no-op, so
    /// dropping it cannot perturb metrics — the golden determinism test
    /// (`tests/determinism.rs`) checks this end to end. Any suppression
    /// window wider than "strictly adjacent" is unsound: an intervening
    /// same-timestamp event (e.g. a `PreemptCheck`) can requeue a task
    /// that the twin's `idle_pull` would then steal.
    pub(crate) fn sched_resched(&mut self, at: SimTime, cpu: usize) {
        if self.reference {
            self.queue.schedule(at, Event::Resched(cpu));
            return;
        }
        if self.resched_pending[cpu] == Some((at, self.queue.seq_mark())) {
            return;
        }
        self.queue.schedule(at, Event::Resched(cpu));
        self.resched_pending[cpu] = Some((at, self.queue.seq_mark()));
    }

    fn dispatch(&mut self, ev: Event) {
        if let Some(n) = self.trace_cpu {
            let touches = match ev {
                Event::Resched(c)
                | Event::SegEnd(c, _)
                | Event::Slice(c, _)
                | Event::SpinExit(c, _)
                | Event::PreemptCheck(c)
                | Event::MechTimer(_, c)
                | Event::Balance(c) => c == n,
                _ => true,
            };
            if touches {
                eprintln!(
                    "[cpu{n}] now={} ev={:?} current={:?} sched={} live={}",
                    self.now,
                    ev,
                    self.sched.cpus[n].current,
                    self.sched.cpus[n].rq.nr_schedulable(),
                    self.live
                );
            }
        }
        match ev {
            Event::Resched(c) => self.on_resched(c),
            Event::SegEnd(c, e) => self.on_seg_end(c, e),
            Event::Slice(c, e) => self.on_slice(c, e),
            Event::SpinExit(c, e) => self.on_spin_exit(c, e),
            Event::PreemptCheck(c) => self.on_preempt_check(c),
            Event::MechTimer(m, c) => self.on_mech_timer(m, c),
            Event::Balance(c) => self.on_balance(c),
            Event::IoDone(t) => self.on_io_done(t),
            Event::Elastic(n) => self.on_elastic(n),
            Event::FaultTick => self.on_fault_tick(),
            Event::Watchdog => self.on_watchdog(),
            Event::Stop => { /* handled by end_cap check */ }
        }
    }
}

/// Run `workload` under `config`, labelling the report.
pub fn run_labelled(workload: &mut dyn Workload, config: &RunConfig, label: &str) -> RunReport {
    let engine = Engine::new(config.clone(), workload);
    engine.run_with_trace(workload, label).0
}

/// Run `workload` under `config`, additionally returning the number of
/// discrete events the engine processed — the denominator of the
/// events-per-second throughput benchmark. The count is *not* part of
/// [`RunReport`]: it is an engine-internal quantity that legitimately
/// differs between the optimized and reference engines (resched
/// coalescing, superseded timers, tickless idle), while every report
/// metric stays bit-identical.
pub fn run_counted(
    workload: &mut dyn Workload,
    config: &RunConfig,
    label: &str,
) -> (RunReport, u64) {
    let engine = Engine::new(config.clone(), workload);
    let (report, _, events, _) = engine.run_with_trace(workload, label);
    (report, events)
}

/// [`run_counted`] with per-phase wall-clock attribution: the run loop
/// additionally times event-queue pops and buckets each dispatch's cost
/// by event class (runqueue pick, mechanism timers, balance, other).
/// The instrumentation costs two `Instant::now` pairs per event, so this
/// entry point is for profiling harnesses (`sim_throughput`), not for
/// the benchmark's timed reps.
pub fn run_phase_profiled(
    workload: &mut dyn Workload,
    config: &RunConfig,
    label: &str,
) -> (RunReport, u64, PhaseProfile) {
    let mut engine = Engine::new(config.clone(), workload);
    engine.phase_prof = Some(Box::default());
    let (report, _, events, prof) = engine.run_with_trace(workload, label);
    (report, events, prof.unwrap_or_default())
}

/// Run `workload` under `config` and return the scheduling trace alongside
/// the report (enable recording with [`RunConfig::traced`]).
pub fn run_traced(workload: &mut dyn Workload, config: &RunConfig) -> (RunReport, TraceLog) {
    let name = workload.name().to_string();
    let engine = Engine::new(config.clone(), workload);
    let (report, trace, _, _) = engine.run_with_trace(workload, &name);
    (report, trace)
}

/// Run `workload` under `config`.
pub fn run(workload: &mut dyn Workload, config: &RunConfig) -> RunReport {
    let name = workload.name().to_string();
    run_labelled(workload, config, &name)
}

/// Run `workload` under `config`, surfacing configuration errors as a
/// typed [`EngineError`] instead of a panic. Chaos harnesses and
/// property tests use this entry point: a fault-injected run either
/// completes or terminates with structured diagnostics in the report,
/// never a panic or a hang.
pub fn try_run(workload: &mut dyn Workload, config: &RunConfig) -> Result<RunReport, EngineError> {
    let name = workload.name().to_string();
    try_run_labelled(workload, config, &name)
}

/// [`try_run`] with an explicit report label.
pub fn try_run_labelled(
    workload: &mut dyn Workload,
    config: &RunConfig,
    label: &str,
) -> Result<RunReport, EngineError> {
    let engine = Engine::try_new(config.clone(), workload)?;
    Ok(engine.run_with_trace(workload, label).0)
}
