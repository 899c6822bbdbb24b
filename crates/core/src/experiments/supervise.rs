//! The supervised execution layer: panic isolation, watchdogs, and
//! failure attribution for experiment grids.
//!
//! Without supervision a grid has all-or-nothing semantics: one
//! panicking cell (a bad config, a workload edge case, a livelocked
//! machine) unwinds through the worker pool and the whole 9×9 matrix is
//! lost. Every pairing-grid and litmus cell therefore runs supervised
//! ([`Engine::run_supervised`]), which gives each cell its own blast
//! radius:
//!
//! * every attempt runs under `catch_unwind`, so a cell failure becomes
//!   a recorded [`CellFailure`] instead of a crashed process;
//! * failures are retried up to [`SupervisorCfg::retries`] times —
//!   deterministic, because a cell is a pure function of its inputs: a
//!   persistent fault fails identically every attempt, while a transient
//!   injected fault (`attempts=1` in the fault spec) clears on retry and
//!   the cell converges to its golden output;
//! * a *forward-progress watchdog* trips when no µop retires on either
//!   hardware context for [`SupervisorCfg::livelock_cycles`] machine
//!   cycles (a livelocked simulation burns cycles forever without
//!   progress — the cap in `SystemConfig::max_cycles` would catch it
//!   only after tens of billions of cycles);
//! * a *wall-clock deadline* is enforced cooperatively: a monitor thread
//!   flips the cell's cancellation flag when the attempt exceeds
//!   [`SupervisorCfg::deadline`], and `System::step_span` checks the
//!   flag between spans and aborts the cell;
//! * every failure can emit a self-contained crash-repro bundle
//!   (see [`super::bundle`]) holding the experiment fingerprint, the
//!   fault spec, the last periodic checkpoint, and the counter tail.
//!
//! The supervision context reaches the `System` through a thread-local:
//! drivers like `run_pair` construct their machines internally, and each
//! cell runs wholly on one worker thread, so `System::new` picks the
//! context up without any driver plumbing. With no supervisor installed
//! (the other experiments) the thread-local is `None` and the checks are
//! one branch per span. Healthy grids stay bit-identical to the goldens,
//! because the watchdog checks only observe counters, never mutate
//! machine state.

use std::cell::RefCell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

use super::Engine;

/// Supervision policy for one stage of cells.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorCfg {
    /// Re-runs granted after a failed attempt (so a cell executes at
    /// most `retries + 1` times).
    pub retries: u32,
    /// Wall-clock budget per attempt; `None` disables the deadline
    /// monitor.
    pub deadline: Option<Duration>,
    /// Trip the livelock diagnostic after this many machine cycles with
    /// zero µops retired on either context; `0` disables the watchdog.
    pub livelock_cycles: u64,
    /// Refresh the cell's crash-tail checkpoint every this many machine
    /// cycles; `0` disables periodic checkpointing.
    pub checkpoint_every: u64,
    /// Where to write crash-repro bundles; `None` disables bundles.
    pub bundle_dir: Option<PathBuf>,
    /// Base delay of the decorrelated-jitter backoff slept between a
    /// failed attempt and its retry; `Duration::ZERO` disables sleeping
    /// (a zero schedule is still recorded in the manifest).
    pub backoff_base: Duration,
    /// Upper clamp on any single backoff delay.
    pub backoff_cap: Duration,
}

impl Default for SupervisorCfg {
    fn default() -> Self {
        SupervisorCfg {
            retries: 1,
            deadline: None,
            livelock_cycles: 2_000_000,
            checkpoint_every: 0,
            bundle_dir: None,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(400),
        }
    }
}

/// The deterministic seeded backoff schedule for a cell: `attempts - 1`
/// delays of decorrelated jitter (`d_{n+1} = uniform(base, 3·d_n)`,
/// clamped to `cap`), seeded from `(seed, label)` so every attempt
/// sequence — in this process or a respawned shard worker — sleeps the
/// same schedule. Retrying immediately after a failure is the worst
/// possible policy for the faults retries exist for (another process
/// holding a file, an overloaded host, a racing cache writer); jitter
/// decorrelates the retry storms of neighboring cells while staying
/// bit-reproducible.
pub fn backoff_schedule(
    seed: u64,
    label: &str,
    attempts: u32,
    base: Duration,
    cap: Duration,
) -> Vec<Duration> {
    let n = attempts.saturating_sub(1) as usize;
    if base.is_zero() {
        return vec![Duration::ZERO; n];
    }
    let base_ms = u64::try_from(base.as_millis()).unwrap_or(u64::MAX).max(1);
    let cap_ms = u64::try_from(cap.as_millis())
        .unwrap_or(u64::MAX)
        .max(base_ms);
    // splitmix64 over (seed, label): cheap, stateless, and good enough
    // jitter for spreading retries.
    let mut state = seed ^ jsmt_snapshot::fnv64(label.as_bytes());
    let mut mix = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut prev = base_ms;
    (0..n)
        .map(|_| {
            let hi = prev.saturating_mul(3).clamp(base_ms, cap_ms);
            let d = base_ms + mix() % (hi - base_ms + 1);
            prev = d;
            Duration::from_millis(d)
        })
        .collect()
}

/// How a supervised cell failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The cell panicked (injected fault, violated invariant, …).
    Panic,
    /// The forward-progress watchdog saw no retirement for the
    /// configured span.
    Livelock,
    /// The wall-clock deadline expired.
    Deadline,
    /// The cell was cancelled from outside.
    Cancelled,
    /// The shard worker *process* executing the cell died (SIGKILL,
    /// abort, unexpected exit) — only produced by the multi-process
    /// dispatcher; in-thread supervision turns process-safe failures
    /// into one of the kinds above instead.
    WorkerDeath,
}

impl FailureKind {
    /// Stable name used in manifests and bundles.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Livelock => "livelock",
            FailureKind::Deadline => "deadline",
            FailureKind::Cancelled => "cancelled",
            FailureKind::WorkerDeath => "worker-death",
        }
    }

    /// Inverse of [`FailureKind::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "panic" => FailureKind::Panic,
            "livelock" => FailureKind::Livelock,
            "deadline" => FailureKind::Deadline,
            "cancelled" => FailureKind::Cancelled,
            "worker-death" => FailureKind::WorkerDeath,
            _ => return None,
        })
    }

    /// Snapshot tag.
    pub(crate) fn tag(self) -> u8 {
        match self {
            FailureKind::Panic => 0,
            FailureKind::Livelock => 1,
            FailureKind::Deadline => 2,
            FailureKind::Cancelled => 3,
            FailureKind::WorkerDeath => 4,
        }
    }

    /// Inverse of [`FailureKind::tag`].
    pub(crate) fn from_tag(t: u8) -> Option<Self> {
        Some(match t {
            0 => FailureKind::Panic,
            1 => FailureKind::Livelock,
            2 => FailureKind::Deadline,
            3 => FailureKind::Cancelled,
            4 => FailureKind::WorkerDeath,
            _ => return None,
        })
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The record of one cell that exhausted its attempts.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Stage the cell belongs to (`pair-grid`, `solo-baselines`).
    pub stage: String,
    /// Cell label within the stage (`compress+db`, `jess`).
    pub label: String,
    /// Submission index within the stage.
    pub index: usize,
    /// Failure classification of the final attempt.
    pub kind: FailureKind,
    /// Component attribution (`system`, `gc`, `worker`, `watchdog`,
    /// `unknown` for organic panics).
    pub component: String,
    /// Machine cycle at which the final attempt died (0 when unknown).
    pub cycle: u64,
    /// Human-readable failure message.
    pub message: String,
    /// Attempts executed (always `retries + 1` for a recorded failure).
    pub attempts: u32,
    /// The deterministic backoff schedule (milliseconds slept between
    /// consecutive attempts; `attempts - 1` entries).
    pub backoff_ms: Vec<u64>,
    /// Crash-repro bundle path, when one was written.
    pub bundle: Option<PathBuf>,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: {} in '{}' at cycle {} after {} attempt(s): {}",
            self.stage,
            self.label,
            self.kind,
            self.component,
            self.cycle,
            self.attempts,
            self.message
        )
    }
}

/// Panic payload thrown out of `System::step_span` when a watchdog or
/// cancellation trips; the supervisor downcasts it back for attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellAbort {
    /// No retirement on either context for `stalled_for` cycles.
    Livelock {
        /// Cycle at which the watchdog tripped.
        cycle: u64,
        /// Length of the zero-retirement span.
        stalled_for: u64,
    },
    /// The deadline monitor flipped the cancellation flag.
    Deadline {
        /// Cycle at which the flag was observed.
        cycle: u64,
    },
    /// An external canceller flipped the flag.
    Cancelled {
        /// Cycle at which the flag was observed.
        cycle: u64,
    },
}

impl fmt::Display for CellAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellAbort::Livelock { cycle, stalled_for } => write!(
                f,
                "livelock: no retirement on either context for {stalled_for} cycles (at cycle {cycle})"
            ),
            CellAbort::Deadline { cycle } => {
                write!(f, "wall-clock deadline exceeded (at cycle {cycle})")
            }
            CellAbort::Cancelled { cycle } => write!(f, "cancelled (at cycle {cycle})"),
        }
    }
}

/// Cancellation-flag values (stored in [`Supervision::flag`]).
pub(crate) const RUNNING: u8 = 0;
pub(crate) const ABORT_DEADLINE: u8 = 1;
pub(crate) const ABORT_CANCELLED: u8 = 2;

/// The crash tail a supervised system maintains: the most recent
/// periodic checkpoint and merged counter bank, harvested into the
/// crash-repro bundle when the cell dies.
#[derive(Debug, Default)]
pub struct CrashTail {
    /// Last `System::checkpoint` bytes (sealed snapshot).
    pub checkpoint: Option<Vec<u8>>,
    /// Last merged counter bank (`jsmt_snapshot::save_bytes`).
    pub counters: Option<Vec<u8>>,
}

/// The supervision context a cell's `System` cooperates with. Installed
/// in a thread-local around each attempt; `System::new` captures it.
#[derive(Debug, Clone)]
pub struct Supervision {
    /// Cooperative cancellation flag ([`RUNNING`] / [`ABORT_DEADLINE`] /
    /// [`ABORT_CANCELLED`]), checked in `System::step_span`.
    pub(crate) flag: Arc<AtomicU8>,
    /// Most recent machine cycle the supervised system reported (for
    /// attribution of failures that carry no cycle of their own).
    pub(crate) cycle: Arc<AtomicU64>,
    /// Forward-progress watchdog threshold (0 = off).
    pub(crate) livelock_cycles: u64,
    /// Periodic checkpoint interval (0 = off).
    pub(crate) checkpoint_every: u64,
    /// Crash tail slot.
    pub(crate) tail: Arc<Mutex<CrashTail>>,
}

impl Supervision {
    pub(crate) fn new(cfg: &SupervisorCfg) -> Self {
        Supervision {
            flag: Arc::new(AtomicU8::new(RUNNING)),
            cycle: Arc::new(AtomicU64::new(0)),
            livelock_cycles: cfg.livelock_cycles,
            checkpoint_every: cfg.checkpoint_every,
            tail: Arc::new(Mutex::new(CrashTail::default())),
        }
    }

    /// Request cancellation; the supervised system aborts at its next
    /// span boundary.
    pub fn cancel(&self) {
        self.flag.store(ABORT_CANCELLED, Ordering::SeqCst);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Supervision>> = const { RefCell::new(None) };
}

/// The supervision context active on this thread, if any (captured by
/// `System::new`).
pub(crate) fn current() -> Option<Supervision> {
    CURRENT.with(|c| c.borrow().clone())
}

pub(crate) struct SupervisionGuard {
    prev: Option<Supervision>,
}

pub(crate) fn install(sup: Supervision) -> SupervisionGuard {
    let prev = CURRENT.with(|c| c.replace(Some(sup)));
    SupervisionGuard { prev }
}

impl Drop for SupervisionGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Quiet panic hook: supervised cells die by design (injected faults,
/// watchdog aborts), and the default hook would print a backtrace per
/// attempt. Filter exactly our typed payloads; organic panics still
/// reach the previous hook untouched.
pub(crate) fn silence_supervised_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.is::<CellAbort>() || payload.is::<jsmt_faults::InjectedPanic>() {
                return;
            }
            previous(info);
        }));
    });
}

/// `(expiry, flag)` per in-flight attempt; slots are removed when the
/// attempt finishes.
type WatchRegistry = Arc<Mutex<Vec<(Instant, Arc<AtomicU8>)>>>;

/// Deadline monitor: one thread per supervised stage, polling the
/// registry of in-flight attempts and flipping the cancellation flag of
/// any that outlive the deadline. The supervised system notices the flag
/// cooperatively, so enforcement is graceful — no thread is killed.
struct Monitor {
    registry: WatchRegistry,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    deadline: Duration,
}

impl Monitor {
    fn start(deadline: Option<Duration>) -> Option<Monitor> {
        let deadline = deadline?;
        let registry: WatchRegistry = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    {
                        let now = Instant::now();
                        let reg = registry.lock().expect("monitor registry");
                        for (expiry, flag) in reg.iter() {
                            if now >= *expiry {
                                // Never overwrite an explicit cancel.
                                let _ = flag.compare_exchange(
                                    RUNNING,
                                    ABORT_DEADLINE,
                                    Ordering::SeqCst,
                                    Ordering::SeqCst,
                                );
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        };
        Some(Monitor {
            registry,
            stop,
            handle: Some(handle),
            deadline,
        })
    }

    fn watch(&self, flag: Arc<AtomicU8>) -> MonitorSlot<'_> {
        let expiry = Instant::now() + self.deadline;
        self.registry
            .lock()
            .expect("monitor registry")
            .push((expiry, Arc::clone(&flag)));
        MonitorSlot {
            monitor: self,
            flag,
        }
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

struct MonitorSlot<'a> {
    monitor: &'a Monitor,
    flag: Arc<AtomicU8>,
}

impl Drop for MonitorSlot<'_> {
    fn drop(&mut self) {
        self.monitor
            .registry
            .lock()
            .expect("monitor registry")
            .retain(|(_, f)| !Arc::ptr_eq(f, &self.flag));
    }
}

/// Attribution extracted from a caught panic payload (also used by the
/// multi-process shard worker to serialize a failure over its reply
/// pipe).
pub(crate) struct Diagnosis {
    pub(crate) kind: FailureKind,
    pub(crate) component: String,
    pub(crate) cycle: u64,
    pub(crate) message: String,
}

pub(crate) fn diagnose(payload: Box<dyn std::any::Any + Send>, sup: &Supervision) -> Diagnosis {
    if let Some(abort) = payload.downcast_ref::<CellAbort>() {
        let (kind, cycle) = match *abort {
            CellAbort::Livelock { cycle, .. } => (FailureKind::Livelock, cycle),
            CellAbort::Deadline { cycle } => (FailureKind::Deadline, cycle),
            CellAbort::Cancelled { cycle } => (FailureKind::Cancelled, cycle),
        };
        return Diagnosis {
            kind,
            component: "watchdog".to_string(),
            cycle,
            message: abort.to_string(),
        };
    }
    if let Some(injected) = payload.downcast_ref::<jsmt_faults::InjectedPanic>() {
        return Diagnosis {
            kind: FailureKind::Panic,
            component: injected.component.clone(),
            cycle: injected.cycle,
            message: injected.to_string(),
        };
    }
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    };
    Diagnosis {
        kind: FailureKind::Panic,
        component: "unknown".to_string(),
        // Best-effort: the last cycle the supervised system reported.
        cycle: sup.cycle.load(Ordering::Relaxed),
        message,
    }
}

impl Engine {
    /// Run one stage of labeled, independent jobs under supervision.
    /// Outputs come back in submission order; each is either the job's
    /// result or the [`CellFailure`] that exhausted its attempts. A
    /// failed cell never takes another cell (or the process) with it.
    ///
    /// `ctx` is the experiment fingerprint recorded into crash bundles.
    // One `CellFailure` exists per *failed* cell, not per cell; boxing it
    // would push the indirection onto every caller for no hot-path win.
    #[allow(clippy::result_large_err)]
    pub fn run_supervised<I, O, F>(
        &self,
        stage: &str,
        cfg: &SupervisorCfg,
        ctx: &super::ExperimentCtx,
        jobs: Vec<(String, I)>,
        f: F,
    ) -> Vec<Result<O, CellFailure>>
    where
        I: Sync,
        O: Send,
        F: Fn(&I) -> O + Sync,
    {
        let indexed = jobs
            .into_iter()
            .enumerate()
            .map(|(i, (label, job))| (i, label, job))
            .collect();
        self.run_supervised_at(stage, cfg, ctx, indexed, f)
    }

    /// [`Self::run_supervised`] over `(index, label, job)` triples: the
    /// index a failure records is given, not the job's position. The
    /// grid executor dispatches only the cells its cache lacks, and their
    /// failures keep their grid index.
    #[allow(clippy::result_large_err)]
    pub(crate) fn run_supervised_at<I, O, F>(
        &self,
        stage: &str,
        cfg: &SupervisorCfg,
        ctx: &super::ExperimentCtx,
        jobs: Vec<(usize, String, I)>,
        f: F,
    ) -> Vec<Result<O, CellFailure>>
    where
        I: Sync,
        O: Send,
        F: Fn(&I) -> O + Sync,
    {
        silence_supervised_panics();
        let monitor = Monitor::start(cfg.deadline);
        self.run(stage, jobs, |(index, label, job)| {
            supervise_one(stage, cfg, ctx, monitor.as_ref(), *index, label, job, &f)
        })
    }
}

#[allow(clippy::too_many_arguments, clippy::result_large_err)]
fn supervise_one<I, O>(
    stage: &str,
    cfg: &SupervisorCfg,
    ctx: &super::ExperimentCtx,
    monitor: Option<&Monitor>,
    index: usize,
    label: &str,
    job: &I,
    f: &(impl Fn(&I) -> O + Sync),
) -> Result<O, CellFailure> {
    let scope_label = format!("{stage}/{label}");
    let mut last: Option<(Diagnosis, CrashTail)> = None;
    let attempts = cfg.retries + 1;
    let schedule = backoff_schedule(
        ctx.seed,
        &scope_label,
        attempts,
        cfg.backoff_base,
        cfg.backoff_cap,
    );
    for attempt in 0..attempts {
        let sup = Supervision::new(cfg);
        let _slot = monitor.map(|m| m.watch(Arc::clone(&sup.flag)));
        let _scope = jsmt_faults::enter_scope(&scope_label, attempt);
        let _guard = install(sup.clone());
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            jsmt_faults::check_worker();
            f(job)
        }));
        match outcome {
            Ok(v) => return Ok(v),
            Err(payload) => {
                let diagnosis = diagnose(payload, &sup);
                let tail = std::mem::take(&mut *sup.tail.lock().expect("crash tail"));
                last = Some((diagnosis, tail));
                if let Some(delay) = schedule.get(attempt as usize) {
                    if !delay.is_zero() {
                        std::thread::sleep(*delay);
                    }
                }
            }
        }
    }
    let (diagnosis, tail) = last.expect("at least one attempt ran");
    let mut failure = CellFailure {
        stage: stage.to_string(),
        label: label.to_string(),
        index,
        kind: diagnosis.kind,
        component: diagnosis.component,
        cycle: diagnosis.cycle,
        message: diagnosis.message,
        attempts,
        backoff_ms: schedule.iter().map(|d| d.as_millis() as u64).collect(),
        bundle: None,
    };
    if let Some(dir) = &cfg.bundle_dir {
        match super::bundle::CrashBundle::from_failure(ctx, cfg, &failure, tail).save_in(dir) {
            Ok(path) => failure.bundle = Some(path),
            Err(e) => {
                // Bundle emission is best-effort: a failing bundle write
                // (possibly itself fault-injected) must not lose the
                // failure record.
                failure.message = format!("{} [bundle write failed: {e}]", failure.message);
            }
        }
    }
    Err(failure)
}

/// Render the machine-readable failure manifest: one CSV row per failed
/// cell with component/cycle attribution and the bundle path. Returns
/// only the header line when `failures` is empty.
pub fn manifest_csv(failures: &[CellFailure]) -> String {
    let mut c = jsmt_report::Csv::new(vec![
        "stage".into(),
        "label".into(),
        "index".into(),
        "kind".into(),
        "component".into(),
        "cycle".into(),
        "attempts".into(),
        "backoff_ms".into(),
        "bundle".into(),
        "message".into(),
    ]);
    for f in failures {
        c.row(vec![
            f.stage.clone(),
            f.label.clone(),
            f.index.to_string(),
            f.kind.name().into(),
            f.component.clone(),
            f.cycle.to_string(),
            f.attempts.to_string(),
            // The slept schedule, `/`-separated so the CSV shape holds.
            f.backoff_ms
                .iter()
                .map(|ms| ms.to_string())
                .collect::<Vec<_>>()
                .join("/"),
            f.bundle
                .as_ref()
                .map(|p| p.display().to_string())
                .unwrap_or_default(),
            // Keep the manifest one-row-per-failure even for multi-line
            // panic messages, and don't let commas split the field.
            f.message.replace(['\n', '\r'], " ").replace(',', ";"),
        ]);
    }
    c.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentCtx;

    fn quick_ctx() -> ExperimentCtx {
        ExperimentCtx {
            scale: 0.01,
            repeats: 1,
            seed: 0xA5,
        }
    }

    #[test]
    fn healthy_jobs_pass_through_in_order() {
        let engine = Engine::serial();
        let cfg = SupervisorCfg::default();
        let jobs: Vec<(String, u64)> = (0..8u64).map(|x| (format!("j{x}"), x)).collect();
        let out = engine.run_supervised("t", &cfg, &quick_ctx(), jobs, |&x| x * x);
        let vals: Vec<u64> = out.into_iter().map(|r| r.expect("healthy")).collect();
        assert_eq!(vals, (0..8u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_is_isolated_and_attributed() {
        let engine = Engine::new(crate::experiments::Parallelism::Threads(4));
        let cfg = SupervisorCfg {
            retries: 2,
            ..SupervisorCfg::default()
        };
        let jobs: Vec<(String, u64)> = (0..6u64).map(|x| (format!("j{x}"), x)).collect();
        let out = engine.run_supervised("t", &cfg, &quick_ctx(), jobs, |&x| {
            assert!(x != 3, "job three always dies");
            x + 1
        });
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                let f = r.as_ref().expect_err("job 3 fails");
                assert_eq!(f.kind, FailureKind::Panic);
                assert_eq!(f.attempts, 3, "bounded retries all consumed");
                assert_eq!(f.index, 3);
                assert_eq!(f.label, "j3");
                assert!(f.message.contains("job three always dies"));
            } else {
                assert_eq!(*r.as_ref().expect("others fine"), i as u64 + 1);
            }
        }
    }

    #[test]
    fn manifest_rows_are_machine_readable() {
        let failures = vec![CellFailure {
            stage: "pair-grid".into(),
            label: "compress+db".into(),
            index: 10,
            kind: FailureKind::Livelock,
            component: "watchdog".into(),
            cycle: 123456,
            message: "no retirement,\nfor a while".into(),
            attempts: 2,
            backoff_ms: vec![31],
            bundle: Some(PathBuf::from("/tmp/b.crash")),
        }];
        let csv = manifest_csv(&failures);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "stage,label,index,kind,component,cycle,attempts,backoff_ms,bundle,message"
        );
        assert_eq!(
            lines.next().unwrap(),
            "pair-grid,compress+db,10,livelock,watchdog,123456,2,31,/tmp/b.crash,no retirement; for a while"
        );
        assert_eq!(lines.next(), None);
        assert_eq!(manifest_csv(&[]).lines().count(), 1);
    }

    #[test]
    fn backoff_schedule_is_deterministic_bounded_and_label_keyed() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(120);
        let a = backoff_schedule(7, "pair-grid/compress+db", 5, base, cap);
        let b = backoff_schedule(7, "pair-grid/compress+db", 5, base, cap);
        assert_eq!(a, b, "same (seed, label) → same schedule");
        assert_eq!(a.len(), 4);
        for d in &a {
            assert!(
                *d >= base && *d <= cap,
                "delay {d:?} out of [{base:?}, {cap:?}]"
            );
        }
        let other = backoff_schedule(7, "pair-grid/jess+db", 5, base, cap);
        assert_ne!(a, other, "different labels decorrelate");
        let reseeded = backoff_schedule(8, "pair-grid/compress+db", 5, base, cap);
        assert_ne!(a, reseeded, "different seeds decorrelate");
        // Zero base disables sleeping but keeps the schedule shape.
        assert_eq!(
            backoff_schedule(7, "x", 3, Duration::ZERO, cap),
            vec![Duration::ZERO; 2]
        );
        assert!(backoff_schedule(7, "x", 1, base, cap).is_empty());
        assert!(backoff_schedule(7, "x", 0, base, cap).is_empty());
    }

    #[test]
    fn retries_sleep_the_recorded_schedule() {
        let engine = Engine::serial();
        let cfg = SupervisorCfg {
            retries: 2,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
            ..SupervisorCfg::default()
        };
        let t0 = Instant::now();
        let out = engine.run_supervised(
            "t",
            &cfg,
            &quick_ctx(),
            vec![("always-dies".to_string(), ())],
            |&()| -> () { panic!("persistent") },
        );
        let elapsed = t0.elapsed();
        let f = out[0].as_ref().expect_err("persistent failure");
        let expected = backoff_schedule(
            quick_ctx().seed,
            "t/always-dies",
            3,
            cfg.backoff_base,
            cfg.backoff_cap,
        );
        assert_eq!(
            f.backoff_ms,
            expected
                .iter()
                .map(|d| d.as_millis() as u64)
                .collect::<Vec<_>>()
        );
        let slept: Duration = expected.iter().sum();
        assert!(
            elapsed >= slept,
            "attempts must be spaced by the schedule ({elapsed:?} < {slept:?})"
        );
    }

    #[test]
    fn failure_kind_names_round_trip() {
        for k in [
            FailureKind::Panic,
            FailureKind::Livelock,
            FailureKind::Deadline,
            FailureKind::Cancelled,
            FailureKind::WorkerDeath,
        ] {
            assert_eq!(FailureKind::parse(k.name()), Some(k));
            assert_eq!(FailureKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(FailureKind::parse("nope"), None);
        assert_eq!(FailureKind::from_tag(9), None);
    }
}
