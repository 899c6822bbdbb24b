//! # jsmt-faults
//!
//! Deterministic fault injection for the jsmt experiment harness.
//!
//! The supervised experiment engine (`jsmt-core`) promises to survive,
//! attribute, and reproduce its own failures. This crate supplies the
//! failures: a [`FaultPlan`] — parsed from a compact spec string, so the
//! same plan travels through `JSMT_FAULTS`, the `--faults` flag, and a
//! crash-repro bundle — is installed process-wide, and instrumented
//! components ask it whether to misbehave. Every trigger is keyed on
//! *simulated* state (the machine cycle, an occurrence count, a scope
//! label), never on wall-clock time or thread identity, so an injected
//! failure replays bit-identically.
//!
//! ## Spec grammar
//!
//! A spec is `;`-separated clauses; each clause is `,`-separated fields,
//! the first naming the fault kind, the rest `key=value` pairs:
//!
//! ```text
//! panic,component=gc,cycle=5000,scope=pair-grid/compress+db
//! starve,cycle=2000,scope=pair-grid/jess+db,attempts=1
//! worker-panic,scope=pair-grid/db+db
//! worker-kill,scope=pair-grid/compress+db,attempts=1
//! io-error,target=cache,nth=0
//! corrupt,target=bundle,nth=1
//! torn,target=cache,nth=0
//! cache-corrupt,nth=2
//! cache-torn-write
//! ```
//!
//! * `panic` — `panic_any` an [`InjectedPanic`] from the named component
//!   at the first check with `cycle >= N`.
//! * `starve` — from `cycle >= N` on, the µop supply dries up (the
//!   system-level `fill` path yields nothing), livelocking the machine
//!   so forward-progress watchdogs can be exercised.
//! * `worker-panic` — the worker thread dies at job pickup, before the
//!   simulation starts.
//! * `worker-kill` — the worker **process** aborts at cell pickup
//!   (models SIGKILL/OOM-kill of a shard worker). With `nth=N` only the
//!   `N`th matching pickup dies; without it, every matching pickup does.
//! * `io-error` — the `nth` durable write to the named target fails with
//!   a synthetic `io::Error`.
//! * `corrupt` — the `nth` durable write to the named target flips one
//!   payload byte, so a later load must detect the corruption.
//! * `torn` — the `nth` durable write to the named target is truncated
//!   mid-payload (a torn write that beat the fsync), so a later load
//!   sees a short, checksum-less file.
//! * `cache-corrupt` / `cache-torn-write` — sugar for
//!   `corrupt,target=cache` / `torn,target=cache`; the drills named in
//!   the robustness CI matrix.
//!
//! `scope=LABEL` restricts a clause to one supervised cell (labels look
//! like `pair-grid/compress+db`); an unscoped clause matches everywhere.
//! `attempts=K` makes a fault *transient*: it only fires on the first
//! `K` attempts of a cell, so a supervisor retry converges to the
//! healthy output.
//!
//! ## Cost when disarmed
//!
//! Every hook starts with one relaxed atomic load; with no plan
//! installed the branch is never taken and healthy runs stay
//! bit-identical (enforced by `tests/fault_isolation.rs` in the
//! workspace root). With a plan armed, the per-span hooks
//! ([`check_cycle`], [`starved`]) read a per-thread view of the clauses
//! that apply in the thread's current scope, rebuilt only when the plan
//! or the scope changes, so cells outside a plan's scope run at full
//! speed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub mod fsio;

/// Durable-write target name of the persistent result cache; the
/// `cache-corrupt` / `cache-torn-write` spec sugar expands to clauses
/// with this target.
pub const CACHE_TARGET: &str = "cache";

/// One fault clause of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// What goes wrong.
    pub kind: FaultKind,
    /// Only fire inside the supervised cell with this label
    /// (`None` = everywhere).
    pub scope: Option<String>,
    /// Only fire on attempt numbers `< attempts` (`None` = every
    /// attempt). `attempts=1` models a transient fault that a retry
    /// clears.
    pub attempts: Option<u32>,
}

/// The kinds of injectable failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic from `component` at the first check with `cycle >= N`.
    Panic {
        /// Instrumented component name (`system`, `gc`, …).
        component: String,
        /// Trigger cycle.
        cycle: u64,
    },
    /// Dry up the µop supply from `cycle >= N` on (livelock).
    Starve {
        /// Trigger cycle.
        cycle: u64,
    },
    /// Kill the worker at job pickup, before the simulation starts.
    WorkerPanic,
    /// Abort the worker *process* at shard pickup (models SIGKILL).
    WorkerKill {
        /// Zero-based pickup occurrence to kill (`None` = every matching
        /// pickup).
        nth: Option<u64>,
    },
    /// Fail the `nth` durable write to `target` with an `io::Error`.
    IoError {
        /// Write target name (`bundle`, `cache`).
        target: String,
        /// Zero-based occurrence to fail.
        nth: u64,
    },
    /// Flip a byte in the `nth` durable write to `target`.
    Corrupt {
        /// Write target name (`bundle`, `cache`).
        target: String,
        /// Zero-based occurrence to corrupt.
        nth: u64,
    },
    /// Truncate the `nth` durable write to `target` mid-payload.
    Torn {
        /// Write target name (`bundle`, `cache`).
        target: String,
        /// Zero-based occurrence to tear.
        nth: u64,
    },
}

/// A parsed fault plan: the clause list plus the spec it came from (kept
/// verbatim so crash bundles can carry the plan for replay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    spec: String,
}

impl FaultPlan {
    /// Parse a spec string (see the crate docs for the grammar).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending clause.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut faults = Vec::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            faults.push(parse_clause(clause)?);
        }
        if faults.is_empty() {
            return Err(format!("fault spec {spec:?} contains no clauses"));
        }
        Ok(FaultPlan {
            faults,
            spec: spec.to_string(),
        })
    }

    /// The spec string this plan was parsed from.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// The parsed clauses.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }
}

fn parse_clause(clause: &str) -> Result<Fault, String> {
    let mut fields = clause.split(',').map(str::trim);
    let kind_name = fields.next().expect("split yields at least one field");
    let mut component = None;
    let mut cycle = None;
    let mut target = None;
    let mut nth = None::<u64>;
    let mut scope = None;
    let mut attempts = None;
    for field in fields {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| format!("fault clause {clause:?}: field {field:?} is not key=value"))?;
        match key {
            "component" => component = Some(value.to_string()),
            "cycle" => {
                cycle =
                    Some(value.parse::<u64>().map_err(|e| {
                        format!("fault clause {clause:?}: bad cycle {value:?}: {e}")
                    })?);
            }
            "target" => target = Some(value.to_string()),
            "nth" => {
                nth = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("fault clause {clause:?}: bad nth {value:?}: {e}"))?,
                );
            }
            "scope" => scope = Some(value.to_string()),
            "attempts" => {
                attempts = Some(value.parse::<u32>().map_err(|e| {
                    format!("fault clause {clause:?}: bad attempts {value:?}: {e}")
                })?);
            }
            other => {
                return Err(format!("fault clause {clause:?}: unknown key {other:?}"));
            }
        }
    }
    let kind = match kind_name {
        "panic" => FaultKind::Panic {
            component: component
                .ok_or_else(|| format!("fault clause {clause:?}: panic needs component="))?,
            cycle: cycle.ok_or_else(|| format!("fault clause {clause:?}: panic needs cycle="))?,
        },
        "starve" => FaultKind::Starve {
            cycle: cycle.ok_or_else(|| format!("fault clause {clause:?}: starve needs cycle="))?,
        },
        "worker-panic" => FaultKind::WorkerPanic,
        "worker-kill" => FaultKind::WorkerKill { nth },
        "io-error" => FaultKind::IoError {
            target: target
                .ok_or_else(|| format!("fault clause {clause:?}: io-error needs target="))?,
            nth: nth.unwrap_or(0),
        },
        "corrupt" => FaultKind::Corrupt {
            target: target
                .ok_or_else(|| format!("fault clause {clause:?}: corrupt needs target="))?,
            nth: nth.unwrap_or(0),
        },
        "torn" => FaultKind::Torn {
            target: target.ok_or_else(|| format!("fault clause {clause:?}: torn needs target="))?,
            nth: nth.unwrap_or(0),
        },
        // Sugar for the cache robustness drills: the persistent result
        // cache is the one durable target whose faults are routine
        // enough to deserve first-class spellings.
        "cache-corrupt" => FaultKind::Corrupt {
            target: CACHE_TARGET.to_string(),
            nth: nth.unwrap_or(0),
        },
        "cache-torn-write" => FaultKind::Torn {
            target: CACHE_TARGET.to_string(),
            nth: nth.unwrap_or(0),
        },
        other => return Err(format!("unknown fault kind {other:?} in clause {clause:?}")),
    };
    Ok(Fault {
        kind,
        scope,
        attempts,
    })
}

/// Panic payload of an injected `panic` fault: carries the attribution
/// the supervisor records in the failure manifest and crash bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedPanic {
    /// Component the panic fired from.
    pub component: String,
    /// Machine cycle at which it fired (the first check at or after the
    /// clause's trigger cycle — deterministic under replay).
    pub cycle: u64,
    /// Scope label active when it fired (empty when unscoped).
    pub scope: String,
}

impl fmt::Display for InjectedPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected panic in component '{}' at cycle {} (scope '{}')",
            self.component, self.cycle, self.scope
        )
    }
}

struct PlanState {
    plan: FaultPlan,
    /// Per-clause occurrence counters for `io-error` / `corrupt`.
    write_counts: Vec<AtomicU64>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<Arc<PlanState>>> = Mutex::new(None);
/// Bumped (under the `PLAN` lock) by every install and clear, so a
/// thread's [`Resolved`] view knows when the plan under it changed.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// The `panic` and `starve` clauses of the installed plan that apply on
/// one thread in its current scope. The per-span hooks read this view
/// instead of locking the plan and matching scope labels on every
/// simulated span; it is rebuilt when the plan changes or the thread
/// enters or leaves a scope.
#[derive(Default)]
struct Resolved {
    /// The plan generation this view was built against; `None` once the
    /// thread's scope has changed since.
    generation: Option<u64>,
    /// `(component, cycle)` of every applicable `panic` clause.
    panics: Vec<(String, u64)>,
    /// The earliest trigger cycle of the applicable `starve` clauses.
    starve_from: Option<u64>,
}

thread_local! {
    /// The supervised cell this thread is currently executing
    /// (label, attempt number).
    static SCOPE: RefCell<Option<(String, u32)>> = const { RefCell::new(None) };
    /// This thread's view of the plan (see [`Resolved`]).
    static RESOLVED: RefCell<Resolved> = RefCell::new(Resolved::default());
}

/// Install `plan` process-wide, replacing any previous plan.
pub fn install(plan: FaultPlan) {
    let n = plan.faults.len();
    let state = PlanState {
        plan,
        write_counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
    };
    {
        let mut slot = PLAN.lock().expect("fault plan lock");
        *slot = Some(Arc::new(state));
        GENERATION.fetch_add(1, Ordering::SeqCst);
    }
    ARMED.store(true, Ordering::SeqCst);
}

/// Parse and install a spec string (see [`FaultPlan::parse`]).
///
/// # Errors
///
/// Propagates the parse error; the previous plan stays installed.
pub fn install_spec(spec: &str) -> Result<(), String> {
    install(FaultPlan::parse(spec)?);
    Ok(())
}

/// Remove the installed plan; all hooks return to their disarmed fast
/// path.
pub fn clear() {
    ARMED.store(false, Ordering::SeqCst);
    let mut slot = PLAN.lock().expect("fault plan lock");
    *slot = None;
    GENERATION.fetch_add(1, Ordering::SeqCst);
}

/// Whether a plan is installed: one relaxed atomic load.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// The spec string of the installed plan, if any (recorded into crash
/// bundles so `repro replay-crash` can re-install it).
pub fn active_spec() -> Option<String> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    PLAN.lock()
        .expect("fault plan lock")
        .as_ref()
        .map(|s| s.plan.spec.clone())
}

fn state() -> Option<Arc<PlanState>> {
    PLAN.lock().expect("fault plan lock").clone()
}

/// Mark this thread as executing the supervised cell `label`, attempt
/// `attempt` (0-based). The previous scope is restored when the guard
/// drops, so nested supervision composes.
pub fn enter_scope(label: &str, attempt: u32) -> ScopeGuard {
    let prev = SCOPE.with(|s| s.replace(Some((label.to_string(), attempt))));
    invalidate_resolved();
    ScopeGuard { prev }
}

/// Restores the previous fault scope on drop (see [`enter_scope`]).
pub struct ScopeGuard {
    prev: Option<(String, u32)>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        SCOPE.with(|s| *s.borrow_mut() = prev);
        invalidate_resolved();
    }
}

/// The thread's scope changed: its [`Resolved`] view no longer holds.
fn invalidate_resolved() {
    RESOLVED.with(|r| r.borrow_mut().generation = None);
}

/// Run `f` over this thread's [`Resolved`] view of the plan, rebuilding
/// the view first if the plan or the thread's scope changed since it was
/// built.
fn with_resolved<R>(f: impl FnOnce(&Resolved) -> R) -> R {
    RESOLVED.with(|r| {
        let generation = GENERATION.load(Ordering::SeqCst);
        if r.borrow().generation != Some(generation) {
            let mut view = Resolved {
                generation: Some(generation),
                ..Resolved::default()
            };
            // A plan installed after the generation was read is at worst
            // resolved early; the next call sees the newer generation and
            // rebuilds.
            for fault in state().iter().flat_map(|s| &s.plan.faults) {
                if !applies(fault) {
                    continue;
                }
                match &fault.kind {
                    FaultKind::Panic { component, cycle } => {
                        view.panics.push((component.clone(), *cycle));
                    }
                    FaultKind::Starve { cycle } => {
                        view.starve_from = Some(view.starve_from.map_or(*cycle, |c| c.min(*cycle)));
                    }
                    _ => {}
                }
            }
            *r.borrow_mut() = view;
        }
        f(&r.borrow())
    })
}

/// The scope label and attempt active on this thread (empty label when
/// unscoped).
pub fn current_scope() -> (String, u32) {
    SCOPE.with(|s| s.borrow().clone().unwrap_or_default())
}

/// Does `fault` apply on this thread right now?
fn applies(fault: &Fault) -> bool {
    SCOPE.with(|s| {
        let scope = s.borrow();
        if let Some(want) = &fault.scope {
            match scope.as_ref() {
                Some((label, _)) if label == want => {}
                _ => return false,
            }
        }
        if let Some(max) = fault.attempts {
            let attempt = scope.as_ref().map(|(_, a)| *a).unwrap_or(0);
            if attempt >= max {
                return false;
            }
        }
        true
    })
}

/// Fault check for a named simulator component at machine cycle `cycle`.
/// Panics with an [`InjectedPanic`] payload when an armed `panic` clause
/// matches. Call this wherever a component is willing to die.
pub fn check_cycle(component: &str, cycle: u64) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let fires = with_resolved(|r| r.panics.iter().any(|(c, n)| c == component && cycle >= *n));
    if fires {
        let (scope, _) = current_scope();
        std::panic::panic_any(InjectedPanic {
            component: component.to_string(),
            cycle,
            scope,
        });
    }
}

/// Whether an armed `starve` clause wants the µop supply dry at `cycle`.
pub fn starved(cycle: u64) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    with_resolved(|r| r.starve_from.is_some_and(|n| cycle >= n))
}

/// Fault check at worker job pickup. Panics with an [`InjectedPanic`]
/// (component `worker`, cycle 0) when an armed `worker-panic` clause
/// matches.
pub fn check_worker() {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let Some(state) = state() else { return };
    for fault in &state.plan.faults {
        if matches!(fault.kind, FaultKind::WorkerPanic) && applies(fault) {
            let (scope, _) = current_scope();
            std::panic::panic_any(InjectedPanic {
                component: "worker".to_string(),
                cycle: 0,
                scope,
            });
        }
    }
}

/// Fault check at *shard* pickup in a worker process. When an armed
/// `worker-kill` clause matches, the process aborts — no unwinding, no
/// cleanup — exactly as a SIGKILL'd or OOM-killed worker would look to
/// the dispatcher. `nth=N` kills only the `N`th matching pickup (the
/// occurrence counter is per-process, so a respawned worker starts
/// fresh); without `nth`, every matching pickup dies and only
/// `attempts=`/`scope=` bound the blast radius.
pub fn check_worker_kill() {
    if worker_kill_fires() {
        let (scope, attempt) = current_scope();
        eprintln!("jsmt-faults: injected worker-kill at shard pickup (scope '{scope}', attempt {attempt}); aborting");
        std::process::abort();
    }
}

fn worker_kill_fires() -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    let Some(state) = state() else { return false };
    let mut fired = false;
    for (i, fault) in state.plan.faults.iter().enumerate() {
        let FaultKind::WorkerKill { nth } = &fault.kind else {
            continue;
        };
        if !applies(fault) {
            continue;
        }
        let seen = state.write_counts[i].fetch_add(1, Ordering::SeqCst);
        if nth.map(|n| seen == n).unwrap_or(true) {
            fired = true;
        }
    }
    fired
}

/// Whether an armed `corrupt` clause targeting `target` fires on this
/// occurrence. This is the value-corruption twin of the durable-write
/// hook: components with no byte stream to flip (e.g. the litmus
/// harness's observation corruptor) poll it at their corruption point
/// and deterministically falsify their value when it returns `true`.
/// Occurrence counting matches durable writes — each matching clause
/// fires on exactly its `nth` poll — so use a dedicated target name.
pub fn corrupt_armed(target: &str) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    let Some(state) = state() else { return false };
    let mut fired = false;
    for (i, fault) in state.plan.faults.iter().enumerate() {
        let FaultKind::Corrupt { target: t, nth } = &fault.kind else {
            continue;
        };
        if t != target || !applies(fault) {
            continue;
        }
        let seen = state.write_counts[i].fetch_add(1, Ordering::SeqCst);
        if seen == *nth {
            fired = true;
        }
    }
    fired
}

/// How an injected fault wants the next durable write to misbehave.
#[derive(Debug)]
pub(crate) enum WriteVerdict {
    /// Fail before writing anything.
    Fail(std::io::Error),
    /// Write the full payload with one byte flipped mid-stream.
    CorruptByte,
    /// Write only a truncated prefix of the payload (torn write).
    Truncate,
}

/// Whether the next durable write to `target` should misbehave, and how.
/// Each matching clause fires on exactly its `nth` occurrence; when
/// several clauses fire on the same write the last one in the plan wins.
pub(crate) fn write_fault(target: &str) -> Option<WriteVerdict> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let state = state()?;
    let mut verdict = None;
    for (i, fault) in state.plan.faults.iter().enumerate() {
        let (t, nth, make) = match &fault.kind {
            FaultKind::IoError { target: t, nth } => (
                t, *nth, None, // built below so the error message can name the occurrence
            ),
            FaultKind::Corrupt { target: t, nth } => (t, *nth, Some(WriteVerdict::CorruptByte)),
            FaultKind::Torn { target: t, nth } => (t, *nth, Some(WriteVerdict::Truncate)),
            _ => continue,
        };
        if t != target || !applies(fault) {
            continue;
        }
        let seen = state.write_counts[i].fetch_add(1, Ordering::SeqCst);
        if seen == nth {
            verdict = Some(make.unwrap_or_else(|| {
                WriteVerdict::Fail(std::io::Error::other(format!(
                    "injected i/o error on write #{seen} to '{target}'"
                )))
            }));
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plan install/clear is process-global; serialize the tests that
    /// touch it.
    static LOCK: Mutex<()> = Mutex::new(());

    /// Shared with `fsio::tests`, which arms plans of its own.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn parses_every_kind() {
        let plan = FaultPlan::parse(
            "panic,component=gc,cycle=5000,scope=pair-grid/compress+db,attempts=1; \
             starve,cycle=100; worker-panic; io-error,target=checkpoint,nth=2; \
             corrupt,target=bundle; worker-kill,nth=3; torn,target=checkpoint,nth=1; \
             cache-corrupt,nth=2; cache-torn-write",
        )
        .expect("valid spec");
        assert_eq!(plan.faults().len(), 9);
        assert_eq!(
            plan.faults()[0],
            Fault {
                kind: FaultKind::Panic {
                    component: "gc".into(),
                    cycle: 5000
                },
                scope: Some("pair-grid/compress+db".into()),
                attempts: Some(1),
            }
        );
        assert_eq!(
            plan.faults()[3].kind,
            FaultKind::IoError {
                target: "checkpoint".into(),
                nth: 2
            }
        );
        assert_eq!(
            plan.faults()[4].kind,
            FaultKind::Corrupt {
                target: "bundle".into(),
                nth: 0
            }
        );
        assert_eq!(
            plan.faults()[5].kind,
            FaultKind::WorkerKill { nth: Some(3) }
        );
        assert_eq!(
            plan.faults()[6].kind,
            FaultKind::Torn {
                target: "checkpoint".into(),
                nth: 1
            }
        );
        // The cache drills are sugar over the generic write-target kinds.
        assert_eq!(
            plan.faults()[7].kind,
            FaultKind::Corrupt {
                target: CACHE_TARGET.into(),
                nth: 2
            }
        );
        assert_eq!(
            plan.faults()[8].kind,
            FaultKind::Torn {
                target: CACHE_TARGET.into(),
                nth: 0
            }
        );
        assert_eq!(
            FaultPlan::parse("worker-kill").unwrap().faults()[0].kind,
            FaultKind::WorkerKill { nth: None }
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "panic",                      // missing component + cycle
            "panic,component=gc",         // missing cycle
            "starve",                     // missing cycle
            "io-error",                   // missing target
            "torn",                       // missing target
            "worker-kill,nth=x",          // unparseable nth
            "frobnicate,cycle=1",         // unknown kind
            "panic,component=gc,cycle=x", // unparseable number
            "panic,component=gc,cycle=1,bogus=2",
            "panic,component=gc,cycle=1,noequals",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn panic_fault_fires_only_in_matching_scope_and_attempt() {
        let _l = LOCK.lock().unwrap();
        install_spec("panic,component=system,cycle=10,scope=cell-a,attempts=1").unwrap();

        // Wrong scope: nothing happens.
        {
            let _s = enter_scope("cell-b", 0);
            check_cycle("system", 50);
        }
        // Matching scope but attempt exhausted (transient fault).
        {
            let _s = enter_scope("cell-a", 1);
            check_cycle("system", 50);
        }
        // Matching scope, cycle below threshold.
        {
            let _s = enter_scope("cell-a", 0);
            check_cycle("system", 9);
        }
        // Matching everything: must panic with the typed payload.
        let payload = std::panic::catch_unwind(|| {
            let _s = enter_scope("cell-a", 0);
            check_cycle("system", 12);
        })
        .expect_err("fault must fire");
        let injected = payload
            .downcast_ref::<InjectedPanic>()
            .expect("typed payload");
        assert_eq!(injected.component, "system");
        assert_eq!(injected.cycle, 12);
        assert_eq!(injected.scope, "cell-a");
        clear();
    }

    #[test]
    fn starve_and_worker_faults_respect_scope() {
        let _l = LOCK.lock().unwrap();
        install_spec("starve,cycle=100,scope=s; worker-panic,scope=w").unwrap();
        {
            let _s = enter_scope("s", 0);
            assert!(!starved(99));
            assert!(starved(100));
            check_worker(); // worker clause is scoped elsewhere
        }
        {
            let _s = enter_scope("w", 0);
            assert!(!starved(100));
            assert!(std::panic::catch_unwind(check_worker).is_err());
        }
        clear();
        assert!(!starved(100));
    }

    /// The per-thread view of the plan follows a plan replaced or
    /// cleared while the thread stays in one scope, and a nested scope
    /// and its exit.
    #[test]
    fn hooks_follow_plan_and_scope_changes() {
        let _l = LOCK.lock().unwrap();
        let fires = |cycle| std::panic::catch_unwind(|| check_cycle("gc", cycle)).is_err();
        let _outer = enter_scope("a", 0);
        install_spec("panic,component=gc,cycle=10,scope=b").unwrap();
        assert!(!fires(20), "clause scoped to another cell");
        install_spec("panic,component=gc,cycle=10,scope=a; starve,cycle=5").unwrap();
        assert!(fires(20), "replacement plan applies at once");
        assert!(starved(5));
        {
            let _inner = enter_scope("b", 0);
            assert!(!fires(20), "nested scope resolves its own clauses");
            assert!(starved(5), "unscoped clause applies everywhere");
        }
        assert!(
            fires(20),
            "leaving the nested scope restores the outer view"
        );
        clear();
        assert!(!fires(20) && !starved(5));
        install_spec("starve,cycle=7,scope=a; starve,cycle=3,scope=a").unwrap();
        assert!(
            !starved(2) && starved(3),
            "earliest applicable trigger wins"
        );
        clear();
    }

    #[test]
    fn write_faults_fire_on_their_nth_occurrence() {
        let _l = LOCK.lock().unwrap();
        install_spec(
            "io-error,target=checkpoint,nth=1; corrupt,target=bundle,nth=0; \
             cache-torn-write,nth=1",
        )
        .unwrap();
        assert!(write_fault("checkpoint").is_none()); // write #0 passes
        assert!(matches!(
            write_fault("checkpoint"),
            Some(WriteVerdict::Fail(_))
        )); // #1 fails
        assert!(write_fault("checkpoint").is_none()); // #2 passes again
        assert!(matches!(
            write_fault("bundle"),
            Some(WriteVerdict::CorruptByte)
        )); // corrupt #0
        assert!(write_fault("bundle").is_none());
        assert!(write_fault(CACHE_TARGET).is_none()); // cache write #0 passes
        assert!(matches!(
            write_fault(CACHE_TARGET),
            Some(WriteVerdict::Truncate)
        )); // #1 torn
        assert!(write_fault("other").is_none());
        clear();
    }

    #[test]
    fn worker_kill_counts_pickups_and_respects_scope() {
        let _l = LOCK.lock().unwrap();
        install_spec("worker-kill,nth=1,scope=shard/a+b").unwrap();
        {
            let _s = enter_scope("shard/x+y", 0);
            assert!(!worker_kill_fires()); // wrong scope: not even counted
        }
        {
            let _s = enter_scope("shard/a+b", 0);
            assert!(!worker_kill_fires()); // pickup #0 survives
            assert!(worker_kill_fires()); // pickup #1 dies
            assert!(!worker_kill_fires()); // #2 survives (nth already spent)
        }
        install_spec("worker-kill,attempts=1,scope=shard/a+b").unwrap();
        {
            let _s = enter_scope("shard/a+b", 0);
            assert!(worker_kill_fires()); // every first-attempt pickup dies
            assert!(worker_kill_fires());
        }
        {
            let _s = enter_scope("shard/a+b", 1);
            assert!(!worker_kill_fires()); // retry attempt survives
        }
        clear();
        assert!(!worker_kill_fires());
    }

    #[test]
    fn corrupt_armed_fires_on_its_nth_poll_and_respects_scope() {
        let _l = LOCK.lock().unwrap();
        install_spec("corrupt,target=litmus-observation,nth=1,scope=cell-a").unwrap();
        {
            let _s = enter_scope("cell-a", 0);
            assert!(!corrupt_armed("litmus-observation")); // poll #0
            assert!(corrupt_armed("litmus-observation")); // poll #1 fires
            assert!(!corrupt_armed("litmus-observation")); // #2 passes
            assert!(!corrupt_armed("other-target"));
        }
        {
            let _s = enter_scope("cell-b", 0);
            assert!(!corrupt_armed("litmus-observation"));
        }
        clear();
        assert!(!corrupt_armed("litmus-observation"));
    }

    #[test]
    fn active_spec_round_trips() {
        let _l = LOCK.lock().unwrap();
        assert_eq!(active_spec(), None);
        install_spec("starve,cycle=7").unwrap();
        assert_eq!(active_spec().as_deref(), Some("starve,cycle=7"));
        clear();
        assert_eq!(active_spec(), None);
    }
}
