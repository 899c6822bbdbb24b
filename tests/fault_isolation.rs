//! The supervisor's contract on the grid executor's thread transport,
//! exercised end to end with the deterministic fault-injection harness
//! (`jsmt-faults`):
//!
//! * a failing cell — injected panic, dead worker, livelock, blown
//!   deadline — is isolated: the grid completes, the failure manifest
//!   names exactly the injected cells with component/cycle attribution,
//!   and every healthy cell's CSV row is bit-identical to a clean run;
//! * a transient fault plus a supervisor retry converges to the clean
//!   (golden) output;
//! * every failure leaves a crash-repro bundle that `CrashBundle::replay`
//!   reproduces deterministically.

use std::sync::{Mutex, MutexGuard, OnceLock};

use jsmt_core::experiments::{
    self as exp, Engine, ExperimentCtx, FailureKind, Parallelism, SupervisedGrid, SupervisorCfg,
    Transport,
};
use jsmt_workloads::BenchmarkId;
use proptest::prelude::*;

/// The fault plan is process-global: serialize every test that arms one.
static PLAN_LOCK: Mutex<()> = Mutex::new(());

fn plan_lock() -> MutexGuard<'static, ()> {
    PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Tiny context: the full 9×9 grid stays cheap enough to run several
/// times (fault isolation does not depend on scale).
fn tiny() -> ExperimentCtx {
    ExperimentCtx {
        scale: 0.01,
        repeats: 1,
        seed: 0xA5,
    }
}

/// The clean (fault-free) grid CSV at [`tiny`] scale — the golden
/// reference every fault-injected run is compared against.
fn clean_csv() -> &'static str {
    static CLEAN: OnceLock<String> = OnceLock::new();
    CLEAN.get_or_init(|| exp::csv_grid(&exp::pair_matrix_on(&Engine::serial(), &tiny())))
}

/// The grid on four engine threads under `cfg`.
fn grid(cfg: &SupervisorCfg) -> SupervisedGrid {
    exp::pair_grid(
        &Engine::new(Parallelism::Threads(4)),
        Transport::Threads,
        &tiny(),
        cfg,
    )
    .expect("the thread transport has no dispatch faults")
}

fn grid_labels() -> Vec<String> {
    let names: Vec<&str> = BenchmarkId::SINGLE_THREADED
        .iter()
        .map(|b| b.name())
        .collect();
    names
        .iter()
        .flat_map(|a| names.iter().map(move |b| format!("{a}+{b}")))
        .collect()
}

/// Assert `partial` is exactly `full` minus the rows whose `a,b` prefix
/// is in `missing` (order preserved); returns the dropped lines.
fn assert_rows_are_clean_subset(partial: &str, full: &str, missing: &[&str]) {
    let full_lines: Vec<&str> = full.lines().collect();
    let mut part = partial.lines();
    let mut dropped = Vec::new();
    let mut pending = part.next();
    for line in &full_lines {
        if pending == Some(line) {
            pending = part.next();
        } else {
            dropped.push(*line);
        }
    }
    assert_eq!(
        pending, None,
        "partial CSV has a row absent from the clean run"
    );
    assert_eq!(
        dropped.len(),
        missing.len(),
        "expected exactly {} dropped rows, got {dropped:?}",
        missing.len()
    );
    for label in missing {
        let prefix = format!("{},", label.replace('+', ","));
        assert!(
            dropped.iter().any(|l| l.starts_with(&prefix)),
            "row for failed cell {label} should be the one omitted (dropped: {dropped:?})"
        );
    }
}

/// With no fault plan armed, the grid on four threads is complete, its
/// manifest is empty, and its partial-grid CSV equals the serial
/// reference: supervision only observes the simulation.
#[test]
fn clean_supervised_grid_is_bit_identical_to_unsupervised() {
    let _l = plan_lock();
    jsmt_faults::clear();
    let sg = grid(&SupervisorCfg::default());
    assert!(sg.is_complete());
    assert_eq!(sg.manifest_csv().lines().count(), 1, "header only");
    assert_eq!(sg.csv(), clean_csv());
    assert_eq!(exp::csv_grid(&sg.into_grid()), clean_csv());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The headline isolation property: a panic injected into any single
    /// cell leaves every other cell's CSV row bit-identical to a clean
    /// run, and the manifest attributes exactly that cell.
    #[test]
    fn single_cell_panic_leaves_every_other_row_bit_identical(idx in 0usize..81) {
        let _l = plan_lock();
        let labels = grid_labels();
        let label = &labels[idx];
        jsmt_faults::install_spec(&format!(
            "panic,component=system,cycle=2000,scope=pair-grid/{label}"
        ))
        .expect("valid spec");

        let cfg = SupervisorCfg {
            retries: 0,
            ..SupervisorCfg::default()
        };
        let sg = grid(&cfg);
        jsmt_faults::clear();

        prop_assert!(!sg.is_complete());
        prop_assert_eq!(sg.cells.len(), 80);
        prop_assert_eq!(sg.failures.len(), 1);
        let f = &sg.failures[0];
        prop_assert_eq!(&f.stage, "pair-grid");
        prop_assert_eq!(&f.label, label);
        prop_assert_eq!(f.index, idx);
        prop_assert_eq!(f.kind, FailureKind::Panic);
        prop_assert_eq!(&f.component, "system");
        prop_assert!(f.cycle >= 2000, "fired at cycle {}", f.cycle);
        prop_assert_eq!(f.attempts, 1);

        let manifest = sg.manifest_csv();
        prop_assert_eq!(manifest.lines().count(), 2);
        prop_assert!(manifest.contains(label) && manifest.contains("panic"));

        assert_rows_are_clean_subset(&sg.csv(), clean_csv(), &[label]);
    }
}

/// A transient fault (`attempts=1`: it only fires on the first attempt)
/// plus one supervisor retry converges to the clean golden bytes.
#[test]
fn transient_fault_with_retry_converges_to_clean_output() {
    let _l = plan_lock();
    jsmt_faults::install_spec(
        "panic,component=system,cycle=2000,scope=pair-grid/jess+db,attempts=1",
    )
    .expect("valid spec");
    let sg = grid(&SupervisorCfg::default()); // retries: 1
    jsmt_faults::clear();
    assert!(sg.is_complete(), "retry must clear the transient fault");
    assert_eq!(sg.csv(), clean_csv());
}

/// A dying worker thread and a livelocked (starved) cell in the same
/// grid: the run completes, the manifest lists exactly those two cells
/// with the right kinds, and the 79 surviving rows match the clean run.
#[test]
fn grid_survives_worker_death_and_livelock_with_exact_attribution() {
    let _l = plan_lock();
    let dead = "compress+jack";
    let stuck = "db+MolDyn";
    jsmt_faults::install_spec(&format!(
        "worker-panic,scope=pair-grid/{dead}; starve,cycle=1000,scope=pair-grid/{stuck}"
    ))
    .expect("valid spec");
    let cfg = SupervisorCfg {
        retries: 0,
        livelock_cycles: 500_000,
        ..SupervisorCfg::default()
    };
    let sg = grid(&cfg);
    jsmt_faults::clear();

    assert_eq!(sg.cells.len(), 79);
    assert_eq!(sg.failures.len(), 2);
    let by_label = |l: &str| {
        sg.failures
            .iter()
            .find(|f| f.label == l)
            .unwrap_or_else(|| panic!("no failure recorded for {l}"))
    };
    let f_dead = by_label(dead);
    assert_eq!(f_dead.kind, FailureKind::Panic);
    assert_eq!(f_dead.component, "worker");
    let f_stuck = by_label(stuck);
    assert_eq!(f_stuck.kind, FailureKind::Livelock);
    assert_eq!(f_stuck.component, "watchdog");
    assert!(
        f_stuck.cycle >= 500_000,
        "livelock tripped before the threshold: cycle {}",
        f_stuck.cycle
    );

    assert_rows_are_clean_subset(&sg.csv(), clean_csv(), &[dead, stuck]);
}

/// A cell that overruns its wall-clock deadline is cancelled
/// cooperatively and attributed as `Deadline`. (Wall-clock is
/// nondeterministic, so the assertion is on the kind, not the cycle —
/// the same rule `CrashBundle::replay` uses.)
#[test]
fn deadline_overrun_is_cancelled_and_attributed() {
    let _l = plan_lock();
    jsmt_faults::install_spec("starve,cycle=100").expect("valid spec");
    let cfg = SupervisorCfg {
        retries: 0,
        deadline: Some(std::time::Duration::from_millis(50)),
        livelock_cycles: u64::MAX, // let the deadline trip first
        ..SupervisorCfg::default()
    };
    let ctx = tiny();
    let engine = Engine::serial();
    let results = engine.run_supervised(
        "solo-baselines",
        &cfg,
        &ctx,
        vec![("compress".to_string(), BenchmarkId::Compress)],
        |&id| exp::solo_baseline_cycles(id, &ctx),
    );
    jsmt_faults::clear();
    let f = results[0].as_ref().expect_err("starved cell must time out");
    assert_eq!(f.kind, FailureKind::Deadline);
    assert_eq!(f.component, "watchdog");
}

/// Every failure leaves a self-contained crash-repro bundle whose
/// replay re-arms the recorded fault plan and reproduces the failure
/// bit-for-bit (same kind, component, and cycle).
#[test]
fn crash_bundle_replay_reproduces_the_recorded_failure() {
    let _l = plan_lock();
    let dir = std::env::temp_dir().join(format!("jsmt-bundles-{}", std::process::id()));
    let ctx = tiny();
    let engine = Engine::serial();
    // Mirror the grid executor's scoping: baselines are computed
    // (and memoized) before the fault plan arms, exactly as
    // `CrashBundle::replay` does on the other side.
    let base_a = engine.solo_baseline(BenchmarkId::Compress, &ctx);
    let base_b = engine.solo_baseline(BenchmarkId::Db, &ctx);
    let spec = "panic,component=system,cycle=2000,scope=pair-grid/compress+db";
    jsmt_faults::install_spec(spec).expect("valid spec");

    let cfg = SupervisorCfg {
        retries: 0,
        bundle_dir: Some(dir.clone()),
        ..SupervisorCfg::default()
    };
    let results = engine.run_supervised(
        "pair-grid",
        &cfg,
        &ctx,
        vec![(
            "compress+db".to_string(),
            (BenchmarkId::Compress, BenchmarkId::Db),
        )],
        |&(a, b)| exp::run_pair(a, b, base_a, base_b, &ctx),
    );
    jsmt_faults::clear();

    let failure = results[0].as_ref().expect_err("injected panic must fire");
    let path = failure.bundle.as_ref().expect("bundle written");
    let bundle = exp::CrashBundle::load(path).expect("bundle loads");
    assert_eq!(bundle.stage, "pair-grid");
    assert_eq!(bundle.label, "compress+db");
    assert_eq!(bundle.kind, FailureKind::Panic);
    assert_eq!(bundle.component, "system");
    assert_eq!(bundle.cycle, failure.cycle);
    assert_eq!(bundle.fault_spec, spec);

    let report = bundle.replay().expect("replay runs");
    let observed = report.observed.expect("replay must fail the same way");
    assert_eq!(observed.kind, FailureKind::Panic);
    assert_eq!(observed.component, "system");
    assert_eq!(observed.cycle, failure.cycle, "replay cycle diverged");
    assert!(report.reproduced);

    let _ = std::fs::remove_dir_all(&dir);
}
