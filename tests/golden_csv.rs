//! Golden-snapshot tests: every `csv_*` export at `ExperimentCtx::quick()`
//! must match the files committed under `tests/golden/` byte for byte.
//!
//! These pin two things at once: the simulator's numerical output (any
//! change to the core model shows up as a golden diff, on every machine,
//! at any `JSMT_JOBS` setting) and the CSV schemas external plotting
//! scripts depend on.
//!
//! Regenerating after an intentional model change:
//!
//! ```text
//! JSMT_BLESS=1 cargo test -q --offline --test golden_csv
//! ```
//!
//! then commit the rewritten `tests/golden/*.csv` alongside the model
//! change and explain the delta in the PR.

use std::path::PathBuf;
use std::sync::OnceLock;

use jsmt_core::experiments::{self as exp, Engine, ExperimentCtx};

fn golden_dir() -> PathBuf {
    // This test is registered in crates/core/Cargo.toml, so the manifest
    // dir is crates/core; the snapshots live at the repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Compare `actual` against `tests/golden/<name>`, or rewrite the golden
/// file when `JSMT_BLESS=1` is set.
fn check(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("JSMT_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             JSMT_BLESS=1 cargo test -q --offline --test golden_csv",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} diverged from its golden snapshot; if the model change is \
         intentional, re-bless with JSMT_BLESS=1 cargo test -q --offline \
         --test golden_csv and commit the diff"
    );
}

/// The one engine every golden runs on, honoring `JSMT_JOBS`: goldens are
/// schedule-invariant, so CI and laptops may bless/check at any
/// parallelism and get the same bytes. Sharing it means a cell that two
/// artifacts measure is simulated once per binary, and the goldens pin
/// reports the memo served to another artifact as well as fresh ones.
fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(Engine::from_env)
}

#[test]
fn golden_mt_csv() {
    let ctx = ExperimentCtx::quick();
    let pts = exp::characterize_mt_on(engine(), &[1, 2], &[false, true], &ctx);
    check("mt.csv", &exp::csv_mt(&pts));
}

#[test]
fn golden_grid_csv() {
    let ctx = ExperimentCtx::quick();
    let grid = exp::pair_matrix_on(engine(), &ctx);
    check("grid.csv", &exp::csv_grid(&grid));
}

#[test]
fn golden_single_csv() {
    let ctx = ExperimentCtx::quick();
    let pts = exp::fig10_single_thread_impact_on(engine(), &ctx);
    check("single.csv", &exp::csv_single(&pts));
}

#[test]
fn golden_threads_csv() {
    let ctx = ExperimentCtx::quick();
    let pts = exp::fig12_ipc_vs_threads_on(engine(), &[1, 2, 4, 8, 16], &ctx);
    check("threads.csv", &exp::csv_threads(&pts));
}

#[test]
fn golden_partition_csv() {
    let ctx = ExperimentCtx::quick();
    let pts = exp::ablation_partition_on(engine(), &ctx);
    check("partition.csv", &exp::csv_partition(&pts));
}

#[test]
fn golden_l1_csv() {
    let ctx = ExperimentCtx::quick();
    let pts = exp::ablation_l1_on(engine(), &[8, 16, 32, 64], &ctx);
    check("l1.csv", &exp::csv_l1(&pts));
}

#[test]
fn golden_prefetch_csv() {
    let ctx = ExperimentCtx::quick();
    let pts = exp::ablation_prefetch_on(engine(), &ctx);
    check("prefetch.csv", &exp::csv_prefetch(&pts));
}

#[test]
fn golden_jit_csv() {
    let ctx = ExperimentCtx::quick();
    let pts = exp::ablation_jit_on(engine(), &ctx);
    check("jit.csv", &exp::csv_jit(&pts));
}

/// The litmus interleaving sweep: pins the observed outcome label and
/// the synchronization counters of every (shape, seed) cell. Any change
/// to the scheduler, monitor protocol, or exec tiers that perturbs an
/// interleaving shows up here as a label/counter diff — on every
/// machine, at any `JSMT_JOBS` setting, with any tier toggles (the CI
/// litmus matrix diffs all of them against these bytes).
#[test]
fn golden_litmus_csv() {
    let ctx = ExperimentCtx::quick();
    let sl = exp::litmus_sweeps(engine(), 6, &ctx, &exp::SupervisorCfg::default());
    assert!(sl.is_clean(), "forbidden outcomes: {:?}", sl.failures);
    check("litmus.csv", &exp::csv_litmus(&sl.sweeps));
}

/// Pin the *busy* path itself, not just the quiet workloads the
/// experiment goldens lean on. Dense synthetic streams drive the core
/// through the same pending-buffer harness the system layer uses, so
/// with the trace tier enabled (the default) the dense rows execute
/// mostly as bulk trace replays — and the bytes here must match a
/// `JSMT_NO_TRACE_TIER=1` / `JSMT_NO_FASTFWD=1` run exactly (CI diffs
/// both: every execution tier is results-invisible by contract).
#[test]
fn golden_busy_csv() {
    use std::collections::VecDeque;

    use jsmt_cpu::synth::SyntheticStream;
    use jsmt_cpu::{CoreConfig, SmtCore};
    use jsmt_isa::{Asid, Uop};
    use jsmt_mem::MemConfig;
    use jsmt_perfmon::{Event, LogicalCpu};

    let profiles: [(&str, SyntheticStream); 3] = [
        ("balanced", SyntheticStream::builder(25).build()),
        (
            "balanced_dense",
            SyntheticStream::builder(31)
                .code_footprint(2 * 1024)
                .data_footprint(64 * 1024)
                .mem_fraction(0.0)
                .branch_fraction(0.0)
                .dep_chain(0.0)
                .fp_fraction(0.25)
                .build(),
        ),
        (
            "fp_dense",
            SyntheticStream::builder(43)
                .code_footprint(2 * 1024)
                .data_footprint(64 * 1024)
                .mem_fraction(0.0)
                .branch_fraction(0.0)
                .dep_chain(0.0)
                .fp_fraction(0.7)
                .build(),
        ),
    ];
    let mut csv = String::from(
        "workload,cycles,uops_retired,retire0,retire1,retire2,retire3,\
         tc_lookups,tc_misses,l1d_lookups,l1d_misses,btb_lookups\n",
    );
    for (name, stream) in profiles {
        // `balanced` spends its first ~150k cycles cold-building the 32 KB
        // code footprint into the trace cache; run it long enough that the
        // steady-state busy loop dominates the pinned counts. The dense
        // profiles (2 KB of code) warm up almost immediately.
        let cycles_target: u64 = if name == "balanced" { 600_000 } else { 150_000 };
        let mut s = stream;
        // Construction reads JSMT_NO_TRACE_TIER / JSMT_NO_FASTFWD, so the
        // escape hatches exercise the exact off-tier paths here.
        let mut core = SmtCore::new(CoreConfig::p4(true), MemConfig::p4(true));
        core.bind(LogicalCpu::Lp0, Asid(1));
        let mut pending: VecDeque<Uop> = VecDeque::new();
        while core.cycles() < cycles_target {
            while pending.len() < 4096 {
                s.fill(&mut pending, 48);
            }
            let left = cycles_target - core.cycles();
            let (cycles, consumed) = core.trace_step(left, &pending);
            if cycles > 0 {
                pending.drain(..consumed);
                continue;
            }
            if core.fast_forward(left) > 0 {
                continue;
            }
            core.cycle(&mut |lcpu, buf, max| {
                if lcpu != LogicalCpu::Lp0 {
                    return 0;
                }
                let take = max.min(pending.len());
                for u in pending.drain(..take) {
                    buf.push_back(u);
                }
                take
            });
        }
        let b = core.counters();
        let cols = [
            Event::UopsRetired,
            Event::CyclesRetire0,
            Event::CyclesRetire1,
            Event::CyclesRetire2,
            Event::CyclesRetire3,
            Event::TcLookups,
            Event::TcMisses,
            Event::L1dLookups,
            Event::L1dMisses,
            Event::BtbLookups,
        ];
        csv.push_str(&format!("{name},{cycles_target}"));
        for e in cols {
            csv.push_str(&format!(",{}", b.total(e)));
        }
        csv.push('\n');
    }
    check("busy.csv", &csv);
}
