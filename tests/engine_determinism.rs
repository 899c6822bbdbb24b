//! The parallel experiment engine's core guarantee: results are a pure
//! function of the experiment inputs, never of the schedule. Every
//! ported driver must produce bit-identical output — structured fields,
//! counter banks, and rendered CSV bytes — under `Parallelism::Serial`
//! and any `Parallelism::Threads(n)`.

use jsmt_core::experiments::{self as exp, Engine, ExperimentCtx, Parallelism};

/// A reduced context for the cheap per-driver sweeps (determinism does
/// not depend on scale, so these run well under a second per driver).
fn small() -> ExperimentCtx {
    ExperimentCtx {
        scale: 0.02,
        repeats: 2,
        seed: 0xA5,
    }
}

fn engines() -> (Engine, Engine) {
    (Engine::serial(), Engine::new(Parallelism::Threads(4)))
}

/// The headline acceptance criterion: the full 9×9 pairing grid at
/// `ExperimentCtx::quick()` is byte-identical between `Serial` and
/// `Threads(4)` — structured results compared at f64 bit level, CSV and
/// rendered figures compared as bytes — and the parallel engine's
/// memoizing cache simulates each solo baseline exactly once.
#[test]
fn pair_matrix_quick_threads4_matches_serial_bit_for_bit() {
    let ctx = ExperimentCtx::quick();
    let (ser, par) = engines();
    // The two engines share nothing, so their grids run side by side:
    // the serial one would otherwise hold a single core for its whole run.
    let (g_ser, g_par) = std::thread::scope(|s| {
        let serial = s.spawn(|| exp::pair_matrix_on(&ser, &ctx));
        let g_par = exp::pair_matrix_on(&par, &ctx);
        (serial.join().expect("serial grid"), g_par)
    });

    assert_eq!(g_ser.benchmarks, g_par.benchmarks);
    for (row_s, row_p) in g_ser.outcomes.iter().zip(&g_par.outcomes) {
        for (s, p) in row_s.iter().zip(row_p) {
            assert_eq!((s.a, s.b), (p.a, p.b));
            assert_eq!(
                s.speedup_a.to_bits(),
                p.speedup_a.to_bits(),
                "{:?}+{:?}",
                s.a,
                s.b
            );
            assert_eq!(
                s.speedup_b.to_bits(),
                p.speedup_b.to_bits(),
                "{:?}+{:?}",
                s.a,
                s.b
            );
            assert_eq!(
                s.combined.to_bits(),
                p.combined.to_bits(),
                "{:?}+{:?}",
                s.a,
                s.b
            );
            assert_eq!(
                s.tc_mpki.to_bits(),
                p.tc_mpki.to_bits(),
                "{:?}+{:?}",
                s.a,
                s.b
            );
            assert_eq!(s.completions, p.completions, "{:?}+{:?}", s.a, s.b);
        }
    }
    assert_eq!(
        exp::csv_grid(&g_ser).into_bytes(),
        exp::csv_grid(&g_par).into_bytes()
    );
    assert_eq!(exp::render_fig8(&g_ser), exp::render_fig8(&g_par));
    assert_eq!(exp::render_fig9(&g_ser), exp::render_fig9(&g_par));

    // Exactly-once baselines: 9 prewarm lookups miss and simulate; the
    // 81 cells' 162 in-job lookups are all served from the cache.
    let n = g_par.benchmarks.len() as u64;
    let stats = par.baseline_stats();
    assert_eq!(stats.misses, n, "each solo baseline simulated exactly once");
    assert_eq!(stats.lookups, n + 2 * n * n);
    assert_eq!(stats.hits(), 2 * n * n);
}

/// Figures 1–7 data: cycles, full counter banks, and CSV bytes agree.
#[test]
fn characterize_mt_is_schedule_invariant() {
    let ctx = small();
    let (ser, par) = engines();
    let a = exp::characterize_mt_on(&ser, &[1, 2], &[false, true], &ctx);
    let b = exp::characterize_mt_on(&par, &[1, 2], &[false, true], &ctx);
    assert_eq!(a.len(), b.len());
    for (s, p) in a.iter().zip(&b) {
        assert_eq!((s.id, s.threads, s.ht), (p.id, p.threads, p.ht));
        assert_eq!(s.report.cycles, p.report.cycles, "{}", s.label());
        assert_eq!(
            s.report.bank,
            p.report.bank,
            "counter bank diverged for {}",
            s.label()
        );
    }
    assert_eq!(exp::csv_mt(&a).into_bytes(), exp::csv_mt(&b).into_bytes());
}

/// Figures 10 and 11: the single-threaded HT impact and self-pair
/// drivers agree, including the baseline cache path used by fig11.
#[test]
fn single_thread_drivers_are_schedule_invariant() {
    let ctx = small();
    let (ser, par) = engines();
    let a10 = exp::fig10_single_thread_impact_on(&ser, &ctx);
    let b10 = exp::fig10_single_thread_impact_on(&par, &ctx);
    assert_eq!(
        exp::csv_single(&a10).into_bytes(),
        exp::csv_single(&b10).into_bytes()
    );

    let a11 = exp::fig11_self_pairs_on(&ser, &ctx);
    let b11 = exp::fig11_self_pairs_on(&par, &ctx);
    assert_eq!(a11.len(), b11.len());
    for ((ia, ca), (ib, cb)) in a11.iter().zip(&b11) {
        assert_eq!(ia, ib);
        assert_eq!(
            ca.to_bits(),
            cb.to_bits(),
            "{ia:?} self-pair combined speedup"
        );
    }
}

/// Figure 12: the thread-count sweep agrees.
#[test]
fn fig12_is_schedule_invariant() {
    let ctx = small();
    let (ser, par) = engines();
    let a = exp::fig12_ipc_vs_threads_on(&ser, &[1, 2, 4], &ctx);
    let b = exp::fig12_ipc_vs_threads_on(&par, &[1, 2, 4], &ctx);
    assert_eq!(
        exp::csv_threads(&a).into_bytes(),
        exp::csv_threads(&b).into_bytes()
    );
}

/// All four ablation sweeps agree.
#[test]
fn ablations_are_schedule_invariant() {
    let ctx = small();
    let (ser, par) = engines();
    assert_eq!(
        exp::csv_partition(&exp::ablation_partition_on(&ser, &ctx)).into_bytes(),
        exp::csv_partition(&exp::ablation_partition_on(&par, &ctx)).into_bytes(),
    );
    assert_eq!(
        exp::csv_l1(&exp::ablation_l1_on(&ser, &[16, 64], &ctx)).into_bytes(),
        exp::csv_l1(&exp::ablation_l1_on(&par, &[16, 64], &ctx)).into_bytes(),
    );
    assert_eq!(
        exp::csv_prefetch(&exp::ablation_prefetch_on(&ser, &ctx)).into_bytes(),
        exp::csv_prefetch(&exp::ablation_prefetch_on(&par, &ctx)).into_bytes(),
    );
    assert_eq!(
        exp::csv_jit(&exp::ablation_jit_on(&ser, &ctx)).into_bytes(),
        exp::csv_jit(&exp::ablation_jit_on(&par, &ctx)).into_bytes(),
    );
}

/// The worker count is immaterial: Threads(2) and Threads(8) agree with
/// each other (and, transitively via the tests above, with Serial).
#[test]
fn results_are_invariant_across_worker_counts() {
    let ctx = small();
    let t2 = Engine::new(Parallelism::Threads(2));
    let t8 = Engine::new(Parallelism::Threads(8));
    assert_eq!(
        exp::csv_threads(&exp::fig12_ipc_vs_threads_on(&t2, &[1, 2], &ctx)).into_bytes(),
        exp::csv_threads(&exp::fig12_ipc_vs_threads_on(&t8, &[1, 2], &ctx)).into_bytes(),
    );
    assert_eq!(
        exp::csv_mt(&exp::characterize_mt_on(&t2, &[2], &[false, true], &ctx)).into_bytes(),
        exp::csv_mt(&exp::characterize_mt_on(&t8, &[2], &[false, true], &ctx)).into_bytes(),
    );
}

/// `JSMT_NO_FASTFWD=1` is the escape hatch that forces the plain
/// cycle-by-cycle loop in every core the engine spawns; the rendered CSV
/// bytes must not change. (The env var is only read at core construction
/// and both settings are bit-identical by contract, so the brief window
/// where the variable is set cannot corrupt concurrently running tests.)
#[test]
fn no_fastfwd_env_var_produces_identical_csv_bytes() {
    let ctx = small();
    // Fresh engines for each run so no per-engine memoization can serve
    // the second sweep without constructing new cores.
    let with_ff = exp::csv_mt(&exp::characterize_mt_on(
        &Engine::serial(),
        &[1, 2],
        &[true],
        &ctx,
    ))
    .into_bytes();

    std::env::set_var("JSMT_NO_FASTFWD", "1");
    let without_ff = exp::csv_mt(&exp::characterize_mt_on(
        &Engine::serial(),
        &[1, 2],
        &[true],
        &ctx,
    ))
    .into_bytes();
    std::env::remove_var("JSMT_NO_FASTFWD");

    assert_eq!(with_ff, without_ff, "fast-forward leaked into results");
}

/// The baseline cache is shared across drivers on one engine: a pairing
/// grid followed by fig11 never re-simulates a baseline, and re-running
/// the grid on the same engine adds lookups but zero misses.
#[test]
fn baselines_are_simulated_exactly_once_per_engine() {
    // Tiny scale: this test runs the 81-cell grid twice and only cares
    // about cache accounting, not simulated numbers.
    let ctx = ExperimentCtx {
        scale: 0.01,
        repeats: 1,
        seed: 0xA5,
    };
    let par = Engine::new(Parallelism::Threads(4));
    let g = exp::pair_matrix_on(&par, &ctx);
    let n = g.benchmarks.len() as u64;
    let after_grid = par.baseline_stats();
    assert_eq!(after_grid.misses, n);
    assert_eq!(after_grid.lookups, n + 2 * n * n);

    let _ = exp::fig11_self_pairs_on(&par, &ctx);
    let after_fig11 = par.baseline_stats();
    assert_eq!(
        after_fig11.misses, n,
        "fig11 must reuse the grid's baselines"
    );
    assert_eq!(after_fig11.lookups, after_grid.lookups + 2 * n);

    let _ = exp::pair_matrix_on(&par, &ctx);
    let after_rerun = par.baseline_stats();
    assert_eq!(
        after_rerun.misses, n,
        "re-running the grid must not re-simulate"
    );
    assert_eq!(after_rerun.lookups, after_fig11.lookups + n + 2 * n * n);
}
