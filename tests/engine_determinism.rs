//! The parallel experiment engine's core guarantee: results are a pure
//! function of the experiment inputs, never of the schedule. Every
//! driver must produce bit-identical output — structured fields,
//! counter banks, and rendered CSV bytes — under `Parallelism::Serial`
//! and any `Parallelism::Threads(n)`. And each distinct cell is
//! simulated exactly once per engine, however many artifacts read it.

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
/// rendered figures compared as bytes — and each engine simulates each
/// of the grid's 90 cells exactly once.
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

    // Exactly once: 9 solo cells, then 81 co-runs that take their
    // baselines from the first stage instead of requesting them again.
    let n = g_par.benchmarks.len() as u64;
    for engine in [&ser, &par] {
        let stats = engine.baseline_stats();
        assert_eq!(stats.lookups, n + n * n);
        assert_eq!(stats.misses, n + n * n, "each cell simulated exactly once");
    }
}

/// The characterization sequence of `repro all` (Table 2, Figure 1,
/// Figures 10 and 12 and the four ablations, with `repro`'s thread
/// counts and cache sizes) agrees byte for byte between a serial and a
/// four-thread engine: counter banks of the characterization points and
/// every CSV. Its 123 cell requests name 73 distinct cells, and each
/// engine simulates each once: Figure 1 repeats four of Table 2's cells,
/// Figure 12 eight of Table 2's and three of Figure 10's (MolDyn,
/// MonteCarlo and RayTracer alone on one thread), the partition
/// ablation 18 of Figure 10's, the L1 and prefetch ablations four each
/// of Figure 1's, and the JIT ablation nine of Figure 10's. Figure 11
/// then agrees too, including its baselines.
#[test]
fn characterization_sequence_is_schedule_invariant() {
    let ctx = small();
    let (ser, par) = engines();
    let sequence = |engine: &Engine| {
        let table2 = exp::characterize_mt_on(engine, &[2, 8], &[true], &ctx);
        let fig1 = exp::characterize_mt_on(engine, &[2], &[false, true], &ctx);
        let csvs = [
            exp::csv_mt(&table2),
            exp::csv_mt(&fig1),
            exp::csv_single(&exp::fig10_single_thread_impact_on(engine, &ctx)),
            exp::csv_threads(&exp::fig12_ipc_vs_threads_on(
                engine,
                &[1, 2, 4, 8, 16],
                &ctx,
            )),
            exp::csv_partition(&exp::ablation_partition_on(engine, &ctx)),
            exp::csv_l1(&exp::ablation_l1_on(engine, &[8, 16, 32, 64], &ctx)),
            exp::csv_prefetch(&exp::ablation_prefetch_on(engine, &ctx)),
            exp::csv_jit(&exp::ablation_jit_on(engine, &ctx)),
        ];
        let stats = engine.baseline_stats();
        let fig11 = exp::fig11_self_pairs_on(engine, &ctx);
        ([table2, fig1].concat(), csvs, stats, fig11)
    };
    let (a, b) = std::thread::scope(|s| {
        let serial = s.spawn(|| sequence(&ser));
        let b = sequence(&par);
        (serial.join().expect("serial sequence"), b)
    });

    let (points_a, csvs_a, stats_a, fig11_a) = a;
    let (points_b, csvs_b, stats_b, fig11_b) = b;
    assert_eq!(points_a.len(), points_b.len());
    for (s, p) in points_a.iter().zip(&points_b) {
        assert_eq!((s.id, s.threads, s.ht), (p.id, p.threads, p.ht));
        assert_eq!(s.report.cycles, p.report.cycles, "{}", s.label());
        assert_eq!(
            s.report.bank,
            p.report.bank,
            "counter bank diverged for {}",
            s.label()
        );
    }
    for (i, (s, p)) in csvs_a.iter().zip(&csvs_b).enumerate() {
        assert_eq!(s.as_bytes(), p.as_bytes(), "artifact {i} diverged");
    }
    for stats in [stats_a, stats_b] {
        assert_eq!(stats.lookups, 123, "cell requests of the sequence");
        assert_eq!(stats.misses, 73, "distinct cells, each simulated once");
    }

    assert_eq!(fig11_a.len(), fig11_b.len());
    for ((ia, ca), (ib, cb)) in fig11_a.iter().zip(&fig11_b) {
        assert_eq!(ia, ib);
        assert_eq!(
            ca.to_bits(),
            cb.to_bits(),
            "{ia:?} self-pair combined speedup"
        );
    }
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
/// drivers agree, including the cell memo path used by fig11.
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

/// The cell memo is shared across drivers on one engine: a pairing grid
/// simulates its 90 cells, Figure 11 after it simulates none (its
/// baselines and self co-runs are the grid's), and re-running the grid
/// on the same engine adds requests but no simulation.
#[test]
fn baselines_are_simulated_exactly_once_per_engine() {
    // Tiny scale: this test only cares about memo accounting, not
    // simulated numbers.
    let ctx = ExperimentCtx {
        scale: 0.01,
        repeats: 1,
        seed: 0xA5,
    };
    let par = Engine::new(Parallelism::Threads(4));
    let g = exp::pair_matrix_on(&par, &ctx);
    let n = g.benchmarks.len() as u64;
    let after_grid = par.baseline_stats();
    assert_eq!(after_grid.misses, n + n * n);
    assert_eq!(after_grid.lookups, n + n * n);

    let _ = exp::fig11_self_pairs_on(&par, &ctx);
    let after_fig11 = par.baseline_stats();
    assert_eq!(
        after_fig11.misses, after_grid.misses,
        "fig11 must reuse the grid's cells"
    );
    assert_eq!(after_fig11.lookups, after_grid.lookups + 2 * n);

    let _ = exp::pair_matrix_on(&par, &ctx);
    let after_rerun = par.baseline_stats();
    assert_eq!(
        after_rerun.misses, after_grid.misses,
        "re-running the grid must not re-simulate"
    );
    assert_eq!(after_rerun.lookups, after_fig11.lookups + n + n * n);
}
