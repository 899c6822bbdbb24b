//! The headline shapes of the paper's evaluation, asserted at smoke-test
//! scale. These are the claims EXPERIMENTS.md reports at full scale; the
//! assertions here are looser (small inputs are noisier) but directional.

use jsmt_core::experiments::{self as exp, ExperimentCtx};
use jsmt_core::{System, SystemConfig};
use jsmt_workloads::{BenchmarkId, WorkloadSpec};

fn ctx() -> ExperimentCtx {
    ExperimentCtx {
        scale: 0.05,
        repeats: 3,
        seed: 0x15_9A55,
    }
}

fn mt_ipc(id: BenchmarkId, ht: bool) -> f64 {
    let mut sys = System::new(SystemConfig::p4(ht).with_max_cycles(600_000_000));
    sys.add_process(WorkloadSpec::threaded(id, 2).with_scale(ctx().scale));
    sys.run_to_completion().metrics.ipc
}

/// Figure 1: Hyper-Threading improves multithreaded Java throughput.
#[test]
fn fig1_ht_improves_multithreaded_ipc() {
    for id in BenchmarkId::MULTITHREADED {
        let off = mt_ipc(id, false);
        let on = mt_ipc(id, true);
        assert!(
            on > off,
            "{id}: HT-on IPC {on:.3} must beat HT-off {off:.3}"
        );
    }
}

/// Figure 2: a large share of cycles retire nothing; HT reduces it.
#[test]
fn fig2_zero_retire_cycles_shrink_under_ht() {
    let run = |ht: bool| {
        let mut sys = System::new(SystemConfig::p4(ht).with_max_cycles(600_000_000));
        sys.add_process(WorkloadSpec::threaded(BenchmarkId::MolDyn, 2).with_scale(ctx().scale));
        sys.run_to_completion().metrics.retirement.retire0
    };
    let off = run(false);
    let on = run(true);
    assert!(
        off > 0.4,
        "zero-retire share should be large HT-off: {off:.2}"
    );
    assert!(
        on < off,
        "HT must reduce zero-retire cycles: {on:.2} vs {off:.2}"
    );
}

/// Figures 3–4: trace cache and L1D degrade under HT (contention).
#[test]
fn fig3_fig4_l1_structures_degrade_under_ht() {
    let run = |id: BenchmarkId, ht: bool| {
        let mut sys = System::new(SystemConfig::p4(ht).with_max_cycles(600_000_000));
        sys.add_process(WorkloadSpec::threaded(id, 2).with_scale(ctx().scale));
        let m = sys.run_to_completion().metrics;
        (m.tc_mpki, m.l1d_mpki)
    };
    let mut tc_worse = 0;
    let mut l1_worse = 0;
    for id in BenchmarkId::MULTITHREADED {
        let (tc_off, l1_off) = run(id, false);
        let (tc_on, l1_on) = run(id, true);
        if tc_on > tc_off {
            tc_worse += 1;
        }
        if l1_on > l1_off {
            l1_worse += 1;
        }
    }
    assert!(
        tc_worse >= 3,
        "trace cache should degrade for most benchmarks: {tc_worse}/4"
    );
    assert!(
        l1_worse >= 3,
        "L1D should degrade for most benchmarks: {l1_worse}/4"
    );
}

/// Figure 6: the partitioned ITLB degrades under HT.
#[test]
fn fig6_itlb_degrades_under_ht() {
    let run = |ht: bool| {
        let mut sys = System::new(SystemConfig::p4(ht).with_max_cycles(600_000_000));
        sys.add_process(WorkloadSpec::threaded(BenchmarkId::PseudoJbb, 2).with_scale(ctx().scale));
        sys.run_to_completion().metrics.itlb_mpki
    };
    assert!(
        run(true) > run(false),
        "PseudoJBB ITLB must degrade under HT"
    );
}

/// Figure 7: the thread-tagged BTB degrades under HT.
#[test]
fn fig7_btb_degrades_under_ht() {
    let run = |ht: bool| {
        let mut sys = System::new(SystemConfig::p4(ht).with_max_cycles(600_000_000));
        sys.add_process(WorkloadSpec::threaded(BenchmarkId::MonteCarlo, 2).with_scale(ctx().scale));
        sys.run_to_completion().metrics.btb_miss_ratio
    };
    assert!(run(true) > run(false), "BTB miss ratio must rise under HT");
}

/// Figure 10: single-threaded programs do not benefit from HT; most lose.
#[test]
fn fig10_single_threaded_programs_slow_down() {
    let picks = [
        BenchmarkId::Compress,
        BenchmarkId::Db,
        BenchmarkId::MonteCarlo,
    ];
    let mut slower = 0;
    for id in picks {
        let c = ctx();
        let run = |ht| {
            exp::Cell::once(c.machine(ht), c.workload(id, 1))
                .simulate()
                .cycles
        };
        let (off, on) = (run(false), run(true));
        if on > off {
            slower += 1;
        }
    }
    assert!(
        slower >= 2,
        "most single-threaded programs must slow down: {slower}/3"
    );
}

/// Figure 12: going from 1 to 2 threads raises IPC sharply; beyond 2 the
/// machine is saturated.
#[test]
fn fig12_two_threads_saturate_the_machine() {
    let c = ctx();
    let pts = exp::fig12_ipc_vs_threads_on(&exp::Engine::serial(), &[1, 2, 4], &c);
    for id in BenchmarkId::MULTITHREADED {
        let ipc = |t: usize| {
            pts.iter()
                .find(|p| p.id == id && p.threads == t)
                .map(|p| p.ipc)
                .unwrap()
        };
        assert!(ipc(2) > ipc(1) * 1.15, "{id}: 1→2 threads must jump");
        assert!(
            ipc(4) < ipc(2) * 1.25,
            "{id}: 2→4 threads must not jump again"
        );
    }
}

/// Extension ablation: the L2 streaming prefetcher must do its job at
/// quick scale — fewer L2 misses, and IPC at worst unchanged for most
/// of the multithreaded suite.
#[test]
fn ablation_prefetch_reduces_l2_misses() {
    let engine = exp::Engine::new(exp::Parallelism::Threads(4));
    let points = exp::ablation_prefetch_on(&engine, &ctx());
    assert_eq!(points.len(), BenchmarkId::MULTITHREADED.len());
    let fewer_misses = points
        .iter()
        .filter(|p| p.l2_mpki_on < p.l2_mpki_off)
        .count();
    let ipc_held = points
        .iter()
        .filter(|p| p.ipc_on >= p.ipc_off * 0.98)
        .count();
    assert!(
        fewer_misses >= 3,
        "prefetcher must cut L2 MPKI for most benchmarks: {fewer_misses}/{}",
        points.len()
    );
    assert!(
        ipc_held >= 3,
        "prefetcher must not tank IPC: held for {ipc_held}/{}",
        points.len()
    );
}

/// Extension ablation: the background JIT compiler thread actually
/// compiles, and moving compilation off the critical path never turns
/// into a free lunch — the sibling context it occupies and the longer
/// interpreted window cost cycles for most single-threaded programs.
#[test]
fn ablation_jit_background_compiler_is_visible() {
    let engine = exp::Engine::new(exp::Parallelism::Threads(4));
    let points = exp::ablation_jit_on(&engine, &ctx());
    assert_eq!(points.len(), BenchmarkId::SINGLE_THREADED.len());
    let compiled: u64 = points.iter().map(|p| p.compiles).sum();
    assert!(compiled > 0, "background compiler must compile something");
    let changed = points
        .iter()
        .filter(|p| p.cycles_background != p.cycles_instant)
        .count();
    assert!(
        changed >= 5,
        "background JIT must perturb most runs: {changed}/{}",
        points.len()
    );
}

/// The paper's concluding claim at quick scale: solo trace-cache MPKI
/// predicts pairing quality. On a 4-benchmark subgrid mixing friendly
/// (compress, mpegaudio) and hostile (jack, javac) programs, the
/// predictor's ranking must anti-correlate with measured combined
/// speedup.
#[test]
fn pairing_prediction_ranks_pairs_from_solo_profiles() {
    let c = ctx();
    let benchmarks = vec![
        BenchmarkId::Compress,
        BenchmarkId::Mpegaudio,
        BenchmarkId::Jack,
        BenchmarkId::Javac,
    ];
    let solos: Vec<u64> = benchmarks
        .iter()
        .map(|&b| exp::solo_baseline_cycles(b, &c))
        .collect();
    let outcomes: Vec<Vec<_>> = benchmarks
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            benchmarks
                .iter()
                .enumerate()
                .map(|(j, &b)| exp::run_pair(a, b, solos[i], solos[j], &c))
                .collect()
        })
        .collect();
    let grid = exp::PairGrid {
        benchmarks,
        outcomes,
    };
    let p = exp::pairing_prediction(&grid, &c);
    assert!(
        p.rank_corr < -0.2,
        "solo TC profiles must anti-correlate with combined speedup: rho={:.3}",
        p.rank_corr
    );
    assert!(
        p.worst_quartile_hit_rate >= 0.25,
        "predictor must find some of the worst pairs: hit rate {:.2}",
        p.worst_quartile_hit_rate
    );
}

/// §4.2: pairs involving the paper's bad partners (jack, javac, jess)
/// achieve lower *combined* speedups — the quantity Figures 8 and 9
/// plot — than pairs of well-behaved programs.
#[test]
fn pairing_bad_partner_effect() {
    let c = ExperimentCtx {
        scale: 0.08,
        repeats: 3,
        seed: 0x15_9A55,
    };
    let victim = BenchmarkId::Compress;
    let v_solo = exp::solo_baseline_cycles(victim, &c);
    let combined = |partner: BenchmarkId| {
        let p_solo = exp::solo_baseline_cycles(partner, &c);
        exp::run_pair(victim, partner, v_solo, p_solo, &c).combined
    };
    let friendly = combined(BenchmarkId::Mpegaudio);
    let bad_pairs = [
        combined(BenchmarkId::Jack),
        combined(BenchmarkId::Javac),
        combined(BenchmarkId::Jess),
    ];
    for (b, c_ab) in [BenchmarkId::Jack, BenchmarkId::Javac, BenchmarkId::Jess]
        .iter()
        .zip(bad_pairs)
    {
        assert!(
            c_ab < friendly,
            "pair with {b} (C={c_ab:.3}) must combine worse than with mpegaudio (C={friendly:.3})"
        );
    }
}
